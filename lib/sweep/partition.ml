(** A slice of a sweep's (choice x placement) work-list.

    Sweeps are not sharded (DESIGN §12): {!Thistle.Optimize.run} refuses
    any partition but {!full}.  The type stays for the [shard] config
    field perfbench's stage replay checks, and goes with that replay. *)
type t = {
  index : int;  (** 1-based shard number, [1 <= index <= count] *)
  count : int;  (** total number of shards, [>= 1] *)
}

(** The trivial partition [1/1]: every choice selected. *)
let full = { index = 1; count = 1 }
