type event = {
  id : int;
  parent : int option;
  name : string;
  domain : int;
  ts_ns : int64;
  dur_ns : int64;
  attrs : (string * string) list;
}

let on = Atomic.make false

let enabled () = Atomic.get on

let next_id = Atomic.make 1

(* Events are appended under [lock]; span bodies never hold it. *)
let lock = Mutex.create ()

let collected : event list ref = ref []

let epoch_ns = Atomic.make 0L

let now_ns () = Int64.of_float (Unix.gettimeofday () *. 1e9)

(* Stack of open span ids on the current domain, innermost first. *)
let open_spans : int list ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref [])

let start () =
  Mutex.lock lock;
  collected := [];
  Mutex.unlock lock;
  Atomic.set epoch_ns (now_ns ());
  Atomic.set on true

let stop () = Atomic.set on false

let events () =
  Mutex.lock lock;
  let evs = !collected in
  Mutex.unlock lock;
  List.rev evs

let record ev =
  Mutex.lock lock;
  collected := ev :: !collected;
  Mutex.unlock lock

let span ?(attrs = []) name f =
  if not (Atomic.get on) then f ()
  else begin
    let stack = Domain.DLS.get open_spans in
    let id = Atomic.fetch_and_add next_id 1 in
    let parent = match !stack with [] -> None | p :: _ -> Some p in
    stack := id :: !stack;
    let t0 = now_ns () in
    let finish () =
      let t1 = now_ns () in
      (match !stack with
      | s :: rest when s = id -> stack := rest
      | _ -> () (* unbalanced pop: a nested span escaped; leave the stack *));
      record
        {
          id;
          parent;
          name;
          domain = (Domain.self () :> int);
          ts_ns = Int64.sub t0 (Atomic.get epoch_ns);
          dur_ns = Int64.sub t1 t0;
          attrs;
        }
    in
    Fun.protect ~finally:finish f
  end

let to_jsonl ev =
  let raw s b = Buffer.add_string b s in
  Json.(
    to_string
      (obj
         [
           field "type" (str "span");
           field "name" (str ev.name);
           field "id" (int ev.id);
           field "parent" (match ev.parent with None -> raw "null" | Some p -> int p);
           field "domain" (int ev.domain);
           field "ts_ns" (raw (Int64.to_string ev.ts_ns));
           field "dur_ns" (raw (Int64.to_string ev.dur_ns));
           field "attrs" (obj (List.map (fun (k, v) -> field k (str v)) ev.attrs));
         ]))

let export oc =
  List.iter
    (fun ev ->
      output_string oc (to_jsonl ev);
      output_char oc '\n')
    (events ())
