(* Order-preserving parallel map over the shared domain pool.  See
   par.mli for the determinism and exception contracts. *)

let default_jobs () = Domain.recommended_domain_count ()

let shared_lock = Mutex.create ()

let shared = ref None

let shared_pool ~jobs =
  Mutex.lock shared_lock;
  let pool =
    match !shared with
    | Some p -> p
    | None ->
      let p = Pool.create ~workers:0 in
      at_exit (fun () -> try Pool.shutdown p with _ -> ());
      shared := Some p;
      p
  in
  Mutex.unlock shared_lock;
  Pool.ensure_workers pool (jobs - 1);
  pool

type 'b slot =
  | Pending
  | Done of 'b
  | Raised of exn * Printexc.raw_backtrace

(* Counts items, not pool tasks: the value only depends on the workload,
   so it is identical for any [jobs] (see the Obs.Metrics determinism
   contract). *)
let m_tasks = Obs.Metrics.counter "exec.tasks"

let map ?pool ?jobs f xs =
  let jobs = match jobs with Some j -> j | None -> default_jobs () in
  let n = List.length xs in
  Obs.Metrics.add m_tasks n;
  if jobs <= 1 || n <= 1 || Pool.inside_worker () then List.map f xs
  else begin
    let pool = match pool with Some p -> p | None -> shared_pool ~jobs in
    let items = Array.of_list xs in
    let results = Array.make n Pending in
    let next = Atomic.make 0 in
    (* Lanes self-schedule over the item indices, so any subset of lanes
       actually running (even just the submitting domain) processes every
       item exactly once. *)
    let lane () =
      let rec go () =
        let i = Atomic.fetch_and_add next 1 in
        if i < n then begin
          results.(i) <-
            (match f items.(i) with
            | v -> Done v
            | exception e -> Raised (e, Printexc.get_raw_backtrace ()));
          go ()
        end
      in
      go ()
    in
    Pool.run pool (List.init (Int.min jobs n) (fun _ -> lane));
    (* Pool.run's lock hand-offs order every slot write before these
       reads.  Surface the lowest-index failure, as List.map would. *)
    Array.iter
      (function
        | Raised (e, bt) -> Printexc.raise_with_backtrace e bt
        | Pending | Done _ -> ())
      results;
    List.init n (fun i ->
        match results.(i) with
        | Done v -> v
        | Pending | Raised _ -> assert false)
  end
