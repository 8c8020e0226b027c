type fate =
  | Solved of Gp.Solver.solution
  | Quarantined of Robust.failure
  | Pruned of Analysis.Presolve.proof

type entry = {
  pair : int;
  fingerprint : string;
  provenance : string;
  fate : fate;
  stats : Gp.Solver.stats;
  retries : int;
  deadline_hits : int;
}

(* v2 added the [Pruned] fate (presolve infeasibility proofs).  v1
   journals no longer decode: a presolve-capable binary would otherwise
   replay pre-presolve entries whose fingerprints happen to match. *)
let version = 2

let fingerprint ~config ~problem_key =
  Printf.sprintf "%016Lx" (Robust.hash64 (config ^ "\x00" ^ problem_key))

let status_name = function
  | Gp.Solver.Optimal -> "optimal"
  | Gp.Solver.Infeasible -> "infeasible"
  | Gp.Solver.Iteration_limit -> "iteration_limit"
  | Gp.Solver.Deadline_exceeded -> "deadline_exceeded"

let status_of = function
  | "optimal" -> Gp.Solver.Optimal
  | "infeasible" -> Gp.Solver.Infeasible
  | "iteration_limit" -> Gp.Solver.Iteration_limit
  | "deadline_exceeded" -> Gp.Solver.Deadline_exceeded
  | s -> failwith (Printf.sprintf "unknown solver status %S" s)

let kind_name = function
  | Analysis.Presolve.Ineq_low -> "ineq_low"
  | Analysis.Presolve.Eq_low -> "eq_low"
  | Analysis.Presolve.Eq_high -> "eq_high"

let kind_of = function
  | "ineq_low" -> Analysis.Presolve.Ineq_low
  | "eq_low" -> Analysis.Presolve.Eq_low
  | "eq_high" -> Analysis.Presolve.Eq_high
  | s -> failwith (Printf.sprintf "unknown culprit kind %S" s)

let side_name = function Analysis.Presolve.Lo -> "lo" | Analysis.Presolve.Hi -> "hi"

let side_of = function
  | "lo" -> Analysis.Presolve.Lo
  | "hi" -> Analysis.Presolve.Hi
  | s -> failwith (Printf.sprintf "unknown bound side %S" s)

(* ------------------------------------------------------------------ *)
(* Encoding (via the Obs.Json writer)                                 *)
(* ------------------------------------------------------------------ *)

let encode (e : entry) =
  let open Obs.Json in
  let stats =
    let s = e.stats in
    obj
      [
        field "p1" (int s.Gp.Solver.phase1_outer);
        field "p2" (int s.Gp.Solver.phase2_outer);
        field "newton" (int s.Gp.Solver.newton_iters);
        field "backtracks" (int s.Gp.Solver.backtracks);
        field "kkt" (int s.Gp.Solver.kkt_regularizations);
        field "chol" (int s.Gp.Solver.cholesky_fallbacks);
        field "dh" (int s.Gp.Solver.deadline_hits);
        field "gap" (str (bits s.Gp.Solver.duality_gap));
      ]
  in
  let fate =
    match e.fate with
    | Solved sol ->
      field "ok"
        (obj
           [
             field "status" (str (status_name sol.Gp.Solver.status));
             field "objective" (str (bits sol.Gp.Solver.objective));
             field "values"
               (arr
                  (List.map
                     (fun (name, v) -> arr [ str name; str (bits v) ])
                     sol.Gp.Solver.values));
           ])
    | Quarantined f ->
      field "err"
        (obj
           [
             field "site" (str f.Robust.site);
             field "prov" (str f.Robust.provenance);
             field "exn" (str f.Robust.exn);
             field "backtrace" (str f.Robust.backtrace);
             field "elapsed" (str (bits f.Robust.elapsed_ns));
             field "attempts" (int f.Robust.attempts);
           ])
    | Pruned proof ->
      field "pruned"
        (obj
           [
             field "culprit" (str proof.Analysis.Presolve.culprit);
             field "kind" (str (kind_name proof.Analysis.Presolve.kind));
             field "bound" (str (bits proof.Analysis.Presolve.bound));
             field "steps"
               (arr
                  (List.map
                     (fun (s : Analysis.Presolve.step) ->
                       arr
                         [
                           str s.Analysis.Presolve.var;
                           str (side_name s.Analysis.Presolve.side);
                           str (bits s.Analysis.Presolve.bound);
                           str s.Analysis.Presolve.via;
                         ])
                     proof.Analysis.Presolve.steps));
           ])
  in
  obj
    [
      field "v" (int version);
      field "pair" (int e.pair);
      field "fp" (str e.fingerprint);
      field "prov" (str e.provenance);
      field "retries" (int e.retries);
      field "dh" (int e.deadline_hits);
      fate;
      field "stats" stats;
    ]
  |> to_string

(* ------------------------------------------------------------------ *)
(* Decoding — via the shared Obs.Json subset parser (objects, arrays, *)
(* strings, signed integers), exactly what [encode] emits.            *)
(* ------------------------------------------------------------------ *)

let decode line =
  let open Obs.Json in
  match parse line with
  | Error m -> Error ("journal: " ^ m)
  | Ok v -> (
    try
      let f = fields v in
      if int_of (find f "v") <> version then failwith "journal version mismatch";
      let stats_f = fields (find f "stats") in
      let stats : Gp.Solver.stats =
        {
          Gp.Solver.phase1_outer = int_of (find stats_f "p1");
          phase2_outer = int_of (find stats_f "p2");
          newton_iters = int_of (find stats_f "newton");
          backtracks = int_of (find stats_f "backtracks");
          kkt_regularizations = int_of (find stats_f "kkt");
          cholesky_fallbacks = int_of (find stats_f "chol");
          deadline_hits = int_of (find stats_f "dh");
          duality_gap = float_of (find stats_f "gap");
        }
      in
      let fate =
        match
          ( List.assoc_opt "ok" f,
            List.assoc_opt "err" f,
            List.assoc_opt "pruned" f )
        with
        | Some ok, None, None ->
          let ok_f = fields ok in
          let values =
            match find ok_f "values" with
            | Arr vs ->
              List.map
                (function
                  | Arr [ name; v ] -> (str_of name, float_of v)
                  | _ -> failwith "malformed values pair")
                vs
            | _ -> failwith "values is not an array"
          in
          Solved
            {
              Gp.Solver.status = status_of (str_of (find ok_f "status"));
              objective = float_of (find ok_f "objective");
              values;
            }
        | None, Some err, None ->
          let err_f = fields err in
          Quarantined
            {
              Robust.site = str_of (find err_f "site");
              provenance = str_of (find err_f "prov");
              exn = str_of (find err_f "exn");
              backtrace = str_of (find err_f "backtrace");
              elapsed_ns = float_of (find err_f "elapsed");
              attempts = int_of (find err_f "attempts");
            }
        | None, None, Some pruned ->
          let pr_f = fields pruned in
          let steps =
            match find pr_f "steps" with
            | Arr vs ->
              List.map
                (function
                  | Arr [ var; side; bound; via ] ->
                    {
                      Analysis.Presolve.var = str_of var;
                      side = side_of (str_of side);
                      bound = float_of bound;
                      via = str_of via;
                    }
                  | _ -> failwith "malformed proof step")
                vs
            | _ -> failwith "steps is not an array"
          in
          Pruned
            {
              Analysis.Presolve.steps;
              culprit = str_of (find pr_f "culprit");
              kind = kind_of (str_of (find pr_f "kind"));
              bound = float_of (find pr_f "bound");
            }
        | _ -> failwith "entry carries none or several of ok/err/pruned"
      in
      Ok
        {
          pair = int_of (find f "pair");
          fingerprint = str_of (find f "fp");
          provenance = str_of (find f "prov");
          fate;
          stats;
          retries = int_of (find f "retries");
          deadline_hits = int_of (find f "dh");
        }
    with Failure m -> Error ("journal: " ^ m))

let append_line oc e =
  output_string oc (encode e);
  output_char oc '\n';
  flush oc

let load path =
  match open_in path with
  | exception Sys_error m -> Error m
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let entries = ref [] in
        (try
           while true do
             let line = input_line ic in
             if String.trim line <> "" then
               match decode line with
               | Ok e -> entries := e :: !entries
               | Error _ -> () (* torn tail of a killed run, or foreign line *)
           done
         with End_of_file -> ());
        Ok (List.rev !entries))

let load_existing path = if Sys.file_exists path then load path else Ok []

let compact entries =
  let tbl = Hashtbl.create 256 in
  List.iter (fun e -> Hashtbl.replace tbl e.pair e) entries;
  let kept = Hashtbl.fold (fun _ e acc -> e :: acc) tbl [] in
  List.sort (fun a b -> Int.compare a.pair b.pair) kept

let write_file path entries =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      List.iter
        (fun e ->
          output_string oc (encode e);
          output_char oc '\n')
        entries)
