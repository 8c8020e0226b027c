type mode = Enforce | Warn | Off

exception Rejected of Diagnostic.t list

let mode_name = function Enforce -> "enforce" | Warn -> "warn" | Off -> "off"

let log_src = Logs.Src.create "thistle.lint" ~doc:"Thistle static-analysis gate"

module Log = (val Logs.src_log log_src : Logs.LOG)

let log_all diags =
  List.iter (fun d -> Log.warn (fun m -> m "%a" Diagnostic.pp d)) diags

let gate mode diags =
  match mode with
  | Off -> ()
  | Warn -> log_all diags
  | Enforce -> (
    match Diagnostic.errors diags with
    | [] -> log_all diags
    | errs -> raise (Rejected errs))
