type counter = int Atomic.t

type gauge = float Atomic.t

let nbuckets = 63

type histogram = {
  h_count : int Atomic.t;
  h_sum : float Atomic.t;
  h_buckets : int Atomic.t array;  (* bucket i: samples in (2^(i-1), 2^i] *)
}

type metric = C of counter | G of gauge | H of histogram

let on = Atomic.make false

let enabled () = Atomic.get on

let enable () = Atomic.set on true

let disable () = Atomic.set on false

let registry : (string, metric) Hashtbl.t = Hashtbl.create 64

let registry_lock = Mutex.create ()

let register name make describe =
  Mutex.lock registry_lock;
  let m =
    match Hashtbl.find_opt registry name with
    | Some m -> m
    | None ->
      let m = make () in
      Hashtbl.replace registry name m;
      m
  in
  Mutex.unlock registry_lock;
  match describe m with
  | Some v -> v
  | None ->
    invalid_arg
      (Printf.sprintf "Obs.Metrics: %S is already registered as another metric kind" name)

let counter name =
  register name
    (fun () -> C (Atomic.make 0))
    (function C c -> Some c | G _ | H _ -> None)

let gauge name =
  register name
    (fun () -> G (Atomic.make neg_infinity))
    (function G g -> Some g | C _ | H _ -> None)

let histogram name =
  register name
    (fun () ->
      H
        {
          h_count = Atomic.make 0;
          h_sum = Atomic.make 0.0;
          h_buckets = Array.init nbuckets (fun _ -> Atomic.make 0);
        })
    (function H h -> Some h | C _ | G _ -> None)

let add c n = if Atomic.get on then ignore (Atomic.fetch_and_add c n)

let incr c = add c 1

let set g v = if Atomic.get on then Atomic.set g v

let rec max_merge g v =
  let cur = Atomic.get g in
  if v <= cur then ()
  else if Atomic.compare_and_set g cur v then ()
  else max_merge g v

let observe_max g v = if Atomic.get on then max_merge g v

let rec float_add a v =
  let cur = Atomic.get a in
  if Atomic.compare_and_set a cur (cur +. v) then () else float_add a v

let now_ns () = Unix.gettimeofday () *. 1e9

let bucket_index v =
  if not (v > 1.0) then 0
  else Int.min (nbuckets - 1) (int_of_float (Float.ceil (Float.log2 v)))

let observe h v =
  if Atomic.get on then begin
    ignore (Atomic.fetch_and_add h.h_count 1);
    float_add h.h_sum v;
    ignore (Atomic.fetch_and_add h.h_buckets.(bucket_index v) 1)
  end

let reset () =
  Mutex.lock registry_lock;
  Hashtbl.iter
    (fun _ m ->
      match m with
      | C c -> Atomic.set c 0
      | G g -> Atomic.set g neg_infinity
      | H h ->
        Atomic.set h.h_count 0;
        Atomic.set h.h_sum 0.0;
        Array.iter (fun b -> Atomic.set b 0) h.h_buckets)
    registry;
  Mutex.unlock registry_lock

type value =
  | Counter of int
  | Gauge of float
  | Histogram of { count : int; sum : float; buckets : (float * int) list }

let snapshot () =
  Mutex.lock registry_lock;
  let entries =
    Hashtbl.fold
      (fun name m acc ->
        let v =
          match m with
          | C c -> Counter (Atomic.get c)
          | G g ->
            let x = Atomic.get g in
            Gauge (if x = neg_infinity then 0.0 else x)
          | H h ->
            let buckets = ref [] in
            Array.iteri
              (fun i b ->
                let n = Atomic.get b in
                if n > 0 then buckets := (Float.pow 2.0 (float_of_int i), n) :: !buckets)
              h.h_buckets;
            Histogram
              {
                count = Atomic.get h.h_count;
                sum = Atomic.get h.h_sum;
                buckets = List.rev !buckets;
              }
        in
        (name, v) :: acc)
      registry []
  in
  Mutex.unlock registry_lock;
  List.sort (fun (a, _) (b, _) -> String.compare a b) entries

let counters dump =
  List.filter_map (function name, Counter n -> Some (name, n) | _ -> None) dump

let to_json dump =
  let section pick render =
    Json.obj
      (List.filter_map
         (fun (name, v) -> Option.map (fun payload -> Json.field name (render payload)) (pick v))
         dump)
  in
  Json.(
    to_string
      (obj
         [
           field "counters" (section (function Counter n -> Some n | _ -> None) int);
           field "gauges" (section (function Gauge x -> Some x | _ -> None) float);
           field "histograms"
             (section
                (function
                  | Histogram { count; sum; buckets } -> Some (count, sum, buckets)
                  | _ -> None)
                (fun (count, sum, buckets) ->
                  obj
                    [
                      field "count" (int count);
                      field "sum" (float sum);
                      field "buckets"
                        (obj
                           (List.map
                              (fun (bound, n) -> field (Printf.sprintf "%.0f" bound) (int n))
                              buckets));
                    ]));
         ]))
