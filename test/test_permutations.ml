(* Tests for permutation enumeration and the paper's pruning rules. *)

module Perm = Thistle.Permutations
module V = Thistle.Volume
module Nest = Workload.Nest

(* The reference enumeration: Algorithm 1 on every (pe_perm, dram_perm)
   pair, deduplicated by a string fingerprint of all volume expressions,
   with each kept choice's symmetric twins marked as seen.  It is the
   definition [Perm.enumerate] must reproduce choice for choice. *)

let fingerprint (t : V.t) =
  let volume_string v = Symexpr.Posynomial.to_string (V.volume_posynomial v) in
  String.concat "|"
    (List.map
       (fun tv ->
         Printf.sprintf "%s:%s;%s" tv.V.tensor
           (volume_string tv.V.sram_to_reg)
           (volume_string tv.V.dram_to_sram))
       t.V.per_tensor)

let rec permutations = function
  | [] -> [ [] ]
  | xs ->
    List.concat_map
      (fun x ->
        let rest = List.filter (fun y -> not (String.equal x y)) xs in
        List.map (fun p -> x :: p) (permutations rest))
      xs

let swap swaps d =
  match List.find_opt (fun (a, b) -> String.equal d a || String.equal d b) swaps with
  | Some (a, b) -> if String.equal d a then b else a
  | None -> d

let reference ?untiled ?symmetries ?(max_choices = max_int) nest =
  let untiled = Option.value untiled ~default:(Perm.stencil_dims nest) in
  let symmetries = Option.value symmetries ~default:(Perm.default_symmetries nest) in
  let tileable =
    List.filter
      (fun d -> Nest.extent nest d > 1 && not (List.mem d untiled))
      (Nest.dim_names nest)
  in
  let perms = permutations tileable in
  let analyze pe_perm dram_perm = V.analyze nest ~pe_perm ~dram_perm in
  let seen = Hashtbl.create 1024 in
  let kept = ref [] in
  List.iter
    (fun pe_perm ->
      List.iter
        (fun dram_perm ->
          if List.length !kept < max_choices then begin
            let vol = analyze pe_perm dram_perm in
            let fp = fingerprint vol in
            if not (Hashtbl.mem seen fp) then begin
              Hashtbl.replace seen fp ();
              List.iter
                (fun swaps ->
                  let twin =
                    analyze (List.map (swap swaps) pe_perm) (List.map (swap swaps) dram_perm)
                  in
                  Hashtbl.replace seen (fingerprint twin) ())
                symmetries;
              kept := ({ Perm.pe_perm; dram_perm }, vol) :: !kept
            end
          end)
        perms)
    perms;
  (List.rev !kept, List.length perms * List.length perms)

let matches_reference ?untiled ?symmetries ?max_choices nest =
  let choices, raw_count = reference ?untiled ?symmetries ?max_choices nest in
  let plan = Perm.enumerate ?untiled ?symmetries ?max_choices nest in
  plan.Perm.raw_count = raw_count && plan.Perm.choices = choices

let test_stencil_detection () =
  let conv = Workload.Conv.to_nest (Workload.Conv.make ~name:"c" ~k:8 ~c:8 ~hw:16 ~rs:3 ()) in
  Alcotest.(check (list string)) "conv windows" [ "r"; "s" ] (Perm.stencil_dims conv);
  let mm = Workload.Matmul.nest ~ni:8 ~nj:8 ~nk:8 () in
  Alcotest.(check (list string)) "matmul has none" [] (Perm.stencil_dims mm)

let test_symmetry_detection () =
  let conv = Workload.Conv.to_nest (Workload.Conv.make ~name:"c" ~k:8 ~c:8 ~hw:16 ~rs:3 ()) in
  let syms = Perm.default_symmetries conv in
  Alcotest.(check bool)
    "h<->w with r<->s detected" true
    (List.exists
       (fun swaps -> List.sort compare swaps = [ ("h", "w"); ("r", "s") ])
       syms);
  (* k and c have equal extents here, but swapping them changes the nest. *)
  Alcotest.(check bool)
    "no spurious c<->k" true
    (not (List.exists (fun swaps -> List.mem ("c", "k") swaps) syms))

let test_pinning () =
  let conv = Workload.Conv.to_nest (Workload.Conv.make ~name:"c" ~k:8 ~c:8 ~hw:16 ~rs:3 ()) in
  let plan = Perm.enumerate conv in
  Alcotest.(check (list string)) "tileable" [ "k"; "c"; "h"; "w" ] plan.Perm.tileable;
  (* Window dims pinned to the register level in full. *)
  Alcotest.(check (option (float 0.0))) "t0.r = 3" (Some 3.0) (Perm.pinned_env plan "t0.r");
  Alcotest.(check (option (float 0.0))) "t1.r = 1" (Some 1.0) (Perm.pinned_env plan "t1.r");
  Alcotest.(check (option (float 0.0))) "t3.s = 1" (Some 1.0) (Perm.pinned_env plan "t3.s");
  (* Batch dim n has extent 1: pinned everywhere. *)
  Alcotest.(check (option (float 0.0))) "t0.n = 1" (Some 1.0) (Perm.pinned_env plan "t0.n");
  Alcotest.(check (option (float 0.0))) "free vars absent" None (Perm.pinned_env plan "t0.k")

let test_pruning_counts () =
  let conv = Workload.Conv.to_nest (Workload.Conv.make ~name:"c" ~k:8 ~c:8 ~hw:16 ~rs:3 ()) in
  let plan = Perm.enumerate conv in
  let kept = List.length plan.Perm.choices in
  Alcotest.(check int) "raw = (4!)^2" 576 plan.Perm.raw_count;
  Alcotest.(check bool)
    (Printf.sprintf "pruning is substantial (kept %d)" kept)
    true
    (kept > 0 && kept < 100);
  (* Choices are unique by fingerprint. *)
  let fingerprints =
    List.map (fun (_, v) -> fingerprint v) plan.Perm.choices
  in
  Alcotest.(check int)
    "unique fingerprints" kept
    (List.length (List.sort_uniq String.compare fingerprints))

let test_untiled_override () =
  let conv = Workload.Conv.to_nest (Workload.Conv.make ~name:"c" ~k:8 ~c:8 ~hw:16 ~rs:3 ()) in
  let plan = Perm.enumerate ~untiled:[ "r"; "s"; "c" ] conv in
  Alcotest.(check (list string)) "tileable" [ "k"; "h"; "w" ] plan.Perm.tileable;
  (* Overridden untiled dim also lives at the register level. *)
  Alcotest.(check (option (float 0.0))) "t0.c = 8" (Some 8.0) (Perm.pinned_env plan "t0.c")

let test_max_choices () =
  let conv = Workload.Conv.to_nest (Workload.Conv.make ~name:"c" ~k:8 ~c:8 ~hw:16 ~rs:3 ()) in
  let plan = Perm.enumerate ~max_choices:5 conv in
  Alcotest.(check int) "capped" 5 (List.length plan.Perm.choices)

let test_matmul_enumeration () =
  let mm = Workload.Matmul.nest ~ni:16 ~nj:16 ~nk:16 () in
  let plan = Perm.enumerate mm in
  Alcotest.(check int) "raw = (3!)^2" 36 plan.Perm.raw_count;
  Alcotest.(check bool)
    "choices dedup" true
    (List.length plan.Perm.choices < 36 && List.length plan.Perm.choices > 0);
  (* All perms mention exactly the tileable dims. *)
  List.iter
    (fun (c, _) ->
      Alcotest.(check (list string))
        "pe perm dims" [ "i"; "j"; "k" ]
        (List.sort String.compare c.Perm.pe_perm))
    plan.Perm.choices

(* A conv nest whose output map is 8x6: no dim swap leaves it
   invariant, so nothing is pruned as a twin. *)
let rectangular_conv =
  let idx ?(stride = 1) iter = { Nest.stride; iter } in
  Nest.make ~name:"rect"
    ~dims:
      (List.map
         (fun (dim_name, extent) -> { Nest.dim_name; extent })
         [ ("k", 4); ("c", 3); ("r", 3); ("s", 3); ("h", 8); ("w", 6) ])
    ~tensors:
      [
        {
          Nest.tensor_name = "Out";
          projections = [ [ idx "k" ]; [ idx "h" ]; [ idx "w" ] ];
          read_write = true;
        };
        {
          Nest.tensor_name = "In";
          projections = [ [ idx "c" ]; [ idx "h"; idx "r" ]; [ idx "w"; idx "s" ] ];
          read_write = false;
        };
        {
          Nest.tensor_name = "Ker";
          projections = [ [ idx "k" ]; [ idx "c" ]; [ idx "r" ]; [ idx "s" ] ];
          read_write = false;
        };
      ]

let caps = [ Some 1; Some 2; Some 5; None ]

let check_reference ?untiled ?symmetries label nest =
  List.iter
    (fun max_choices ->
      Alcotest.(check bool)
        (Printf.sprintf "%s, max_choices %s" label
           (match max_choices with Some n -> string_of_int n | None -> "unbounded"))
        true
        (matches_reference ?untiled ?symmetries ?max_choices nest))
    caps

let test_reference_matmul () =
  check_reference "matmul" (Workload.Matmul.nest ~ni:16 ~nj:8 ~nk:4 ())

let test_reference_strided_conv () =
  check_reference "strided conv"
    (Workload.Conv.to_nest (Workload.Conv.make ~name:"s2" ~k:8 ~c:4 ~hw:16 ~rs:3 ~stride:2 ()))

let test_reference_asymmetric_conv () =
  Alcotest.(check int) "no symmetry" 0 (List.length (Perm.default_symmetries rectangular_conv));
  check_reference "8x6 conv" rectangular_conv

(* [c] is untiled, and the second symmetry maps the tileable [k] onto
   it, so those twins' permutations leave the tileable set. *)
let test_reference_overrides () =
  let conv = Workload.Conv.to_nest (Workload.Conv.make ~name:"c" ~k:8 ~c:8 ~hw:16 ~rs:3 ()) in
  check_reference ~untiled:[ "r"; "s"; "c" ]
    ~symmetries:[ [ ("h", "w"); ("r", "s") ]; [ ("k", "c") ] ]
    "untiled c, k<->c twin" conv;
  check_reference ~symmetries:[] "no symmetries" conv

let prop_reference_random_convs =
  let gen =
    QCheck2.Gen.(
      tup5 (int_range 1 12) (int_range 1 12) (int_range 1 12) (int_range 1 3)
        (pair (int_range 1 2) (oneofl caps)))
  in
  QCheck2.Test.make ~name:"enumerate = pairwise reference on random convs" ~count:25 gen
    (fun (k, c, hw, rs, (stride, max_choices)) ->
      matches_reference ?max_choices
        (Workload.Conv.to_nest (Workload.Conv.make ~name:"q" ~k ~c ~hw ~rs ~stride ())))

let () =
  Alcotest.run "permutations"
    [
      ( "pruning",
        [
          Alcotest.test_case "stencil detection" `Quick test_stencil_detection;
          Alcotest.test_case "symmetry detection" `Quick test_symmetry_detection;
          Alcotest.test_case "pinning" `Quick test_pinning;
          Alcotest.test_case "pruned counts" `Quick test_pruning_counts;
          Alcotest.test_case "untiled override" `Quick test_untiled_override;
          Alcotest.test_case "max choices" `Quick test_max_choices;
          Alcotest.test_case "matmul enumeration" `Quick test_matmul_enumeration;
        ] );
      ( "reference",
        [
          Alcotest.test_case "matmul" `Quick test_reference_matmul;
          Alcotest.test_case "strided conv" `Quick test_reference_strided_conv;
          Alcotest.test_case "asymmetric conv" `Quick test_reference_asymmetric_conv;
          Alcotest.test_case "untiled and symmetry overrides" `Quick test_reference_overrides;
          QCheck_alcotest.to_alcotest prop_reference_random_convs;
        ] );
    ]
