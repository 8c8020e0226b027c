(* Tests for the YAML emitter and the Timeloop-style spec documents: each
   compares the emitted bytes with the text a Timeloop reader is given. *)

module Y = Specs.Yaml
module T = Specs.Timeloop
module Mapping = Mapspace.Mapping
module Arch = Archspec.Arch

let tech = Archspec.Technology.table3

let check_emit what expected v = Alcotest.(check string) what expected (Y.emit v)

(* --- YAML --- *)

let test_scalars () =
  check_emit "null" "null\n" Y.Null;
  check_emit "bool" "true\n" (Y.Bool true);
  check_emit "int" "42\n" (Y.Int 42);
  check_emit "float" "2.5\n" (Y.Float 2.5);
  check_emit "string" "hello\n" (Y.String "hello")

let test_map_and_list () =
  check_emit "map with a list" "name: eyeriss\npes: 168\nlist:\n  - 1\n  - 2\n"
    (Y.Map
       [ ("name", Y.String "eyeriss"); ("pes", Y.Int 168); ("list", Y.List [ Y.Int 1; Y.Int 2 ]) ])

let test_inline_list_items () =
  (* Timeloop style: a map item's first key sits after the dash, the
     rest align with it; a map whose first value is not a scalar starts
     on the next line. *)
  check_emit "first key inline" "spaces:\n  - name: A\n    rw: false\n  - name: B\n"
    (Y.Map
       [
         ( "spaces",
           Y.List
             [
               Y.Map [ ("name", Y.String "A"); ("rw", Y.Bool false) ];
               Y.Map [ ("name", Y.String "B") ];
             ] );
       ]);
  check_emit "nested first value" "-\n  local:\n    - 1\n"
    (Y.List [ Y.Map [ ("local", Y.List [ Y.Int 1 ]) ] ])

let test_comments () =
  (* A reader takes a plain '#' as the start of a comment. *)
  check_emit "hash quoted" "a: \"x # y\"\nb: \"#x\"\n"
    (Y.Map [ ("a", Y.String "x # y"); ("b", Y.String "#x") ])

let test_nested_maps () =
  check_emit "nesting" "a:\n  b:\n    c: 3\n  d: 4\ne: 5\n"
    (Y.Map
       [
         ("a", Y.Map [ ("b", Y.Map [ ("c", Y.Int 3) ]); ("d", Y.Int 4) ]);
         ("e", Y.Int 5);
       ])

let test_quoted_specials () =
  check_emit "specials"
    "colon: \"x: y\"\ndash: \"-x\"\nlead: \" x\"\ntrail: \"x \"\nempty: \"\"\nrange: PE[0..15]\n"
    (Y.Map
       [
         ("colon", Y.String "x: y");
         ("dash", Y.String "-x");
         ("lead", Y.String " x");
         ("trail", Y.String "x ");
         ("empty", Y.String "");
         ("range", Y.String "PE[0..15]");
       ])

let test_list_of_lists () =
  check_emit "nested" "-\n  - 1\n  - 2\n-\n  - 3\n"
    (Y.List [ Y.List [ Y.Int 1; Y.Int 2 ]; Y.List [ Y.Int 3 ] ])

let test_empty_values () =
  check_emit "null and empty collections" "a: null\nb:\n  {}\nc:\n  []\n"
    (Y.Map [ ("a", Y.Null); ("b", Y.Map []); ("c", Y.List []) ])

let test_emit_quotes_ambiguous () =
  (* A string that would read as a number, bool, null or quoted scalar,
     or that holds ": ", is quoted. *)
  check_emit "ambiguous strings"
    "k: \"42\"\nf: \"2.5\"\nb: \"true\"\nn: \"~\"\nq: \"'x'\"\ns: \"has: colon\"\n"
    (Y.Map
       [
         ("k", Y.String "42");
         ("f", Y.String "2.5");
         ("b", Y.String "true");
         ("n", Y.String "~");
         ("q", Y.String "'x'");
         ("s", Y.String "has: colon");
       ])

let test_emit_quotes_yaml11_words () =
  (* Words a YAML 1.1 reader types as bools, nulls, special floats,
     dates, merge or value keys are quoted; one-letter dimension names
     stay plain. *)
  check_emit "yaml 1.1 words"
    "- \"yes\"\n- \"No\"\n- \"on\"\n- \"OFF\"\n- \"Null\"\n- \".inf\"\n- \".NaN\"\n\
     - \"2001-12-14\"\n- \"<<\"\n- \"=\"\n- n\n- y\n- yesterday\n- 2001x\n"
    (Y.List
       (List.map
          (fun s -> Y.String s)
          [
            "yes"; "No"; "on"; "OFF"; "Null"; ".inf"; ".NaN"; "2001-12-14"; "<<"; "="; "n"; "y";
            "yesterday"; "2001x";
          ]))

let test_emit_quotes_indicators () =
  (* A leading flow or indicator character is quoted; inside a string
     the same characters are plain. *)
  check_emit "leading indicators"
    "- \"[x]\"\n- \"{a}\"\n- \"&anchor\"\n- \"*alias\"\n- \"!tag\"\n- \"|x\"\n- \">x\"\n\
     - \"%x\"\n- \"@x\"\n- \"`x\"\n- \",x\"\n- \"?x\"\n- a[x]&*!|>%@`,?\n"
    (Y.List
       (List.map
          (fun s -> Y.String s)
          [
            "[x]"; "{a}"; "&anchor"; "*alias"; "!tag"; "|x"; ">x"; "%x"; "@x"; "`x"; ",x"; "?x";
            "a[x]&*!|>%@`,?";
          ]))

let test_emit_escapes () =
  (* Inside double quotes a quote and a backslash are escaped, and
     control characters are written as escapes. *)
  check_emit "escapes"
    "a: \"say \\\"hi\\\": now\"\nb: \"C:\\\\dir\"\nc: \"\\\"q\\\"\"\nd: \"x\\ny\\tz\\x01\"\n"
    (Y.Map
       [
         ("a", Y.String "say \"hi\": now");
         ("b", Y.String "C:\\dir");
         ("c", Y.String "\"q\"");
         ("d", Y.String "x\ny\tz\001");
       ])

(* --- Timeloop specs --- *)

let conv_nest =
  Workload.Conv.to_nest (Workload.Conv.make ~name:"conv" ~k:8 ~c:4 ~hw:8 ~rs:3 ~stride:2 ())

let test_problem_yaml () =
  (* Same padding: an 8x8 input at stride 2 gives a 4x4 output. *)
  check_emit "problem"
    "problem:\n\
    \  name: conv\n\
    \  dimensions:\n\
    \    - n\n\
    \    - k\n\
    \    - c\n\
    \    - r\n\
    \    - s\n\
    \    - h\n\
    \    - w\n\
    \  data-spaces:\n\
    \    - name: Out\n\
    \      projection:\n\
    \        - n\n\
    \        - k\n\
    \        - h\n\
    \        - w\n\
    \      read-write: true\n\
    \    - name: In\n\
    \      projection:\n\
    \        - n\n\
    \        - c\n\
    \        - 2*h+r\n\
    \        - 2*w+s\n\
    \      read-write: false\n\
    \    - name: Ker\n\
    \      projection:\n\
    \        - k\n\
    \        - c\n\
    \        - r\n\
    \        - s\n\
    \      read-write: false\n\
    \  instance:\n\
    \    n: 1\n\
    \    k: 8\n\
    \    c: 4\n\
    \    r: 3\n\
    \    s: 3\n\
    \    h: 4\n\
    \    w: 4\n"
    (T.problem_to_yaml conv_nest)

let sample_mapping =
  Mapping.canonical
    ~reg:([ ("r", 3); ("s", 3); ("h", 2) ], [ "n"; "k"; "c"; "r"; "s"; "h"; "w" ])
    ~pe:([ ("k", 4); ("c", 2) ], [ "k"; "c"; "n"; "r"; "s"; "h"; "w" ])
    ~spatial:[ ("c", 2); ("w", 4) ]
    ~dram:([ ("k", 2); ("h", 2) ], [ "h"; "k"; "n"; "c"; "r"; "s"; "w" ])

let test_mapping_yaml () =
  (* Outermost directive first; permutations innermost first. *)
  check_emit "mapping"
    "mapping:\n\
    \  - target: DRAM\n\
    \    type: temporal\n\
    \    factors: k=2 h=2\n\
    \    permutation: w s r c n k h\n\
    \  - target: SRAM\n\
    \    type: spatial\n\
    \    factors: c=2 w=4\n\
    \  - target: SRAM\n\
    \    type: temporal\n\
    \    factors: k=4 c=2\n\
    \    permutation: w h s r n c k\n\
    \  - target: RegisterFile\n\
    \    type: temporal\n\
    \    factors: r=3 s=3 h=2\n\
    \    permutation: w h s r c k n\n"
    (T.mapping_to_yaml sample_mapping)

let eyeriss_arch_yaml ~technology ~dram_bandwidth =
  Printf.sprintf
    "architecture:\n\
    \  version: A.3\n\
    \  name: eyeriss\n\
    \  technology: %s\n\
    \  subtree:\n\
    \    - name: system\n\
    \      local:\n\
    \        - name: DRAM\n\
    \          class: DRAM\n\
    \          attributes:\n\
    \            type: LPDDR4\n\
    \            word-bits: 16\n\
    \            read_bandwidth: %s\n\
    \            write_bandwidth: %s\n\
    \      subtree:\n\
    \        - name: Chip\n\
    \          local:\n\
    \            - name: SRAM\n\
    \              class: SRAM\n\
    \              attributes:\n\
    \                depth: 65536\n\
    \                word-bits: 16\n\
    \                read_bandwidth: 80\n\
    \                write_bandwidth: 80\n\
    \          subtree:\n\
    \            - name: PE[0..167]\n\
    \              local:\n\
    \                - name: RegisterFile\n\
    \                  class: regfile\n\
    \                  attributes:\n\
    \                    depth: 512\n\
    \                    word-bits: 16\n\
    \                - name: MACC\n\
    \                  class: intmac\n\
    \                  attributes:\n\
    \                    datawidth: 16\n"
    technology dram_bandwidth dram_bandwidth

let test_architecture_yaml () =
  check_emit "Table III" (eyeriss_arch_yaml ~technology:"45nm" ~dram_bandwidth:"8")
    (T.architecture_to_yaml ~node_nm:45.0 tech Arch.eyeriss);
  (* The node is the one the technology was scaled to; bandwidths do not
     scale. *)
  check_emit "16 nm" (eyeriss_arch_yaml ~technology:"16nm" ~dram_bandwidth:"8")
    (T.architecture_to_yaml ~node_nm:16.0
       (Archspec.Technology.scale_to_node tech ~node_nm:16.0)
       Arch.eyeriss)

(* Regression: fractional bandwidths (e.g. a 8.5-words/cycle technology
   point) used to be truncated through [int_of_float] on export, so the
   emitted Timeloop arch under-provisioned the link. *)
let test_architecture_fractional_bandwidth () =
  let tech = { tech with Archspec.Technology.dram_bandwidth = 8.5 } in
  check_emit "8.5 words/cycle" (eyeriss_arch_yaml ~technology:"45nm" ~dram_bandwidth:"8.5")
    (T.architecture_to_yaml ~node_nm:45.0 tech Arch.eyeriss)

let test_write_bundle () =
  let dir = Filename.temp_file "thistle" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  T.write_bundle ~dir ~node_nm:45.0 tech Arch.eyeriss conv_nest sample_mapping;
  let read f = In_channel.with_open_text (Filename.concat dir f) In_channel.input_all in
  Alcotest.(check (list string))
    "three files" [ "arch.yaml"; "mapping.yaml"; "problem.yaml" ]
    (List.sort String.compare (Array.to_list (Sys.readdir dir)));
  Alcotest.(check string) "problem.yaml" (Y.emit (T.problem_to_yaml conv_nest)) (read "problem.yaml");
  Alcotest.(check string)
    "mapping.yaml" (Y.emit (T.mapping_to_yaml sample_mapping)) (read "mapping.yaml");
  Alcotest.(check string)
    "arch.yaml"
    (eyeriss_arch_yaml ~technology:"45nm" ~dram_bandwidth:"8")
    (read "arch.yaml");
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  Sys.rmdir dir

let () =
  Alcotest.run "specs"
    [
      ( "yaml",
        [
          Alcotest.test_case "scalars" `Quick test_scalars;
          Alcotest.test_case "maps and lists" `Quick test_map_and_list;
          Alcotest.test_case "inline list items" `Quick test_inline_list_items;
          Alcotest.test_case "comments" `Quick test_comments;
          Alcotest.test_case "nesting" `Quick test_nested_maps;
          Alcotest.test_case "quoted specials" `Quick test_quoted_specials;
          Alcotest.test_case "list of lists" `Quick test_list_of_lists;
          Alcotest.test_case "empty value" `Quick test_empty_values;
          Alcotest.test_case "emit quotes ambiguous" `Quick test_emit_quotes_ambiguous;
          Alcotest.test_case "emit quotes yaml 1.1 words" `Quick test_emit_quotes_yaml11_words;
          Alcotest.test_case "emit quotes indicators" `Quick test_emit_quotes_indicators;
          Alcotest.test_case "emit escapes" `Quick test_emit_escapes;
        ] );
      ( "timeloop",
        [
          Alcotest.test_case "problem yaml" `Quick test_problem_yaml;
          Alcotest.test_case "mapping yaml" `Quick test_mapping_yaml;
          Alcotest.test_case "architecture yaml" `Quick test_architecture_yaml;
          Alcotest.test_case "fractional bandwidth preserved" `Quick
            test_architecture_fractional_bandwidth;
          Alcotest.test_case "write bundle" `Quick test_write_bundle;
        ] );
    ]
