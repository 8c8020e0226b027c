module Nest = Workload.Nest
module Mapping = Mapspace.Mapping
module Level = Mapspace.Level

type tensor_counts = {
  tensor : string;
  read_write : bool;
  fills : (int * float) list;
  copies : (int * float) list;
  copy_words : (int * float) list;
  footprints : (int * float) list;
}

type t = { macs : float; pes_used : int; per_tensor : tensor_counts list }

type counts = t

let canonical_error () = invalid_arg "Counts: mapping does not have the canonical levels"

module Kernel = struct
  (* Which computed results are current for the factors and
     permutations. *)
  type stage = Stale | Footprints | Fills

  (* One tensor over dim indices: each projection as parallel stride and
     dim arrays plus its constant [1 - sum stride], and which dims the
     tensor mentions. *)
  type tensor = {
    name : string;
    rw : bool;
    strides : int array array;
    dims : int array array;
    offsets : int array;
    mentions : bool array;
  }

  type t = {
    dim_names : string array;
    extents : int array;
    macs : float;
    tensors : tensor array;
    kinds : Level.kind array;  (* innermost first *)
    perms : int array array;  (* per level, inner to outer; [||] if spatial *)
    orders : int array array;
        (* per level: every dim, those the mapping lists first in listed
           order — a level's factors multiply in this order *)
    factors : int array array;  (* level x dim *)
    boundaries : int array;  (* temporal levels >= 1, ascending *)
    mutable stage : stage;
    (* Scratch the stages fill. *)
    cum : int array array;  (* level x dim: tile extent through the level *)
    products : float array;  (* temporal levels: float product of factors *)
    footprints : float array array;  (* tensor x boundary *)
    fills : float array array;
    copies : float array array;
    copy_words : float array array;
  }

  let find_dim dim_names name =
    let rec go i =
      if i = Array.length dim_names then None
      else if String.equal dim_names.(i) name then Some i
      else go (i + 1)
    in
    go 0

  let dim_index k name = find_dim k.dim_names name

  (* [Nest.make] checked that every iterator is declared. *)
  let compile_tensor dim_names (tensor : Nest.tensor) =
    let index name = Option.get (find_dim dim_names name) in
    let projs = Array.of_list tensor.Nest.projections in
    let strides = Array.map (fun p -> Array.of_list (List.map (fun i -> i.Nest.stride) p)) projs in
    {
      name = tensor.Nest.tensor_name;
      rw = tensor.Nest.read_write;
      strides;
      dims = Array.map (fun p -> Array.of_list (List.map (fun i -> index i.Nest.iter) p)) projs;
      offsets = Array.map (fun s -> 1 - Array.fold_left ( + ) 0 s) strides;
      mentions = Array.map (Nest.tensor_mentions tensor) dim_names;
    }

  let compile nest kinds =
    let dim_names = Array.of_list (Nest.dim_names nest) in
    let nd = Array.length dim_names in
    let kinds = Array.of_list kinds in
    let nl = Array.length kinds in
    let tensors = Array.of_list (List.map (compile_tensor dim_names) (Nest.tensors nest)) in
    let nt = Array.length tensors in
    let boundaries =
      Array.of_list
        (List.filter (fun l -> kinds.(l) = Level.Temporal) (List.init (Int.max 0 (nl - 1)) succ))
    in
    let nb = Array.length boundaries in
    let identity = Array.init nd Fun.id in
    let per_boundary () = Array.init nt (fun _ -> Array.make nb 0.0) in
    {
      dim_names;
      extents = Array.map (Nest.extent nest) dim_names;
      macs = Nest.ops nest;
      tensors;
      kinds;
      perms =
        Array.map
          (function
            | Level.Temporal -> Array.init nd (fun i -> nd - 1 - i)
            | Level.Spatial -> [||])
          kinds;
      orders = Array.make nl identity;
      factors = Array.init nl (fun _ -> Array.make nd 1);
      boundaries;
      stage = Stale;
      cum = Array.init nl (fun _ -> Array.make nd 1);
      products = Array.make nl 1.0;
      footprints = per_boundary ();
      fills = per_boundary ();
      copies = per_boundary ();
      copy_words = per_boundary ();
    }

  let set_factor k ~level ~dim f =
    k.factors.(level).(dim) <- f;
    k.stage <- Stale

  let set_perm k ~level perm =
    let nd = Array.length k.dim_names in
    let seen = Array.make nd false in
    let indices =
      List.filter_map
        (fun name ->
          match dim_index k name with
          | Some d when not seen.(d) ->
            seen.(d) <- true;
            Some d
          | Some _ | None -> None)
        perm
    in
    (* A permutation of the nest's dims, as [Mapping.validate] requires. *)
    if List.length perm = nd && List.length indices = nd then begin
      k.perms.(level) <- Array.of_list (List.rev indices);
      k.stage <- Stale;
      true
    end
    else false

  let of_mapping nest mapping =
    let levels = Mapping.levels mapping in
    let k = compile nest (List.map (fun (l : Mapping.level) -> l.Mapping.kind) levels) in
    let index name = Option.get (dim_index k name) in
    List.iteri
      (fun level (lvl : Mapping.level) ->
        List.iter (fun (d, f) -> set_factor k ~level ~dim:(index d) f) lvl.Mapping.factors;
        let listed = List.map (fun (d, _) -> index d) lvl.Mapping.factors in
        let rest =
          List.filter (fun d -> not (List.mem d listed)) (List.init (Array.length k.dim_names) Fun.id)
        in
        k.orders.(level) <- Array.of_list (listed @ rest);
        match lvl.Mapping.kind with
        | Level.Temporal -> ignore (set_perm k ~level lvl.Mapping.perm : bool)
        | Level.Spatial -> ())
      levels;
    k

  let valid_factors k =
    let nl = Array.length k.kinds in
    let rec dim_ok d =
      d = Array.length k.extents
      ||
      let product = ref 1 and positive = ref true in
      for l = 0 to nl - 1 do
        let f = k.factors.(l).(d) in
        if f < 1 then positive := false;
        product := !product * f
      done;
      !positive && !product = k.extents.(d) && dim_ok (d + 1)
    in
    dim_ok 0

  let spatial_size k =
    let size = ref 1 in
    for l = 0 to Array.length k.kinds - 1 do
      match k.kinds.(l) with
      | Level.Spatial ->
        let factors = k.factors.(l) in
        for d = 0 to Array.length factors - 1 do
          size := !size * factors.(d)
        done
      | Level.Temporal -> ()
    done;
    !size

  let macs k = k.macs

  (* Exact footprint of one tile: product over projections of
     [sum stride * ext(iter) - sum stride + 1], with the extents of
     [ext] except dim [hoist], whose extent is [hoist_ext]. *)
  let footprint tensor ext ~hoist ~hoist_ext =
    let acc = ref 1.0 in
    for p = 0 to Array.length tensor.dims - 1 do
      let strides = tensor.strides.(p) and dims = tensor.dims.(p) in
      let weighted = ref 0 in
      for i = 0 to Array.length dims - 1 do
        let d = dims.(i) in
        weighted := !weighted + (strides.(i) * if d = hoist then hoist_ext else ext.(d))
      done;
      acc := !acc *. float_of_int (!weighted + tensor.offsets.(p))
    done;
    !acc

  let footprints k =
    if k.stage = Stale then begin
      let nl = Array.length k.kinds in
      for d = 0 to Array.length k.dim_names - 1 do
        let acc = ref 1 in
        for l = 0 to nl - 1 do
          acc := !acc * k.factors.(l).(d);
          k.cum.(l).(d) <- !acc
        done
      done;
      for t = 0 to Array.length k.tensors - 1 do
        for b = 0 to Array.length k.boundaries - 1 do
          k.footprints.(t).(b) <-
            footprint k.tensors.(t) k.cum.(k.boundaries.(b) - 1) ~hoist:(-1) ~hoist_ext:0
        done
      done;
      k.stage <- Footprints
    end

  (* Words copied into the storage below boundary [b]'s temporal level
     for one tensor, across the whole execution (Algorithm 1 with
     concrete trip counts), plus the copy schedule's shape: how many
     copy executions happen and how many words each moves (identical
     across copies — the tile shape does not depend on the loop
     indices). *)
  let fill_shape k t b =
    let tensor = k.tensors.(t) in
    let level = k.boundaries.(b) in
    let factors = k.factors.(level) and perm = k.perms.(level) in
    (* Inner-to-outer walk over this level's permutation: the innermost
       present loop is hoisted into the copy, every loop outside it
       multiplies.  Loops with trip count 1 are not emitted in generated
       code, so they neither stop hoisting nor multiply the volume. *)
    let hoist = ref (-1) in
    let mult = ref 1.0 in
    for i = 0 to Array.length perm - 1 do
      let d = perm.(i) in
      let f = factors.(d) in
      if f > 1 then begin
        if !hoist >= 0 then mult := !mult *. float_of_int f
        else if tensor.mentions.(d) then hoist := d
      end
    done;
    let words =
      if !hoist < 0 then k.footprints.(t).(b)
      else
        footprint tensor k.cum.(level - 1) ~hoist:!hoist
          ~hoist_ext:k.cum.(level).(!hoist)
    in
    let volume = ref (words *. !mult) in
    let copies = ref !mult in
    (* Loops of every outer level multiply the volume; spatial levels only
       through dims present in the tensor (multicast / spatial
       reduction). *)
    for l = level + 1 to Array.length k.kinds - 1 do
      match k.kinds.(l) with
      | Level.Temporal ->
        volume := !volume *. k.products.(l);
        copies := !copies *. k.products.(l)
      | Level.Spatial ->
        let order = k.orders.(l) in
        for i = 0 to Array.length order - 1 do
          let d = order.(i) in
          if tensor.mentions.(d) then begin
            let f = float_of_int k.factors.(l).(d) in
            volume := !volume *. f;
            copies := !copies *. f
          end
        done
    done;
    k.fills.(t).(b) <- !volume;
    k.copies.(t).(b) <- !copies;
    k.copy_words.(t).(b) <- words

  let fills k =
    if k.stage <> Fills then begin
      footprints k;
      for l = 0 to Array.length k.kinds - 1 do
        match k.kinds.(l) with
        | Level.Temporal ->
          let order = k.orders.(l) and factors = k.factors.(l) in
          let product = ref 1.0 in
          for i = 0 to Array.length order - 1 do
            product := !product *. float_of_int factors.(order.(i))
          done;
          k.products.(l) <- !product
        | Level.Spatial -> ()
      done;
      for t = 0 to Array.length k.tensors - 1 do
        for b = 0 to Array.length k.boundaries - 1 do
          fill_shape k t b
        done
      done;
      k.stage <- Fills
    end

  let rank = function Stale -> 0 | Footprints -> 1 | Fills -> 2

  let boundary k ~after ~level =
    if rank k.stage < rank after then invalid_arg "Counts.Kernel: stage not run";
    let rec go b =
      if b = Array.length k.boundaries then canonical_error ()
      else if k.boundaries.(b) = level then b
      else go (b + 1)
    in
    go 0

  (* Per-boundary sums over tensors in nest order, read-write ones only
     under [rw_only]. *)
  let footprint_total k ~level =
    let b = boundary k ~after:Footprints ~level in
    let acc = ref 0.0 in
    for t = 0 to Array.length k.tensors - 1 do
      acc := !acc +. k.footprints.(t).(b)
    done;
    !acc

  let fill_total ?(rw_only = false) k ~level =
    let b = boundary k ~after:Fills ~level in
    let acc = ref 0.0 in
    for t = 0 to Array.length k.tensors - 1 do
      if not (rw_only && not k.tensors.(t).rw) then acc := !acc +. k.fills.(t).(b)
    done;
    !acc

  (* Burst count of one boundary's copy schedule: each copy moves a fixed
     number of words, quantized up to whole bursts ([ceil]).  The timed
     refsim derives the same number by walking the schedule copy by copy;
     both sides are exact integer-valued floats, so they agree
     bit-for-bit. *)
  let bursts ?(rw_only = false) k ~level ~burst_words =
    let b = boundary k ~after:Fills ~level in
    let acc = ref 0.0 in
    for t = 0 to Array.length k.tensors - 1 do
      if not (rw_only && not k.tensors.(t).rw) then
        acc := !acc +. (k.copies.(t).(b) *. Float.ceil (k.copy_words.(t).(b) /. burst_words))
    done;
    !acc

  let pack k : counts =
    if k.stage <> Fills then invalid_arg "Counts.Kernel: stage not run";
    let per_boundary row = Array.to_list (Array.mapi (fun b l -> (l, row.(b))) k.boundaries) in
    {
      macs = k.macs;
      pes_used = spatial_size k;
      per_tensor =
        Array.to_list
          (Array.mapi
             (fun t tensor ->
               {
                 tensor = tensor.name;
                 read_write = tensor.rw;
                 fills = per_boundary k.fills.(t);
                 copies = per_boundary k.copies.(t);
                 copy_words = per_boundary k.copy_words.(t);
                 footprints = per_boundary k.footprints.(t);
               })
             k.tensors);
    }
end

let compute nest mapping =
  match Mapping.validate nest mapping with
  | Error _ as e -> e
  | Ok () ->
    let k = Kernel.of_mapping nest mapping in
    Kernel.fills k;
    Ok (Kernel.pack k)

(* --- canonical accessors over the packed counts --- *)

let packed_total ?(rw_only = false) t ~level select =
  List.fold_left
    (fun acc tc ->
      if rw_only && not tc.read_write then acc
      else
        match List.assoc_opt level (select tc) with
        | Some v -> acc +. v
        | None -> canonical_error ())
    0.0 t.per_tensor

let sram_to_reg t = packed_total t ~level:Level.pe_temporal_level (fun tc -> tc.fills)

let reg_to_sram t =
  packed_total ~rw_only:true t ~level:Level.pe_temporal_level (fun tc -> tc.fills)

let dram_to_sram t = packed_total t ~level:Level.dram_temporal_level (fun tc -> tc.fills)

let sram_to_dram t =
  packed_total ~rw_only:true t ~level:Level.dram_temporal_level (fun tc -> tc.fills)

let reg_words_per_pe t =
  packed_total t ~level:Level.pe_temporal_level (fun tc -> tc.footprints)

let sram_words_used t =
  packed_total t ~level:Level.dram_temporal_level (fun tc -> tc.footprints)

let pp ppf t =
  Format.fprintf ppf "@[<v>macs=%g, PEs used=%d@," t.macs t.pes_used;
  List.iter
    (fun tc ->
      Format.fprintf ppf "%s%s:" tc.tensor (if tc.read_write then "(rw)" else "");
      List.iter (fun (l, v) -> Format.fprintf ppf " fill@L%d=%g" l v) tc.fills;
      List.iter (fun (l, v) -> Format.fprintf ppf " buf@L%d=%g" l v) tc.footprints;
      Format.fprintf ppf "@,")
    t.per_tensor;
  Format.fprintf ppf "@]"
