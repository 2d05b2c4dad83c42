open Ansor_te
open Ansor_sched

type t = {
  name : string;
  condition : State.t -> int -> bool;
  apply : State.t -> int -> (State.t * int) list;
  exclusive : bool;
}

let multilevel_space_parts = 4
let multilevel_reduce_parts = 2

(* Tiling structure parameters; the defaults give the paper's CPU
   "SSRSRS" structure, the limited variant emulates manual-template
   spaces (two space levels, one bound fusion level, as in typical
   AutoTVM templates). *)
type tiling = { space_parts : int; reduce_parts : int; bind_levels : int }

let default_tiling =
  {
    space_parts = multilevel_space_parts;
    reduce_parts = multilevel_reduce_parts;
    bind_levels = 2;
  }

let limited_tiling = { space_parts = 2; reduce_parts = 2; bind_levels = 1 }

let op_at (st : State.t) i = Dag.op st.dag i
let name_at st i = Op.name (op_at st i)

let is_compute st i =
  match op_at st i with Op.Compute _ -> true | Op.Placeholder _ -> false

(* Strictly inlinable in the current state: elementwise and not an
   output. *)
let inlinable (st : State.t) i =
  Dag.is_strict_inlinable st.dag i && not (Dag.is_output st.dag i)

let rec effective_consumer (st : State.t) i =
  match Dag.fusible_consumer st.dag i with
  | None -> None
  | Some j ->
    let sj = State.find_stage st (name_at st j) in
    if sj.loc = State.Loc_inlined then effective_consumer st j else Some j

(* Loop-level pattern of the multi-level tiling: which (space|reduce)
   tile level goes at each position, outermost first. *)
let order_pattern ~space_parts ~reduce_parts =
  if space_parts <= 2 then
    (if space_parts >= 1 then [ `S 0 ] else [])
    @ List.init reduce_parts (fun r -> `R r)
    @ (if space_parts >= 2 then [ `S 1 ] else [])
  else
    [ `S 0; `S 1 ]
    @ List.concat
        (List.init
           (max reduce_parts (space_parts - 2))
           (fun i ->
             (if i < reduce_parts then [ `R i ] else [])
             @ if 2 + i < space_parts then [ `S (2 + i) ] else []))

(* Splits every space axis of [stage] into [space_parts] parts and every
   reduction axis into [reduce_parts], then reorders following
   {!order_pattern}.  Tile sizes are placeholders ([tbd]).  Returns the
   new state plus the per-axis child iterator ids. *)
let multilevel_tile ~(tiling : tiling) (st : State.t) stage_name =
  let stage0 = State.find_stage st stage_name in
  (match stage0.op with
  | Op.Compute _ -> ()
  | Op.Placeholder _ -> invalid_arg "multilevel_tile: placeholder");
  (* operate on the current leaves, so user rules may pre-transform the
     stage (fuse axes, etc.) before the generic tiling runs *)
  let leaves_of_kind kind =
    List.filter (fun id -> stage0.ivars.(id).State.kind = kind) stage0.leaves
  in
  let split_axes st leaves parts =
    List.fold_left
      (fun (st, acc) iv ->
        let stage = State.find_stage st stage_name in
        let base = Array.length stage.ivars in
        let extent = stage.ivars.(iv).State.extent in
        let lengths = extent :: List.init (parts - 1) (fun _ -> 1) in
        let st =
          State.apply st
            (Step.Split { stage = stage_name; iv; lengths; tbd = true })
        in
        (st, acc @ [ List.init parts (fun l -> base + l) ]))
      (st, []) leaves
  in
  let st, space_children =
    split_axes st (leaves_of_kind State.Space) tiling.space_parts
  in
  let st, reduce_children =
    split_axes st (leaves_of_kind State.Reduce) tiling.reduce_parts
  in
  let level ch l = List.map (fun c -> List.nth c l) ch in
  let order =
    List.concat_map
      (function
        | `S l -> level space_children l
        | `R l -> level reduce_children l)
      (order_pattern ~space_parts:tiling.space_parts
         ~reduce_parts:tiling.reduce_parts)
  in
  let st = State.apply st (Step.Reorder { stage = stage_name; order }) in
  (st, space_children, reduce_children)

(* Tile the consumer into [bind_levels + 1] space levels whose outer
   levels match the producer's outer space tiles, and attach the producer
   at the innermost bound level. *)
let tile_and_fuse ~(tiling : tiling) st i j =
  let s_name = name_at st i and t_name = name_at st j in
  let st, s_space, _ = multilevel_tile ~tiling st s_name in
  let tstage = State.find_stage st t_name in
  let naxes =
    match tstage.op with
    | Op.Compute c -> List.length c.axes
    | Op.Placeholder _ -> assert false
  in
  let parts = tiling.bind_levels + 1 in
  let tbase = Array.length tstage.ivars in
  let t_children =
    List.init naxes (fun ax -> List.init parts (fun l -> tbase + (parts * ax) + l))
  in
  let st =
    List.fold_left
      (fun st ax ->
        let extent = (State.find_stage st t_name).ivars.(ax).State.extent in
        State.apply st
          (Step.Split
             {
               stage = t_name;
               iv = ax;
               lengths = extent :: List.init (parts - 1) (fun _ -> 1);
               tbd = true;
             }))
      st
      (List.init naxes Fun.id)
  in
  let level l = List.map (fun ch -> List.nth ch l) t_children in
  let st =
    State.apply st
      (Step.Reorder
         { stage = t_name; order = List.concat (List.init parts level) })
  in
  let bindings =
    List.concat
      (List.map2
         (fun s_ch t_ch ->
           List.init tiling.bind_levels (fun l ->
               (List.nth s_ch l, List.nth t_ch l)))
         s_space t_children)
  in
  let target_iv =
    List.nth (List.nth t_children (naxes - 1)) (tiling.bind_levels - 1)
  in
  State.apply st
    (Step.Compute_at { stage = s_name; target = t_name; target_iv; bindings })

let skip =
  {
    name = "skip";
    condition =
      (fun st i ->
        (not (inlinable st i)) && not (Dag.has_data_reuse st.State.dag i));
    apply = (fun st i -> [ (st, i - 1) ]);
    exclusive = false;
  }

let always_inline =
  {
    name = "always-inline";
    condition = (fun st i -> is_compute st i && inlinable st i);
    apply =
      (fun st i ->
        let st =
          State.apply st (Step.Compute_inline { stage = name_at st i })
        in
        [ (st, i - 1) ]);
    exclusive = true;
  }

let multi_level_tiling_t tiling =
  {
    name = "multi-level-tiling";
    condition =
      (fun st i ->
        Dag.has_data_reuse st.State.dag i && effective_consumer st i = None);
    apply =
      (fun st i ->
        let st, _, _ = multilevel_tile ~tiling st (name_at st i) in
        [ (st, i - 1) ]);
    exclusive = false;
  }

let multi_level_tiling_with_fusion_t tiling =
  {
    name = "multi-level-tiling-with-fusion";
    condition =
      (fun st i ->
        Dag.has_data_reuse st.State.dag i
        && effective_consumer st i <> None
        (* matched tiling requires the untransformed axis structure on
           both sides *)
        && State.is_pristine (State.find_stage st (name_at st i)));
    apply =
      (fun st i ->
        match effective_consumer st i with
        | Some j -> [ (tile_and_fuse ~tiling st i j, i - 1) ]
        | None -> []);
    exclusive = true;
  }

(* A no-fusion rule for data-reuse nodes that do have a fusible consumer:
   used by the FlexTensor-like baseline, whose single-operator templates
   cannot fuse across nodes. *)
let multi_level_tiling_no_fusion_t tiling =
  {
    name = "multi-level-tiling-no-fusion";
    condition = (fun st i -> Dag.has_data_reuse st.State.dag i);
    apply =
      (fun st i ->
        let st, _, _ = multilevel_tile ~tiling st (name_at st i) in
        [ (st, i - 1) ]);
    exclusive = true;
  }

let add_cache_stage =
  {
    name = "add-cache-stage";
    condition =
      (fun st i ->
        Dag.has_data_reuse st.State.dag i
        && effective_consumer st i = None
        && Dag.is_output st.State.dag i
        && State.is_pristine (State.find_stage st (name_at st i)));
    apply =
      (fun st i ->
        let st = State.apply st (Step.Cache_write { stage = name_at st i }) in
        (* the compute moved to <name>.local at index i; re-visit so the
           fusion rule attaches it into the copy (paper: i' = i) *)
        [ (st, i + 1) ]);
    exclusive = false;
  }

let reduction_factorization =
  {
    name = "reduction-factorization";
    condition =
      (fun st i ->
        Dag.has_more_reduction_parallel st.State.dag i
        && State.is_pristine (State.find_stage st (name_at st i)));
    apply =
      (fun st i ->
        match op_at st i with
        | Op.Compute c when c.reduce_axes <> [] ->
          (* factorize the longest reduction axis *)
          let stage = State.find_stage st (name_at st i) in
          let _, best =
            Array.fold_left
              (fun (id, best) (iv : State.ivar_info) ->
                match best with
                | Some (_, e) when e >= iv.extent -> (id + 1, best)
                | _ when iv.kind = State.Reduce -> (id + 1, Some (id, iv.extent))
                | _ -> (id + 1, best))
              (0, None) stage.ivars
          in
          (match best with
          | Some (iv, extent) ->
            let st =
              State.apply st
                (Step.Rfactor
                   {
                     stage = name_at st i;
                     iv;
                     lengths = [ extent; 1 ];
                     tbd = true;
                   })
            in
            [ (st, i - 1) ]
          | None -> [])
        | _ -> []);
    exclusive = false;
  }

let make ~tiling ~with_fusion ~with_cache ~with_rfactor =
  [ always_inline ]
  @ (if with_fusion then [ multi_level_tiling_with_fusion_t tiling ]
     else [ multi_level_tiling_no_fusion_t tiling ])
  @ [ multi_level_tiling_t tiling ]
  @ (if with_cache then [ add_cache_stage ] else [])
  @ (if with_rfactor then [ reduction_factorization ] else [])
  @ [ skip ]

let default =
  make ~tiling:default_tiling ~with_fusion:true ~with_cache:true
    ~with_rfactor:true

let limited ~fusion =
  make ~tiling:limited_tiling ~with_fusion:fusion ~with_cache:false
    ~with_rfactor:false
