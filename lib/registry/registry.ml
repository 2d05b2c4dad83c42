open Ansor_search
module State = Ansor_sched.State
module Step = Ansor_sched.Step
module Lower = Ansor_sched.Lower
module Factorize = Ansor_util.Factorize
module Task_key = Ansor_util.Task_key

let magic = "ansor-registry-v1"

type t = (string, Record.entry) Hashtbl.t

let create () : t = Hashtbl.create 64
let size (t : t) = Hashtbl.length t

let keys (t : t) =
  Hashtbl.fold (fun k _ acc -> k :: acc) t [] |> List.sort String.compare

let entries (t : t) = List.map (Hashtbl.find t) (keys t)
let find (t : t) ~task_key = Hashtbl.find_opt t task_key

let add (t : t) (e : Record.entry) =
  match Hashtbl.find_opt t e.Record.task_key with
  | None ->
    Hashtbl.replace t e.Record.task_key e;
    `Added
  | Some b when e.Record.latency < b.Record.latency ->
    Hashtbl.replace t e.Record.task_key e;
    `Improved
  | Some _ -> `Kept

let add_all t es =
  List.fold_left
    (fun n e -> match add t e with `Kept -> n | `Added | `Improved -> n + 1)
    0 es

let of_entries es =
  let t = create () in
  ignore (add_all t es);
  t

let merge_into ~dst src = add_all dst (entries src)

let prune (t : t) ~keep =
  let doomed =
    Hashtbl.fold (fun k e acc -> if keep e then acc else k :: acc) t []
  in
  List.iter (Hashtbl.remove t) doomed;
  List.length doomed

(* ---- persistence -------------------------------------------------------- *)

let save ~path t =
  Ansor_util.Line_file.write ~path ~header:magic
    (List.map Record.to_line (entries t))

(* Any content error — above all a raw record log, which has no header —
   comes with the hint that logs become registries through the CLI. *)
let read ~path ~strict =
  match Ansor_util.Line_file.read ~path ~header:magic ~strict Record.of_line with
  | Error msg when Sys.file_exists path ->
    Error (msg ^ " (raw record logs go through `registry build`)")
  | r -> r

let load ~path =
  Result.map (fun (es, _) -> of_entries es) (read ~path ~strict:true)

let load_salvage ~path =
  Result.map
    (fun (es, skipped) -> (of_entries es, skipped))
    (read ~path ~strict:false)

let build_from_logs ~paths =
  let t = create () in
  let rec go skipped = function
    | [] -> Ok (t, skipped)
    | path :: rest ->
      Result.bind (Record.load_salvage ~path) (fun (es, s) ->
          ignore (add_all t es);
          go (skipped + s) rest)
  in
  go 0 paths

(* every entry line read, malformed or not, that does not survive as a
   per-key best counts as dropped *)
let compact_file ~path =
  Result.map
    (fun (es, skipped) ->
      let t = of_entries es in
      save ~path t;
      List.length es + skipped - size t)
    (read ~path ~strict:false)

(* ---- similarity --------------------------------------------------------- *)

(* Structure class: the task key with concrete sizes blanked — the same
   grouping the task scheduler uses for its Appendix-A similarity term
   and the model store uses for pretrained-model lookup.  The shared
   definition lives in Ansor_util.Task_key so the ladders never diverge. *)
let class_key = Task_key.class_key
let shape_distance = Task_key.shape_distance

let similar_keys (t : t) ~task_key =
  let cls = class_key task_key in
  Hashtbl.fold
    (fun k _ acc ->
      if String.equal k task_key || not (String.equal (class_key k) cls) then
        acc
      else
        let d = shape_distance k task_key in
        if Float.is_finite d then (k, d) :: acc else acc)
    t []
  |> List.sort (fun (k1, d1) (k2, d2) ->
         match Float.compare d1 d2 with 0 -> String.compare k1 k2 | c -> c)

(* ---- adaptation --------------------------------------------------------- *)

(* Re-fit a split's tile sizes to a new extent: same number of parts,
   product equal to the extent.  Prefer rescaling only the outermost
   length — that keeps every inner tile extent identical to the recorded
   schedule, so splits of different stages over the same loop refit
   consistently and cross-stage bindings (compute_at) still line up.
   When the extent ratio is not integral, fall back to the factorization
   log-closest to the recorded sizes (inner tiles may then drift, and a
   later binding step can fail — the adapt loop handles that). *)
let refit_lengths ~extent lengths =
  let k = List.length lengths in
  let product = List.fold_left ( * ) 1 lengths in
  let rescaled =
    match lengths with
    | l0 :: rest when product > 0 && extent mod product = 0 ->
      Some ((l0 * (extent / product)) :: rest)
    | l0 :: rest
      when extent > 0 && product mod extent = 0
           && l0 mod (product / extent) = 0 ->
      Some ((l0 / (product / extent)) :: rest)
    | _ -> None
  in
  match rescaled with
  | Some _ -> rescaled
  | None -> (
    let target = List.map (fun l -> log (float_of_int (max 1 l))) lengths in
    let score cand =
      List.fold_left2
        (fun acc c t ->
          let d = log (float_of_int c) -. t in
          acc +. (d *. d))
        0.0 cand target
    in
    match Factorize.factorizations extent k with
    | [] -> None
    | cands ->
      let best =
        List.fold_left
          (fun (bc, bs) c ->
            let s = score c in
            if s < bs then (c, s) else (bc, bs))
          ([], infinity) cands
      in
      (match best with [], _ -> None | c, _ -> Some c))

let refit_step st (step : Step.t) =
  let extent_of stage_name iv =
    match State.find_stage st stage_name with
    | exception Not_found -> None
    | stage -> (
      match State.ivar stage iv with
      | info -> Some info.State.extent
      | exception _ -> None)
  in
  match step with
  | Step.Split { stage; iv; lengths; tbd } ->
    Option.bind (extent_of stage iv) (fun extent ->
        Option.map
          (fun lengths -> Step.Split { stage; iv; lengths; tbd })
          (refit_lengths ~extent lengths))
  | Step.Rfactor { stage; iv; lengths; tbd } ->
    Option.bind (extent_of stage iv) (fun extent ->
        Option.map
          (fun lengths -> Step.Rfactor { stage; iv; lengths; tbd })
          (refit_lengths ~extent lengths))
  | _ -> None

(* Replay a recorded history on a (possibly different-shaped) DAG,
   re-fitting tile sizes when the recorded ones no longer divide the query
   extents.  Total: [None] when some step cannot be made to apply. *)
let adapt_replay dag steps =
  let rec go st = function
    | [] -> Some st
    | step :: rest -> (
      match State.apply_checked st step with
      | Ok st' -> go st' rest
      | Error _ -> (
        match refit_step st step with
        | None -> None
        | Some step' -> (
          match State.apply_checked st step' with
          | Ok st' -> go st' rest
          | Error _ -> None)))
  in
  match State.init dag with
  | exception _ -> None
  | st0 -> ( try go st0 steps with _ -> None)

(* ---- resolution --------------------------------------------------------- *)

type outcome =
  | Exact
  | Adapted of { source_key : string; distance : float }
  | Defaulted of string

let outcome_to_string = function
  | Exact -> "exact"
  | Adapted { source_key; distance } ->
    Printf.sprintf "adapted from %s (distance %.3f)" source_key distance
  | Defaulted reason -> Printf.sprintf "default (%s)" reason

(* The serving bar: the state must lower, pass static validation, carry
   no provable data race, and certify memory-safe ([static_errors]
   includes the affine bounds certifier, so a schedule whose accesses
   carry a constructive out-of-bounds witness is never served).
   Interpreting it would be exact but shape-bounded; the static checks
   work at any size (see lib/sched/validate.mli and lib/analysis) —
   essential for similarity-adapted schedules, whose replayed histories
   were never measured on this exact shape and whose tile re-fitting
   rescales extents: every adapted lowering is re-certified here before
   it reaches a caller. *)
let lowers_validated st =
  match Lower.lower st with
  | exception _ -> false
  | prog -> Ansor_analysis.Analysis.static_errors prog = []

let try_entry dag (e : Record.entry) =
  match State.replay_checked dag e.Record.steps with
  | Ok st when lowers_validated st -> Some st
  | _ -> (
    match adapt_replay dag e.Record.steps with
    | Some st when lowers_validated st -> Some st
    | _ -> None)

let resolve (t : t) (task : Task.t) =
  let dag = task.Task.dag in
  let key = Task.key task in
  let exact =
    match find t ~task_key:key with
    | None -> None
    | Some e -> Option.map (fun st -> (st, Exact)) (try_entry dag e)
  in
  match exact with
  | Some r -> r
  | None -> (
    let rec nearest = function
      | [] -> None
      | (k, d) :: rest -> (
        match try_entry dag (Hashtbl.find t k) with
        | Some st -> Some (st, Adapted { source_key = k; distance = d })
        | None -> nearest rest)
    in
    match nearest (similar_keys t ~task_key:key) with
    | Some r -> r
    | None ->
      let reason =
        if Hashtbl.mem t key then "registered steps do not replay"
        else if similar_keys t ~task_key:key = [] then "no tuned record"
        else "no similar record adapted"
      in
      (State.init dag, Defaulted reason))
