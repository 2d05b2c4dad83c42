open Ansor_sched
module Rng = Ansor_util.Rng
module Gbdt = Ansor_gbdt.Gbdt
module Cost_model = Ansor_cost_model.Cost_model
module Model_store = Ansor_model_store.Model_store
module Mcache = Ansor_measure_service.Cache
module Score_service = Ansor_cost_model.Score_service
module Evolution = Ansor_evolution.Evolution
module Bounds = Ansor_analysis.Bounds
module Rules = Ansor_sketch.Rules
module Gen = Ansor_sketch.Gen
module Sampler = Ansor_sketch.Sampler
module Annotate = Ansor_sketch.Annotate
module Service = Ansor_measure_service.Service
module Protocol = Ansor_measure_service.Protocol
module Telemetry = Ansor_measure_service.Telemetry

type strategy =
  | Sketch_search of { rules : Rules.t list; use_evolution : bool }
  | Beam_search of { beam_width : int; rollouts : int }

type options = {
  strategy : strategy;
  batch_size : int;
  sample_size : int;
  evolution : Evolution.config;
  eps_random : float;
  keep_previous : int;
  template_annotation : bool;
      (* freeze the annotation policy the way manual templates do *)
  descent : Descent.config option;
      (* coordinate-descent exploitation finisher; None = disabled *)
}

let default_evolution =
  { Evolution.default_config with population = 128; generations = 4 }

let ansor_options =
  {
    strategy = Sketch_search { rules = Rules.default; use_evolution = true };
    batch_size = 16;
    sample_size = 64;
    evolution = default_evolution;
    eps_random = 0.1;
    keep_previous = 12;
    template_annotation = false;
    descent = None;
  }

let no_finetune_options =
  {
    ansor_options with
    strategy = Sketch_search { rules = Rules.default; use_evolution = false };
  }

let limited_options =
  {
    ansor_options with
    strategy =
      Sketch_search { rules = Rules.limited ~fusion:true; use_evolution = true };
    template_annotation = true;
    evolution = { default_evolution with mutate_annotations = false };
  }

let beam_options =
  { ansor_options with strategy = Beam_search { beam_width = 12; rollouts = 4 } }

let autotvm_options =
  {
    ansor_options with
    strategy =
      Sketch_search { rules = Rules.limited ~fusion:true; use_evolution = false };
    template_annotation = true;
  }

let flextensor_options =
  {
    ansor_options with
    strategy =
      Sketch_search
        {
          rules =
            Rules.make ~tiling:Rules.default_tiling ~with_fusion:false
              ~with_cache:false ~with_rfactor:false;
          use_evolution = false;
        };
    template_annotation = true;
  }

module Shared = struct
  type sink = { store : Model_store.t; sink_path : string option }

  type t = {
    mutable model : Cost_model.t;
    mutable records : Cost_model.record list;  (* newest first *)
    mutable rounds_since_train : int;
    mutable generation : int;  (* bumped whenever [model] is replaced *)
    train_every : int;
    max_records : int;
    (* cross-task warm start (model store) *)
    mutable warm : Gbdt.t option;
        (* pretrained base: every retrain fine-tunes from it *)
    mutable provenance : string;  (* "cold" | "exact" | "class" | "global" *)
    mutable aux : Cost_model.record list;
        (* store-derived sibling records folded into every retrain,
           oldest first; never part of [records] (the session's own) *)
    own_keys : (string, unit) Hashtbl.t;
        (* canonical prog hashes this session contributed to the store —
           the resume path filters them out of [aux] so nothing is
           trained on twice *)
    mutable sink : sink option;
    mutable warm_starts : int;
    mutable store_added : int;
  }

  let create ?(train_every = 1) ?(max_records = 3000) () =
    {
      model = Cost_model.empty;
      records = [];
      rounds_since_train = 0;
      generation = 0;
      train_every;
      max_records;
      warm = None;
      provenance = "cold";
      aux = [];
      own_keys = Hashtbl.create 64;
      sink = None;
      warm_starts = 0;
      store_added = 0;
    }

  let model t = t.model
  let records t = t.records
  let num_records t = List.length t.records
  let generation t = t.generation
  let provenance t = t.provenance
  let is_warm t = t.warm <> None
  let warm_starts t = t.warm_starts
  let store_added t = t.store_added
  let num_aux t = List.length t.aux
  let has_store t = t.sink <> None

  let attach_store ?path t store = t.sink <- Some { store; sink_path = path }

  (* The full training corpus: the session's own records (capped, newest
     first) followed by the store-derived sibling records. *)
  let corpus t =
    List.filteri (fun i _ -> i < t.max_records) t.records @ t.aux

  let retrain t =
    t.model <- Cost_model.train ?init:t.warm (corpus t);
    t.generation <- t.generation + 1

  let add_records t recs =
    t.records <- recs @ t.records;
    t.rounds_since_train <- t.rounds_since_train + 1;
    if t.rounds_since_train >= t.train_every && t.records <> [] then begin
      retrain t;
      t.rounds_since_train <- 0
    end

  (* Adopt what one --model-store flag resolved to: a warm pretrained
     model (kept only while still cold — a restored fine-tuned session
     keeps its provenance) and the store's sibling samples, with this
     session's own contributions filtered out.  Bumps the generation at
     most once, so the scoring service invalidates cached scores exactly
     once; a no-op (empty store, no model) leaves the generation — and
     therefore all downstream behavior — untouched.  Returns whether a
     warm start happened. *)
  let adopt_store t ~warm ~aux =
    let warmed =
      match (warm, String.equal t.provenance "cold") with
      | Some (origin, g), true ->
        t.warm <- Some g;
        t.provenance <- origin;
        t.warm_starts <- t.warm_starts + 1;
        true
      | _ -> false
    in
    let aux =
      List.filter
        (fun (s : Model_store.sample) ->
          not (Hashtbl.mem t.own_keys s.Model_store.prog_key))
        aux
      |> List.map Model_store.to_record
    in
    let aux_changed = aux <> t.aux in
    t.aux <- aux;
    if corpus t <> [] then begin
      if warmed || aux_changed then retrain t
    end
    else if warmed then begin
      (* nothing measured yet: score with the pretrained model as-is *)
      t.model <-
        (match t.warm with Some g -> Cost_model.of_gbdt g | None -> t.model);
      t.generation <- t.generation + 1
    end;
    warmed

  (* Persist one measured batch: dedup against the attached store (and
     remember our own hashes), append the new lines to the store file.
     Returns how many samples were new. *)
  let record_samples t samples =
    match t.sink with
    | None -> 0
    | Some { store; sink_path } ->
      List.iter
        (fun (s : Model_store.sample) ->
          Hashtbl.replace t.own_keys s.Model_store.prog_key ())
        samples;
      let fresh =
        List.filter
          (fun (s : Model_store.sample) ->
            not (Model_store.mem store ~prog_key:s.Model_store.prog_key))
          samples
      in
      let added = Model_store.add_all store fresh in
      (match sink_path with
      | Some path -> Model_store.append_batch ~path fresh
      | None -> ());
      t.store_added <- t.store_added + added;
      added

  type snapshot = {
    snap_records : Cost_model.record list;
    snap_rounds_since_train : int;
    snap_trained : bool;
    (* v2 fields: cross-task warm-start state, so a resumed session
       retrains exactly the model the interrupted one had *)
    snap_warm : Gbdt.t option;
    snap_provenance : string;
    snap_aux : Cost_model.record list;
    snap_own_keys : string list;
    snap_warm_starts : int;
  }

  let snapshot t =
    {
      snap_records = t.records;
      snap_rounds_since_train = t.rounds_since_train;
      snap_trained = Cost_model.is_trained t.model;
      snap_warm = t.warm;
      snap_provenance = t.provenance;
      snap_aux = t.aux;
      snap_own_keys =
        Hashtbl.fold (fun k () acc -> k :: acc) t.own_keys []
        |> List.sort String.compare;
      snap_warm_starts = t.warm_starts;
    }

  let restore t s =
    t.records <- s.snap_records;
    t.rounds_since_train <- s.snap_rounds_since_train;
    t.warm <- s.snap_warm;
    t.provenance <- s.snap_provenance;
    t.aux <- s.snap_aux;
    Hashtbl.reset t.own_keys;
    List.iter (fun k -> Hashtbl.replace t.own_keys k ()) s.snap_own_keys;
    t.warm_starts <- s.snap_warm_starts;
    t.model <-
      (if s.snap_trained then Cost_model.train ?init:t.warm (corpus t)
       else
         match t.warm with
         | Some g -> Cost_model.of_gbdt g
         | None -> Cost_model.empty);
    t.generation <- t.generation + 1
end

type t = {
  task : Task.t;
  options : options;
  rng : Rng.t;
  policy : Ansor_sketch.Policy.t;
  sketches : State.t list;  (* empty for beam search *)
  measured : (string, unit) Hashtbl.t;
  mutable scorer : Score_service.t option;
      (* created on the first round from the measure service's
         configuration; lives as long as the tuner so the feature cache
         spans rounds *)
  mutable best : (State.t * float) option;
  mutable good : (State.t * float) list;  (* ascending latency *)
  mutable curve_rev : (int * float) list;
  mutable rounds : int;
  mutable plateau : Evolution.Plateau.t;
      (* evolution-plateau detector: the descent trigger signal *)
  mutable descent : Descent.cursor option;
      (* Some while an exploitation stage is active (or just finished);
         a finished cursor is replaced when a fresh evolution plateau
         re-triggers the stage on the improved incumbent *)
}

let plateau_patience (options : options) =
  match options.descent with
  | Some (c : Descent.config) -> c.Descent.stall_rounds
  | None -> Descent.default_config.Descent.stall_rounds

let create ?(seed = 0) ?(warm_start = []) options task =
  let rules =
    match options.strategy with
    | Sketch_search { rules; _ } -> rules
    | Beam_search _ -> Rules.default
  in
  let seeds =
    List.filter_map
      (fun steps ->
        match State.replay_checked task.Task.dag steps with
        | Ok st -> (
          match Lower.lower st with
          | _ -> Some st
          | exception State.Illegal _ -> None)
        | Error _ -> None)
      warm_start
  in
  {
    task;
    options;
    rng = Rng.create (seed + Hashtbl.hash (Task.key task));
    policy =
      (let p = Task.policy task in
       if options.template_annotation then Ansor_sketch.Policy.templateize p
       else p);
    sketches = Gen.generate ~rules task.Task.dag;
    measured = Hashtbl.create 64;
    scorer = None;
    best = None;
    good = List.map (fun st -> (st, infinity)) seeds;
    curve_rev = [];
    rounds = 0;
    plateau = Evolution.Plateau.create ~patience:(plateau_patience options);
    descent = None;
  }

module Snapshot = struct
  type t = {
    task_key : string;
    rng_state : int64;
    rounds : int;
    best : (Step.t list * float) option;
    good : (Step.t list * float) list;
    measured_keys : string list;
    curve : (int * float) list;
    (* v4 fields: exploitation-descent state, so a --resume replays
       mid-descent deterministically *)
    descent : Descent.cursor option;
    plateau_stall : int;
  }
end

let snapshot t =
  {
    Snapshot.task_key = Task.key t.task;
    rng_state = Rng.state t.rng;
    rounds = t.rounds;
    best = Option.map (fun (st, l) -> (st.State.history, l)) t.best;
    good = List.map (fun (st, l) -> (st.State.history, l)) t.good;
    measured_keys =
      Hashtbl.fold (fun k () acc -> k :: acc) t.measured []
      |> List.sort String.compare;
    curve = List.rev t.curve_rev;
    descent = t.descent;
    plateau_stall = Evolution.Plateau.stall t.plateau;
  }

let restore t (s : Snapshot.t) =
  if not (String.equal s.Snapshot.task_key (Task.key t.task)) then
    Error
      (Printf.sprintf "snapshot is for task %s, not %s" s.Snapshot.task_key
         (Task.key t.task))
  else begin
    let replay (steps, l) =
      match State.replay_checked t.task.Task.dag steps with
      | Ok st -> Some (st, l)
      | Error _ -> None
    in
    Rng.set_state t.rng s.Snapshot.rng_state;
    t.rounds <- s.Snapshot.rounds;
    t.best <- Option.bind s.Snapshot.best replay;
    t.good <- List.filter_map replay s.Snapshot.good;
    Hashtbl.reset t.measured;
    List.iter (fun k -> Hashtbl.replace t.measured k ()) s.Snapshot.measured_keys;
    t.curve_rev <- List.rev s.Snapshot.curve;
    t.descent <- s.Snapshot.descent;
    t.plateau <-
      Evolution.Plateau.restore
        ~patience:(plateau_patience t.options)
        ~best:(match t.best with Some (_, l) -> l | None -> infinity)
        ~stall:s.Snapshot.plateau_stall;
    Ok ()
  end

let task t = t.task
let best_latency t = match t.best with Some (_, l) -> l | None -> infinity
let best_state t = Option.map fst t.best
let rounds_done t = t.rounds
let curve t = List.rev t.curve_rev

(* Sequential construction with beam pruning: expands the DAG node by
   node, immediately sampling concrete tile sizes for new structure, and
   prunes with the cost model on the still-incomplete programs — the
   Halide-auto-scheduler design point whose weakness Figure 3 explains. *)
let beam_construct rng ~score dag policy ~beam_width ~rollouts =
  let dedup = Hashtbl.create 64 in
  let score (st : State.t) : float = score st in
  let expand (st, i) =
    if i < 0 then [ ((st, i), score st) ]
    else
      match Ansor_te.Dag.op st.State.dag i with
      | Ansor_te.Op.Placeholder _ -> [ ((st, i - 1), score st) ]
      | Ansor_te.Op.Compute _ ->
        let applicable =
          List.filter (fun (r : Rules.t) -> r.condition st i) Rules.default
        in
        let chosen =
          let rec first_exclusive = function
            | [] -> applicable
            | (r : Rules.t) :: rest ->
              if r.exclusive then [ r ] else r :: first_exclusive rest
          in
          first_exclusive applicable
        in
        List.concat_map
          (fun (r : Rules.t) ->
            List.concat_map
              (fun ((st', i') : State.t * int) ->
                List.filter_map
                  (fun _ ->
                    match
                      Annotate.replay_constrained dag st'.State.history
                        ~fill:(Annotate.Random_fill rng)
                    with
                    | Error _ -> None
                    | Ok concrete ->
                      let key = Step.history_key concrete.State.history in
                      if Hashtbl.mem dedup key then None
                      else begin
                        Hashtbl.replace dedup key ();
                        Some ((concrete, i'), score concrete)
                      end)
                  (List.init rollouts Fun.id))
              (r.apply st i))
          chosen
  in
  let rec advance states =
    if List.for_all (fun (_, i) -> i < 0) states then states
    else
      let expanded = List.concat_map expand states in
      let sorted =
        List.sort (fun (_, a) (_, b) -> compare b a) expanded
      in
      let kept =
        List.filteri (fun k _ -> k < beam_width) sorted |> List.map fst
      in
      advance kept
  in
  let terminals =
    advance [ (State.init dag, Ansor_te.Dag.num_ops dag - 1) ]
  in
  (* annotate the complete structures *)
  List.concat_map
    (fun (st, _) ->
      List.filter_map
        (fun _ ->
          match Annotate.annotate rng policy st with
          | Ok st -> (
            match Lower.lower st with
            | _ -> Some st
            | exception State.Illegal _ -> None)
          | Error _ -> None)
        (List.init 2 Fun.id))
    terminals

let candidates t shared scorer tm =
  let dag = t.task.Task.dag in
  let model = Shared.model shared in
  match t.options.strategy with
  | Beam_search { beam_width; rollouts } ->
    Telemetry.time tm Telemetry.Sample (fun () ->
        beam_construct t.rng
          ~score:(Score_service.score_state scorer)
          dag t.policy ~beam_width ~rollouts)
  | Sketch_search { use_evolution; _ } ->
    let fresh =
      Telemetry.time tm Telemetry.Sample (fun () ->
          Sampler.sample t.rng t.policy dag ~sketches:t.sketches
            ~n:t.options.sample_size)
    in
    (* Memory-safety pre-filter: a sample whose lowering carries a
       constructive out-of-bounds witness never reaches scoring or
       measurement.  Sketch sampling is safe-by-construction, so on a
       healthy rule set this filter is a no-op (bit-identical search);
       it exists to contain a buggy sketch/annotation rule the moment
       one is introduced.  Verdicts are memoized by canonical program
       hash, so the later scoring/measurement of survivors re-uses
       them.  [Unknown] is kept: the certifier's witness search is
       bounded, and the native gate re-decides with its own policy. *)
    let fresh =
      List.filter
        (fun s ->
          match Lower.lower s with
          | exception State.Illegal _ -> true (* measure path classifies *)
          | prog -> (
            match Bounds.certify prog with
            | Bounds.Unsafe _ ->
              Telemetry.incr_statically_rejected tm;
              false
            | Bounds.Certified | Bounds.Unknown -> true))
        fresh
    in
    if use_evolution && Cost_model.is_trained model then begin
      let seeds =
        List.filteri (fun i _ -> i < t.options.keep_previous) t.good
        |> List.map fst
      in
      Telemetry.time tm Telemetry.Evolve (fun () ->
          Evolution.evolve
            ~on_reject:(fun () -> Telemetry.incr_statically_rejected tm)
            ~scorer t.rng t.options.evolution t.policy dag ~model
            ~init:(fresh @ seeds)
            ~out:(t.options.batch_size * 4)
          |> List.map (fun (s : Evolution.scored) -> s.state))
    end
    else
      (* before the model is trained, put warm-start seeds first so they
         are measured in the very first batch *)
      List.map fst t.good @ fresh

(* Hill-climbing neighbors of the best measured program, measured
   regardless of their model rank: a biased model cannot starve
   exploitation of the incumbent (important on tiny tasks where the model
   has little signal). *)
let neighbors_of_best ?on_reject t =
  match t.best with
  | None -> []
  | Some (best, _) ->
    let dag = t.task.Task.dag in
    List.filter_map
      (fun _ ->
        match Rng.int t.rng 4 with
        | 0 -> Evolution.mutate_tile_sizes ?on_reject t.rng dag best
        | 1 -> Evolution.mutate_annotation ?on_reject t.rng dag best
        | 2 -> Evolution.mutate_pragma ?on_reject t.rng t.policy dag best
        | _ -> Evolution.mutate_location ?on_reject t.rng dag best)
      (List.init (max 1 (t.options.batch_size / 4)) Fun.id)

let scorer_of t service =
  match t.scorer with
  | Some sc -> sc
  | None ->
    let sc =
      Score_service.create
        ~telemetry:(Service.telemetry service)
        ~num_workers:(Service.num_workers service)
        t.task.Task.machine
    in
    t.scorer <- Some sc;
    sc

(* Measure a prepared batch of [(state, prog, key)] and absorb the
   classified results: remember every key in the dedup set, update
   best/good, persist the measured samples to the cross-task store, add
   the records to the shared training set and maybe retrain.  The tail
   of every round — both the evolutionary path and the descent sweeps
   feed their winners through this single funnel. *)
let absorb_batch t shared service tm batch =
  let results =
    Service.measure_batch service
      (List.map (fun (st, prog, _) -> Protocol.request ~prog st) batch)
  in
  let ok =
    List.filter_map Fun.id
      (List.map2
         (fun (st, prog, key) (res : Protocol.result) ->
           (* every candidate got a classified result; failed ones are
              remembered so the tuner never re-proposes them *)
           Hashtbl.replace t.measured key ();
           match res.Protocol.latency with
           | Error _ -> None
           | Ok latency ->
             (match t.best with
             | Some (_, l) when l <= latency -> ()
             | _ -> t.best <- Some (st, latency));
             t.good <-
               List.sort (fun (_, a) (_, b) -> compare a b)
                 ((st, latency) :: t.good)
               |> List.filteri (fun i _ -> i < t.options.keep_previous);
             if latency > 0.0 then Some (prog, latency) else None)
         batch results)
  in
  let records =
    List.map
      (fun (prog, latency) ->
        Cost_model.record_of_prog ~task_key:(Task.key t.task) ~latency prog)
      ok
  in
  (* persist the measured batch to the cross-task store (no-op when no
     store is attached); the canonical lowered-program hash dedups
     against every past session *)
  if Shared.has_store shared then begin
    let samples =
      List.map2
        (fun (prog, latency) (r : Cost_model.record) ->
          {
            Model_store.task_key = r.Cost_model.task_key;
            prog_key = Mcache.key_of_prog t.task.Task.machine prog;
            latency;
            features = r.Cost_model.features;
          })
        ok records
    in
    Telemetry.add_store_samples tm (Shared.record_samples shared samples)
  end;
  let gen_before = Shared.generation shared in
  Telemetry.time tm Telemetry.Retrain (fun () ->
      Shared.add_records shared records);
  if Shared.generation shared > gen_before && Shared.is_warm shared then
    Telemetry.incr_finetune_rounds tm

let evolution_round t shared service =
  let tm = Service.telemetry service in
  let model = Shared.model shared in
  let scorer = scorer_of t service in
  Score_service.sync scorer ~generation:(Shared.generation shared) model;
  let seen = Hashtbl.create 64 in
  let prepare states =
    (* skip already-measured programs, reject unlowerable ones, dedupe *)
    List.filter_map
      (fun st ->
        let key = Step.history_key st.State.history in
        if Hashtbl.mem t.measured key || Hashtbl.mem seen key then None
        else
          match Lower.lower st with
          | prog ->
            Hashtbl.replace seen key ();
            Some (st, prog, key)
          | exception State.Illegal _ -> None)
      states
  in
  let exploit =
    match t.options.strategy with
    | Sketch_search { use_evolution = true; _ } ->
      prepare
        (neighbors_of_best
           ~on_reject:(fun () -> Telemetry.incr_statically_rejected tm)
           t)
    | Sketch_search { use_evolution = false; _ } | Beam_search _ -> []
  in
  let cands = prepare (candidates t shared scorer tm) in
  let sorted =
    Telemetry.time tm Telemetry.Model_rank (fun () ->
        (* one batched scoring call; [List.sort] is stable, so equal
           scores keep candidate order exactly as the sequential
           per-candidate path did *)
        let scores =
          Score_service.score_progs scorer
            (List.map (fun (_, prog, _) -> prog) cands)
        in
        let scored =
          List.map2 (fun (st, prog, key) s -> (st, prog, key, s)) cands scores
        in
        List.sort (fun (_, _, _, a) (_, _, _, b) -> compare b a) scored)
  in
  let n_eps =
    int_of_float (t.options.eps_random *. float_of_int t.options.batch_size)
  in
  let exploit =
    List.map (fun (st, prog, key) -> (st, prog, key, 0.0)) exploit
  in
  let n_greedy =
    max 0 (t.options.batch_size - n_eps - List.length exploit)
  in
  let greedy = exploit @ List.filteri (fun i _ -> i < n_greedy) sorted in
  let rest = List.filteri (fun i _ -> i >= n_greedy) sorted in
  let eps_pick =
    if rest = [] then []
    else
      List.init (min n_eps (List.length rest)) (fun _ ->
          Rng.choice_list t.rng rest)
  in
  let batch =
    (* a random pick may duplicate; filter again *)
    let seen = Hashtbl.create 32 in
    List.filter
      (fun (_, _, key, _) ->
        if Hashtbl.mem seen key then false
        else begin
          Hashtbl.replace seen key ();
          true
        end)
      (greedy @ eps_pick)
  in
  absorb_batch t shared service tm
    (List.map (fun (st, prog, key, _) -> (st, prog, key)) batch);
  t.rounds <- t.rounds + 1;
  t.curve_rev <- (Service.trials service, best_latency t) :: t.curve_rev

(* One exploitation-descent round = one coordinate sweep: propose and
   line-search under the pooled scorer (the [Descent] phase timer),
   measure the per-coordinate winners through the ordinary batch funnel
   (so dedup cache, classification, store persistence and retraining all
   apply unchanged), then fold the measured outcome back into the
   cursor.  Consumes no RNG, so the surrounding search stream is exactly
   what it would be without the stage. *)
let descent_round t shared service (cfg : Descent.config)
    (cursor : Descent.cursor) =
  let tm = Service.telemetry service in
  let scorer = scorer_of t service in
  Score_service.sync scorer ~generation:(Shared.generation shared)
    (Shared.model shared);
  let dag = t.task.Task.dag in
  let before_best = best_latency t in
  let outcome =
    Telemetry.time tm Telemetry.Descent (fun () ->
        Descent.sweep cfg ~dag ~policy:t.policy ~scorer
          ~on_reject:(fun () -> Telemetry.incr_statically_rejected tm)
          ~measured:(fun k -> Hashtbl.mem t.measured k)
          cursor)
  in
  let finish_stage cursor' =
    t.descent <- Some cursor';
    if cursor'.Descent.finished then
      (* a restart needs a fresh plateau, counted from here *)
      t.plateau <-
        Evolution.Plateau.restore
          ~patience:(plateau_patience t.options)
          ~best:(best_latency t) ~stall:0
  in
  (match outcome with
  | Error _ ->
    (* the cursor's history no longer replays: abandon the stage *)
    finish_stage { cursor with Descent.finished = true }
  | Ok winners ->
    let batch =
      List.filter_map
        (fun st ->
          match Lower.lower st with
          | prog -> Some (st, prog, Step.history_key st.State.history)
          | exception State.Illegal _ -> None)
        winners
    in
    let trials_before = Service.trials service in
    absorb_batch t shared service tm batch;
    let improved = best_latency t < before_best in
    Telemetry.add_descent_sweep tm
      ~trials:(Service.trials service - trials_before)
      ~improved;
    let best_hist =
      match t.best with
      | Some (st, _) -> st.State.history
      | None -> cursor.Descent.current
    in
    let cursor' = Descent.advance cfg cursor ~improved ~best:best_hist in
    if cursor'.Descent.finished then Telemetry.incr_descent_plateau_stops tm;
    finish_stage cursor');
  t.rounds <- t.rounds + 1;
  t.curve_rev <- (Service.trials service, best_latency t) :: t.curve_rev

(* Start descending once evolution stalls ([stall_rounds] rounds without
   improvement) or — when the trial [budget] is known — once
   [budget_fraction] of it is spent.  After a stage finishes the
   detector is reset, and a later plateau restarts the stage, but only
   on a *new* incumbent: re-walking the same program would propose only
   already-measured neighbors. *)
let maybe_start_descent ?budget t service (cfg : Descent.config) =
  let start () =
    match t.best with
    | Some (st, _) -> t.descent <- Some (Descent.start st)
    | None -> ()
  in
  let stalled = Evolution.Plateau.stalled t.plateau in
  match t.descent with
  | None ->
    let fraction_spent =
      match budget with
      | Some b when b > 0 ->
        float_of_int (Service.trials service)
        >= cfg.Descent.budget_fraction *. float_of_int b
      | _ -> false
    in
    if stalled || fraction_spent then start ()
  | Some cur when cur.Descent.finished ->
    let new_incumbent =
      match t.best with
      | Some (st, _) ->
        Step.history_key st.State.history
        <> Step.history_key cur.Descent.current
      | None -> false
    in
    if stalled && new_incumbent then start ()
  | Some _ -> ()

let round ?budget t shared service =
  match (t.options.descent, t.descent) with
  | Some cfg, Some cursor when not cursor.Descent.finished ->
    descent_round t shared service cfg cursor
  | descent_cfg, _ ->
    evolution_round t shared service;
    (match descent_cfg with
    | None -> ()
    | Some cfg ->
      ignore (Evolution.Plateau.observe t.plateau (best_latency t));
      maybe_start_descent ?budget t service cfg)

let tune ?(seed = 0) ?shared ?service ?(should_stop = fun () -> false)
    ?on_round options ~trials task =
  let shared = match shared with Some s -> s | None -> Shared.create () in
  let service =
    match service with
    | Some s -> s
    | None -> Service.create ~seed:(seed + 17) task.Task.machine
  in
  let t = create ~seed options task in
  let stuck = ref 0 in
  while
    (not (should_stop ())) && Service.trials service < trials && !stuck < 3
  do
    let before = Service.trials service in
    round ~budget:trials t shared service;
    (match on_round with Some f -> f t | None -> ());
    if Service.trials service = before then incr stuck else stuck := 0
  done;
  (t, service)
