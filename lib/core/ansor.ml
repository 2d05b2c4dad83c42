module Rng = Ansor_util.Rng
module Factorize = Ansor_util.Factorize
module Stats = Ansor_util.Stats
module Ascii_plot = Ansor_util.Ascii_plot
module Expr = Ansor_te.Expr
module Op = Ansor_te.Op
module Dag = Ansor_te.Dag
module Nn = Ansor_te.Nn
module Einsum = Ansor_te.Einsum
module Step = Ansor_sched.Step
module State = Ansor_sched.State
module Prog = Ansor_sched.Prog
module Lower = Ansor_sched.Lower
module Candidate = Ansor_sched.Candidate
module Access = Ansor_sched.Access
module Validate = Ansor_sched.Validate
module Diagnostic = Ansor_sched.Diagnostic
module Analysis = Ansor_analysis.Analysis
module Bounds = Ansor_analysis.Bounds
module Defuse = Ansor_analysis.Defuse
module Interp = Ansor_interp.Interp
module Codegen_c = Ansor_codegen.Codegen_c
module Deploy = Ansor_registry.Deploy
module Toolchain = Ansor_codegen.Toolchain
module Machine = Ansor_machine.Machine
module Simulator = Ansor_machine.Simulator
module Measurer = Ansor_machine.Measurer
module Roofline = Ansor_machine.Roofline
module Measure_service = Ansor_measure_service.Service
module Measure_protocol = Ansor_measure_service.Protocol
module Measure_cache = Ansor_measure_service.Cache
module Telemetry = Ansor_measure_service.Telemetry
module Measure_native = Ansor_measure_native.Measure_native
module Xcheck = Ansor_measure_native.Xcheck
module Features = Ansor_features.Features
module Gbdt = Ansor_gbdt.Gbdt
module Cost_model = Ansor_cost_model.Cost_model
module Score_service = Ansor_cost_model.Score_service
module Rules = Ansor_sketch.Rules
module Sketch_gen = Ansor_sketch.Gen
module Policy = Ansor_sketch.Policy
module Annotate = Ansor_sketch.Annotate
module Sampler = Ansor_sketch.Sampler
module Evolution = Ansor_evolution.Evolution
module Task = Ansor_search.Task
module Tuner = Ansor_search.Tuner
module Descent = Ansor_search.Descent
module Record = Ansor_search.Record
module Task_key = Ansor_util.Task_key
module Model_store = Ansor_model_store.Model_store
module Scheduler = Ansor_scheduler.Scheduler
module Checkpoint = Ansor_checkpoint.Checkpoint
module Registry = Ansor_registry.Registry
module Lru = Ansor_util.Lru
module Histogram = Ansor_serve.Histogram
module Loadgen = Ansor_serve.Loadgen
module Admission = Ansor_serve.Admission
module Server = Ansor_serve.Server
module Baselines = Ansor_baselines.Baselines
module Workloads = Ansor_workloads.Workloads

type tune_result = {
  best_state : State.t option;
  best_latency : float;
  trials_used : int;
  curve : (int * float) list;
  stats : Telemetry.stats;
}

(* Resume plumbing of {!run_session}: load the latest valid snapshot
   generation, check its compatibility fingerprint, and restore the
   scheduler from it; any problem degrades to a fresh start with a
   warning — a resumed session must never crash on a missing, torn or
   mismatched snapshot. *)
let try_resume ~resume ~snapshot_path ~seed ~machine_name ~task_keys sched =
  if not resume then ()
  else
    match snapshot_path with
    | None -> ()
    | Some path -> (
      match Checkpoint.load_latest ~path with
      | Error msg ->
        Printf.eprintf "warning: no usable snapshot (%s); starting fresh\n%!"
          msg
      | Ok (img, gen) ->
        (match gen with
        | Checkpoint.Current -> ()
        | Checkpoint.Previous why ->
          Printf.eprintf
            "warning: current snapshot rejected (%s); resuming from the \
             previous generation\n\
             %!"
            why);
        let m = img.Checkpoint.meta in
        if
          m.Checkpoint.seed <> seed
          || (not (String.equal m.Checkpoint.machine machine_name))
          || m.Checkpoint.task_keys <> task_keys
        then
          Printf.eprintf
            "warning: snapshot at %s belongs to a different session \
             (seed/machine/task mismatch); starting fresh\n\
             %!"
            path
        else
          match Scheduler.restore sched img.Checkpoint.session with
          | Ok () -> ()
          | Error msg ->
            Printf.eprintf
              "warning: snapshot at %s could not be restored (%s); starting \
               fresh\n\
               %!"
              path msg)

(* Attach a model-store session to a tuning session's shared state:
   persist every measured batch, and adopt the resolved warm start +
   sibling training samples.  Runs after any snapshot restore, so a
   resumed session merges store samples that arrived after the snapshot
   (its own past contributions are filtered out by hash) and a restored
   fine-tuned model is never clobbered by a pretrained one.  With an
   empty store this never bumps the generation: the session stays
   bit-identical to a storeless one. *)
let adopt_model_store ~shared ~telemetry ~task_keys (ms : Model_store.session) =
  Tuner.Shared.attach_store ?path:ms.Model_store.path shared
    ms.Model_store.store;
  let warm, aux = Model_store.warm_start ms ~task_keys in
  if Tuner.Shared.adopt_store shared ~warm ~aux then begin
    Telemetry.incr_warm_starts telemetry;
    Printf.eprintf "model store: warm start (%s model, %d sibling samples)\n%!"
      (Tuner.Shared.provenance shared)
      (Tuner.Shared.num_aux shared)
  end

(* The one tuning-session runner behind {!tune} and {!tune_networks}:
   resume, model-store adoption, per-round batched improvement logging
   and checkpointing around {!Scheduler.run}. *)
let run_session ?cache ?model_store ?snapshot_path ~resume ?record_log
    ~should_stop ?on_round (options : Scheduler.options) machine ~tasks
    ~networks ~trial_budget =
  let seed = options.Scheduler.seed in
  let sched =
    (* the native runner is always supplied: a Sim-backend config never
       calls it, and a Native one gets gcc measurement with no extra
       plumbing at the call sites *)
    Scheduler.create ~native_runner:(Measure_native.runner ()) ?cache options
      ~tasks ~networks
  in
  let task_keys = Array.to_list (Array.map Task.key tasks) in
  try_resume ~resume ~snapshot_path ~seed ~machine_name:machine.Machine.name
    ~task_keys sched;
  (match model_store with
  | None -> ()
  | Some ms ->
    adopt_model_store ~shared:(Scheduler.shared sched)
      ~telemetry:(Scheduler.telemetry sched 0) ~task_keys ms);
  (* per-allocation improvement logging: every task whose best improved
     this round lands in one atomic Record.append_batch, so a crash
     preserves every earlier best and a long session pays one rewrite per
     round, not per entry *)
  let last_logged =
    Array.init (Array.length tasks) (fun i -> Scheduler.best_latency sched i)
  in
  let log_improvements sched =
    match record_log with
    | None -> ()
    | Some path ->
      let improved = ref [] in
      Array.iteri
        (fun i task ->
          let lat = Scheduler.best_latency sched i in
          if Float.is_finite lat && lat < last_logged.(i) then
            match Scheduler.best_state sched i with
            | Some st ->
              last_logged.(i) <- lat;
              improved :=
                {
                  Record.task_key = Task.key task;
                  latency = lat;
                  steps = st.State.history;
                }
                :: !improved
            | None -> ())
        tasks;
      Record.append_batch ~path (List.rev !improved)
  in
  let checkpoint sched =
    match snapshot_path with
    | None -> ()
    | Some path ->
      Checkpoint.save ~path
        {
          Checkpoint.meta =
            {
              Checkpoint.seed;
              machine = machine.Machine.name;
              task_keys;
              rounds = Array.fold_left ( + ) 0 (Scheduler.allocations sched);
            };
          session = Scheduler.snapshot sched;
        }
  in
  Scheduler.run ~should_stop
    ~on_round:(fun s ->
      log_improvements s;
      checkpoint s;
      match on_round with Some f -> f () | None -> ())
    sched ~trial_budget;
  sched

let tune ?(seed = 0) ?(trials = 200) ?(options = Tuner.ansor_options)
    ?(service_config = Measure_service.default_config) ?cache ?model_store
    ?snapshot_path ?(resume = false) ?record_log
    ?(should_stop = fun () -> false) ?on_round machine dag =
  let sched =
    run_session ?cache ?model_store ?snapshot_path ~resume ?record_log
      ~should_stop ?on_round
      {
        Scheduler.default_options with
        tuner_options = options;
        service_config;
        seed;
      }
      machine
      ~tasks:[| Task.create ~name:"tune" ~machine dag |]
      ~networks:[ { Scheduler.net_name = "tune"; task_weights = [ (0, 1) ] } ]
      ~trial_budget:trials
  in
  {
    best_state = Scheduler.best_state sched 0;
    best_latency = Scheduler.best_latency sched 0;
    trials_used = Scheduler.total_trials sched;
    curve = (Scheduler.snapshot sched).Scheduler.Snapshot.tuners.(0).curve;
    stats = Scheduler.stats sched;
  }

type network_result = {
  net : Workloads.net;
  latency : float;
  per_task : (string * float) list;
}

let tune_networks ?(seed = 0) ?trial_budget
    ?(objective = Scheduler.F1_sum) ?(tuner_options = Tuner.ansor_options)
    ?(service_config = Measure_service.default_config) ?model_store
    ?snapshot_path ?(resume = false) ?record_log
    ?(should_stop = fun () -> false) ?on_round machine nets =
  (* deduplicate tasks shared between networks by workload key *)
  let table = Hashtbl.create 32 in
  let order = ref [] in
  let index_of task =
    let key = Task.key task in
    match Hashtbl.find_opt table key with
    | Some (i, _) -> i
    | None ->
      let i = Hashtbl.length table in
      Hashtbl.replace table key (i, task);
      order := task :: !order;
      i
  in
  let networks =
    List.map
      (fun net ->
        let task_weights =
          List.map
            (fun (task, w) -> (index_of task, w))
            (Workloads.net_tasks ~machine net)
        in
        { Scheduler.net_name = net.Workloads.net_name; task_weights })
      nets
  in
  let tasks = Array.of_list (List.rev !order) in
  let trial_budget =
    match trial_budget with Some b -> b | None -> 64 * Array.length tasks
  in
  let sched =
    run_session ?model_store ?snapshot_path ~resume ?record_log ~should_stop
      ?on_round
      {
        Scheduler.default_options with
        objective;
        tuner_options;
        service_config;
        seed;
      }
      machine ~tasks ~networks ~trial_budget
  in
  let results =
    List.map2
      (fun net snet ->
        {
          net;
          latency = Scheduler.network_latency sched snet;
          per_task =
            List.map
              (fun (i, _) ->
                (tasks.(i).Task.name, Scheduler.best_latency sched i))
              snet.Scheduler.task_weights;
        })
      nets networks
  in
  (results, Scheduler.stats sched)

let verify_state (st : State.t) =
  let dag = st.State.dag in
  (* verification must run against the original DAG: surgery stages
     (cache/rfactor) recompute the same outputs, so comparing the outputs
     of the current DAG against its own naive evaluation is the right
     check *)
  match Lower.lower st with
  | exception State.Illegal msg -> Error msg
  | prog -> (
    (* static validation and race analysis first: both work at any size *)
    match Analysis.static_errors prog with
    | d :: _ -> Error (Format.asprintf "%a" Diagnostic.pp d)
    | [] ->
      let inputs = Interp.random_inputs (Rng.create 2024) dag in
      Interp.check_equivalent dag prog ~inputs)
