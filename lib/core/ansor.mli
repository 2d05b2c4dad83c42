(** Ansor: generating high-performance tensor programs — OCaml
    reproduction of the OSDI 2020 paper.

    This module is the public facade: it re-exports every subsystem under
    one namespace and provides two convenience entry points,
    {!tune} for a single computation and {!tune_networks} for a set of
    DNNs under the task scheduler.

    {b Quickstart}:
    {[
      let dag = Ansor.Nn.matmul ~m:512 ~n:512 ~k:512 () in
      let result = Ansor.tune ~trials:300 Ansor.Machine.intel_cpu dag in
      match result.best_state with
      | Some st ->
        print_endline (Ansor.Prog.to_string (Ansor.Lower.lower st))
      | None -> ()
    ]} *)

(** {1 Subsystems} *)

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
module Access = Ansor_sched.Access
module Validate = Ansor_sched.Validate
module Diagnostic = Ansor_sched.Diagnostic
module Analysis = Ansor_analysis.Analysis
module Bounds = Ansor_analysis.Bounds
module Defuse = Ansor_analysis.Defuse
module Interp = Ansor_interp.Interp
module Codegen_c = Ansor_codegen.Codegen_c
module Deploy = Ansor_codegen.Deploy
module Toolchain = Ansor_codegen.Toolchain
module Machine = Ansor_machine.Machine
module Simulator = Ansor_machine.Simulator
module Measurer = Ansor_machine.Measurer
module Roofline = Ansor_machine.Roofline

(** The measurement service: domain-parallel, fault-tolerant batch
    measurement with a dedup cache and telemetry (see
    {!Measure_service.measure_batch}). *)

module Measure_service = Ansor_measure_service.Service
module Measure_protocol = Ansor_measure_service.Protocol
module Measure_cache = Ansor_measure_service.Cache
module Telemetry = Ansor_measure_service.Telemetry

(** Native measurement: candidates compiled with gcc and timed on the host
    CPU, selected with [service_config.backend = Native]; {!Xcheck} reports
    the sim-vs-native rank correlation ([ansor xcheck]). *)

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
module Scheduler = Ansor_scheduler.Scheduler

(** Cross-task transfer: the persistent training-sample store, the
    pretrained per-class cost-model bundle and the shared
    structure-class key ({!Model_store.Pretrained.resolve},
    {!Task_key.class_key}). *)

module Task_key = Ansor_util.Task_key
module Model_store = Ansor_model_store.Model_store

(** Crash-safe sessions: checkpoint images with atomic persistence and
    generation fallback, plus cooperative SIGINT/SIGTERM shutdown (see
    {!Checkpoint.save}, {!Checkpoint.load_latest},
    {!Checkpoint.Shutdown}). *)

module Checkpoint = Ansor_checkpoint.Checkpoint

(** The serving subsystem: a persistent best-schedule database built from
    {!Record} logs (with a similarity fallback for untuned workloads,
    {!Registry.resolve}), closed- or open-loop load generation
    ({!Loadgen}), bounded-queue admission control with per-tenant quotas
    ({!Admission}) and the sharded virtual-time server that compiles each
    subgraph once into a bounded {!Lru}, with background tuning and
    canary-gated live schedule rollout ({!Server.run},
    {!Server.propose}). *)

module Registry = Ansor_registry.Registry
module Lru = Ansor_util.Lru
module Histogram = Ansor_serve.Histogram
module Loadgen = Ansor_serve.Loadgen
module Admission = Ansor_serve.Admission
module Server = Ansor_serve.Server
module Baselines = Ansor_baselines.Baselines
module Workloads = Ansor_workloads.Workloads

(** {1 Convenience API} *)

type tune_result = {
  best_state : State.t option;
  best_latency : float;  (** seconds; [infinity] if nothing measured *)
  trials_used : int;  (** measurement trials consumed (cache hits are free) *)
  curve : (int * float) list;  (** (trials, best-so-far) *)
  stats : Telemetry.stats;
      (** session telemetry: failure counts, cache hits, phase timings *)
}

val tune :
  ?seed:int ->
  ?trials:int ->
  ?options:Tuner.options ->
  ?service_config:Measure_service.config ->
  ?cache:Measure_cache.t ->
  ?model_store:Model_store.session ->
  ?snapshot_path:string ->
  ?resume:bool ->
  ?record_log:string ->
  ?should_stop:(unit -> bool) ->
  ?on_round:(unit -> unit) ->
  Machine.t ->
  Dag.t ->
  tune_result
(** Tunes one computation on one machine (default 200 trials, full Ansor
    strategy) as a one-task {!Scheduler} session: the runner behind
    {!tune_networks_with_stats}, with one network of weight 1, drawing
    exactly the seeds and rounds of {!Tuner.tune}.  [service_config]
    controls the measurement service (worker domains, timeout,
    retries); [cache] shares or preloads a dedup cache — pass one
    {!Measure_cache.load_salvage} read from a previous session to skip
    re-measuring known schedules, and {!Measure_cache.save} it afterwards.

    [snapshot_path] checkpoints the full session (tuner population,
    best-so-far, RNG cursor, training set, dedup cache, telemetry) after
    every round via {!Checkpoint.save}.  With [resume] the latest valid
    snapshot generation is restored first, so an interrupted-then-resumed
    run reaches the same trial budget — and, being deterministic, the same
    results — as an uninterrupted one; a missing, torn or mismatched
    snapshot degrades to a fresh start with a warning on stderr, never an
    error.  [should_stop] is polled between rounds (wire it to
    {!Checkpoint.Shutdown.requested} for graceful Ctrl-C); [on_round] runs
    after each round's checkpoint.

    [record_log] appends the session's best program to the given
    {!Record} log whenever a round improves it — one atomic batch append
    per round ({!Record.append_batch}), so a killed session keeps every
    earlier best.  Feed the log to {!Registry.build_from_logs} (or
    [ansor-cli registry build]) to serve the result.

    [model_store] attaches a cross-task model store
    ({!Model_store.open_session}): the session warm-starts from the
    pretrained model the exact -> class -> global ladder resolves for
    the task, folds the store's same-class samples into every retrain,
    and appends its own measured batches back to the store.  An empty or
    absent store leaves the session bit-identical to a storeless one.
    Composes with [resume]: store samples newer than the snapshot are
    merged in (own past contributions deduplicated by program hash),
    invalidating cached scores exactly once. *)

type network_result = {
  net : Workloads.net;
  latency : float;  (** end-to-end: sum of w_i x g_i *)
  per_task : (string * float) list;  (** best latency per unique subgraph *)
}

val tune_networks :
  ?seed:int ->
  ?trial_budget:int ->
  ?objective:Scheduler.objective ->
  ?tuner_options:Tuner.options ->
  ?service_config:Measure_service.config ->
  Machine.t ->
  Workloads.net list ->
  network_result list
(** Tunes a set of networks with the gradient-descent task scheduler
    (default budget: 64 trials per unique task, objective F1). Tasks
    shared between networks are deduplicated by workload key, as in §6. *)

val tune_networks_with_stats :
  ?seed:int ->
  ?trial_budget:int ->
  ?objective:Scheduler.objective ->
  ?tuner_options:Tuner.options ->
  ?service_config:Measure_service.config ->
  ?model_store:Model_store.session ->
  ?snapshot_path:string ->
  ?resume:bool ->
  ?record_log:string ->
  ?should_stop:(unit -> bool) ->
  ?on_round:(unit -> unit) ->
  Machine.t ->
  Workloads.net list ->
  network_result list * Telemetry.stats
(** Same, also returning the aggregated measurement telemetry of the whole
    session (trials, failures, cache hits, phase timings).
    [snapshot_path] / [resume] / [record_log] / [should_stop] / [on_round]
    work as in {!tune}, checkpointing the whole scheduler session (every
    task's tuner, budget allocation, caches, telemetry) after each
    allocation and batch-logging every task whose best improved.
    [model_store] warm-starts the session's single shared cost model:
    tasks of one structure class get their class model, mixed sessions
    the global fallback (the warm-start counter lands on task 0's
    telemetry). *)

val verify_state : State.t -> (unit, string) result
(** Checks a scheduled program two ways: statically
    ({!Analysis.static_errors} — bounds validation, the data-race
    detector, and the memory-safety certifier's out-of-bounds witness
    search, any size) and dynamically against the naive evaluation of
    its DAG on random inputs — the system-wide soundness oracle.  The
    dynamic check executes the program, so keep shapes small. *)
