(** The task scheduler (§6): gradient-based allocation of measurement
    budget across the subgraphs of one or more DNNs.

    One allocation unit is one tuner round (a batch of measured programs).
    After a round-robin warm-up, each iteration computes the approximate
    gradient |df/dt_i| of the objective for every task (Appendix A) and
    allocates the next unit to the steepest task, with an epsilon-greedy
    exploration fallback.

    The gradient approximation combines a backward finite difference over
    the task's own history (weight [alpha]) with an optimistic forward
    guess: either the task reaches latency 0 with the same again effort,
    or it reaches the throughput of the best {e similar} task —
    structurally similar subgraphs, scaled by the task's FLOP count and
    the parameter [beta].

    Objectives follow Table 2: [F1] total latency of all networks, [F2]
    latency requirements per network, [F3] negated geometric mean of
    speedups over reference latencies, [F4] F1 with per-task early
    stopping.  Custom objectives can be supplied as a function of the
    per-task best latencies. *)

type objective =
  | F1_sum
  | F2_requirements of float array  (** latency requirement per network *)
  | F3_geomean_speedup of float array  (** reference latency per network *)
  | F4_early_stopping of { patience : int }
      (** F1, but a task that has not improved within its last [patience]
          allocations stops receiving budget *)
  | Custom of (float array -> float)
      (** user objective over the per-network latencies *)

type network = {
  net_name : string;
  task_weights : (int * int) list;
      (** (task index, number of appearances w_i) *)
}

type options = {
  objective : objective;
  alpha : float;  (** trust in the backward difference (paper: 0.2) *)
  beta : float;  (** trust in the similarity bound (paper: 2) *)
  backward_window : int;  (** Delta-t of the backward difference *)
  eps_greedy : float;  (** exploration probability (paper: 0.05) *)
  tuner_options : Ansor_search.Tuner.options;
  service_config : Ansor_measure_service.Service.config;
      (** measurement-service configuration (worker domains, timeout,
          retries) applied to every per-task service *)
  seed : int;
}

val default_options : options
(** F1, alpha 0.2, beta 2, window 3, epsilon 0.05, Ansor tuner, default
    measurement service. *)

type t

val create :
  ?native_runner:Ansor_measure_service.Service.native_runner ->
  ?cache:Ansor_measure_service.Cache.t ->
  options ->
  tasks:Ansor_search.Task.t array ->
  networks:network list ->
  t
(** [native_runner] is forwarded to every per-task measurement service —
    required when [options.service_config.backend] is
    {!Ansor_measure_service.Protocol.Native} (a create-time parameter, not
    an option field, so the marshal-safe snapshot never holds a closure).
    [cache] is one dedup cache shared by every task's service (e.g. one
    preloaded from a past session's [.cache] file); by default each
    service starts with its own empty cache.  Task [i]'s service is
    seeded with [options.seed + 17 + 31 * i] and its tuner with
    [options.seed + i], so a one-task session draws exactly the streams
    of {!Ansor_search.Tuner.tune} at the same seed.

    @raise Invalid_argument on empty tasks, empty networks or references
    to out-of-range task indices. *)

(** Checkpoint image of a whole scheduling session: every task's tuner
    snapshot, allocation history, liveness, per-service dedup cache and
    telemetry, the shared training set and the scheduler's own RNG cursor
    and curve.  Pure marshal-safe data. *)
module Snapshot : sig
  type t = {
    rng_state : int64;
    tuners : Ansor_search.Tuner.Snapshot.t array;
    histories : float list array;  (** newest first, per task *)
    no_improves : int array;
    empty_rounds : int array;
        (** per task, consecutive allocations that delivered no result *)
    curve : (int * float array) list;  (** oldest first *)
    shared : Ansor_search.Tuner.Shared.snapshot;
    caches : (string * float) list array;
    stats : Ansor_measure_service.Telemetry.stats array;
  }

  val task_keys : t -> string array
  (** The per-task {!Ansor_search.Task.key}s, in scheduler order — a
      compatibility fingerprint for resume validation. *)
end

val snapshot : t -> Snapshot.t

val restore : t -> Snapshot.t -> (unit, string) result
(** Restores a freshly {!create}d scheduler (same options, tasks and
    networks) to the snapshot's state.  Validates the task count and every
    task key before mutating anything; on [Error] the scheduler is
    untouched. *)

val run :
  ?should_stop:(unit -> bool) -> ?on_round:(t -> unit) -> t -> trial_budget:int -> unit
(** Allocates units until the total measurement trials reach the budget
    (or no task can make progress: three trial-free allocations per task
    in a row).  Every unit is one {!Ansor_search.Tuner.round} given
    [~budget:trial_budget], so a descent stage can start by budget
    fraction.  Can be called repeatedly to extend.
    [should_stop] is polled before each allocation — graceful shutdown
    between rounds, never mid-batch.  [on_round] runs after every
    allocation (checkpoint hook). *)

val allocations : t -> int array
(** Units allocated per task so far (the vector t). *)

val best_latency : t -> int -> float
(** Best observed latency of a task ([infinity] before warm-up). *)

val best_state : t -> int -> Ansor_sched.State.t option

val network_latency : t -> network -> float
(** Sum of w_i x g_i over the network's tasks. *)

val total_trials : t -> int
(** Sum of measurement trials consumed by the per-task services — the
    budget unit {!run} compares against. *)

val stats : t -> Ansor_measure_service.Telemetry.stats
(** Aggregated telemetry (counters + phase timers) over every task's
    measurement service. *)

val curve : t -> (int * float array) list
(** After every allocation: (total trials, per-network latencies), oldest
    first. *)

val shared : t -> Ansor_search.Tuner.Shared.t

val telemetry : t -> int -> Ansor_measure_service.Telemetry.t
(** Task [i]'s live service telemetry — session-level events (e.g. a
    model-store warm start) are accounted on task 0's counters so they
    appear exactly once in the {!stats} aggregate. *)

val objective_value : t -> float
(** Current value of the configured objective. *)
