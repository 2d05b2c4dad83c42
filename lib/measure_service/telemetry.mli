(** Telemetry: counters and per-phase wall-clock timers for a tuning
    session.

    The single source of truth for trial accounting: every backend
    measurement run (including retries) increments [trials] here — the
    scheduler's budget math and the CLI both read these stats.  The eight
    phase timers (sample / evolve / model-rank / measure / retrain /
    compile / native-run / descent) answer "where does round time go".

    Each counter is declared once, in a field table inside the
    implementation: summing, JSON and the text summary are folds over
    that table, so adding a counter means one [stats] field, one
    [empty_stats] entry, one table row and the mutator that bumps it. *)

type phase =
  | Sample
  | Evolve
  | Model_rank
  | Measure
  | Retrain
  | Compile
  | Native_run
  | Descent

val phase_name : phase -> string

(** An immutable snapshot of the counters. *)
type stats = {
  trials : int;  (** backend measurement runs, retries included *)
  measured : int;  (** candidates that returned an [Ok] latency *)
  cache_hits : int;  (** candidates served from the dedup cache *)
  build_errors : int;
  compile_errors : int;
      (** native-backend candidates the C compiler rejected (deterministic,
          never retried, no trials consumed) *)
  run_errors : int;  (** candidates that exhausted their retries *)
  timeouts : int;
  retries : int;  (** extra runs caused by transient failures *)
  batches : int;  (** measure-batch calls *)
  statically_rejected : int;
      (** evolution mutants discarded by the static race detector before
          ever reaching the measurement backend *)
  bounds_rejected : int;
      (** candidates the memory-safety certifier refused to hand to the
          native backend ([Bounds_error]: an out-of-bounds witness, or an
          unproven program without guarded codegen) *)
  certified : int;
      (** fresh certifications performed by the native gate (memo-table
          misses; every verdict class counts) *)
  cert_cache_hits : int;
      (** native-gate certifications served from the verdict memo table *)
  warm_starts : int;
      (** cost models seeded from a pretrained model-store bundle instead
          of starting cold *)
  store_samples : int;
      (** measured samples newly appended to the cross-task model store *)
  finetune_rounds : int;
      (** retrains that fine-tuned a warm pretrained base (as opposed to
          training from scratch) *)
  native_compiles : int;
      (** native-backend compiler invocations (one per batched TU) *)
  native_kernels : int;
      (** kernels submitted to those invocations; [native_kernels /
          native_compiles] is the realized batching factor *)
  descent_trials : int;
      (** measurement trials consumed by coordinate-descent winner batches
          (a subset of [trials], never double-counted) *)
  descent_sweeps : int;  (** coordinate sweeps executed by the descent stage *)
  descent_improvements : int;
      (** descent sweeps whose measured winners improved the incumbent *)
  descent_plateau_stops : int;
      (** descent stages terminated by the measured-plateau rule (k
          non-improving sweeps) *)
  backoff_seconds : float;  (** total retry backoff delay *)
  score_hits : int;
      (** batch-scoring candidates served from the feature/score cache
          (featurization skipped) *)
  score_misses : int;  (** candidates lowered + featurized from scratch *)
  score_evictions : int;  (** score-cache LRU evictions *)
  score_batches : int;  (** batch-scoring calls *)
  score_wall_seconds : float;
      (** wall-clock time spent in the scoring service's parallel
          fan-out *)
  score_work_seconds : float;
      (** summed per-chunk work time of the same fan-outs; the ratio
          [score_work_seconds / score_wall_seconds] is the realized
          parallel speedup (~1.0 with one worker) *)
  phase_seconds : (string * float) list;
      (** wall-clock seconds per phase, in declaration order *)
}

val empty_stats : stats

val total : stats list -> stats
(** Field-wise sum — aggregates per-task services into session totals. *)

val results : stats -> int
(** Classified results delivered: measured + cache hits + failures. *)

val summary : stats -> string
(** One line for round/session logs: every non-zero counter by its JSON
    name, then [|] and every phase timer, e.g.
    ["trials=96 measured=90 cache_hits=4 run_errors=2 retries=3 batches=6
    | sample=0.120s evolve=0.480s ..."] (one line). *)

val to_json : stats -> string
(** Stable single-object JSON encoding of every field, in declaration
    order, followed by [score_parallel_speedup] and the [phase_seconds]
    object. *)

type t

val create : unit -> t
val reset : t -> unit
val stats : t -> stats

val restore : t -> stats -> unit
(** Overwrites every counter and phase timer from a snapshot — the inverse
    of {!stats}, used by checkpoint recovery so a resumed session's trial
    accounting (the budget unit) continues where the interrupted one
    stopped. *)

val time : t -> phase -> (unit -> 'a) -> 'a
(** Runs the thunk and adds its wall-clock duration to the phase (also on
    exception). *)

val add_phase : t -> phase -> float -> unit

val record_result : t -> ?attempts:int -> ?cache_hit:bool ->
  (float, Protocol.failure) Stdlib.result -> unit
(** Accounts one classified measurement result: bumps [trials] by
    [attempts], [retries] by [max 0 (attempts - 1)], and the matching
    outcome counter. *)

val add_backoff : t -> float -> unit
val incr_batches : t -> unit

val incr_statically_rejected : t -> unit
(** One evolution mutant rejected by the pre-measurement static filter. *)

val add_certification : t -> hit:bool -> unit
(** One certification event at the native gate: a memo-table hit
    ([~hit:true]) or a fresh run of the bounds certifier. *)

val incr_warm_starts : t -> unit
(** One cost model seeded from a pretrained store model. *)

val add_store_samples : t -> int -> unit
(** [n] measured samples newly persisted to the model store. *)

val incr_finetune_rounds : t -> unit
(** One retrain that fine-tuned a warm pretrained base. *)

val add_native_compiles : t -> compiles:int -> kernels:int -> unit
(** Accounts one native batch's compilation fan-out: [compiles] gcc
    invocations covering [kernels] kernels. *)

val add_descent_sweep : t -> trials:int -> improved:bool -> unit
(** Accounts one completed coordinate-descent sweep: the [Service.trials]
    delta its winner batch consumed (so descent trials stay inside the
    global budget and are counted exactly once) and whether the measured
    winners improved the incumbent. *)

val incr_descent_plateau_stops : t -> unit
(** One descent stage terminated by the measured-plateau stop rule. *)

val score_speedup : stats -> float
(** Realized parallel speedup of the scoring fan-out
    ([score_work_seconds / score_wall_seconds]; 1.0 when no batch ran). *)

val add_score_probe : t -> hit:bool -> unit
(** Accounts one single-candidate score-cache probe (the non-batched
    scoring path: beam search, crossover node scores). *)

val add_score_batch :
  t -> hits:int -> misses:int -> evictions:int -> wall:float -> work:float ->
  unit
(** Accounts one batch-scoring call from the cost model's scoring
    service: cache hit/miss/eviction deltas plus wall-clock and summed
    per-chunk work seconds of its parallel fan-out. *)
