(** The measurement service: domain-parallel, fault-tolerant batch
    measurement with a dedup cache and telemetry.

    This subsystem owns the measure path end-to-end, playing the role of
    the paper's parallel RPC measurer (§5, §7.6): a batch of candidate
    schedules is fanned out across {!config.num_workers} domains, every
    candidate comes back with a latency or a classified failure
    ({!Protocol.failure}), transient run failures are retried with
    exponential backoff, identical lowered programs are deduplicated
    through the {!Cache}, and all accounting flows into the {!Telemetry}
    stats — the single source of truth for trial budgets.

    {b Determinism.} Results are byte-identical for any worker count and
    any scheduling order: each candidate's measurement noise comes from a
    private RNG stream derived from the service's root seed and the
    candidate's canonical program key, never from shared mutable state.

    {!Ansor_machine.Measurer} remains the single-program backend the
    service wraps. *)

open Ansor_sched

type config = {
  num_workers : int;  (** measurement domains (1 = run inline) *)
  timeout : float;
      (** per-program {e simulated}-latency ceiling in seconds; a program
          whose observed latency exceeds it is classified
          {!Protocol.Timeout} ([infinity] disables) *)
  batch_deadline : float;
      (** {e wall-clock} budget in seconds for one {!measure_batch} call
          ([infinity] disables).  Once it expires, candidates not yet
          started are classified {!Protocol.Timeout} without running and
          in-flight retry loops stop retrying — a stuck or pathological
          candidate cannot hang a worker domain (and the whole batch
          behind it) forever.  Expired candidates consume no trials. *)
  max_retries : int;  (** extra runs after a transient {!Protocol.Run_error} *)
  backoff : float;
      (** base backoff delay in seconds, doubled per retry; the delay is
          slept for and accounted in telemetry (0 disables sleeping) *)
  noise : float;  (** measurement-noise stddev (see {!Ansor_machine.Measurer}) *)
  validate : bool;
      (** statically validate each program before running it, classifying
          issues as {!Protocol.Build_error} (off by default: the search
          layers pre-filter candidates) *)
  backend : Protocol.backend;
      (** where cache-miss candidates are measured: {!Protocol.Sim} runs
          the analytical simulator on the domain pool; {!Protocol.Native}
          hands the whole miss set to the injected {!native_runner} (gcc
          compile + wall-clock timing).  Cache keys are backend-tagged, so
          the two backends never serve each other's entries. *)
  allow_unproven : bool;
      (** let the native backend measure programs the memory-safety
          certifier could not prove safe ([Unknown] verdicts).  Off by
          default; only enable together with guarded codegen
          ([ANSOR_BOUNDS_CHECK=1]), which turns a latent out-of-bounds
          access into a clean abort instead of harness corruption.
          [Unsafe] programs (constructive witness) are refused
          regardless. *)
}

val default_config : config
(** 1 worker, no timeout, no batch deadline, 2 retries, no backoff delay,
    noise 0.03, no validation, [Sim] backend, unproven programs
    refused. *)

type fault_hook = key:string -> attempt:int -> Protocol.failure option
(** Fault injection for tests: consulted before each backend run with the
    candidate's canonical key and the 1-based attempt number; returning
    [Some failure] injects it.  Must be a pure function of its arguments
    (it runs on worker domains). *)

type native_runner =
  timeout:float ->
  deadline:float option ->
  max_retries:int ->
  num_workers:int ->
  (string * Prog.t) array ->
  Protocol.native_report
(** A pluggable batch backend: given the unique cache misses of one batch
    as (canonical key, lowered program) pairs, returns a classified
    {!Protocol.outcome} per pair plus compile/run attribution.  Injected
    as a closure so this library never depends on the codegen layer
    (see [Ansor_measure_native.Measure_native.runner]).  [timeout] is the
    per-program latency ceiling, [deadline] the batch's absolute
    wall-clock cutoff, both straight from {!config}. *)

type t

val create :
  ?config:config ->
  ?cache:Cache.t ->
  ?fault_hook:fault_hook ->
  ?native_runner:native_runner ->
  seed:int ->
  Ansor_machine.Machine.t ->
  t
(** [cache] shares or preloads a dedup cache (e.g. read with
    {!Cache.load_salvage} from a previous session); a fresh one is created
    otherwise.

    @raise Invalid_argument
      when [config.backend] is {!Protocol.Native} and no [native_runner]
      was supplied. *)

val backend : t -> Protocol.backend

val machine : t -> Ansor_machine.Machine.t
val measurer : t -> Ansor_machine.Measurer.t

val num_workers : t -> int
(** [num_workers t] is the configured domain-pool width — shared with the
    cost model's batch scoring service so [--workers] governs both
    fan-outs. *)

val cache : t -> Cache.t
val telemetry : t -> Telemetry.t

val stats : t -> Telemetry.stats
val trials : t -> int
(** Backend measurement runs so far, retries included — the budget unit. *)

val measure_batch : t -> Protocol.request list -> Protocol.result list
(** Measures a batch: exactly one classified result per request, in request
    order.  Duplicate programs inside the batch are measured once and the
    copies served as cache hits.

    With the [Native] backend every candidate first passes the
    memory-safety gate: programs the bounds certifier finds [Unsafe] (or
    [Unknown], unless {!config.allow_unproven}) come back as
    {!Protocol.Bounds_error} — deterministic, never retried, zero
    trials, nothing compiled or cached. *)

val measure_state : t -> State.t -> Protocol.result
(** Single-candidate convenience. *)

val true_latency : t -> Prog.t -> float
(** Noise-free simulator estimate; consumes no trial. *)
