(** The serving tier: closed- or open-loop load, admission control,
    sharded dispatch, and canary-gated live schedule rollout.

    Requests come from {!Loadgen}: closed loop (the next request issues
    when one completes — right for measuring compiled programs) or an
    open-loop arrival trace (for studying overload).  Either way they are
    served through a deterministic discrete-event loop in virtual time:

    {v
    Loadgen ──arrivals──▶ Admission ──queue──▶ workers ──▶ sojourn histogram
                │ quota / shed                    │
                ▼                                 ▼ per layer
           classified outcome            shard LRU ─▶ shard histogram
                                                  │
                                    canary gate ◀─┴─ background tuner
    v}

    {b Sharding.}  Task keys hash across [config.shards] shards, each with
    its own compiled-program LRU and exact-quantile latency histogram — a
    hot key can evict within its shard but cannot evict the world, and
    p99/p999 are tracked per shard ({!Histogram.merged_summary} combines
    them into the global service view).

    {b Admission.}  Every offered request is classified totally (served /
    shed with reason / quota-rejected); see {!Admission}.  Conservation
    ([offered = served + shed + quota_rejected]) holds exactly after every
    {!run}.

    {b Live rollout.}  A background tuner keeps improving the hottest key
    between requests (one {!Ansor_search.Tuner} round every
    [tuner.every] virtual seconds, measured on the domain pool).  A better
    program never replaces the incumbent directly: it enters a {e canary
    gate} — a configurable fraction of the key's traffic runs the
    candidate while the rest runs the incumbent, both arms feeding
    exact-quantile histograms.  Once both arms have [min_samples], the
    candidate is {e promoted} (median strictly better, p95 within
    [margin] of the incumbent's) with a generation-stamp bump that
    invalidates the shard LRU entry, or {e rolled back} — traffic
    restored to the never-replaced incumbent — with a telemetry event
    either way.  {!propose} feeds the same gate from outside (tests
    inject deliberately bad candidates to prove rollback).

    Everything is driven by virtual time and seeded RNG streams: two runs
    with the same config produce bit-identical statistics (except
    [wall_seconds]). *)

open Ansor_workloads

type canary_config = {
  fraction : float;  (** share of a key's traffic routed to the candidate,
                         in (0, 1) *)
  min_samples : int;  (** per-arm sample floor before deciding *)
  margin : float;  (** allowed p95 slack before a candidate is rejected *)
}

val default_canary : canary_config
(** fraction 0.2, 24 samples per arm, 5% margin. *)

type tuner_config = {
  every : float;  (** virtual seconds between background tuner rounds *)
  trials : int;  (** measurements per round *)
}

type config = {
  shards : int;
  capacity : int;  (** per-shard compiled-program LRU capacity *)
  service_workers : int;  (** virtual in-flight request slots *)
  noise : float;  (** execution-jitter stddev (0 = deterministic latencies) *)
  seed : int;
  naive : bool;  (** bypass the registry and serve naive default schedules *)
  load : Loadgen.config;
  admission : Admission.config;
  canary : canary_config;
  tuner : tuner_config option;  (** [None] disables background tuning *)
}

val default_config : config
(** 4 shards, capacity 64, 2 service workers, noise 0.03, registry
    dispatch, default load/admission/canary, no background tuner (when
    set, it measures on one domain). *)

type t

val create :
  ?config:config ->
  ?model_store:Ansor_model_store.Model_store.session ->
  registry:Ansor_registry.Registry.t ->
  machine:Ansor_machine.Machine.t ->
  Workloads.net ->
  t
(** Resolves every layer through the registry ladder up front.

    [model_store] attaches a cross-task model store to the background
    tuner: its first retune warm-starts from the pretrained model the
    exact -> class -> global ladder resolves for the hot key (plus the
    key's class samples as auxiliary training data), and every measured
    batch is appended back to the store — so canary retunes of hot keys
    begin warm instead of cold.  An empty store leaves the server
    bit-identical to a storeless one.

    @raise Invalid_argument on an empty network or an out-of-range
    config (shards/capacity/workers < 1, canary fraction outside (0,1),
    non-positive tuner interval). *)

val net : t -> Workloads.net
val machine : t -> Ansor_machine.Machine.t

val run : t -> requests:int -> unit
(** Offer [requests] requests and play them to completion (the queue
    fully drains).  With [config.load.arrival_rate > 0] they follow the
    open-loop {!Loadgen.generate} trace.  With [arrival_rate = 0] the
    loop is closed: one request starts per service worker at time 0 and
    each completion issues the next at its completion time, so requests
    never wait and sojourn equals service time.  May be called
    repeatedly; virtual time restarts at 0 but statistics accumulate.
    @raise Invalid_argument if [requests < 1]. *)

val warm : t -> unit
(** Compile every layer's incumbent without serving (cold-start control). *)

val verify_outputs : ?tol:float -> ?seed:int -> t -> (unit, string) result
(** Executes every layer's incumbent {e compiled} program on random inputs
    through the interpreter and compares against the naive DAG evaluation
    ({!Ansor_interp.Interp.check_equivalent}, default tolerance) — the
    serving-side soundness check.  [Error] names the first mismatching
    layer.  Interprets real arrays: small shapes only. *)

(** {1 Live rollout} *)

val propose :
  t -> origin:string -> key:string -> Ansor_sched.State.t -> (unit, string) result
(** Enter a candidate schedule for [key] into the canary gate.  [Error]
    when the key is unknown, a candidate is already in flight, or the
    state does not lower.  The background tuner uses the same entry
    point with [origin "tuner"]. *)

val keys : t -> string list
val generation : t -> key:string -> int option
(** Promotion count for a key ([None] if unknown). *)

val candidate_active : t -> key:string -> bool

val incumbent_latency : t -> key:string -> float option
(** The incumbent compiled program's noise-free simulator estimate. *)

val incumbent :
  t -> key:string -> (Ansor_sched.Prog.t * Ansor_registry.Registry.outcome) option
(** The incumbent compiled program and the rung of the registry ladder
    its layer was resolved through at {!create}. *)

val nominal_latency : t -> float
(** One request's noise-free end-to-end service time (sum of weighted
    incumbent layer estimates) — the capacity anchor for choosing arrival
    rates in benches and tests. *)

(** {1 Telemetry} *)

type event_kind = Proposed | Promoted | Rolled_back

type event = {
  vtime : float;
  key : string;
  kind : event_kind;
  origin : string;  (** ["tuner"] or the {!propose} caller's tag *)
  candidate_p95 : float;
  incumbent_p95 : float;
      (** for [Proposed], the two fields carry the simulator estimates
          instead (no live samples yet) *)
}

type shard_stats = {
  shard_id : int;
  runs : int;
  hits : int;
  misses : int;
  evictions : int;
  latency : Histogram.summary;
}

type tenant_stats = {
  tenant : string;
  offered : int;
  served : int;
  shed : int;
  quota_rejected : int;
}

type stats = {
  offered : int;
  served : int;
  shed : int;  (** [shed_queue_full + shed_displaced] *)
  shed_queue_full : int;
  shed_displaced : int;
  quota_rejected : int;
  max_queue_depth : int;
  layer_runs : int;
  exact : int;
  adapted : int;
  defaulted : int;
  invalidations : int;  (** stale shard-LRU entries recompiled after a
                            promotion *)
  promotions : int;
  rollbacks : int;
  proposals : int;
  tuner_rounds : int;
  warm_starts : int;
      (** background-tuner warm starts from the attached model store *)
  store_samples : int;
      (** measured samples the background tuner contributed to the store *)
  sojourn : Histogram.summary;
      (** accepted-request end-to-end latency, queueing included *)
  service : Histogram.summary;  (** merged per-shard execution latency *)
  shards : shard_stats list;
  tenants : tenant_stats list;  (** sorted by tenant name *)
  events : event list;  (** oldest first *)
  vtime : float;
  wall_seconds : float;
}

val stats : t -> stats

val conserved : stats -> bool
(** [offered = served + shed + quota_rejected] — exact once {!run}
    returns (the queue has drained). *)

val stats_json : stats -> string
(** Stable single-object JSON: every counter, the conservation flag, the
    sojourn/service latency summaries (with p999), per-shard and
    per-tenant breakdowns, and the rollout event log. *)

val report : t -> stats -> string
(** Human report of [stats t] (computed once by the caller, who may also
    want {!stats_json} of it): conservation line, latency summaries,
    per-shard and per-tenant tables, rollout events, sojourn
    histogram. *)
