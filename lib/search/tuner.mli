(** The per-task tuning loop: program sampling + performance fine-tuning.

    One {e round} is the task scheduler's unit of time resource (§6): the
    tuner proposes a batch of promising programs (by strategy), measures
    them, records the results in the shared training set and periodically
    retrains the shared cost model.

    Strategies cover the paper's system and its ablation / baseline
    variants:
    - {!ansor_options}: hierarchical sampling + evolutionary fine-tuning
      with the full rule set ("Ansor (ours)");
    - {!no_finetune_options}: random sampling only ("No fine-tuning");
    - {!limited_options}: full fine-tuning on a manual-template-like space
      ("Limited space");
    - {!beam_options}: sequential construction with early pruning of
      incomplete programs by the cost model ("Beam search", the Halide
      auto-scheduler design point);
    - {!autotvm_options} / {!flextensor_options}: template spaces with
      model-ranked random parameter search (no evolution), standing in for
      AutoTVM and FlexTensor. *)

open Ansor_sched

type strategy =
  | Sketch_search of {
      rules : Ansor_sketch.Rules.t list;
      use_evolution : bool;
    }
  | Beam_search of { beam_width : int; rollouts : int }

type options = {
  strategy : strategy;
  batch_size : int;  (** measurements per round *)
  sample_size : int;  (** fresh random samples per round *)
  evolution : Ansor_evolution.Evolution.config;
  eps_random : float;
      (** fraction of each measured batch drawn at random from the
          candidates instead of by model rank *)
  keep_previous : int;
      (** best already-measured programs re-seeded into the evolution's
          initial population *)
  template_annotation : bool;
      (** freeze the annotation choices (fixed vectorize/unroll policy, no
          computation-location changes), as manual templates do; set for
          the AutoTVM / FlexTensor baselines and the "Limited space"
          ablation *)
  descent : Descent.config option;
      (** enable the coordinate-descent exploitation finisher
          ({!Descent}): once evolution plateaus (or the configured budget
          fraction is spent), rounds switch to deterministic coordinate
          sweeps on the incumbent until a measured plateau, then
          evolution resumes from the descended winner.  [None] (the
          default everywhere) disables the stage. *)
}

val ansor_options : options
val no_finetune_options : options
val limited_options : options
val beam_options : options
val autotvm_options : options
val flextensor_options : options

(** State shared between all tasks of a tuning session: the single cost
    model and its training set (§5.2 trains "a single model for all tensor
    programs coming from all DAGs"). *)
module Shared : sig
  type t

  val create : ?train_every:int -> ?max_records:int -> unit -> t
  (** [train_every] rounds between retrains (default 1: retrain on every
      measured batch, as in the paper). [max_records] caps the training
      set to the most recent records (default 3000). *)

  val model : t -> Ansor_cost_model.Cost_model.t
  val records : t -> Ansor_cost_model.Cost_model.record list
  val num_records : t -> int

  val generation : t -> int
  (** Retrain counter: bumped every time {!model} is replaced (periodic
      retrains, {!restore}, {!adopt_store}).  The batch scoring service
      syncs on it to invalidate cached scores exactly once per new model
      ({!Ansor_cost_model.Score_service.sync}). *)

  val attach_store : ?path:string -> t -> Ansor_model_store.Model_store.t -> unit
  (** Attach a cross-task model store: every measured batch is appended
      to it (deduplicated by canonical lowered-program hash), and to the
      file at [path] when given. *)

  val adopt_store :
    t ->
    warm:(string * Ansor_gbdt.Gbdt.t) option ->
    aux:Ansor_model_store.Model_store.sample list ->
    bool
  (** Adopt a resolved warm start.  [warm = Some (origin, model)] seeds
      the cost model with the pretrained GBDT (only while the session is
      still cold — a restored fine-tuned model keeps its state) and every
      later retrain fine-tunes from it; [aux] sibling samples from the
      store join the training corpus (the session's own past
      contributions are filtered out by hash, so a resumed session never
      trains on a record twice).  The generation is bumped at most once —
      cached scores invalidate exactly once, cached features survive —
      and not at all when there is nothing to adopt, keeping the
      empty-store session bit-identical to a storeless one.  Returns
      whether a warm start happened. *)

  val provenance : t -> string
  (** ["cold"], or the warm model's ladder rung: ["exact"] / ["class"] /
      ["global"].  Survives snapshot/restore. *)

  val is_warm : t -> bool

  val warm_starts : t -> int
  (** Warm starts adopted over the session's lifetime (at most one per
      {!adopt_store} call; {!restore} carries the count over). *)

  val record_samples : t -> Ansor_model_store.Model_store.sample list -> int
  (** Persist one measured batch to the attached store (no-op without
      one): the samples' hashes are remembered as this session's own
      contributions, duplicates already in the store are dropped, and the
      rest are appended to the store (and its file, when attached with a
      path).  Returns how many were new.  {!round} calls this for every
      measured batch. *)

  val store_added : t -> int
  (** Samples newly persisted to the attached store. *)

  val num_aux : t -> int
  (** Store-derived sibling records currently in the training corpus. *)

  val has_store : t -> bool

  (** Checkpoint image of the shared state: the full training set (newest
      first, order preserved) plus whether a model had been trained.  Pure
      data — safe to marshal. *)
  type snapshot

  val snapshot : t -> snapshot

  val restore : t -> snapshot -> unit
  (** Replaces the training set and retrains the model from it when the
      snapshot had one (training is deterministic in the record list, so
      with the default [train_every = 1] the restored model is exactly the
      interrupted session's; with a larger [train_every] it may see up to
      [train_every - 1] newer rounds of records than the original did). *)
end

type t

val create :
  ?seed:int -> ?warm_start:Ansor_sched.Step.t list list -> options -> Task.t -> t
(** [warm_start] seeds the tuner with previously-recorded step histories
    (e.g. from {!Record.load_salvage} entries of the same task key): they join the
    evolution's initial population from the first round, so a re-tuning
    session starts from past results instead of from scratch. Histories
    that no longer replay are ignored. *)

val task : t -> Task.t

(** Checkpoint image of one tuner: everything mutable between rounds, as
    pure marshal-safe data.  States are stored as replayable step
    histories (the {!Record} representation), so a snapshot survives
    process death and restores against a freshly rebuilt task. *)
module Snapshot : sig
  type t = {
    task_key : string;  (** {!Task.key} of the tuner's task *)
    rng_state : int64;  (** search-RNG cursor *)
    rounds : int;
    best : (Ansor_sched.Step.t list * float) option;
    good : (Ansor_sched.Step.t list * float) list;  (** ascending latency *)
    measured_keys : string list;  (** dedup set of measured histories *)
    curve : (int * float) list;  (** oldest first *)
    descent : Descent.cursor option;
        (** exploitation-descent position, so a resume replays
            mid-descent deterministically *)
    plateau_stall : int;  (** evolution-plateau detector state *)
  }
end

val snapshot : t -> Snapshot.t

val restore : t -> Snapshot.t -> (unit, string) result
(** Restores a freshly {!create}d tuner (same seed, options, task) to the
    snapshot's state: RNG cursor, round count, population, best-so-far,
    measured set and curve.  Step histories that no longer replay are
    dropped silently.  [Error] if the snapshot belongs to a different
    task. *)

val round :
  ?budget:int -> t -> Shared.t -> Ansor_measure_service.Service.t -> unit
(** Generate, measure [batch_size] programs through the measurement
    service, record, maybe retrain.  Phase timings (sample / evolve /
    model-rank / measure / retrain / descent) land in the service's
    telemetry.

    With {!options.descent} set, a round instead performs one
    coordinate-descent sweep while the exploitation stage is active; the
    stage starts once evolution plateaus or — when the total trial
    [budget] is known (passed by {!tune}) — once the configured fraction
    of it is spent. *)

val best_latency : t -> float
(** Best {e observed} latency so far ([infinity] before any
    measurement). *)

val best_state : t -> State.t option

val rounds_done : t -> int

val curve : t -> (int * float) list
(** [(cumulative measurement trials, best latency so far)] after each
    round, oldest first. *)

val tune :
  ?seed:int ->
  ?shared:Shared.t ->
  ?service:Ansor_measure_service.Service.t ->
  ?should_stop:(unit -> bool) ->
  ?on_round:(t -> unit) ->
  options ->
  trials:int ->
  Task.t ->
  t * Ansor_measure_service.Service.t
(** Convenience: rounds until the service's trial count reaches the budget
    (or three consecutive rounds consume no trials); returns the tuner and
    the service (freshly created with default config unless supplied) for
    inspection.

    [should_stop] is polled before each round — graceful shutdown: the
    loop exits between rounds, never mid-batch.  [on_round] runs after
    every completed round (checkpoint hook). *)
