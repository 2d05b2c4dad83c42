(** The per-task tuner: program sampling + performance fine-tuning, one
    round at a time.

    One {e round} is the task scheduler's unit of time resource (§6): the
    tuner proposes a batch of promising programs (by strategy), measures
    them, records the results in the shared training set and periodically
    retrains the shared cost model.  The loop around the rounds (trial
    budget, stop rule, which task goes next) is the task scheduler's
    [run]; tuning one operator is its one-task case ([Ansor.tune]).

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
  batch_size : int;
      (** measurements per round; a tenth of them are drawn at random
          from the candidates instead of by model rank *)
  sample_size : int;  (** fresh random samples per round *)
  evolution : Ansor_evolution.Evolution.config;
      (** its initial population also holds the 12 best programs measured
          so far *)
  template_annotation : bool;
      (** freeze the annotation choices (fixed vectorize/unroll policy, no
          computation-location changes), as manual templates do; set for
          the AutoTVM / FlexTensor baselines and the "Limited space"
          ablation *)
  descent : Descent.config option;
      (** enable the coordinate-descent exploitation finisher
          ({!Descent}): once evolution plateaus (6 rounds without
          improvement) or the configured budget fraction is spent,
          rounds switch to deterministic coordinate sweeps on the
          incumbent until a measured plateau, then evolution resumes
          from the descended winner.  [None] (the default everywhere)
          disables the stage. *)
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

  val create : unit -> t
  (** An empty training set and an untrained model.  The model is
      retrained on every measured batch, as in the paper, from the 3000
      most recent records. *)

  val model : t -> Ansor_cost_model.Cost_model.t
  val records : t -> Ansor_cost_model.Cost_model.record list
  val num_records : t -> int

  val generation : t -> int
  (** Retrain counter: bumped every time {!model} is replaced (retrains,
      {!restore}, {!adopt_store}). *)

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
      trains on a record twice).  The model is replaced (and the
      generation bumped) at most once, and not at all when there is
      nothing to adopt, keeping the empty-store session bit-identical to
      a storeless one.  Returns
      whether a warm start happened. *)

  val provenance : t -> string
  (** ["cold"], or the warm model's ladder rung: ["exact"] / ["class"] /
      ["global"].  Survives snapshot/restore. *)

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

  (** Checkpoint image of the shared state: the full training set (newest
      first, order preserved) plus whether a model had been trained.  Pure
      data — safe to marshal. *)
  type snapshot

  val snapshot : t -> snapshot

  val restore : t -> snapshot -> unit
  (** Replaces the training set and retrains the model from it when the
      snapshot had one.  Training is deterministic in the record list and
      every measured batch retrains, so the restored model is exactly the
      interrupted session's. *)
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
    measured_keys : string list;
        (** dedup set: the {!Ansor_sched.Candidate.key} of every program
            measured *)
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
    measured set and curve.  Step histories that no longer replay or lower
    are dropped silently.  [Error] if the snapshot belongs to a different
    task. *)

val round :
  ?budget:int -> t -> Shared.t -> Ansor_measure_service.Service.t -> unit
(** Generate, measure [batch_size] programs through the measurement
    service, record, maybe retrain.  Each program is lowered and keyed
    once, when it is proposed, and carried as a
    {!Ansor_sched.Candidate.t} through scoring, measurement and the
    training records (built from the features the round's scorer
    computed; the scorer lives for this one round and model).  Its key
    is the program's one identity: a batch holds distinct programs that
    this tuner has not measured before, so no slot goes to a program
    already measured and no program enters the training set twice.  Phase
    timings (sample / evolve / model-rank / measure / retrain / descent)
    land in the service's telemetry.

    With {!options.descent} set, a round instead performs one
    coordinate-descent sweep while the exploitation stage is active; the
    stage starts once evolution plateaus or — when the session's total
    trial [budget] is known (the task scheduler passes it) — once the
    configured fraction of it is spent. *)

val best_latency : t -> float
(** Best {e observed} latency so far ([infinity] before any
    measurement). *)

val best_state : t -> State.t option
