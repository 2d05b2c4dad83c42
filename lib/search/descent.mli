(** Coordinate-descent exploitation finisher ("Droplet"-style, after
    "Explore as a Storm, Exploit as a Raindrop", arXiv:2406.20037).

    Evolutionary search explores broadly but keeps spending measurements
    on mutation noise once a good incumbent exists.  This stage takes the
    incumbent program, enumerates its tunable coordinates — split factors
    walked along the factorization lattice, [auto_unroll_max_step]
    values, annotation flips, parallel-fuse granularity — and greedily
    line-searches each coordinate under the batched cost model
    ({!Ansor_cost_model.Score_service}, so scoring stays pooled and
    feature-cached).  Only the per-coordinate line-search winners reach
    the measurement service; the stage stops on a measured plateau
    ([plateau_sweeps] consecutive non-improving sweeps) and the final
    winner is re-seeded into the tuner's population and best-so-far.

    The stage consumes no RNG and breaks score ties by first index, so
    it is bit-identical at any [--workers] count, like every other
    phase.  Every proposed neighbor flows through evolution's offspring
    gate unchanged ({!Ansor_evolution.Evolution.verify}: constrained
    replay, lowering, and the race detector's errors, so racy programs
    are dropped before scoring) and the tuner's dedup against
    already-measured programs; the winners then pass the tuner's
    measurement boundary (validator and bounds certifier) like every
    measured program.
    Neighbors are {!Ansor_sched.Candidate.t}s from that gate on: scored
    and, for the winners, measured without being lowered again. *)

open Ansor_te
open Ansor_sched

(** Descent triggers once evolution has gone 6 rounds without
    best-latency improvement, or once [budget_fraction] of the trial
    budget is spent.  Each sweep walks a coordinate's line for at most 8
    moves and measures at most 16 per-coordinate winners (the
    top-scoring ones), which keeps sweeps cheap and re-anchoring
    frequent. *)
type config = {
  budget_fraction : float;
      (** alternative trigger: start descending once this share of the
          trial budget is spent, plateau or not *)
  plateau_sweeps : int;
      (** stop after this many consecutive measured sweeps that fail to
          improve the incumbent *)
}

val default_config : config
(** budget fraction 0.75, plateau 2 — descent as a late-stage finisher:
    evolution explores most of the budget, descent polishes the
    incumbent at the end. *)

(** One editable step of the incumbent's history, addressed by index.
    All edits are same-index replacements, so coordinate addresses stay
    valid across a sweep. *)
type coord =
  | Split_levels of int  (** a [Split]'s factor vector *)
  | Unroll_pragma of int  (** an [auto_unroll_max_step] pragma *)
  | Annotation of int  (** a parallel/vectorize/unroll annotation *)
  | Fuse_extent of int  (** a parallel fuse's granularity *)

val coord_index : coord -> int

(** The resumable position of a descent stage.  Pure data (a step
    history plus counters), so it marshals into the session snapshot and
    a [--resume] replays mid-descent deterministically. *)
type cursor = {
  current : Step.t list;  (** incumbent the next sweep starts from *)
  sweeps : int;
  non_improving : int;  (** consecutive sweeps without measured improvement *)
  finished : bool;
}

val start : State.t -> cursor
(** A fresh cursor anchored on the incumbent. *)

val coordinates : State.t -> coord list
(** Tunable coordinates of a state, in history order.  Splits of
    fusion-consumer stages (whose sizes are re-derived from the
    producer) are excluded, mirroring evolution's tile mutation. *)

val proposals : policy:Ansor_sketch.Policy.t -> State.t -> coord -> Step.t list list
(** Raw edited histories one lattice move away along the coordinate, in
    a fixed deterministic order; not yet validated. *)

val neighbors :
  ?on_reject:(unit -> unit) ->
  policy:Ansor_sketch.Policy.t ->
  Dag.t -> State.t -> coord -> Candidate.t list
(** {!proposals} filtered through {!Ansor_evolution.Evolution.verify}.
    [on_reject] fires once per statically-rejected proposal. *)

val sweep :
  dag:Dag.t ->
  policy:Ansor_sketch.Policy.t ->
  scorer:Ansor_cost_model.Score_service.t ->
  ?on_reject:(unit -> unit) ->
  measured:(string -> bool) ->
  cursor ->
  (Candidate.t list, string) result
(** One coordinate sweep from the cursor's incumbent: line-search every
    coordinate in order under the scorer and nominate, per coordinate,
    the best-scoring point on its explored line whose program
    ({!Ansor_sched.Candidate.key}, the canonical lowered-program hash) is
    not yet [measured], keeping the top 16 of them — the only candidates
    that should reach the measurement service.  The walk and the winners
    are distinct programs too, so two edits that lower to one program
    count once.  The model
    guides the walk; whether a winner actually improves the incumbent is
    decided by measurement, which is what makes the plateau stop a
    measured plateau.  [Error] if the cursor's history no longer
    replays or lowers. *)

val advance : config -> cursor -> improved:bool -> best:Step.t list -> cursor
(** Fold one sweep's measured outcome into the cursor: [improved] resets
    the plateau counter and re-anchors on [best] (the tuner's new
    incumbent history); otherwise the counter increments, and the cursor
    finishes once it reaches [plateau_sweeps]. *)
