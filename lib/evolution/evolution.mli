(** Evolutionary search (§5.1).

    Fine-tunes a population of complete programs by mutation and
    crossover, using the learned cost model as the fitness function.
    Programs are step histories; every operator edits the history and
    re-validates it with the constrained replay of
    {!Ansor_sketch.Annotate.replay_constrained} followed by lowering,
    mirroring the paper's "Ansor further verifies the merged programs" —
    offspring that do not verify are discarded.  A verified offspring is
    a {!Ansor_sched.Candidate.t}: lowered and keyed once, here, and
    carried as-is through the population, scoring and the tuner's
    measured batch.  Offspring that replay and lower but carry a
    constructive data race ({!Ansor_analysis.Races.errors}: e.g. a
    [Parallel] annotation on a reduction iterator) are discarded before
    they are scored; every such rejection fires the [on_reject]
    callback, which telemetry counts as [statically_rejected].  The
    validator and the bounds certifier never rejected an offspring, so
    they do not run here: the tuner runs them once per measured program,
    at its measurement boundary.

    Operators:
    - {e tile-size mutation}: moves a factor between two levels of one
      split, keeping the product equal to the loop length; splits of
      fusion consumers are re-derived from the producer's sizes;
    - {e annotation mutation}: flips or drops a parallel / vectorize /
      unroll annotation, or shrinks a parallel fuse;
    - {e pragma mutation}: re-draws [auto_unroll_max_step];
    - {e computation-location mutation}: moves a fused producer to a
      coarser tile level or back to the target's top;
    - {e node-based crossover}: per DAG node, inherits the tile sizes and
      annotation steps from the parent whose statements the cost model
      scores higher. *)

open Ansor_te
open Ansor_sched

type config = {
  population : int;
  generations : int;
  crossover_prob : float;
      (** probability an offspring comes from crossover rather than
          mutation; crossover then takes each node's genes from the
          better-scoring parent with probability 0.8, else from a random
          one *)
  mutate_annotations : bool;
      (** allow annotation / pragma / computation-location mutations;
          disabled for template-space baselines whose annotation policy is
          fixed *)
}

val default_config : config
(** population 128, 4 generations, 15% crossover. *)

type scored = { cand : Candidate.t; fitness : float }

val evolve :
  ?on_reject:(unit -> unit) ->
  scorer:Ansor_cost_model.Score_service.t ->
  Ansor_util.Rng.t ->
  config ->
  Ansor_sketch.Policy.t ->
  Dag.t ->
  init:Candidate.t list ->
  out:int ->
  scored list
(** Runs the configured number of generations starting from [init]
    (sampled programs plus previously-measured good ones) and returns the
    [out] best {e distinct} programs seen, best first.  Programs are told
    apart by {!Ansor_sched.Candidate.key}, the canonical lowered-program
    hash, so two histories that lower to one program count once (under
    the first history that reached it).  Fitness is the [scorer]'s model
    (the caller installs it with
    {!Ansor_cost_model.Score_service.set_model}); each generation is
    scored in one batched {!Ansor_cost_model.Score_service.score} call.
    With an untrained model all fitnesses are 0 and selection degenerates
    to uniform, as in the paper's first iteration.  Scoring consumes no RNG,
    and the scorer's results do not depend on its worker count, so the
    output — RNG stream included — is bit-identical at any worker
    count.

    Each call verifies a proposal once: it owns a table from the
    {!Ansor_sched.Step.history_key} of every edited history its
    operators propose to what {!verify} concluded (dead, rejected, or
    the verified candidate), and a second one from each lowered
    program's {!Ansor_sched.Candidate.key} to its static-check outcome,
    so a new history that lowers to a program already checked skips the
    check.  The first table is keyed by history because it memoises
    replay, which runs before there is a program to key.  Both verdicts
    are pure functions of their key for a fixed DAG, so a hit returns
    what verifying again would, and a rejected hit fires [on_reject]
    again: every rejected proposal is counted, as without the table.
    The table is created when the call starts and dropped when it
    returns.  Kept longer, it grows with the session
    (kept across perfbench's three sessions in one process, it raised
    the peak heap from about 200 to 600 MB), and a candidate
    it handed out to a later consumer (descent, the tuner's neighbor
    slots) would be physically shared where a fresh one was before,
    which changes the bytes [Marshal] writes for a checkpoint. *)

(** The individual operators, exposed for testing and for the ablation
    benchmarks. Each returns [None] when the edited history fails
    verification. *)

val mutate_tile_sizes :
  ?on_reject:(unit -> unit) ->
  Ansor_util.Rng.t -> Dag.t -> State.t -> Candidate.t option

val mutate_annotation :
  ?on_reject:(unit -> unit) ->
  Ansor_util.Rng.t -> Dag.t -> State.t -> Candidate.t option

val mutate_pragma :
  ?on_reject:(unit -> unit) ->
  Ansor_util.Rng.t -> Ansor_sketch.Policy.t -> Dag.t -> State.t -> Candidate.t option

val mutate_location :
  ?on_reject:(unit -> unit) ->
  Ansor_util.Rng.t -> Dag.t -> State.t -> Candidate.t option

val crossover :
  ?on_reject:(unit -> unit) ->
  scorer:Ansor_cost_model.Score_service.t ->
  Ansor_util.Rng.t ->
  greedy_node_prob:float ->
  Dag.t ->
  Candidate.t ->
  Candidate.t ->
  Candidate.t option
(** Per DAG node, inherits from the parent whose statements the
    [scorer] scores higher (both parents in one batched
    {!Ansor_cost_model.Score_service.stmt_scores} call, served from its
    table for population members). *)

val node_of_stage : string -> string
(** Maps derived stage names (["C.local"], ["C.rf"]) back to their DAG
    node (["C"]): the granularity of crossover. *)

val verify :
  ?on_reject:(unit -> unit) -> Dag.t -> Step.t list -> Candidate.t option
(** Replays an edited history ([fill:Keep]), lowers it into a candidate,
    and statically rejects programs with a constructive race
    ({!Ansor_analysis.Races.errors}) — evolution's own offspring gate,
    exposed so the coordinate-descent stage sends its neighbors through
    the identical filter.  [on_reject] fires only for race rejections.
    The validator and the bounds certifier run later, once per measured
    program, at the tuner's measurement boundary. *)

val consumer_stages : Step.t list -> string list
(** Stages whose splits are re-derived from a producer ([Compute_at]
    targets); their split steps must not be edited directly. *)

(** The move vocabulary that evolution's mutations draw from at random
    and the descent stage enumerates in order.  [tunable_split] holds
    for a split of two or more levels, of a stage not in [consumers],
    with some level above 1; [annotation_moves] flips an [Annotate] step
    or makes a [Fuse] of three or more loops one level coarser ([[]] for
    any other step); [other_unroll_steps] lists the policy's unroll
    steps other than the current one, in policy order. *)

val tunable_split : consumers:string list -> Step.t -> bool
val annotation_moves : Step.t -> Step.t list
val other_unroll_steps : Ansor_sketch.Policy.t -> int -> int list
val replace_nth : 'a list -> int -> 'a -> 'a list

(** Evolution-plateau detector: the trigger signal for the exploitation
    descent stage.  [observe] is fed the tuner's best-so-far latency
    after each evolutionary round; it returns — and [stalled] keeps
    reporting — [true] once [patience] consecutive observations fail to
    strictly improve it. *)
module Plateau : sig
  type t

  val create : patience:int -> t

  val observe : t -> float -> bool
  (** Feed one post-round best latency; [true] if now stalled. *)

  val stalled : t -> bool

  val stall : t -> int
  (** Consecutive non-improving observations so far (for snapshots). *)

  val restore : patience:int -> best:float -> stall:int -> t
  (** Rebuilds the detector from snapshot state. *)
end
