(** The program sampler (§4): sketches + random annotation.

    Uniformly picks one of the DAG's sketches, fills its tile sizes at
    random and annotates it, yielding a complete program.  Random sampling
    gives every point of the hierarchical space a chance to be drawn; the
    quality of individual samples is the tuner's job (§5). *)

open Ansor_te
open Ansor_sched

val sample_one :
  Ansor_util.Rng.t ->
  Policy.t ->
  Dag.t ->
  sketches:State.t list ->
  State.t option
(** One random complete program; [None] only if every retry produced an
    inconsistent fill (does not happen for the built-in rules, but user
    rules may create dead ends). *)

val sample :
  Ansor_util.Rng.t ->
  Policy.t ->
  Dag.t ->
  sketches:State.t list ->
  n:int ->
  State.t list
(** [n] independent samples (deduplicated retries are not attempted:
    duplicates are possible, as in the paper's sampler). *)

val sample_candidates :
  Ansor_util.Rng.t ->
  Policy.t ->
  Dag.t ->
  sketches:State.t list ->
  n:int ->
  Candidate.t list
(** {!sample} with each sample's lowering kept: the same draws, the same
    states, as candidates for the tuner. *)
