(** Sketch derivation rules (§4.1, Table 1).

    A rule inspects the current derivation state — a schedule
    {!Ansor_sched.State.t} plus the index of the working node — and, when
    its condition holds, produces one or more successor states.  Rules may
    rewrite the DAG (cache stages, rfactor).  The rule set is open: users
    register additional rules for special algorithms, exactly as the paper
    allows ("User Defined Rule" row of Table 1). *)

open Ansor_sched

type t = {
  name : string;
  condition : State.t -> int -> bool;
      (** [condition state i]: does the rule apply to operator [i]? *)
  apply : State.t -> int -> (State.t * int) list;
      (** successor states with their next working-node index;
          indices must be < the DAG size and the search must make
          progress (the generator enforces a step budget) *)
  exclusive : bool;
      (** when true and the condition holds, lower-priority rules are not
          tried on this state (the behaviour of always-inline and
          tiling-with-fusion) *)
}

val skip : t
(** Rule 1: move on without transforming the node. *)

val default : t list
(** The Table-1 rule set, in priority order.  Rules 3 (multi-level tiling
    for data-reuse nodes with no fusible consumer) and 4 (the same plus
    fusion of the elementwise consumer; exclusive) are built per {!tiling}
    by {!make}. *)

(** Tiling-structure parameters: number of space and reduction tile
    levels and how many outer levels fusion binds. *)
type tiling = { space_parts : int; reduce_parts : int; bind_levels : int }

val default_tiling : tiling
(** SSRSRS: 4 space levels, 2 reduction levels, 2 bound levels. *)

val make :
  tiling:tiling ->
  with_fusion:bool ->
  with_cache:bool ->
  with_rfactor:bool ->
  t list
(** Assembles a rule set. [with_fusion:false] replaces rule 4 by
    unfused multi-level tiling (the FlexTensor-like single-operator
    space). *)

val limited : fusion:bool -> t list
(** The manual-template-like rule set of the "Limited space" ablation and
    the AutoTVM baseline: two-level space and reduction tiling with one
    bound level, and no cache or rfactor rules. *)
