(** Schedule state: the loop structure of every stage of a DAG.

    A state is created from a {!Ansor_te.Dag.t} with one stage per compute
    operator (naive loops: space axes then reduction axes), and evolves by
    applying {!Ansor_sched.Step} transform steps.  The state records the
    full step history, so any state can be reconstructed by replaying its
    history on the original DAG — the property the evolutionary search's
    crossover relies on.

    Types are exposed for the sampler, the tuner and the lowering pass;
    mutating states other than through {!apply} voids the invariants. *)

open Ansor_te

type iter_kind = Space | Reduce

type ivar_info = {
  iname : string;  (** display name, e.g. ["i.2"] or ["i.0@j.0"] *)
  extent : int;
  kind : iter_kind;
  ann : Step.annotation;
}

(** How iterators were derived from one another; used by lowering to
    reconstruct original axis values from concrete loop variables. *)
type relation =
  | Rsplit of { parent : int; children : int list; lengths : int list }
      (** [parent = sum_i children_i * prod_{j>i} lengths_j] *)
  | Rfuse of { fused : int; components : int list; lengths : int list }
      (** [components_i = (fused / prod_{j>i} lengths_j) mod lengths_i] *)

type location =
  | Loc_root  (** own loop nest at the top level *)
  | Loc_inlined  (** body substituted into consumers *)
  | Loc_at of { target : string; target_iv : int; bindings : (int * int) list }
      (** nested in [target]'s loop nest; see {!Step.Compute_at} *)

type stage = {
  op : Op.t;
  ivars : ivar_info array;  (** append-only table; ids are indices *)
  rels : relation list;  (** creation order *)
  leaves : int list;  (** current loop nest, outermost first *)
  loc : location;
  max_unroll : int option;
}

type t = {
  dag : Dag.t;  (** current DAG, including surgery (cache/rfactor) stages *)
  stages : (string * stage) list;  (** compute stages, in DAG topo order *)
  history : Step.t list;  (** steps applied so far, oldest first *)
}

exception Illegal of string
(** Raised by {!apply} on steps violating schedule legality. *)

val init : Dag.t -> t

val apply : t -> Step.t -> t
(** @raise Illegal when the step does not apply to the current state. *)

val apply_checked : t -> Step.t -> (t, string) result

val replay : Dag.t -> Step.t list -> t
(** [replay dag steps = List.fold_left apply (init dag) steps]; raises
    {!Illegal} like {!apply}. *)

val replay_checked : Dag.t -> Step.t list -> (t, string) result

(** {1 Accessors} *)

val find_stage : t -> string -> stage
(** @raise Not_found *)

val stage_names : t -> string list
val ivar : stage -> int -> ivar_info
val leaf_pos : stage -> int -> int option
(** Position of an iterator in the current leaf order, if it is a leaf. *)

val is_pristine : stage -> bool
(** No step has touched the stage yet (leaves are the original axes, at
    root location). Cache-write and rfactor require this. *)

val num_space_leaves : stage -> int
val num_reduce_leaves : stage -> int

val attach_targets : t -> string -> (string * int) list
(** Stages attached (directly) under the given stage, with their target
    iterator. *)

val pp : Format.formatter -> t -> unit
(** Prints every stage's loop nest (without lowering). *)
