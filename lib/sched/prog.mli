(** Lowered programs: concrete, executable loop nests.

    Lowering a schedule {!State.t} produces a [t]: a sequence of (possibly
    nested) loops whose leaf statements read and write whole-tensor buffers
    using index expressions over the concrete loop variables.  This is the
    common input of the reference interpreter (functional correctness), the
    hardware simulator (performance measurement) and the feature extractor
    (the learned cost model). *)

open Ansor_te

type stmt = {
  stage : string;  (** the stage this statement computes *)
  tensor : string;  (** output buffer *)
  indices : Expr.iexpr list;  (** output indices, over concrete loop vars *)
  rhs : Expr.t;  (** value, over concrete loop vars; inlining applied *)
  update : Op.reduce_kind option;
      (** [None]: plain store; [Some k]: combine into the buffer with [k] *)
  max_unroll : int option;  (** enclosing [auto_unroll_max_step] pragma *)
}

type loop = {
  lvar : string;  (** concrete loop variable, unique in the program *)
  extent : int;
  kind : State.iter_kind;
  ann : Step.annotation;
  body : item list;
}

and item = Loop of loop | Stmt of stmt

type t = {
  items : item list;
  buffers : (string * int list) list;
      (** every buffer the program touches (inputs and stage outputs) with
          its shape; scalars have shape [[]] *)
  inits : (string * float) list;
      (** reduction buffers and their initialization value *)
}

val num_stmts : t -> int

val iter_stmts : t -> (loop list -> stmt -> unit) -> unit
(** Visits every statement with its enclosing loops, outermost first. *)

val buffer_size : int list -> int
(** Number of elements of a buffer of the given shape (1 for scalars). *)

val canonical_payload : t -> string
(** Marshalled structural content (items, buffers, inits) — the canonical
    identity every program-keyed cache builds its key from.  Two programs
    with identical loop nests, statements, buffers and initializations
    share a payload regardless of the step histories that produced
    them. *)

val canonical_hash : t -> string
(** Hex digest of {!canonical_payload}; the machine-independent program
    key carried by every {!Candidate.t} (scoring, dedup and the search's
    per-call verdict table key on it).  The measurement cache's key
    ({!Ansor_measure_service.Cache.key_of_prog}) is the same payload
    prefixed with backend and machine. *)

val pp : Format.formatter -> t -> unit
(** Paper-style pretty printing ("parallel i.0@j.0 in range(256): ..."). *)

val to_string : t -> string
