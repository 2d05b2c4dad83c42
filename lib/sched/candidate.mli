(** One search candidate: a schedule, its lowered program and the
    program's canonical key, built once and carried from proposal through
    scoring, measurement and training.

    Every stage of the search — sampling, mutation, crossover, descent
    neighbors, the model ranking and the measured batch — handles
    candidates, so no stage lowers a program another stage already
    lowered, and the scoring cache looks programs up by [key]. *)

type t = private {
  state : State.t;
  prog : Prog.t;  (** [Lower.lower state] *)
  key : string;  (** [Prog.canonical_hash prog] *)
}

val of_state : State.t -> t option
(** Lowers and keys a state; [None] if lowering raises
    {!State.Illegal}. *)

val first_seen : (string, unit) Hashtbl.t -> t -> bool
(** [true] the first time the set meets the candidate's program (by
    [key]), which it then holds: the one dedup the search uses. *)
