(** Static analysis of lowered programs: the dependence/race detector
    ({!Races}), the memory-safety certifier ({!Bounds} + {!Defuse}), the
    schedule linter ({!Lint}), and the bounds validator
    ({!Ansor_sched.Validate}) behind one entry point.

    Severity contract: an [Error] means the program is provably wrong —
    the race detector only claims one on a constructive cross-iteration
    race (a concrete pair of parallel iterations hitting the same
    element), and the bounds certifier only on a constructive
    out-of-bounds witness (a concrete iteration and offending index,
    re-validated by evaluation).  [Warn] marks suspicious-but-legal or
    unproven shapes ([bounds-unproven], [uninit-read]), [Info] is purely
    advisory.  Consumers that gate on the analysis (evolution's mutant
    filter, the native measurement gate, the registry's serving bar,
    `ansor lint`'s exit code) must key on [Error] only. *)

type config = Lint.config = {
  workers : int;
  vector_lanes : int;
  max_unroll_default : int;
  outputs : string list;
}

val default_config : config

val races : Ansor_sched.Prog.t -> Ansor_sched.Diagnostic.t list
(** Cross-iteration dependence analysis of every [Parallel]/[Vectorize]
    loop; see {!Races.check}. *)

val lint : config -> Ansor_sched.Prog.t -> Ansor_sched.Diagnostic.t list
(** Structural and performance lints; see {!Lint.check}. *)

val certify : Ansor_sched.Prog.t -> Bounds.verdict
(** Memory-safety verdict of the affine bounds certifier, memoized by
    canonical program hash; see {!Bounds.certify}. *)

val bounds : Ansor_sched.Prog.t -> Ansor_sched.Diagnostic.t list
(** Bounds-certification diagnostics (memoized): an [Error] with a
    rendered witness for [Unsafe], [Warn]s for unproven dimensions. *)

val defuse : Ansor_sched.Prog.t -> Ansor_sched.Diagnostic.t list
(** Def-use warnings: reads of non-input buffers that textual order
    cannot have defined; see {!Defuse.check}. *)

val static_checks : Ansor_sched.Prog.t -> Ansor_sched.Diagnostic.t list
(** Validator, race detector, and bounds certifier — the
    size-independent correctness oracle used to gate search and
    serving. *)

val static_errors : Ansor_sched.Prog.t -> Ansor_sched.Diagnostic.t list
(** The [Error]-severity subset of {!static_checks}. *)

val analyze :
  ?config:config ->
  ?bounds:bool ->
  Ansor_sched.Prog.t ->
  Ansor_sched.Diagnostic.t list
(** Everything: validator, race detector, linter, and (unless
    [~bounds:false]) bounds certifier plus def-use pass, sorted worst
    severity first. *)
