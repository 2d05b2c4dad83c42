(** Loop-nest access-pattern analysis.

    Computes, for every statement of a lowered program, the per-loop strides
    and touched-region sizes of each buffer access.  Both the analytical
    hardware simulator and the cost-model feature extraction (Appendix B of
    the paper: bytes, unique bytes, lines, unique lines, reuse type and
    distance, stride) are built on this analysis, so the learned model sees
    the same program properties that determine the simulated cost. *)

open Ansor_te

val line_elems : int
(** Elements of a 64-byte cache line at float32 (= 16). *)

type access = {
  tensor : string;
  is_write : bool;
  count : int;  (** occurrences of this exact access in the statement *)
  strides : int array;
      (** element-offset change per unit step of each enclosing loop,
          outermost first *)
  touched : float array;
      (** [touched.(d)] = distinct elements accessed by one execution of
          the loops at depth >= d (length = #loops + 1; the last entry
          is 1.) *)
  lines : float array;
      (** same as [touched], in distinct cache lines *)
  inner_stride : int;
      (** absolute stride of the innermost loop that moves this access;
          0 when no loop moves it *)
  reuse_loop : int option;
      (** deepest enclosing loop that does not move the access: iterating
          it re-touches the same elements (temporal reuse) *)
}

type stmt_info = {
  stmt : Prog.stmt;
  loops : Prog.loop list;  (** enclosing loops, outermost first *)
  extents : int array;
  iters : float;  (** product of the extents *)
  accesses : access list;  (** the output access first, then the reads *)
  counts : Expr.op_counts;  (** operation counts of one statement execution *)
}

val analyze : Prog.t -> stmt_info list
(** One entry per statement, in program order. *)

val distinct_values : Expr.iexpr -> string -> int -> int
(** [distinct_values e v extent]: number of distinct values [e] takes as
    [v] sweeps [0, extent), every other variable held at 0 and an
    evaluation that divides by zero counted as 0.  Exact for
    [extent <= 256].  Above, [v] takes the 256 points [s * (extent/256)],
    [s < 256], which cover only [[0, 256 * (extent/256))]; when at least
    128 of their values are distinct the count is scaled to
    [extent * d / 256].

    The expression is decomposed into a constant, an affine coefficient
    of [v] and its divisions, remainders, minima and maxima, with the
    other variables folded to 0.  The count is closed-form, and exact over
    the points, when that form is affine ([c + a*v]: 1 value when
    [a = 0], else one per point), when it is one digit
    [c + b * ((a*v + c') / s) mod l] with [a, s, l >= 1] and either
    [a * step <= s] (its quotients are a run of consecutive integers, so
    [min l run] values; on [[0, extent)] that is
    [min l ((extent-1)/s + 1)] for [a = 1, c' = 0]) or [s] dividing
    [a * step] (an arithmetic progression; for [v mod m] sampled at step
    [k = extent/256] that is [min 256 (m / gcd k m)]), or when a constant
    divisor is 0 (one value, 0).  Every other form is evaluated point by
    point through a closure compiled once. *)

val sweep_path : Expr.iexpr -> string -> int -> string
(** [sweep_path e v extent]: how {!distinct_values} counts: ["affine"],
    ["digit"] or ["zero"] for the closed forms, ["sweep"] point by
    point. *)

val working_set : stmt_info -> int -> float
(** [working_set info d]: bytes touched by one execution of the loops at
    depth >= [d], summed over all accesses of the statement. *)

val select_zero_fraction :
  stmt_info -> (string list * float) option
(** When the statement's value is a [select] whose false branch is the
    constant zero (the padding / transposed-convolution idiom), returns the
    loop variables the condition depends on and the fraction of the
    iteration space where the condition holds (deterministic sampling).
    The simulator uses this to credit schedules that can statically
    eliminate the multiplications by zero. *)
