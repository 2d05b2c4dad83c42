(** Loop-nest access-pattern analysis.

    Computes, for every statement of a lowered program, the per-loop strides
    and touched-region sizes of each buffer access.  Both the analytical
    hardware simulator and the cost-model feature extraction (Appendix B of
    the paper: bytes, unique bytes, lines, unique lines, reuse type and
    distance, stride) are built on this analysis, so the learned model sees
    the same program properties that determine the simulated cost.

    The one decomposition of an index expression into a constant, per-loop
    coefficients and opaque atoms lives here.  {!analyze} reads it with the
    enclosing loops' variables (any other variable held at 0); the static
    analyses read it through {!linear} and {!digits}: the race detector
    ([Ansor_analysis.Races]), the bounds certifier ([Ansor_analysis.Bounds])
    and the linter's vector strides ([Ansor_analysis.Lint]). *)

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

(** {1 The analyses' view} *)

type atom = {
  coef : int;
  term : Expr.iexpr;
      (** a division, remainder, minimum, maximum or product (of two
          variables, or by a constant that divides by zero) that mentions
          a variable *)
  vars : int list;  (** positions of the variables [term] mentions *)
  at_zero : int option;
      (** [term] with every variable at 0; [None]: divides by zero *)
}

type dim = {
  const : int;
  coefs : int array;  (** coefficient of the variable at each position *)
  atoms : atom list;
  mentions : bool array;  (** positions whose variable occurs *)
  raises : bool;  (** a subterm without variables divides by zero *)
  divides : bool;  (** a division or remainder occurs somewhere *)
}
(** An index expression as [const + sum_l coefs.(l) * x_l + sum coef * term]
    over the variables [x_l] at each position.  Products with a side free
    of variables are scaled out and subterms free of variables folded into
    [const], so the sum equals {!Expr.eval_iexpr} at every point where
    that does not divide by zero (in the wrapping [int] ring). *)

val linear : Expr.iexpr -> string array * dim
(** [linear e]: [e] decomposed over its own variables, the array giving
    the variable at each position, equal atoms merged and zero atoms
    dropped.  No variable is held at 0, so the sum is exact in all of
    them. *)

val offset : int list -> Expr.iexpr list -> Expr.iexpr option
(** [offset shape indices]: the row-major element offset of an access;
    [None] when the access has more or fewer indices than the buffer has
    dimensions. *)

type digit = { stride : int; len : int }
(** The component [(p / stride) mod len] of a loop variable [p]: how
    lowering writes a split or fused iterator (the mod elided on the top
    component, the division when [stride = 1]). *)

val digits :
  string array * dim -> string -> extent:int -> (digit * int) list option
(** [digits (linear e) p ~extent]: the terms of [e] that mention [p], as
    digits of [p] over [[0, extent)] with their coefficients, equal digits
    merged and zero coefficients dropped.  The coefficient of [p] itself
    is the digit [(1, extent)]; an atom is a digit when it mentions [p]
    alone and divides [p] by a positive constant, takes it modulo one, or
    both.  [None] when a term mentioning [p] is anything else, a quotient
    of [p] and another variable included. *)

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
