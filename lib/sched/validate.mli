(** Static validation of lowered programs.

    A third correctness oracle besides the interpreter and the C backend:
    purely static, so it works at any problem size.  It checks that

    - every loop has a positive extent and loop variables never shadow;
    - every accessed buffer is declared (unguarded reads and all writes);
    - the writes of each non-input buffer can reach its first and last
      element: interval analysis of the write offsets under the loop
      bounds gives a cheap coverage proxy (splits/fuses that lose or
      duplicate iterations shift the write hull);
    - every reduction-updated buffer is initialized.

    Out-of-bounds accesses are not judged here: the affine bounds
    certifier in lib/analysis ([Bounds]) decides them exactly, per buffer
    dimension, with a constructive witness.  Its [out-of-bounds-witness]
    [Error] sits beside these findings wherever programs are gated (the
    tuner's measurement boundary, [Analysis.static_errors], [ansor
    lint]).

    Findings are reported as {!Diagnostic.t} values (all at severity
    [Error]; the schedule linter in lib/analysis adds the [Warn]/[Info]
    tiers).  The sampler property tests run the interpreter on small
    shapes; this validator is additionally exercised on every sampled
    program to catch lowering regressions on realistic (large) shapes
    where interpretation is infeasible. *)

val check : Prog.t -> Diagnostic.t list
(** Empty when the program passes all static checks. *)

(** Interval arithmetic over index expressions, exposed for the analyses
    in lib/analysis and for tests. *)
module Interval : sig
  type t = { lo : int; hi : int }

  val point : int -> t
  val add : t -> t -> t
  val sub : t -> t -> t
  val mul : t -> t -> t

  val imin : t -> t -> t
  val imax : t -> t -> t

  val of_iexpr : (string -> t option) -> Ansor_te.Expr.iexpr -> t option
  (** Interval of an expression given variable ranges; [None] when a
      variable's range is unknown or a divisor may be non-positive.
      Division by a positive-interval divisor, [mod] by a positive
      constant (tightened when the argument fits one block), and
      [min]/[max] of known intervals all stay defined. *)
end

val offset_interval :
  (string -> Interval.t option) ->
  int list ->
  Ansor_te.Expr.iexpr list ->
  Interval.t option
(** Interval of the flattened row-major offset of an access. *)

val reads_with_guard :
  Ansor_te.Expr.t -> (string * Ansor_te.Expr.iexpr list * bool) list
(** Every tensor read in an expression, flagged [true] when a [select]
    guards it. *)
