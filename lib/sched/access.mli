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
    [extent <= 256]; above, estimated from 256 evenly spaced points. *)

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
