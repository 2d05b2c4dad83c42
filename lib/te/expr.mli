(** Scalar expressions of the tensor-expression language.

    A compute definition (see {!Op}) gives the value of one output element
    as an {!type:t} over the operator's space and reduction axes.  Index
    arithmetic is integer-typed ({!type:iexpr}), element values are
    float-typed ({!type:t}), and conditions ({!type:bexpr}) support the
    [select] idiom used to express zero padding without a real branch in
    the data. *)

(** Integer (index) expressions. Division is floor division. *)
type iexpr =
  | Int of int
  | Axis of string  (** a loop axis variable, referenced by name *)
  | Iadd of iexpr * iexpr
  | Isub of iexpr * iexpr
  | Imul of iexpr * iexpr
  | Idiv of iexpr * iexpr
  | Imod of iexpr * iexpr
  | Imin of iexpr * iexpr
  | Imax of iexpr * iexpr

(** Boolean expressions over indices. *)
type bexpr =
  | Blt of iexpr * iexpr
  | Ble of iexpr * iexpr
  | Beq of iexpr * iexpr
  | Band of bexpr * bexpr
  | Bor of bexpr * bexpr
  | Bnot of bexpr

type unop = Neg | Exp | Log | Sqrt | Tanh | Sigmoid | Abs | Relu

type binop = Add | Sub | Mul | Div | Max | Min | Pow

(** Float-valued expressions. [Select] evaluates only the taken branch, so
    it may guard out-of-bounds accesses (the padding idiom). *)
type t =
  | Const of float
  | Access of string * iexpr list  (** read [tensor.(indices)] *)
  | Unop of unop * t
  | Binop of binop * t * t
  | Select of bexpr * t * t
  | Cast_int of iexpr  (** index value as a float, e.g. for iota tensors *)

(** {1 Constructors} *)

val ( +: ) : t -> t -> t
val ( -: ) : t -> t -> t
val ( *: ) : t -> t -> t
val ( /: ) : t -> t -> t
val const : float -> t
val access : string -> iexpr list -> t
val axis : string -> iexpr
val int : int -> iexpr
val ( +! ) : iexpr -> iexpr -> iexpr
val ( -! ) : iexpr -> iexpr -> iexpr
val ( *! ) : iexpr -> iexpr -> iexpr

(** {1 Evaluation} *)

val idiv : int -> int -> int
(** Floor division, the arithmetic of [Idiv].
    @raise Division_by_zero on a zero divisor. *)

val imod : int -> int -> int
(** [imod a b] is [a mod b] shifted into [\[0, |b|)], the arithmetic of
    [Imod]. @raise Division_by_zero on a zero divisor. *)

val eval_iexpr : (string -> int) -> iexpr -> int
(** [eval_iexpr lookup e] evaluates [e] with [lookup] resolving axis
    variables. @raise Division_by_zero on zero divisors. *)

val eval_bexpr : (string -> int) -> bexpr -> bool

val eval :
  axis_value:(string -> int) ->
  load:(string -> int list -> float) ->
  t ->
  float
(** [eval ~axis_value ~load e] evaluates [e]; [load tensor indices] reads a
    tensor element. [Select] is lazy in its branches. *)

(** {1 Analysis} *)

val accesses : t -> (string * iexpr list) list
(** All tensor accesses in evaluation order (including both branches of
    selects), with duplicates preserved. *)

val iexpr_axes : iexpr -> string list
(** Axis variables occurring in an index expression (no duplicates). *)

val axes_of : t -> string list
(** Axis variables occurring anywhere in the expression (no duplicates). *)

val subst_tensor : string -> (iexpr list -> t) -> t -> t
(** [subst_tensor name f e] replaces every access [name.(idx)] by
    [f idx]; used to inline a producer's body into its consumers. *)

val subst_axes : (string * iexpr) list -> t -> t
(** Simultaneous substitution of axis variables in an expression. *)

(** Static operation counts of one evaluation of an expression, split the
    way the cost-model features need them (Appendix B). *)
type op_counts = {
  float_add_sub : int;
  float_mul : int;
  float_div_mod : int;
  float_cmp : int;  (** comparisons feeding selects / max / min *)
  float_math : int;  (** exp, log, sqrt, tanh, sigmoid, ... *)
  int_add_sub : int;
  int_mul : int;
  int_div_mod : int;
}

val zero_counts : op_counts
val add_counts : op_counts -> op_counts -> op_counts
val count_ops : t -> op_counts

val flops : t -> int
(** Floating-point operations per evaluation (adds + muls + divs + cmps +
    math calls), the unit used for task FLOP totals. *)

(** {1 Pretty-printing} *)

val pp_iexpr : Format.formatter -> iexpr -> unit
val pp : Format.formatter -> t -> unit
val to_string : t -> string

(** {1 Simplification} *)

val simplify_iexpr : iexpr -> iexpr
(** Constant folding plus the usual identities ([x*1], [x+0], [x*0],
    [x/1], [x mod 1]). *)

val simplify : t -> t
(** Recursively simplifies index expressions and resolves selects whose
    condition is statically decidable. *)
