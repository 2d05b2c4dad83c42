(** Operators: the nodes of a computational DAG.

    An operator is either a [Placeholder] (an input tensor) or a [Compute]
    node defining each element of its output tensor by an expression over
    its space axes, optionally reduced over reduction axes — the same model
    as the TVM tensor-expression language the paper builds on (Figure 1). *)

type reduce_kind = Sum | Maximum

type compute = {
  name : string;  (** also the name of the produced tensor *)
  axes : (string * int) list;  (** space axes: (variable, extent) *)
  reduce_axes : (string * int) list;  (** reduction axes: (variable, extent) *)
  reduce : reduce_kind option;
      (** [Some _] iff [reduce_axes] is non-empty *)
  body : Expr.t;
      (** value contributed at one (space, reduce) point; the output element
          is the reduction of [body] over the reduction axes *)
}

type t = Placeholder of { name : string; shape : int list } | Compute of compute

val name : t -> string

val shape : t -> int list
(** Shape of the produced tensor: extents of the space axes. *)

val compute :
  name:string ->
  axes:(string * int) list ->
  ?reduce_axes:(string * int) list ->
  ?reduce:reduce_kind ->
  Expr.t ->
  t
(** Smart constructor.
    @raise Invalid_argument if reduction axes are given without a reduce
    kind (or vice versa), if an axis has non-positive extent, or if axis
    names collide within the operator. *)

val placeholder : name:string -> shape:int list -> t

val init_value : reduce_kind -> float
(** Identity element of the reduction: [0.] for {!Sum}, [-inf] for
    {!Maximum}. *)

val combine : reduce_kind -> float -> float -> float

val input_tensors : t -> string list
(** Names of tensors read by the body (no duplicates); empty for
    placeholders. *)

val output_elems : t -> int
(** Number of elements of the produced tensor. *)

val reduce_extent : t -> int
(** Product of reduction-axis extents (1 for elementwise ops and
    placeholders). *)

val flops : t -> int
(** Total floating-point operations of the operator. *)

val pp : Format.formatter -> t -> unit
