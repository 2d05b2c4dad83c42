(** Computational DAGs: the input of the program sampler.

    A DAG is a topologically-sorted array of operators; edges are implied by
    tensor reads (a [Compute] node consumes the tensors it accesses).  This
    module also implements the static predicates of Table 1 that drive
    sketch derivation. *)

type t

val create : Op.t list -> t
(** Builds a DAG from operators in any order; they are sorted
    topologically (inputs before consumers).
    @raise Invalid_argument on duplicate names, reads of undefined tensors,
    or cycles. *)

val ops : t -> Op.t array
(** Topologically sorted: producers always precede consumers. *)

val num_ops : t -> int

val op : t -> int -> Op.t

val op_index : t -> string -> int
(** @raise Not_found if no operator has the given name. *)

val consumers : t -> int -> int list
(** Indices of operators reading the output tensor of operator [i]. *)

val producers : t -> int -> int list
(** Indices of operators whose output tensor operator [i] reads. *)

val outputs : t -> int list
(** Indices of operators with no consumers (the DAG's results). *)

val is_output : t -> int -> bool

val flops : t -> int
(** Total floating-point work of one evaluation of the DAG. *)

val workload_key : t -> string
(** A stable textual key identifying the computation (used to deduplicate
    tasks and group similar tasks in the task scheduler). *)

(** {1 Table 1 predicates}

    All predicates take the index of the operator under consideration. *)

val is_strict_inlinable : t -> int -> bool
(** True for elementwise [Compute] nodes (no reduction axes): these can
    always be inlined into their consumers (rule 2). *)

val has_data_reuse : t -> int -> bool
(** True for compute-intensive nodes with reduction axes where some input
    tensor is reused across a space axis (e.g. matmul, conv2d): candidates
    for multi-level tiling (rules 3-5). *)

val fusible_consumer : t -> int -> int option
(** The node's consumer when it is its only one, and is an elementwise
    node of the same output shape accessing the node's tensor at its own
    space indices (e.g. matmul + bias_add, conv2d + relu): rule 4 can
    fuse them. *)

val has_more_reduction_parallel : t -> int -> bool
(** True for nodes with little space parallelism but ample reduction
    parallelism (e.g. 2-norm, tall-thin matmul): candidates for rfactor
    (rule 6). *)

val pp : Format.formatter -> t -> unit
