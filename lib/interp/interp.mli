(** Reference interpreter: the functional-correctness oracle.

    Executes both unscheduled DAGs (naive, loop-by-loop evaluation) and
    lowered programs ({!Ansor_sched.Prog.t}) on real float arrays.  The
    central invariant of the whole system — any legal schedule computes
    exactly the tensors of the naive program — is checked by comparing the
    two.  Intended for small shapes; performance experiments use the
    analytical simulator instead. *)

open Ansor_te
open Ansor_sched

type tensors = (string * float array) list
(** Flat row-major storage per tensor name. *)

exception Runtime_error of string
(** Raised on out-of-bounds accesses, missing tensors or shape
    mismatches — any of these indicates an illegal schedule or a lowering
    bug. *)

val random_inputs : Ansor_util.Rng.t -> Dag.t -> tensors
(** Uniform values in [-1, 1) for every placeholder of the DAG. *)

val run_dag : Dag.t -> inputs:tensors -> tensors
(** Naive evaluation of every compute operator in topological order.
    Returns all computed tensors (not the inputs). *)

val run_prog : Prog.t -> inputs:tensors -> tensors
(** Executes a lowered program. Returns all non-input buffers. *)

(** Iteration semantics for [Parallel] loops.  A legal schedule computes
    identical tensors under every mode; a cross-iteration race makes at
    least one mode diverge from [Sequential].  This is the differential
    oracle the static race detector ([Ansor_analysis]) is validated
    against. *)
type exec_mode =
  | Sequential  (** every loop low-to-high: the reference semantics *)
  | Reversed_parallel  (** [Parallel] loops iterated high-to-low *)
  | Snapshot_forward
      (** each iteration of an outermost [Parallel] loop reads the state
          at loop entry and logs its writes; logs are then applied in
          iteration order (last write wins) — models lost updates
          between concurrent workers *)
  | Snapshot_reversed  (** as [Snapshot_forward], logs applied in
          reverse iteration order *)

val order_modes : exec_mode list
(** The non-[Sequential] modes, in the order [order_sensitive] tries
    them. *)

val order_sensitive : ?tol:float -> Prog.t -> inputs:tensors -> exec_mode option
(** Runs the program under every mode and returns the first whose
    outputs differ from [Sequential] by more than [tol] (default
    [1e-9]), i.e. a concrete witness that the program's parallel
    annotations are racy.  [None] means all orders agree. *)

val max_abs_diff : float array -> float array -> float
(** @raise Runtime_error on length mismatch. *)

val check_equivalent :
  ?tol:float -> Dag.t -> Prog.t -> inputs:tensors -> (unit, string) result
(** Runs both and compares every DAG output tensor within [tol]
    (default [1e-4]); [Error] describes the first mismatch. *)
