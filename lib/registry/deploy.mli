(** Network deployment: export every kernel of a network as one C
    translation unit.

    This is the end of the paper's pipeline ("we only need to run program
    generation for the DNNs once before deployment", §7.3): after tuning a
    network's unique subgraphs and collecting their records in a
    {!Registry}, [emit] produces a self-contained C file with one kernel
    function per subgraph, ready to be linked into an application.  Each
    subgraph's schedule comes from {!Registry.resolve}, so a deployed
    kernel is exactly the program [ansor serve] would run for it: the
    same exact, adapted or default rung, behind the same static bar.
    The output is always complete. *)

open Ansor_sched

type kernel = {
  kernel_name : string;  (** C function name *)
  task_name : string;  (** the workload it implements *)
  params : (string * string) list;  (** (buffer, C identifier), in order *)
  outcome : Registry.outcome;  (** the rung of the resolution ladder used *)
}

val plan :
  machine:Ansor_machine.Machine.t ->
  registry:Registry.t ->
  (string * Ansor_te.Dag.t) list ->
  (kernel * Prog.t) list
(** Resolves each (name, dag) as a task on the given machine and lowers
    the resolved schedule.  Kernel names are sanitized task names,
    uniquified. *)

val emit :
  machine:Ansor_machine.Machine.t ->
  registry:Registry.t ->
  (string * Ansor_te.Dag.t) list ->
  string
(** The full translation unit: a file header summarizing provenance (task,
    resolution outcome, simulated latency), shared helpers, and one kernel
    per subgraph. *)
