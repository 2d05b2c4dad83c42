(** Tuning records: persistent logs of measured programs.

    The original Ansor keeps a JSON-lines log file of every measurement
    (workload key, transform steps, measured cost) so that tuning results
    can be reused across runs, shipped with applications, and replayed
    without re-searching.  This module provides the same facility as a
    headerless {!Ansor_util.Line_file}, one tab-separated entry per line:

    {v
ansor-v1 <task-key> <latency-seconds> <step>;<step>;...
    v}

    Steps serialize losslessly; a record's steps can be replayed on the
    task's DAG with {!Ansor_sched.State.replay} (or applied through
    {!best_state}).  This module owns the line codec ({!to_line} /
    {!of_line}); reading and writing the file is {!Ansor_util.Line_file}'s
    job. *)

open Ansor_sched

type entry = {
  task_key : string;  (** {!Task.key} of the tuning task *)
  latency : float;  (** measured seconds *)
  steps : Step.t list;
}

val to_line : entry -> string
(** One line, no trailing newline. @raise Invalid_argument if the task key
    contains whitespace-incompatible characters (tab or newline). *)

val of_line : string -> (entry, string) result

val save : path:string -> entry list -> unit
(** Atomically replaces [path] (write-temp + rename): an interrupted save
    cannot truncate an existing log. *)

val append_batch : path:string -> entry list -> unit
(** Appends a whole batch with {e one} copy + rename — one O(file-size)
    rewrite per batch, the right call for per-round logging.  A torn
    append can lose the new batch but never corrupts the entries already
    in the log.  The empty batch is a no-op. *)

val load_salvage : path:string -> (entry list * int, string) result
(** Every well-formed entry in file order, plus the number of malformed
    lines skipped (e.g. the partial final line left by a killed writer).
    [Error] only when the file cannot be opened. *)

val compact : path:string -> (int, string) result
(** Rewrites the log keeping only the best (lowest-latency) entry of each
    task key, preserving the file order of the survivors; ties keep the
    earliest entry.  Malformed lines are dropped (salvage semantics).
    Returns the number of lines removed; [Error] only when the file cannot
    be opened.  Long sessions call this on resume so improvement logs stop
    growing unboundedly. *)

val best_for : entry list -> task_key:string -> entry option
(** Lowest-latency entry for a task. *)

val entry_of_tuner : Tuner.t -> entry option
(** The tuner's best measured program as a record entry. *)

val best_state : entry -> Ansor_te.Dag.t -> (State.t, string) result
(** Replays the entry's steps on the DAG it was tuned for. *)
