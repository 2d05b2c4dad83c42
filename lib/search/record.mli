(** Tuning records: persistent logs of measured programs.

    The original Ansor keeps a JSON-lines log file of every measurement
    (workload key, transform steps, measured cost) so that tuning results
    can be reused across runs, shipped with applications, and replayed
    without re-searching.  This module provides the same facility as a
    headerless {!Ansor_util.Line_file}, one tab-separated entry per line:

    {v
ansor-v1 <task-key> <latency-seconds> <step>;<step>;...
    v}

    Steps serialize losslessly; a record's steps replay on the task's
    DAG with {!Ansor_sched.State.replay_checked}.  This module is the
    line codec ({!to_line} / {!of_line}) and the file I/O on top of
    {!Ansor_util.Line_file}, nothing more: choosing the best record of a
    task, replaying it and falling back when it does not apply is the
    schedule registry's job ([Ansor_registry.Registry.resolve]), for the
    server, [ansor replay], deployment and log compaction alike. *)

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
