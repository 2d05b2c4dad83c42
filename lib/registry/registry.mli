(** The schedule registry: a persistent best-schedule database built from
    {!Ansor_search.Record} logs — the serving side's answer to "which
    program do I run for this workload?".

    Ansor ships measurement logs with applications and replays the best
    record per subgraph at compile time (§7); AutoTVM institutionalised
    the same idea as a tuning database.  A registry holds exactly one
    entry per {!Ansor_search.Task.key} — the lowest-latency record ever
    seen for that task — and persists as an {!Ansor_util.Line_file} with
    a version header:

    {v
ansor-registry-v1
<record line>    (one per task key, sorted, Record.to_line format)
...
    v}

    {b Resolution ladder.}  {!resolve} answers every query with a
    schedule, never an exception:

    + {e exact}: the task key is registered and its steps replay on the
      query DAG (validated statically);
    + {e adapted}: an {e untuned} workload is answered by the nearest
      tuned task of the same structure class (op kinds with concrete
      sizes blanked, the scheduler's Appendix-A similarity notion),
      ranked by log-scale shape distance; split/rfactor tile sizes are
      re-fit to the query's extents, and the adapted program is
      re-validated with {!Ansor_sched.Validate};
    + {e default}: when nothing replays, the naive unscheduled program
      ({!Ansor_sched.State.init}). *)

open Ansor_search

type t

val create : unit -> t

val size : t -> int

val keys : t -> string list
(** Registered task keys, sorted. *)

val entries : t -> Record.entry list
(** One best entry per key, sorted by key (deterministic). *)

val find : t -> task_key:string -> Record.entry option

val add : t -> Record.entry -> [ `Added | `Improved | `Kept ]
(** Keeps the per-key best: [`Added] for a new key, [`Improved] when the
    entry beats the stored latency, [`Kept] when the stored entry stays. *)

val add_all : t -> Record.entry list -> int
(** Folds {!add}; returns how many entries changed the registry. *)

val of_entries : Record.entry list -> t

val merge_into : dst:t -> t -> int
(** Merges every entry of the source, keeping per-key bests; returns how
    many changed [dst]. *)

val prune : t -> keep:(Record.entry -> bool) -> int
(** Drops entries failing the predicate (e.g. another machine's keys, or
    latencies above a deadline); returns how many were removed. *)

(** {1 Persistence} *)

val save : path:string -> t -> unit
(** Atomic replace (write-temp + rename). *)

val load : path:string -> (t, string) result
(** Strict: verifies the version header and every line; [Error] names
    the path and the first problem, and reminds that raw record logs go
    through [registry build]. *)

val load_salvage : path:string -> (t * int, string) result
(** Tolerates malformed record lines (e.g. the torn final line of a file
    being rewritten by a live session), returning the number skipped.
    Still requires the version header: a raw record log is not silently
    accepted as a registry. *)

val build_from_logs : paths:string list -> (t * int, string) result
(** Builds a registry from record logs written by [tune --save]
    ({!Ansor_search.Record.load_salvage}), keeping per-key bests across
    all of them.  Returns the registry and the number of malformed lines
    skipped.  [Error] when any log cannot be opened. *)

val compact_file : path:string -> (int, string) result
(** Rewrites a registry file in canonical form (header + one best entry
    per key, sorted); returns the number of entry lines dropped (stale
    duplicates and malformed lines).  Heals files produced by
    concatenation or older versions of the format. *)

(** {1 Resolution} *)

type outcome =
  | Exact
  | Adapted of { source_key : string; distance : float }
      (** served by re-fitting the nearest tuned task's schedule *)
  | Defaulted of string  (** the reason no tuned schedule applied *)

val outcome_to_string : outcome -> string

val resolve : t -> Task.t -> Ansor_sched.State.t * outcome
(** Walks the resolution ladder for a task; total — never raises.  The
    returned state lowers and passes {!Ansor_sched.Validate.check} except
    in the [Defaulted] case, where it is the naive program (always
    legal). *)

val similar_keys : t -> task_key:string -> (string * float) list
(** Registered keys of the query's structure class (excluding the query
    itself), with log-scale shape distances, nearest first — the
    candidate order {!resolve} tries.  Exposed for tests and
    [registry show]. *)
