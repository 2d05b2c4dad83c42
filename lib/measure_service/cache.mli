(** The deduplicating measurement cache.

    Evolution and resampling frequently propose schedules whose step
    histories differ but whose {e lowered programs} are identical; measuring
    them again wastes trials.  The cache keys measurements by a canonical
    hash of the lowered program (plus the machine it was measured on), so an
    identical program is never measured twice — within a session or, via
    {!save}/{!load}, across re-tuning sessions (persisted alongside
    {!Ansor_search.Record} logs).

    Only successful measurements are cached: failures may be transient or
    configuration-dependent (timeout ceilings), so they are re-tried in a
    later session. *)

type t

val create : unit -> t

val key_of_prog :
  ?backend:Protocol.backend ->
  Ansor_machine.Machine.t ->
  Ansor_sched.Prog.t ->
  string
(** Canonical key: a digest of the machine name and the structural content
    of the lowered program (loops, statements, buffers, initializations) —
    independent of the step history that produced it.  [backend] (default
    {!Protocol.Sim}) is folded in so simulator estimates and native
    wall-clock timings never alias, even in a shared cache file; [Sim]
    keys are unchanged from historical caches. *)

val find : t -> string -> float option
val add : t -> string -> float -> unit
(** First write wins: re-adding an existing key is a no-op, so concurrent
    duplicates cannot flap the stored latency. *)

val size : t -> int
val entries : t -> (string * float) list
(** Sorted by key (deterministic). *)

val save : path:string -> t -> unit
(** Atomically replaces [path] ({!Ansor_util.Line_file}) with one line per
    entry, sorted by key:
    {v
ansor-cache-v1 <key> <latency-seconds>      (tab-separated)
    v} *)

val load_salvage : path:string -> (t * int, string) result
(** Every well-formed line of a cache file, plus the number of malformed
    lines skipped (e.g. the partial final line of a file whose writer was
    killed).  [Error] only when the file cannot be opened. *)
