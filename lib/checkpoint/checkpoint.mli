(** Crash-safe tuning sessions: checkpoint images, atomic persistence
    with generation fallback, and graceful-shutdown signaling.

    Ansor's value is accumulated search state — tuner populations, the
    cost-model training set, the task scheduler's budget allocation — and
    a crash or Ctrl-C mid-run used to lose all of it.  This module
    snapshots the {e full} session after every tuning round as a
    versioned, digest-footed image:

    {v
ansor-snapshot-v9\n
<payload byte length>\n
<payload bytes (marshalled image)>
md5:<hex digest of payload>\n
    v}

    The shared-state part of the payload records the cost model's full
    provenance — the session's training records, the pretrained base
    model and its ladder rung (cold/exact/class/global), and the
    store-derived sibling records — so a resumed session retrains
    exactly the model the interrupted one had.

    Every save goes through {!Ansor_util.Atomic_file} (write-temp +
    rename) and rotates the previous image to [<path>.prev], so at any
    instant — including mid-save, mid-rotate, or after a torn write — at
    least one complete, digest-verified snapshot exists on disk.
    {!load_latest} prefers the current generation and silently falls back
    to the previous one when the current file is missing, truncated, or
    fails its digest; it returns [Error] (never raises) only when both
    generations are unusable, in which case the session starts fresh.

    A version bump changes the magic line, so an incompatible image from
    an older build reads as "bad magic" and falls through the same
    fallback path instead of being misinterpreted. *)

type meta = {
  seed : int;  (** session seed — resumed runs must use the same *)
  machine : string;  (** {!Ansor_machine.Machine.t} name *)
  task_keys : string list;  (** {!Ansor_search.Task.key}s, session order *)
  rounds : int;  (** tuning rounds/allocations completed at save time *)
}
(** Compatibility fingerprint checked before restoring: resuming against
    a different machine, task set or seed silently starts fresh instead
    of corrupting the session. *)

type image = { meta : meta; session : Ansor_scheduler.Scheduler.Snapshot.t }
(** A single-operator session is a one-task scheduler session, so one
    payload shape covers both [tune] and [network]. *)

val version : int

val save : path:string -> image -> unit
(** Rotates the existing [path] (if any) to [path ^ ".prev"], then writes
    the new image atomically.  A crash at any point leaves at least one
    loadable generation. *)

val load : path:string -> (image, string) result
(** Strict single-file load: verifies magic, length and digest before
    unmarshalling.  Never raises on torn or garbage files. *)

type generation =
  | Current
  | Previous of string
      (** fell back; the argument says why the current file was rejected *)

val load_latest : path:string -> (image * generation, string) result
(** [path] if valid, else [path ^ ".prev"]; [Error] describes both
    failures when neither generation loads. *)

(** Cooperative SIGINT/SIGTERM shutdown.  {!install} registers handlers
    that only set a flag; tuning loops poll {!requested} between rounds
    (via their [should_stop] hooks) and exit cleanly, after which the
    driver flushes a final snapshot, the dedup cache and the record log.
    A second signal exits immediately (status 130) for users who insist. *)
module Shutdown : sig
  val install : unit -> unit

  val requested : unit -> bool

  val reason : unit -> string option
  (** ["SIGINT"] or ["SIGTERM"] once requested. *)

  val reset : unit -> unit
  (** Clears the flag (tests; or to arm a second session). *)
end
