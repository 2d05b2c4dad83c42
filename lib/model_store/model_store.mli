(** Cross-task training-data store and pretrained cost models.

    Persists every measured (featurized program, latency) pair across
    tuning sessions — one line per program, deduplicated by the
    canonical lowered-program hash the measurement cache computes — and
    pretrains shared GBDTs from the corpus: one per exact task key, one
    per digit-blanked structure class ({!Ansor_util.Task_key}), and one
    global fallback.  A fresh session resolves
    exact -> class -> global -> cold and fine-tunes from the warm model
    (Chen et al., "Learning to Optimize Tensor Programs",
    arXiv:1805.08166).

    A store file is an {!Ansor_util.Line_file} with an [ansor-store-v1]
    header and one tab-separated sample per line, floats printed with
    [%h] so round-trips are bit-exact:

    {v
ansor-store-v1
<task_key> <prog_key> <latency> <f,f,...;f,f,...>
    v} *)

type sample = {
  task_key : string;
  prog_key : string;
      (** canonical lowered-program hash ({!Ansor_measure_service.Cache});
          the dedup key *)
  latency : float;  (** measured seconds, > 0 *)
  features : float array list;  (** per innermost statement *)
}

type t

val create : unit -> t

val size : t -> int

val mem : t -> prog_key:string -> bool

val add : t -> sample -> bool
(** [false] when a sample with the same [prog_key] is already present.
    @raise Invalid_argument on non-positive latency. *)

val add_all : t -> sample list -> int
(** Number of samples actually added (duplicates skipped). *)

val samples : t -> sample list
(** All samples, oldest first (insertion order — deterministic). *)

val samples_for_class : t -> class_key:string -> sample list
(** Samples whose task key digit-blanks to [class_key]. *)

val task_keys : t -> string list

val class_keys : t -> string list

val to_record : sample -> Ansor_cost_model.Cost_model.record

val save : path:string -> t -> unit

val load_salvage : path:string -> (t * int, string) result
(** Every well-formed sample, plus the number of malformed lines skipped
    (e.g. a torn final line).  A missing file or a missing or foreign
    header is an [Error]. *)

val append_batch : path:string -> sample list -> unit
(** Atomically append samples to the store file, creating it (with
    header) when absent.  Does not deduplicate against the file — use
    an in-memory {!t} as the dedup authority and append only what
    {!add} accepted. *)

val gc : t -> keep_per_class:int -> int
(** Keep only the newest [keep_per_class] samples of each structure
    class; returns the number dropped. *)

type store := t

(** The pretrained model bundle: per-exact-task, per-class and global
    GBDTs with the resolution ladder. *)
module Pretrained : sig
  type origin = Exact | Class | Global

  val origin_name : origin -> string

  type t

  val empty : t

  val num_models : t -> int

  val summary : t -> ([ `Task | `Class | `Global ] * string * int) list
  (** One row per model: kind, key and tree count. *)

  val train :
    ?params:Ansor_gbdt.Gbdt.params -> ?min_samples:int -> store -> t
  (** Fit one GBDT per exact task, per structure class and globally,
      skipping groups with fewer than [min_samples] (default 8)
      samples.  Throughput is normalized per task inside each group, so
      different shapes' scales compose. *)

  val resolve : t -> task_key:string -> (Ansor_gbdt.Gbdt.t * origin) option
  (** The warm-start ladder: exact -> class -> global -> [None] (cold). *)

  val resolve_class :
    t -> class_key:string -> (Ansor_gbdt.Gbdt.t * origin) option
  (** The ladder entered one rung down (class -> global) — for sessions
      whose tasks all share one structure class. *)

  val global : t -> (Ansor_gbdt.Gbdt.t * origin) option
  (** The global fallback model alone. *)

  val save : path:string -> t -> unit
  (** Checkpoint file convention: magic [ansor-models-v1], payload
      length, marshalled payload, md5 digest foot; atomic. *)

  val load : path:string -> (t, string) result
  (** Corrupt/foreign/truncated files yield a clear [Error]. *)
end

(** Everything one [--model-store FILE] flag implies for a session. *)
type session = {
  store : t;
  path : string option;  (** append target; [None] = in-memory only *)
  pretrained : Pretrained.t;
  salvaged : int;  (** malformed store lines skipped at load *)
  models_error : string option;
      (** set when [FILE.models] existed but was unusable (the session
          fell back to pretraining from the raw store) *)
}

val models_path : string -> string
(** Where {!open_session} looks for a pretrained bundle: [FILE.models]. *)

val in_memory : ?pretrained:Pretrained.t -> t -> session
(** A session around an in-memory store: nothing is written to disk. *)

val open_session :
  ?params:Ansor_gbdt.Gbdt.params -> path:string -> unit -> (session, string) result
(** Salvage-load the store at [path] (a missing file is an empty store,
    ready for appends), then load the pretrained bundle from
    [models_path path] if a valid one exists, else pretrain in-memory
    from the store.  [Error] only when the store file itself exists but
    is unreadable or has a bad header. *)
