(** Admission control for the serving tier: bounded queues with an
    explicit load-shedding policy and per-tenant token-bucket quotas.

    The robustness contract is {e totality}: every request offered to the
    server is classified by exactly one {!outcome} — served, shed (with a
    reason), or rejected by quota — and nothing ever raises on the
    admission path.  Conservation ([offered = served + shed +
    quota_rejected] once the queue drains) is the invariant the overload
    tests assert exactly.

    The queue is bounded; when full, {!shed_policy} picks who pays:
    [Reject_newest] sheds the incoming request, [Drop_oldest] evicts the
    head-of-line request (FIFO) or the oldest item of the lowest priority
    class (Priority discipline) to make room.  Quotas are virtual-time
    token buckets keyed by tenant name, refilled lazily at each offer.

    Time is {e virtual} (the {!Loadgen} trace's clock): the module never
    reads a wall clock, so admission decisions are deterministic. *)

type shed_reason = Queue_full | Displaced

(** The total classification of one offered request. *)
type outcome = Served | Shed of shed_reason | Quota_exceeded

val outcome_to_string : outcome -> string

type shed_policy =
  | Reject_newest  (** queue full: the incoming request is shed *)
  | Drop_oldest
      (** queue full: the head-of-line (FIFO) or lowest-priority-oldest
          (Priority) waiter is shed and the incoming request admitted *)

type discipline = Fifo | Priority

val shed_policy_of_string : string -> (shed_policy, string) result
val discipline_of_string : string -> (discipline, string) result

type config = {
  queue_bound : int;  (** maximum waiting requests *)
  shed_policy : shed_policy;
  discipline : discipline;
}

val default_config : config
(** bound 64, [Reject_newest], [Fifo]. *)

type 'a t

val create : ?config:config -> unit -> 'a t
(** @raise Invalid_argument if [queue_bound < 1]. *)

val offer :
  'a t ->
  now:float ->
  tenant:Loadgen.tenant ->
  'a ->
  [ `Admitted | `Quota_exceeded | `Shed_queue_full | `Displaced of 'a ]
(** Classify one arrival at virtual time [now].  [`Displaced v] means the
    incoming request was admitted and the previously-queued [v] was shed
    in its place — the caller records [v]'s outcome as
    [Shed Displaced].  [now] must be nondecreasing across calls (the
    token buckets refill on elapsed virtual time). *)

val take : 'a t -> 'a option
(** Pop the next request in service order: FIFO arrival order, or highest
    priority first (FIFO within a priority class). *)

val depth : 'a t -> int

type stats = {
  offered : int;
  admitted : int;  (** enqueued (some may later be displaced) *)
  quota_rejected : int;
  shed_queue_full : int;
  shed_displaced : int;
  max_depth : int;  (** queue-depth high-water mark *)
}

val stats : 'a t -> stats

val shed : stats -> int
(** [shed_queue_full + shed_displaced]. *)
