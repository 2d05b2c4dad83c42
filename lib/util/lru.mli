(** A bounded least-recently-used cache (string keys).

    Two subsystems build on it: the server's shards hold compiled
    programs keyed by task key (a cold or evicted subgraph is simply
    recompiled on the next request), and the cost model's batch scoring
    service memoizes per-program feature vectors and scores keyed by the
    canonical lowered-program hash.  Hit / miss / eviction counters feed
    each owner's telemetry.

    Not domain-safe: owners only touch the cache from the calling domain
    (worker domains receive immutable per-batch inputs). *)

type 'a t

val create : capacity:int -> 'a t
(** @raise Invalid_argument if [capacity < 1]. *)

val capacity : 'a t -> int
val size : 'a t -> int

val find : 'a t -> string -> 'a option
(** Bumps the entry to most-recently-used and counts a hit; a miss is
    counted otherwise. *)

val mem : 'a t -> string -> bool
(** No recency bump, no counter. *)

val add : 'a t -> string -> 'a -> unit
(** Inserts (or replaces) as most-recently-used, evicting the
    least-recently-used entry if the cache would exceed capacity. *)

val keys : 'a t -> string list
(** Most-recently-used first. *)

val hits : 'a t -> int
val misses : 'a t -> int
val evictions : 'a t -> int
