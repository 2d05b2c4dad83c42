(** Deterministic, splittable pseudo-random number generator.

    All randomized components of the system (program sampling, evolutionary
    search, the task scheduler's epsilon-greedy policy, measurement noise)
    draw from values of type {!t}.  The generator is a SplitMix64 variant:
    cheap, statistically adequate for search, and {e splittable}, so
    independent subsystems can be given independent streams derived from a
    single seed, which keeps every experiment reproducible. *)

type t

val create : int -> t
(** [create seed] returns a fresh generator. Equal seeds yield equal
    streams. *)

val split : t -> t
(** [split t] returns a new generator whose stream is independent of the
    future stream of [t]. Advances [t]. *)

val copy : t -> t
(** [copy t] duplicates the current state without advancing [t]. *)

val state : t -> int64
(** The raw stream cursor — everything there is to a generator.  Persisted
    by checkpoints so a resumed session draws the exact same stream an
    uninterrupted one would. *)

val set_state : t -> int64 -> unit
(** Rewinds/forwards [t] to a cursor previously read with {!state}. *)

val int : t -> int -> int
(** [int t bound] draws uniformly from [0, bound).
    @raise Invalid_argument if [bound <= 0]. *)

val int_in : t -> int -> int -> int
(** [int_in t lo hi] draws uniformly from the inclusive range [lo, hi]. *)

val float : t -> float -> float
(** [float t bound] draws uniformly from [0, bound). *)

val bool : t -> bool

val gaussian : t -> float
(** Standard normal deviate (Box-Muller). *)

val choice : t -> 'a array -> 'a
(** Uniform choice. @raise Invalid_argument on an empty array. *)

val choice_list : t -> 'a list -> 'a
(** Uniform choice. @raise Invalid_argument on an empty list. *)

val weighted_index : t -> float array -> int
(** [weighted_index t w] draws index [i] with probability proportional to
    [max w.(i) 0.]. Falls back to uniform choice when all weights are
    non-positive. @raise Invalid_argument on an empty array. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates shuffle. *)

val sample_distinct : t -> int -> int -> int list
(** [sample_distinct t k n] draws [min k n] distinct integers from
    [0, n). *)
