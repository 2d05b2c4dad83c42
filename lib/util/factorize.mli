(** Integer factorization utilities.

    Tile-size sampling and tile-size mutation both need to enumerate or
    sample ways of writing a loop extent as an ordered product of factors;
    these helpers centralize that arithmetic. *)

val divisors : int -> int list
(** [divisors n] is the sorted list of positive divisors of [n].
    @raise Invalid_argument if [n <= 0]. *)

val prime_factors : int -> int list
(** [prime_factors n] is the multiset of prime factors in ascending order,
    e.g. [prime_factors 12 = [2; 2; 3]]. [prime_factors 1 = []]. *)

val factorizations : int -> int -> int list list
(** [factorizations n k] lists all ordered [k]-tuples of positive integers
    whose product is [n]. The count grows quickly; intended for small [k]
    (<= 5) as used by multi-level tiling. *)

val count_factorizations : int -> int -> int
(** [count_factorizations n k] = [List.length (factorizations n k)] without
    materializing the list. *)

val random_factorization : Rng.t -> int -> int -> int list
(** [random_factorization rng n k] draws one ordered [k]-tuple with product
    [n], approximately uniformly (by distributing prime factors to random
    positions). *)

val weighted_factorization :
  Rng.t -> int -> weights:float array -> int list
(** Like {!random_factorization} with [Array.length weights] parts, but
    each prime factor lands in position [i] with probability proportional
    to [weights.(i)].  Used to bias tile-size sampling toward realistic
    shapes (large outer tiles, small middle levels) without removing any
    point from the space. *)
