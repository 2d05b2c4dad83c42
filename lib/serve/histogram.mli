(** Per-request latency histogram.

    Retains every sample, because exact percentiles beat bucketed
    approximations for latency reports.  Samples are kept in blocks: the
    first block doubles from 64 to 8 192 samples, and after that every
    8 192 samples get a fresh block.  Storage thus costs about one word per
    sample, and growing it never copies a sample past the first block.
    {!quantile}, {!summary} and {!render} sort one exact-size copy of the
    samples, cached until the next {!add}; {!merged_summary} sorts one
    exact-size concatenation of its inputs.  Quantiles use the same linear
    interpolation as {!Ansor_util.Stats.quantile}; {!render} buckets the
    sorted samples by powers of two. *)

type t

val create : unit -> t
val add : t -> float -> unit
(** @raise Invalid_argument on negative or non-finite samples. *)

val count : t -> int

type summary = {
  count : int;
  mean : float;  (** 0 when empty, like the quantiles *)
  min : float;
  max : float;
  p50 : float;
  p95 : float;
  p99 : float;
  p999 : float;
}

val summary : t -> summary

val merged_summary : t list -> summary
(** The summary of every sample of the inputs (which are left untouched),
    bit for bit the {!summary} of one histogram fed their samples in list
    order — how the serving tier combines per-shard histograms into a
    global view.  Its one large allocation is that concatenation, one word
    per sample, which it sorts in place. *)

val quantile : t -> float -> float
(** [quantile t q] with [q] in [0,1]; 0 when empty. *)

val summary_line : summary -> string
(** e.g. ["n=100 mean=1.23ms p50=1.20ms p95=1.40ms p99=1.55ms p99.9=1.60ms"]
    (times in milliseconds). *)

val render : t -> string
(** ASCII bucket chart, one power-of-two latency bucket per line; the
    empty histogram renders as ["(no samples)\n"]. *)
