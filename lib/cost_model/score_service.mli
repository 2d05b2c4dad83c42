(** Batched, cached cost-model scoring.

    The evolutionary search scores thousands of candidate programs per
    round, and most of the cost is not the GBDT at all — it is extracting
    each program's per-statement feature vectors.  This service turns
    that into one batch pipeline, which every scoring caller goes
    through (evolution's fitness, crossover's per-node parent scores, the
    tuner's model ranking, descent's line search and beam search):

    - its input is {!Ansor_sched.Candidate.t}: programs the caller has
      already lowered and keyed, so the service neither lowers nor hashes
      them again;
    - feature vectors and scores are memoized in a table keyed by the
      candidate's canonical program hash (its [key] field), valid for the
      one model the service holds: candidates that survive across
      evolution generations (elites, re-selected parents) are featurized
      once per round, and the tuner builds its training records from the
      same vectors ({!features});
    - featurization of the batch's unique table misses fans out over the
      measure service's domain pool in {e fixed-size chunks}, so the work
      partition — and therefore every float produced — is independent of
      [num_workers] ({!score_states} fans its lowering out the same way);
    - GBDT prediction runs through {!Ansor_gbdt.Gbdt.predict_batch}: one
      pass per tree over a flat row matrix instead of one tree walk per
      statement.

    A service lives for one model: {!set_model} (a retrain) empties the
    table, so the tuner builds one per round and drops it when the round
    returns — no idle tuner holds features.

    Bit-identity contract: for any batch and any worker count, the score
    of each candidate is bitwise equal to the sequential
    [Cost_model.score_prog model c.prog], and its per-statement scores to
    [Cost_model.score_stmts] over [Features.of_prog c.prog] — accumulation
    order inside {!Ansor_gbdt.Gbdt.predict_batch} and the final
    per-statement sum mirror the sequential folds exactly. *)

open Ansor_sched

type t

val create :
  ?telemetry:Ansor_measure_service.Telemetry.t ->
  num_workers:int ->
  Ansor_machine.Machine.t ->
  t
(** A service with the untrained model and an empty table, for the
    caller's target machine (features and keys do not depend on it).
    [telemetry] receives one [score_batches] tick per call plus table
    hit/miss and fan-out timing counters; [num_workers] is the
    domain-pool width (clamped to >= 1), normally
    {!Ansor_measure_service.Service.num_workers} so [--workers] governs
    both fan-outs. *)

val set_model : t -> Cost_model.t -> unit
(** Installs a (re)trained model and empties the table: every entry was
    scored under the previous model. *)

val score : t -> Candidate.t list -> float list
(** Scores each candidate, in order.  Duplicates in the batch (same
    [key]) are featurized once. *)

val stmt_scores : t -> Candidate.t list -> float list list
(** Per-statement scores of each candidate, in [Access.analyze] order
    (node-based crossover picks the better parent per DAG node). *)

val features : t -> Candidate.t list -> float array list list
(** Per-statement feature vectors of each candidate — table hits for
    anything scored under the current model — for building training
    records.  The vectors are the table's own: copy them before keeping
    or mutating them. *)

val score_states : t -> State.t list -> float list
(** {!score} for bare states: lowers and keys them on the pool first.
    States that fail to lower score [Float.neg_infinity]. *)

val cache_size : t -> int
(** Programs in the table. *)

type stats = { hits : int; misses : int }

val stats : t -> stats
(** Table lookups since {!create} that found / did not find their
    program (in-batch duplicates excluded; [telemetry] counts them as
    hits). *)
