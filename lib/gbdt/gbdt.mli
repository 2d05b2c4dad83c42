(** Gradient-boosted regression trees.

    A from-scratch replacement for the XGBoost model the paper trains as
    its cost model (§5.2): least-squares gradient boosting over
    histogram-binned features, with per-sample weights implementing the
    paper's throughput-weighted squared-error loss.

    Training uses quantile binning (at most {!val:max_bins} bins per
    feature, computed once per training set), greedy splits over the
    bins, and shrinkage.

    {b Data layout.}  Every value is binned once per {!train} call into a
    byte matrix, one byte per (row, splittable feature), row-major; a
    feature with a single bin (a constant column) is left out, since it
    can never split.  A node owns a slice of one row-index array; a split
    partitions that slice in place, stably.  One histogram buffer
    ([3 x max_bins] floats per splittable feature: weight, weighted
    residual, row count) is reused by every node, and the weighted
    residuals are computed once per tree.

    {b Complexity.}  Binning sorts each column once:
    O(features x samples x log samples).  A tree reads each row's bytes
    once per level and scans [max_bins] histogram entries per feature
    per split node: O(trees x (depth x samples x features + nodes x
    features x max_bins)), with [nodes] the split nodes of one tree.

    {b Bit-identity contract.}  A model is a deterministic function of
    its inputs, down to the bits of every threshold, leaf and
    [importance] entry.  Floating-point sums are not associative, so the
    trainer pins two orders:
    - each histogram entry, and each node's weight and weighted-residual
      totals, sum their rows in ascending row index (the stable partition
      keeps every slice ascending);
    - subtrees grow right first, then left, so split gains are added to
      [importance] in that order.
    [test/test_gbdt.ml] pins both with digests of marshalled models. *)

type t

type params = {
  n_trees : int;
  max_depth : int;
  min_samples_leaf : int;
  learning_rate : float;
  min_gain : float;  (** minimum weighted-variance reduction to split *)
}

val default_params : params
(** 60 trees of depth 6, learning rate 0.12. *)

val max_bins : int

val train :
  ?params:params ->
  ?init:t ->
  x:float array array ->
  y:float array ->
  ?w:float array ->
  unit ->
  t
(** [train ~x ~y ~w ()] fits boosted trees to rows [x] with targets [y]
    and optional non-negative sample weights [w] (default all-ones).

    With [?init], boosting warm-starts from the given model: the new
    trees fit the residuals [init] leaves on [(x, y)], and the result
    keeps [init]'s trees in front, so
    [predict result row = predict init row + correction].  Omitting
    [init] is bit-identical to the cold path.
    @raise Invalid_argument on empty data or ragged inputs. *)

val predict : t -> float array -> float

val predict_many : t -> float array array -> float array

val predict_batch : t -> width:int -> float array -> float array
(** [predict_batch t ~width m] predicts every row of the flat row-major
    matrix [m] (each row [width] floats) in a single pass per tree over
    all rows — the batch-prediction fast path of the scoring service.
    Results are bit-identical to {!predict} applied to each row: the
    per-row accumulation order (base value, then trees in training
    order) is the same.
    @raise Invalid_argument if [width <= 0] or [Array.length m] is not a
    multiple of [width]. *)

val num_trees : t -> int

val feature_importance : t -> float array
(** Total split gain accumulated per feature, normalized to sum to 1 (all
    zeros for a stump-only model). Length equals the feature count seen at
    training. *)

val save : path:string -> t -> unit
(** Atomically persist the model: magic [ansor-gbdt-v1], payload length,
    marshalled payload, md5 digest foot — the {!Checkpoint} file
    convention. *)

val load : path:string -> (t, string) result
(** Load a model written by {!save}.  Corrupt, truncated or foreign
    files yield [Error] with a human-readable reason; [Marshal] is only
    consulted after the digest foot verifies. *)
