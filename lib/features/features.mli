(** Program features for the learned cost model (Appendix B).

    One fixed-length vector is extracted per innermost non-loop statement,
    in the context of the full program.  The groups follow the paper's
    Appendix B: float / integer operation counts; vectorization, unrolling
    and parallelization features (length of the innermost annotated loop,
    one-hot position/kind encoding, product of annotated lengths, count);
    GPU-thread-binding placeholders; a 10-point arithmetic-intensity curve;
    per-buffer access features for up to 5 buffers (access
    type, bytes, unique bytes, lines, unique lines, reuse type, reuse
    distance, reuse counter, stride, bytes-over-reuse ratios); allocation
    features; and outer-loop context features.

    Magnitude features are [log2(1+x)]-transformed so the gradient-boosted
    trees split on orders of magnitude. *)

open Ansor_sched

val dim : int
(** Length of a feature vector. *)

val names : string array
(** Human-readable feature names, [names.(i)] describing component [i];
    useful for inspecting trained models. *)

val of_stmt_info : Access.stmt_info -> float array

val of_prog : Prog.t -> float array list
(** One vector per innermost statement, in program order.  Never empty for
    programs produced by {!Lower.lower} on non-trivial DAGs. *)
