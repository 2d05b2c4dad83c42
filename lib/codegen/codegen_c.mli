(** C code generation for lowered programs.

    In the paper, Ansor's programs "are then lowered to TVM IR for code
    generation targeting various hardware platforms" — TVM acts as a
    deterministic code generator.  This module plays that role here: it
    emits a self-contained C99 translation unit for any lowered program,
    with the schedule's annotations mapped to portable pragmas:

    - [parallel]  → [#pragma omp parallel for]
    - [vectorize] → [#pragma omp simd]
    - [unroll]    → [#pragma GCC unroll <extent>]

    Semantics match the reference interpreter exactly: floor division /
    Euclidean modulo helpers are emitted (C's truncating operators differ
    on negatives, which matters for the transposed-convolution guards),
    selects become ternaries (so guarded out-of-bounds accesses are never
    evaluated), and reduction buffers are initialized to their identity
    element before the loop nests run.

    The emitted code is valid without OpenMP (the pragmas are ignored);
    compile with [-fopenmp] to actually parallelize.

    The generated kernel takes one [float *] parameter per buffer of the
    program, inputs first (parameter order = {!params}).  {!emit_test_main}
    additionally produces a [main] that feeds fixed inputs and prints every
    output element, which the test suite compiles with gcc and compares
    against the interpreter — the end-to-end "does real code agree"
    check. *)

open Ansor_sched

val sanitize : string -> string
(** C identifier for a tensor or loop-variable name (['.'], ['@'] and other
    non-alphanumeric characters become ['_']; a leading digit is
    prefixed). Injective over any one program's names via a disambiguating
    suffix is {e not} applied here — use {!params} for the per-program
    unique mapping. *)

val params : Prog.t -> (string * string) list
(** [(buffer name, C identifier)] for every buffer, in parameter order
    (program buffer order), with collision-free identifiers. *)

val emit_kernel : ?name:string -> ?guard:bool -> Prog.t -> string
(** The kernel function (plus the division helpers), as a compilable C
    fragment. [name] defaults to ["kernel"].  [guard] (default false)
    emits bounds-guarded accesses (see {!guard_helpers}). *)

val emit_kernel_fn :
  ?static_fn:bool -> ?guard:bool -> name:string -> Prog.t -> string
(** Just the kernel function, without includes or helpers — for callers
    assembling multi-kernel translation units (emit {!helpers} once, then
    one [emit_kernel_fn] per kernel).  [static_fn] gives the function
    internal linkage.  With [guard] every access's flattened offset is
    routed through the [ansor_ck] range check (emit {!guard_helpers} in
    the TU). *)

val helpers : string
(** The shared integer-division/min/max helper block every kernel relies
    on; emit exactly once per translation unit. *)

val guard_helpers : string
(** The [ansor_ck] branch-and-abort range-check helper used by guarded
    kernels ([ANSOR_BOUNDS_CHECK=1]): an out-of-bounds flattened offset
    prints the buffer name and offending index to stderr and [abort()]s
    before touching memory — defense-in-depth for programs the static
    certifier could not prove safe, and the crash signal the sanitizer
    differential oracle keys on.  Needs [<stdio.h>]/[<stdlib.h>]; emit
    once per TU, after {!helpers}. *)

val emit_bench_tu : ?guard:bool -> Prog.t list -> string
(** One self-contained benchmark translation unit over N kernels — the
    native measurement backend's batch-compilation hot path (one gcc
    invocation amortizes process spawn and header parsing over the whole
    batch).  The [main] selects the kernel by [argv] index, dlopen-free:

    - [exe IDX time REPEAT WARMUP] allocates the kernel's buffers, fills
      the inputs deterministically, runs WARMUP untimed then REPEAT timed
      invocations ([clock_gettime(CLOCK_MONOTONIC)]) and prints the
      minimum in seconds ([%.9e]); both counts are required (the native
      backend passes its own constants), and a missing one exits with
      status 2;
    - [exe IDX dump] runs the kernel once and prints every non-input
      buffer element ([%.9g], buffer order) — the equivalence hook:
      feeding {!bench_inputs} to the interpreter must reproduce exactly
      these outputs;
    - an out-of-range index exits with status 2. *)

val bench_inputs : Prog.t -> (string * float array) list
(** The exact input tensors the benchmark TU's deterministic fill
    produces for this program (a 32-bit LCG whose values are exactly
    representable in float32), keyed by buffer name — run the interpreter
    on these to cross-check a [dump] invocation. *)

val emit_test_main :
  Prog.t -> inputs:(string * float array) list -> string
(** A complete translation unit: the kernel plus a [main] that initializes
    the input buffers with the given data (hex float literals, exact),
    zero-allocates the other buffers, runs the kernel once and prints each
    non-input buffer's elements one per line ([printf "%.9g"]), in buffer
    order.
    @raise Invalid_argument if an input is missing or has the wrong
    size. *)
