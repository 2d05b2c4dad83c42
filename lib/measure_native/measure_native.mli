(** The native measurement backend: gcc-compiled kernels timed on the host
    CPU.

    Where the simulator backend estimates a candidate's latency
    analytically, this backend compiles the lowered program with
    [gcc -O3 -fopenmp -march=native] and times real wall-clock — the
    paper's actual-hardware measurer.  The hot path is {e batch
    compilation}: one translation unit holds up to {!config.chunk} kernels
    (each with its own buffer setup and min-of-3 timing runner, the
    kernel selected by argv index), so a batch of B candidates costs
    [ceil(B / chunk)] compiler invocations instead of B.  Compile jobs fan
    out across the service's domain pool; timing runs stay sequential on
    the calling domain so concurrent kernels cannot contend for cores and
    corrupt each other's measurements.

    The backend plugs into {!Ansor_measure_service.Service} as the
    [native_runner] closure (the service never depends on codegen), so the
    dedup cache, failure classification, retry policy, telemetry and
    checkpointing all compose unchanged:

    - compiler rejections come back as {!Protocol.Compile_error}
      (deterministic — never retried, no trials consumed);
    - crashed or garbage-printing binaries are
      {!Protocol.Run_error} (transient by assumption, retried);
    - kernels over the per-program latency ceiling, or batches over their
      wall-clock deadline, are {!Protocol.Timeout} (not retried:
      re-timing cannot make a kernel faster). *)

(** Every kernel runs once untimed, then 3 timed runs of which the
    minimum is reported. *)
type config = {
  chunk : int;  (** kernels per translation unit (default 8) *)
  cflags : string list;  (** default {!Ansor_codegen.Toolchain.native_flags} *)
  guard : bool;
      (** emit bounds-guarded kernels (branch-and-abort per access; see
          {!Ansor_codegen.Codegen_c.guard_helpers}) — defense-in-depth
          when measuring certifier-[Unknown] programs.  Default:
          {!guard_requested}. *)
}

val default_config : config

val guard_requested : unit -> bool
(** Whether [ANSOR_BOUNDS_CHECK] is set to [1]/[true]/[yes]/[on] in the
    environment — the session-wide switch for guarded codegen. *)

val available : unit -> bool
(** Whether the system C compiler works here (memoized probe) — gate
    [--backend native] on this. *)

val runner :
  ?config:config -> unit -> Ansor_measure_service.Service.native_runner
(** The batch measurement entry point, in the shape the service injects:
    compiles the batch's unique cache misses in chunked translation units,
    times every kernel, and reports one classified
    {!Ansor_measure_service.Protocol.outcome} per candidate plus
    compile/run wall-clock attribution. *)
