(** The measurement request/result protocol.

    Mirrors the paper's measurer interface (Figure 4): a batch of candidate
    schedules goes in, and {e every} candidate comes back with either an
    observed latency or a classified failure — nothing is silently dropped.
    Failure classes follow the build/run split of the original RPC measurer:

    - {!Build_error}: the candidate does not lower to a program (the
      paper's compilation failure);
    - {!Compile_error}: the native backend's C compiler rejected the
      emitted kernel.  Deterministic — recompiling the same source cannot
      succeed — so it is {e never} retried and, like {!Build_error},
      consumes no trials;
    - {!Bounds_error}: the memory-safety certifier refused to let the
      native backend compile the program (an [Unsafe] out-of-bounds
      witness, or [Unknown] without guarded codegen).  Deterministic
      like {!Compile_error}: never retried, zero trials, and never
      cached as a latency;
    - {!Run_error}: the backend failed while "executing" the program
      (injected by the fault hook, a non-finite simulator estimate, or a
      crashed native binary); transient by assumption, so the service
      retries it;
    - {!Timeout}: the program's cost exceeded the configured per-program
      ceiling (the paper kills programs that run too long). *)

open Ansor_sched

type failure =
  | Build_error of string
  | Compile_error of string
  | Bounds_error of string
  | Run_error of string
  | Timeout

val failure_to_string : failure -> string

(** Which measurement backend a service runs candidates on:
    - {!Sim}: the analytical hardware simulator (deterministic, fast);
    - {!Native}: gcc-compiled kernels timed on the host CPU (real
      wall-clock; see [Ansor_measure_native]). *)
type backend = Sim | Native

val backend_name : backend -> string
val backend_of_string : string -> (backend, string) result

type request = {
  state : State.t;  (** the candidate schedule *)
  prog : Prog.t option;
      (** the lowered program, if the caller already has it; [None] makes
          the service lower (and possibly fail) itself *)
}

val request : ?prog:Prog.t -> State.t -> request

type result = {
  latency : (float, failure) Stdlib.result;
      (** observed latency in seconds, or the classified failure *)
  cache_hit : bool;
      (** the latency came from the dedup cache (no trial consumed) *)
  attempts : int;
      (** backend runs performed: 0 for build errors and cache hits, >= 2
          when transient failures were retried *)
  key : string;
      (** canonical program key (see {!Cache.key_of_prog}); [""] when the
          candidate did not lower *)
}

val is_ok : result -> bool

type outcome = {
  out_latency : (float, failure) Stdlib.result;
  out_attempts : int;  (** backend runs performed (0 for compile errors) *)
}
(** What a pluggable batch backend reports per candidate — the service
    folds these into {!result}s, telemetry and the dedup cache. *)

type native_report = {
  nr_outcomes : (string * outcome) array;
      (** one outcome per submitted (key, program), any order *)
  nr_compile_seconds : float;  (** wall-clock spent compiling *)
  nr_run_seconds : float;  (** wall-clock spent timing kernels *)
  nr_compiles : int;  (** compiler invocations (batched TUs) *)
  nr_kernels : int;  (** kernels submitted to those invocations *)
}
(** A native backend's answer for one batch: classified outcomes plus the
    compile/run attribution the service feeds into telemetry. *)

val empty_native_report : native_report
