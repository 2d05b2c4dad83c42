open Ansor_sched
module Toolchain = Ansor_codegen.Toolchain
module Codegen_c = Ansor_codegen.Codegen_c
module Protocol = Ansor_measure_service.Protocol
module Pool = Ansor_measure_service.Pool

type config = {
  chunk : int;
  cflags : string list;
  guard : bool;
}

(* ANSOR_BOUNDS_CHECK=1 turns on guarded codegen session-wide: every
   emitted access aborts cleanly on an out-of-range offset instead of
   corrupting the harness.  Pair it with the service's [allow_unproven]
   so certifier-[Unknown] programs can still be measured. *)
let guard_requested () =
  match Sys.getenv_opt "ANSOR_BOUNDS_CHECK" with
  | Some ("1" | "true" | "yes" | "on") -> true
  | Some _ | None -> false

let default_config =
  {
    chunk = 8;
    cflags = Toolchain.native_flags;
    guard = guard_requested ();
  }

let available = Toolchain.available

(* Each kernel runs [warmup] times untimed, then [repeat] timed runs of
   which the minimum is reported. *)
let warmup = 1
let repeat = 3

(* ---- batching ------------------------------------------------------------ *)

(* Split the miss set into contiguous chunks of [chunk] kernels; each chunk
   becomes one translation unit and one compiler invocation.  Contiguity
   keeps the kernel-to-chunk mapping trivial ([global index / chunk]) and
   the emitted TU deterministic for a given miss order. *)
let chunks_of ~chunk (misses : (string * Prog.t) array) =
  let n = Array.length misses in
  let chunk = max 1 chunk in
  let num = (n + chunk - 1) / chunk in
  Array.init num (fun c ->
      let lo = c * chunk in
      let hi = min n (lo + chunk) in
      (c, Array.sub misses lo (hi - lo)))

type compiled_chunk = {
  ck_index : int;
  ck_members : (string * Prog.t) array;
  ck_exe : (string, Protocol.failure) result;
      (** path of the chunk executable, or the classified compile failure
          shared by every member *)
}

let deadline_expired = function
  | None -> false
  | Some d -> Unix.gettimeofday () > d

(* Wall-clock ceiling for one timing subprocess: the kernel body runs
   [warmup + repeat] times plus buffer setup, so the per-run latency
   ceiling is scaled up and padded; the batch deadline caps it further.
   [None] when neither bound exists. *)
let process_timeout ~timeout ~deadline =
  let per_run =
    if Float.is_finite timeout && timeout > 0.0 then
      Some ((timeout *. float_of_int (warmup + repeat)) +. 1.0)
    else None
  in
  let remaining =
    match deadline with
    | None -> None
    | Some d -> Some (Float.max 0.1 (d -. Unix.gettimeofday ()))
  in
  match (per_run, remaining) with
  | None, t | t, None -> t
  | Some a, Some b -> Some (Float.min a b)

(* ---- timing one kernel --------------------------------------------------- *)

let parse_latency lines =
  match lines with
  | first :: _ -> (
    match float_of_string_opt (String.trim first) with
    | Some l when Float.is_finite l && l > 0.0 -> Ok l
    | Some l -> Error (Printf.sprintf "non-positive latency %g" l)
    | None -> Error (Printf.sprintf "unparsable timing output %S" first))
  | [] -> Error "empty timing output"

(* Run-classify-retry loop for one kernel of a compiled chunk.  Mirrors
   the simulator path's retry policy: only [Run_error] (crash, non-zero
   exit, garbage output) is retried — a timeout at the process level means
   the kernel is genuinely over its ceiling, and re-timing it cannot make
   it faster. *)
let time_kernel ~timeout ~deadline ~max_retries exe idx =
  let args =
    [ string_of_int idx; "time"; string_of_int repeat; string_of_int warmup ]
  in
  let rec attempt n =
    if deadline_expired deadline then
      { Protocol.out_latency = Error Protocol.Timeout; out_attempts = n - 1 }
    else
      let outcome =
        match
          Toolchain.run ?timeout:(process_timeout ~timeout ~deadline)
            exe args
        with
        | Ok lines -> (
          match parse_latency lines with
          | Ok latency when latency > timeout -> Error Protocol.Timeout
          | Ok latency -> Ok latency
          | Error msg -> Error (Protocol.Run_error msg))
        | Error (Toolchain.Timed_out _) -> Error Protocol.Timeout
        | Error e -> Error (Protocol.Run_error (Toolchain.run_error_to_string e))
      in
      match outcome with
      | Error (Protocol.Run_error _)
        when n <= max_retries && not (deadline_expired deadline) ->
        attempt (n + 1)
      | outcome -> { Protocol.out_latency = outcome; out_attempts = n }
  in
  attempt 1

(* ---- the runner ---------------------------------------------------------- *)

let runner ?(config = default_config) () :
    Ansor_measure_service.Service.native_runner =
 fun ~timeout ~deadline ~max_retries ~num_workers misses ->
  if Array.length misses = 0 then Protocol.empty_native_report
  else
    Toolchain.with_temp_dir ~prefix:"ansor-native" (fun dir ->
        let chunks = chunks_of ~chunk:config.chunk misses in
        (* stage 1: compile, fanned across the domain pool.  gcc is an
           external process, so parallel compiles do not perturb OCaml-side
           determinism; the emitted source depends only on the programs. *)
        let compile_t0 = Unix.gettimeofday () in
        let expired (c, members) =
          { ck_index = c; ck_members = members; ck_exe = Error Protocol.Timeout }
        in
        let compile (c, members) =
          let progs = Array.to_list (Array.map snd members) in
          let src = Codegen_c.emit_bench_tu ~guard:config.guard progs in
          let exe =
            match
              Toolchain.compile_string ~flags:config.cflags ~dir
                ~basename:(Printf.sprintf "chunk%d" c)
                src
            with
            | Ok exe -> Ok exe
            | Error msg -> Error (Protocol.Compile_error msg)
          in
          { ck_index = c; ck_members = members; ck_exe = exe }
        in
        let compiled =
          Pool.run ?deadline ~on_expired:expired ~num_workers compile chunks
        in
        let compile_seconds = Unix.gettimeofday () -. compile_t0 in
        (* expired chunks never reached gcc: they count in neither the
           invocation nor the submitted-kernel tally *)
        let compiles, kernels =
          Array.fold_left
            (fun (c, k) ck ->
              match ck.ck_exe with
              | Ok _ | Error (Protocol.Compile_error _) ->
                (c + 1, k + Array.length ck.ck_members)
              | Error _ -> (c, k))
            (0, 0) compiled
        in
        (* stage 2: time, sequentially on the calling domain — concurrent
           timing runs would contend for cores and corrupt each other's
           wall-clock. *)
        let run_t0 = Unix.gettimeofday () in
        let outcomes =
          Array.concat
            (Array.to_list
               (Array.map
                  (fun ck ->
                    Array.mapi
                      (fun j (key, _) ->
                        match ck.ck_exe with
                        | Error failure ->
                          (* compile failures and expired chunks consume no
                             trials: nothing ever ran *)
                          ( key,
                            {
                              Protocol.out_latency = Error failure;
                              out_attempts = 0;
                            } )
                        | Ok exe ->
                          ( key,
                            time_kernel ~timeout ~deadline ~max_retries exe j ))
                      ck.ck_members)
                  compiled))
        in
        let run_seconds = Unix.gettimeofday () -. run_t0 in
        {
          Protocol.nr_outcomes = outcomes;
          nr_compile_seconds = compile_seconds;
          nr_run_seconds = run_seconds;
          nr_compiles = compiles;
          nr_kernels = kernels;
        })
