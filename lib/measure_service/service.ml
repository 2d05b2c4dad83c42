open Ansor_sched
module Rng = Ansor_util.Rng
module Machine = Ansor_machine.Machine
module Measurer = Ansor_machine.Measurer

type config = {
  num_workers : int;
  timeout : float;
  batch_deadline : float;
  max_retries : int;
  noise : float;
  backend : Protocol.backend;
  allow_unproven : bool;
}

let default_config =
  {
    num_workers = 1;
    timeout = infinity;
    batch_deadline = infinity;
    max_retries = 2;
    noise = 0.03;
    backend = Protocol.Sim;
    allow_unproven = false;
  }

type fault_hook = key:string -> attempt:int -> Protocol.failure option

type native_runner =
  timeout:float ->
  deadline:float option ->
  max_retries:int ->
  num_workers:int ->
  (string * Prog.t) array ->
  Protocol.native_report

type t = {
  config : config;
  machine : Machine.t;
  measurer : Measurer.t;
  cache : Cache.t;
  telemetry : Telemetry.t;
  seed : int;
  fault_hook : fault_hook option;
  native_runner : native_runner option;
}

let create ?(config = default_config) ?cache ?fault_hook ?native_runner ~seed
    machine =
  (match (config.backend, native_runner) with
  | Protocol.Native, None ->
    invalid_arg
      "Measure_service.create: backend Native requires a native_runner \
       (see Ansor_measure_native.Measure_native.runner)"
  | _ -> ());
  {
    config;
    machine;
    measurer = Measurer.create ~noise:config.noise ~seed machine;
    cache = (match cache with Some c -> c | None -> Cache.create ());
    telemetry = Telemetry.create ();
    seed;
    fault_hook;
    native_runner;
  }

let backend t = t.config.backend

let machine t = t.machine
let measurer t = t.measurer
let num_workers t = t.config.num_workers
let cache t = t.cache
let telemetry t = t.telemetry
let stats t = Telemetry.stats t.telemetry
let trials t = (stats t).Telemetry.trials
let true_latency t prog = Measurer.true_latency t.measurer prog

(* ---- per-candidate measurement (runs on worker domains) ----------------- *)

(* The RNG stream is a pure function of (root seed, canonical key): the
   observed latency does not depend on which domain ran the candidate or in
   which order — the determinism contract of the whole service. *)
let candidate_rng t key = Rng.create (t.seed lxor Hashtbl.hash key)

(* The wall-clock check happens between runs, never inside one: the
   simulator backend cannot be interrupted mid-call (OCaml domains cannot
   be killed safely), so the deadline bounds how much {e additional} work a
   worker takes on, and the batch-level pre-check in {!measure_batch}
   bounds the queue behind a straggler. *)
let deadline_expired = function
  | None -> false
  | Some d -> Unix.gettimeofday () > d

let measure_candidate ?deadline t key prog =
  let rng = candidate_rng t key in
  let rec attempt n =
    let injected =
      match t.fault_hook with
      | None -> None
      | Some hook -> hook ~key ~attempt:n
    in
    let outcome =
      match injected with
      | Some failure -> Error failure
      | None ->
        let latency = Measurer.measure_with t.measurer ~rng prog in
        if not (Float.is_finite latency) || latency <= 0.0 then
          Error (Protocol.Run_error "non-finite latency")
        else if latency > t.config.timeout then Error Protocol.Timeout
        else Ok latency
    in
    match outcome with
    | Error (Protocol.Run_error _)
      when n <= t.config.max_retries && not (deadline_expired deadline) ->
      (* transient: re-run *)
      attempt (n + 1)
    | outcome -> { Protocol.out_latency = outcome; out_attempts = n }
  in
  attempt 1

(* ---- batch protocol ------------------------------------------------------ *)

type prepared =
  | Broken of string  (* did not lower *)
  | Uncertified of string * string  (* key, refused by the bounds gate *)
  | Hit of string * float  (* already in the cache *)
  | First of string * Prog.t  (* cache miss, first occurrence in the batch *)
  | Dup of string  (* cache miss, duplicate of an earlier First *)

(* The memory-safety gate in front of the native backend: gcc-compiled
   candidates run in this process, so an [Unsafe] program (constructive
   out-of-bounds witness) is refused outright, and an [Unknown] one is
   refused unless the caller opted into guarded codegen
   ([allow_unproven] — the generated kernel then aborts cleanly on the
   first violation instead of corrupting the harness).  The refusal is
   deterministic, so like a compile error it is never retried, consumes
   zero trials, and is checked {e before} the dedup cache: a latency
   recorded for an out-of-bounds program is garbage even when some past
   session managed to record one.  Every call runs the certifier afresh
   (about 40 µs a program), so [certified] counts gate calls and is the
   same in every process. *)
let certification_gate t prog =
  match t.config.backend with
  | Protocol.Sim -> None
  | Protocol.Native ->
    Telemetry.incr_certified t.telemetry;
    (match Ansor_analysis.Bounds.certify prog with
    | Ansor_analysis.Bounds.Certified -> None
    | Ansor_analysis.Bounds.Unsafe w ->
      Some (Ansor_analysis.Bounds.witness_to_string w)
    | Ansor_analysis.Bounds.Unknown ->
      if t.config.allow_unproven then None
      else
        Some
          "bounds not proved (certifier verdict: unknown); enable guarded \
           codegen (allow_unproven + ANSOR_BOUNDS_CHECK=1) to measure \
           anyway")

let prepare t seen_in_batch (req : Protocol.request) =
  let lowered =
    match req.prog with
    | Some prog -> Ok prog
    | None -> (
      match Lower.lower req.state with
      | prog -> Ok prog
      | exception State.Illegal msg -> Error msg)
  in
  match lowered with
  | Error msg -> Broken msg
  | Ok prog -> (
    let key = Cache.key_of_prog ~backend:t.config.backend t.machine prog in
    match certification_gate t prog with
    | Some msg -> Uncertified (key, msg)
    | None -> (
      match Cache.find t.cache key with
      | Some latency -> Hit (key, latency)
      | None ->
        if Hashtbl.mem seen_in_batch key then Dup key
        else begin
          Hashtbl.replace seen_in_batch key ();
          First (key, prog)
        end))

let measure_batch t reqs =
  Telemetry.time t.telemetry Telemetry.Measure (fun () ->
      Telemetry.incr_batches t.telemetry;
      let seen = Hashtbl.create 64 in
      let prepared = Array.of_list (List.map (prepare t seen) reqs) in
      (* fan the unique cache misses out across the domain pool *)
      let misses =
        Array.of_list
          (Array.to_list prepared
          |> List.filter_map (function
               | First (key, prog) -> Some (key, prog)
               | Broken _ | Uncertified _ | Hit _ | Dup _ -> None))
      in
      let deadline =
        if t.config.batch_deadline = infinity then None
        else Some (Unix.gettimeofday () +. t.config.batch_deadline)
      in
      let expired_outcome (key, _) =
        (* never started: the batch's wall-clock budget is exhausted *)
        (key, { Protocol.out_latency = Error Protocol.Timeout; out_attempts = 0 })
      in
      let outcomes =
        match (t.config.backend, t.native_runner) with
        | Protocol.Sim, _ | Protocol.Native, None ->
          Pool.run ?deadline ~on_expired:expired_outcome
            ~num_workers:t.config.num_workers
            (fun (key, prog) -> (key, measure_candidate ?deadline t key prog))
            misses
        | Protocol.Native, Some runner ->
          let report =
            runner ~timeout:t.config.timeout ~deadline
              ~max_retries:t.config.max_retries
              ~num_workers:t.config.num_workers misses
          in
          Telemetry.add_phase t.telemetry Telemetry.Compile
            report.Protocol.nr_compile_seconds;
          Telemetry.add_phase t.telemetry Telemetry.Native_run
            report.Protocol.nr_run_seconds;
          Telemetry.add_native_compiles t.telemetry
            ~compiles:report.Protocol.nr_compiles
            ~kernels:report.Protocol.nr_kernels;
          report.Protocol.nr_outcomes
      in
      let by_key = Hashtbl.create (Array.length outcomes) in
      Array.iter (fun (key, o) -> Hashtbl.replace by_key key o) outcomes;
      (* sequentially: account telemetry, fill the cache, assemble results *)
      Array.iter
        (fun (_, o) ->
          Telemetry.record_result t.telemetry ~attempts:o.Protocol.out_attempts
            o.Protocol.out_latency)
        outcomes;
      Array.iter
        (fun (key, o) ->
          match o.Protocol.out_latency with
          | Ok latency -> Cache.add t.cache key latency
          | Error _ -> ())
        outcomes;
      let result_of = function
        | Broken msg ->
          let r : Protocol.result =
            {
              latency = Error (Protocol.Build_error msg);
              cache_hit = false;
              attempts = 0;
              key = "";
            }
          in
          Telemetry.record_result t.telemetry ~attempts:0 r.Protocol.latency;
          r
        | Uncertified (key, msg) ->
          let r : Protocol.result =
            {
              latency = Error (Protocol.Bounds_error msg);
              cache_hit = false;
              attempts = 0;
              key;
            }
          in
          Telemetry.record_result t.telemetry ~attempts:0 r.Protocol.latency;
          r
        | Hit (key, latency) ->
          Telemetry.record_result t.telemetry ~attempts:0 ~cache_hit:true
            (Ok latency);
          { latency = Ok latency; cache_hit = true; attempts = 0; key }
        | First (key, _) ->
          let o = Hashtbl.find by_key key in
          { latency = o.Protocol.out_latency; cache_hit = false; attempts = o.Protocol.out_attempts; key }
        | Dup key -> (
          let o = Hashtbl.find by_key key in
          match o.Protocol.out_latency with
          | Ok latency ->
            (* measured once, served to the duplicate from the cache *)
            Telemetry.record_result t.telemetry ~attempts:0 ~cache_hit:true
              (Ok latency);
            { latency = Ok latency; cache_hit = true; attempts = 0; key }
          | Error _ as e ->
            Telemetry.record_result t.telemetry ~attempts:0 e;
            { latency = e; cache_hit = false; attempts = 0; key })
      in
      Array.to_list (Array.map result_of prepared))

let measure_state t state =
  match measure_batch t [ Protocol.request state ] with
  | [ r ] -> r
  | _ -> assert false
