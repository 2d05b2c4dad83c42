(* The measurement service: domain pool, failure classification and
   retries, the dedup cache, and telemetry accounting. *)

open Helpers
module Machine = Ansor.Machine
module State = Ansor.State
module Nn = Ansor.Nn
module Service = Ansor.Measure_service
module Protocol = Ansor.Measure_protocol
module Cache = Ansor.Measure_cache
module Telemetry = Ansor.Telemetry
module Pool = Ansor_measure_service.Pool

let sizes = [ 8; 12; 16; 24; 32; 48; 64; 96 ]

let batch_of_sizes sizes =
  List.map
    (fun m -> Protocol.request (State.init (Nn.matmul ~m ~n:m ~k:m ())))
    sizes

let bits = Int64.bits_of_float

let contains ~needle hay =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

(* ---------- pool ---------- *)

let test_pool_order () =
  let items = Array.init 128 Fun.id in
  let expect = Array.map (fun x -> x * x) items in
  List.iter
    (fun w ->
      Alcotest.(check (array int))
        (Printf.sprintf "squares in order, workers=%d" w)
        expect
        (Pool.run ~num_workers:w (fun x -> x * x) items))
    [ 1; 2; 4; 7 ];
  Alcotest.(check (array int)) "empty batch" [||]
    (Pool.run ~num_workers:4 (fun x -> x) [||]);
  Alcotest.(check (array int)) "singleton" [| 9 |]
    (Pool.run ~num_workers:4 (fun x -> x * x) [| 3 |])

let test_pool_exception_propagates () =
  let items = Array.init 32 Fun.id in
  Alcotest.check_raises "worker exception re-raised" Exit (fun () ->
      ignore (Pool.run ~num_workers:4 (fun x -> if x = 17 then raise Exit else x) items))

(* ---------- determinism ---------- *)

let measure_with_workers num_workers =
  let config = { Service.default_config with num_workers } in
  let service = Service.create ~config ~seed:42 Machine.intel_cpu in
  Service.measure_batch service (batch_of_sizes sizes)

let test_workers_deterministic () =
  (* same seed, same batch: byte-identical latencies for 1 vs 4 workers *)
  let r1 = measure_with_workers 1 and r4 = measure_with_workers 4 in
  check_int "same number of results" (List.length r1) (List.length r4);
  List.iter2
    (fun (a : Protocol.result) (b : Protocol.result) ->
      check_string "same key, same order" a.Protocol.key b.Protocol.key;
      match (a.Protocol.latency, b.Protocol.latency) with
      | Ok x, Ok y ->
        check_bool "byte-identical latency" true (Int64.equal (bits x) (bits y))
      | _ -> Alcotest.fail "expected Ok results on a clean batch")
    r1 r4

let test_tune_workers_identical () =
  (* the acceptance criterion end-to-end: a whole tuning session is
     byte-identical for any worker count, and dedup fires along the way *)
  let run workers =
    let service_config = { Service.default_config with num_workers = workers } in
    Ansor.tune ~seed:123 ~trials:64 ~service_config Machine.intel_cpu
      (Nn.matmul ~m:64 ~n:64 ~k:64 ())
  in
  let r1 = run 1 and r4 = run 4 in
  check_bool "byte-identical best latency" true
    (Int64.equal (bits r1.Ansor.best_latency) (bits r4.Ansor.best_latency));
  check_int "same trials consumed" r1.Ansor.trials_used r4.Ansor.trials_used;
  Alcotest.(check (list (pair int (float 1e-12))))
    "identical tuning curve" r1.Ansor.curve r4.Ansor.curve

let test_session_cache_hits () =
  (* evolution occasionally proposes a new step history that lowers to an
     already-measured program; over a full-length session the dedup cache
     must catch some of those (the acceptance criterion: hit rate > 0) *)
  let r =
    Ansor.tune ~seed:123 ~trials:384 Machine.intel_cpu
      (Nn.matmul ~m:16 ~n:16 ~k:16 ())
  in
  check_bool "cache hits occur in a standard session" true
    (r.Ansor.stats.Telemetry.cache_hits > 0);
  check_bool "hits are free, budget still respected" true
    (r.Ansor.trials_used >= 384)

(* ---------- failure classification and retries ---------- *)

let test_transient_fault_retried () =
  let hook ~key:_ ~attempt =
    if attempt = 1 then Some (Protocol.Run_error "flaky") else None
  in
  let service =
    Service.create
      ~config:{ Service.default_config with max_retries = 2 }
      ~fault_hook:hook ~seed:5 Machine.intel_cpu
  in
  let batch = batch_of_sizes [ 16; 32 ] in
  let results = Service.measure_batch service batch in
  check_int "one result per candidate" 2 (List.length results);
  List.iter
    (fun (r : Protocol.result) ->
      check_bool "recovered after retry" true (Protocol.is_ok r);
      check_int "two attempts" 2 r.Protocol.attempts)
    results;
  let stats = Service.stats service in
  check_int "retries counted" 2 stats.Telemetry.retries;
  check_int "trials include retries" 4 stats.Telemetry.trials;
  check_int "both measured" 2 stats.Telemetry.measured

let test_persistent_fault_classified () =
  (* a parallel, fully-faulty batch: every candidate still comes back,
     classified, in order, with its retries exhausted *)
  let hook ~key:_ ~attempt:_ = Some (Protocol.Run_error "dead backend") in
  let config =
    { Service.default_config with num_workers = 4; max_retries = 2 }
  in
  let service =
    Service.create ~config ~fault_hook:hook ~seed:6 Machine.intel_cpu
  in
  let results = Service.measure_batch service (batch_of_sizes sizes) in
  check_int "one classified result per candidate" (List.length sizes)
    (List.length results);
  List.iter
    (fun (r : Protocol.result) ->
      (match r.Protocol.latency with
      | Error (Protocol.Run_error _) -> ()
      | _ -> Alcotest.fail "expected Run_error");
      check_int "retries exhausted" 3 r.Protocol.attempts)
    results;
  let stats = Service.stats service in
  check_int "run errors" (List.length sizes) stats.Telemetry.run_errors;
  check_int "nothing measured" 0 stats.Telemetry.measured;
  check_int "results delivered" (List.length sizes) (Telemetry.results stats)

let test_mixed_faults_in_order () =
  (* poison a single candidate (by key): only it fails, everything stays
     in request order *)
  let clean = Service.create ~seed:7 Machine.intel_cpu in
  let keys =
    List.map
      (fun (r : Protocol.result) -> r.Protocol.key)
      (Service.measure_batch clean (batch_of_sizes sizes))
  in
  let poisoned = List.nth keys 2 in
  let hook ~key ~attempt:_ =
    if String.equal key poisoned then Some (Protocol.Run_error "poisoned")
    else None
  in
  let config =
    { Service.default_config with num_workers = 4; max_retries = 1 }
  in
  let service =
    Service.create ~config ~fault_hook:hook ~seed:7 Machine.intel_cpu
  in
  let results = Service.measure_batch service (batch_of_sizes sizes) in
  List.iteri
    (fun i (r : Protocol.result) ->
      check_string "result order matches request order" (List.nth keys i)
        r.Protocol.key;
      if i = 2 then
        match r.Protocol.latency with
        | Error (Protocol.Run_error _) -> ()
        | _ -> Alcotest.fail "poisoned candidate not classified"
      else check_bool "healthy candidate ok" true (Protocol.is_ok r))
    results

let test_timeout_classified () =
  let config = { Service.default_config with timeout = 1e-12 } in
  let service = Service.create ~config ~seed:8 Machine.intel_cpu in
  let r =
    Service.measure_state service (State.init (Nn.matmul ~m:64 ~n:64 ~k:64 ()))
  in
  (match r.Protocol.latency with
  | Error Protocol.Timeout -> ()
  | _ -> Alcotest.fail "expected Timeout");
  check_int "timeout counted" 1 (Service.stats service).Telemetry.timeouts

(* ---------- dedup cache ---------- *)

let test_cache_dedup () =
  let service = Service.create ~seed:9 Machine.intel_cpu in
  let st = State.init (Nn.matmul ~m:32 ~n:32 ~k:32 ()) in
  let r1 = Service.measure_state service st in
  let trials_before = Service.trials service in
  let r2 = Service.measure_state service st in
  check_bool "first run hits the backend" false r1.Protocol.cache_hit;
  check_bool "second run is a cache hit" true r2.Protocol.cache_hit;
  check_int "cache hit consumes no trial" trials_before (Service.trials service);
  (match (r1.Protocol.latency, r2.Protocol.latency) with
  | Ok a, Ok b ->
    check_bool "hit returns the stored latency" true (Int64.equal (bits a) (bits b))
  | _ -> Alcotest.fail "expected Ok results")

let test_batch_internal_dedup () =
  (* the same program appearing twice in one batch is measured once *)
  let st = State.init (Nn.matmul ~m:32 ~n:32 ~k:32 ()) in
  let service = Service.create ~seed:10 Machine.intel_cpu in
  let results =
    Service.measure_batch service [ Protocol.request st; Protocol.request st ]
  in
  let stats = Service.stats service in
  check_int "one backend run" 1 stats.Telemetry.measured;
  check_int "one dedup hit" 1 stats.Telemetry.cache_hits;
  match List.map (fun (r : Protocol.result) -> r.Protocol.latency) results with
  | [ Ok a; Ok b ] ->
    check_bool "duplicate served the same latency" true
      (Int64.equal (bits a) (bits b))
  | _ -> Alcotest.fail "expected two Ok results"

let test_cache_roundtrip () =
  let c = Cache.create () in
  Cache.add c "aaa" 1.5;
  Cache.add c "bbb" 2.5;
  Cache.add c "aaa" 9.9;
  check_int "size after dup add" 2 (Cache.size c);
  Alcotest.(check (option (float 0.0))) "first write wins" (Some 1.5)
    (Cache.find c "aaa");
  let path = Filename.temp_file "ansor_cache" ".tsv" in
  Cache.save ~path c;
  (match Cache.load_salvage ~path with
  | Error e -> Alcotest.failf "load failed: %s" e
  | Ok (c2, skipped) ->
    check_int "nothing skipped" 0 skipped;
    Alcotest.(check (list (pair string (float 1e-12))))
      "entries survive the roundtrip" (Cache.entries c) (Cache.entries c2));
  Sys.remove path;
  let bad = Filename.temp_file "ansor_cache" ".tsv" in
  let oc = open_out bad in
  output_string oc "not a cache file\n";
  close_out oc;
  (match Cache.load_salvage ~path:bad with
  | Ok (c3, skipped) ->
    check_bool "garbage line skipped" true (skipped > 0);
    check_int "no entry from garbage" 0 (Cache.size c3)
  | Error e -> Alcotest.failf "salvage failed: %s" e);
  Sys.remove bad

let test_cache_shared_across_services () =
  (* a preloaded cache short-circuits a fresh service's measurements *)
  let st = State.init (Nn.matmul ~m:24 ~n:24 ~k:24 ()) in
  let cache = Cache.create () in
  let s1 = Service.create ~cache ~seed:11 Machine.intel_cpu in
  let r1 = Service.measure_state s1 st in
  let s2 = Service.create ~cache ~seed:999 Machine.intel_cpu in
  let r2 = Service.measure_state s2 st in
  check_bool "second service hits the shared cache" true r2.Protocol.cache_hit;
  check_int "no trial in the second service" 0 (Service.trials s2);
  match (r1.Protocol.latency, r2.Protocol.latency) with
  | Ok a, Ok b ->
    check_bool "same stored latency" true (Int64.equal (bits a) (bits b))
  | _ -> Alcotest.fail "expected Ok results"

(* ---------- telemetry ---------- *)

(* Top-level (key, raw value) members of a telemetry JSON object; the only
   nested value, [phase_seconds], is an object of numbers. *)
let json_members json =
  let body = String.sub json 1 (String.length json - 2) in
  let n = String.length body in
  let rec go i acc =
    if i >= n then List.rev acc
    else
      let k_end = String.index_from body (i + 1) '"' in
      let v_start = k_end + 2 in
      let v_end =
        if body.[v_start] = '{' then String.index_from body v_start '}' + 1
        else Option.value (String.index_from_opt body v_start ',') ~default:n
      in
      go (v_end + 1)
        ((String.sub body (i + 1) (k_end - i - 1),
          String.sub body v_start (v_end - v_start))
        :: acc)
  in
  go 0 []

let test_telemetry_accounting_and_json () =
  let service = Service.create ~seed:12 Machine.intel_cpu in
  let _ = Service.measure_batch service (batch_of_sizes [ 16; 24 ]) in
  let stats = Service.stats service in
  check_int "batches" 1 stats.Telemetry.batches;
  check_int "trials" 2 stats.Telemetry.trials;
  check_bool "measure phase timed" true
    (List.exists (fun (_, s) -> s > 0.0) stats.Telemetry.phase_seconds);
  let json = Telemetry.to_json stats in
  check_bool "json is one object" true
    (String.length json > 2
    && json.[0] = '{'
    && json.[String.length json - 1] = '}');
  List.iter
    (fun field ->
      check_bool (field ^ " present in json") true
        (contains ~needle:("\"" ^ field ^ "\"") json))
    [
      "trials"; "measured"; "cache_hits"; "build_errors"; "run_errors";
      "timeouts"; "retries"; "batches"; "backoff_seconds"; "phase_seconds";
    ];
  check_bool "summary non-empty" true
    (String.length (Telemetry.summary stats) > 0);
  let doubled = Telemetry.total [ stats; stats ] in
  check_int "total sums trials" (2 * stats.Telemetry.trials)
    doubled.Telemetry.trials;
  check_int "total sums results" (2 * Telemetry.results stats)
    (Telemetry.results doubled);
  (* every mutator, each counter driven to a distinct non-zero value *)
  let t = Telemetry.create () in
  let repeat n f = for _ = 1 to n do f () done in
  let record ?attempts ?cache_hit n r =
    repeat n (fun () -> Telemetry.record_result t ?attempts ?cache_hit r)
  in
  record 1 (Ok 1.0);
  record ~attempts:4 1 (Ok 1.0);
  record ~attempts:0 ~cache_hit:true 4 (Ok 1.0);
  record ~attempts:0 5 (Error (Protocol.Build_error "b"));
  record ~attempts:0 6 (Error (Protocol.Compile_error "c"));
  record ~attempts:0 7 (Error (Protocol.Bounds_error "o"));
  record ~attempts:0 8 (Error (Protocol.Run_error "r"));
  record 9 (Error Protocol.Timeout);
  repeat 10 (fun () -> Telemetry.incr_batches t);
  repeat 11 (fun () -> Telemetry.incr_statically_rejected t);
  repeat 12 (fun () -> Telemetry.add_certification t ~hit:false);
  repeat 13 (fun () -> Telemetry.add_certification t ~hit:true);
  repeat 15 (fun () -> Telemetry.incr_warm_starts t);
  Telemetry.add_store_samples t 7;
  Telemetry.add_store_samples t 9;
  repeat 17 (fun () -> Telemetry.incr_finetune_rounds t);
  Telemetry.add_native_compiles t ~compiles:8 ~kernels:9;
  Telemetry.add_native_compiles t ~compiles:10 ~kernels:10;
  Telemetry.add_descent_sweep t ~trials:2 ~improved:false;
  repeat 20 (fun () -> Telemetry.add_descent_sweep t ~trials:1 ~improved:true);
  repeat 23 (fun () -> Telemetry.incr_descent_plateau_stops t);
  Telemetry.add_backoff t 0.125;
  Telemetry.add_backoff t 0.125;
  Telemetry.add_score_batch t ~hits:24 ~misses:25 ~evictions:28 ~wall:0.5
    ~work:1.5;
  repeat 2 (fun () -> Telemetry.add_score_probe t ~hit:true);
  repeat 2 (fun () -> Telemetry.add_score_probe t ~hit:false);
  List.iteri
    (fun i p -> Telemetry.add_phase t p (2.0 +. float_of_int i))
    Telemetry.
      [ Sample; Evolve; Model_rank; Measure; Retrain; Compile; Native_run;
        Descent ];
  let s = Telemetry.stats t in
  (* the external format: the counters in their historical order, each
     with the value its mutators produced *)
  let expected =
    [
      ("trials", 14.); ("measured", 2.); ("cache_hits", 4.);
      ("build_errors", 5.); ("compile_errors", 6.); ("run_errors", 8.);
      ("timeouts", 9.); ("retries", 3.); ("batches", 10.);
      ("statically_rejected", 11.); ("bounds_rejected", 7.);
      ("certified", 12.); ("cert_cache_hits", 13.); ("warm_starts", 15.);
      ("store_samples", 16.); ("finetune_rounds", 17.);
      ("native_compiles", 18.); ("native_kernels", 19.);
      ("descent_trials", 22.); ("descent_sweeps", 21.);
      ("descent_improvements", 20.); ("descent_plateau_stops", 23.);
      ("backoff_seconds", 0.25); ("score_hits", 26.); ("score_misses", 27.);
      ("score_evictions", 28.); ("score_batches", 1.);
      ("score_wall_seconds", 0.5); ("score_work_seconds", 1.5);
      ("score_parallel_speedup", 3.);
    ]
  in
  let members s = json_members (Telemetry.to_json s) in
  Alcotest.(check (list string))
    "json keys and order"
    (List.map fst expected @ [ "phase_seconds" ])
    (List.map fst (members Telemetry.empty_stats));
  let numbers s =
    List.filter (fun (k, _) -> k <> "phase_seconds") (members s)
  in
  List.iter2
    (fun (k, want) (_, got) -> check_float k want (float_of_string got))
    expected (numbers s);
  List.iter2
    (fun (k, v) (_, v2) ->
      if k <> "score_parallel_speedup" then
        check_float ("total doubles " ^ k)
          (2.0 *. float_of_string v) (float_of_string v2))
    (numbers s)
    (numbers (Telemetry.total [ s; s ]));
  check_bool "total doubles phase timers" true
    ((Telemetry.total [ s; s ]).Telemetry.phase_seconds
    = List.map (fun (n, v) -> (n, 2.0 *. v)) s.Telemetry.phase_seconds);
  let t' = Telemetry.create () in
  Telemetry.restore t' s;
  check_bool "restore then stats round-trips" true (Telemetry.stats t' = s);
  Telemetry.reset t';
  Telemetry.incr_batches t';
  let line = Telemetry.summary (Telemetry.stats t') in
  check_bool "summary shows non-zero counters" true
    (contains ~needle:"batches=1 |" line);
  check_bool "summary omits zero counters" false
    (contains ~needle:"trials" line);
  check_bool "summary lists phase timers" true
    (contains ~needle:"| sample=0.000s evolve=" line)

let () =
  Alcotest.run "measure_service"
    [
      ( "pool",
        [
          case "results in input order" test_pool_order;
          case "exceptions propagate" test_pool_exception_propagates;
        ] );
      ( "determinism",
        [
          case "1 vs 4 workers byte-identical" test_workers_deterministic;
          case "whole session identical across workers"
            test_tune_workers_identical;
          case "long session produces cache hits" test_session_cache_hits;
        ] );
      ( "faults",
        [
          case "transient fault retried" test_transient_fault_retried;
          case "persistent fault classified" test_persistent_fault_classified;
          case "mixed faults stay in order" test_mixed_faults_in_order;
          case "timeout classified" test_timeout_classified;
        ] );
      ( "cache",
        [
          case "dedup across batches" test_cache_dedup;
          case "dedup inside a batch" test_batch_internal_dedup;
          case "save/load roundtrip" test_cache_roundtrip;
          case "shared across services" test_cache_shared_across_services;
        ] );
      ( "telemetry",
        [ case "accounting and json" test_telemetry_accounting_and_json ] );
    ]
