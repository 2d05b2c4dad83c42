(* The batch scoring service: the hard invariant is bit-identity — for
   any batch and any worker count, scores equal the sequential
   per-candidate path float for float.  Plus the table around it: hit
   accounting, a retrain emptying it, telemetry threading, and resume
   equivalence with the (round-local, non-checkpointed) table active. *)

open Helpers
module Gbdt = Ansor.Gbdt
module Rng = Ansor.Rng
module Score_service = Ansor.Score_service
module Telemetry = Ansor.Telemetry

let machine = Ansor.Machine.intel_cpu

let bits = Int64.bits_of_float

let check_bits msg a b =
  Alcotest.(check int64) msg (bits a) (bits b)

let check_bits_list msg a b =
  Alcotest.(check (list int64)) msg (List.map bits a) (List.map bits b)

(* ---- Gbdt.predict_batch ≡ predict ---------------------------------------- *)

let test_predict_batch_matches () =
  let rng = Rng.create 5 in
  for trial = 1 to 5 do
    let dims = 3 + Rng.int rng 6 in
    let n = 40 + Rng.int rng 60 in
    let x =
      Array.init n (fun _ -> Array.init dims (fun _ -> Rng.float rng 1.0))
    in
    let y = Array.map (fun r -> r.(0) -. (2.0 *. r.(1)) +. r.(dims - 1)) x in
    let model = Gbdt.train ~x ~y () in
    let rows = 1 + Rng.int rng 30 in
    let m =
      Array.init (rows * dims) (fun _ -> Rng.float rng 1.0)
    in
    let batch = Gbdt.predict_batch model ~width:dims m in
    check_int (Printf.sprintf "trial %d: row count" trial) rows
      (Array.length batch);
    for r = 0 to rows - 1 do
      let row = Array.sub m (r * dims) dims in
      check_bits
        (Printf.sprintf "trial %d row %d" trial r)
        (Gbdt.predict model row) batch.(r)
    done
  done

let test_predict_batch_short_rows () =
  (* rows narrower than the trained width hit [eval]'s bounds-check
     (missing feature -> left subtree) identically in both paths *)
  let rng = Rng.create 6 in
  let x = Array.init 80 (fun _ -> Array.init 6 (fun _ -> Rng.float rng 1.0)) in
  let y = Array.map (fun r -> (10.0 *. r.(4)) -. r.(5)) x in
  let model = Gbdt.train ~x ~y () in
  let m = Array.init (5 * 2) (fun _ -> Rng.float rng 1.0) in
  let batch = Gbdt.predict_batch model ~width:2 m in
  Array.iteri
    (fun r b ->
      check_bits
        (Printf.sprintf "short row %d" r)
        (Gbdt.predict model (Array.sub m (r * 2) 2))
        b)
    batch

let test_predict_batch_validation () =
  let model = Gbdt.train ~x:[| [| 0.0 |] |] ~y:[| 1.0 |] () in
  (match Gbdt.predict_batch model ~width:0 [||] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "width 0 accepted");
  (match Gbdt.predict_batch model ~width:3 (Array.make 4 0.0) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "ragged matrix accepted");
  check_int "empty matrix -> no rows" 0
    (Array.length (Gbdt.predict_batch model ~width:3 [||]))

(* ---- service vs sequential, worker invariance ----------------------------- *)

let conv_dag () =
  Ansor.Nn.conv_layer ~n:1 ~c:16 ~h:14 ~w:14 ~f:16 ~kh:3 ~kw:3 ~stride:1
    ~pad:1 ()

let states_and_model ?(n = 20) dag =
  let states = sample_programs ~seed:3 ~n dag in
  let records =
    List.filter_map
      (fun st ->
        match Ansor.Lower.lower st with
        | exception Ansor.State.Illegal _ -> None
        | prog ->
          let latency = Ansor.Simulator.estimate machine prog in
          Some (Ansor.Cost_model.record_of_prog ~task_key:"t" ~latency prog))
      states
  in
  (states, Ansor.Cost_model.train records)

let sequential_scores model states =
  List.map
    (fun st ->
      match Ansor.Lower.lower st with
      | exception Ansor.State.Illegal _ -> Float.neg_infinity
      | prog -> Ansor.Cost_model.score_prog model prog)
    states

let service ?telemetry ~workers model =
  let sc = Score_service.create ?telemetry ~num_workers:workers machine in
  Score_service.set_model sc model;
  sc

let test_batch_matches_sequential () =
  let states, model = states_and_model (conv_dag ()) in
  check_bool "model trained" true (Ansor.Cost_model.is_trained model);
  let expected = sequential_scores model states in
  let sc = service ~workers:1 model in
  check_bits_list "cold batch" expected (Score_service.score_states sc states);
  check_bits_list "warm batch (all cache hits)" expected
    (Score_service.score_states sc states);
  (* the candidate entry points agree too, per program and per statement *)
  let cands = candidates states in
  check_bits_list "score"
    (List.map
       (fun (c : Ansor.Candidate.t) -> Ansor.Cost_model.score_prog model c.prog)
       cands)
    (Score_service.score (service ~workers:1 model) cands);
  List.iter2
    (fun (c : Ansor.Candidate.t) ss ->
      check_bits_list "stmt_scores"
        (Ansor.Cost_model.score_stmts model (Ansor.Features.of_prog c.prog))
        ss)
    cands
    (Score_service.stmt_scores sc cands)

let test_worker_count_invariance () =
  let states, model = states_and_model ~n:23 (conv_dag ()) in
  let score workers =
    Score_service.score_states (service ~workers model) states
  in
  let one = score 1 in
  check_bits_list "1 vs 4 workers" one (score 4);
  check_bits_list "1 vs 3 workers (ragged chunks)" one (score 3);
  check_bits_list "vs sequential" (sequential_scores model states) one

let test_untrained_model_matches () =
  let states = sample_programs ~seed:4 ~n:8 (small_matmul_relu ()) in
  let model = Ansor.Cost_model.empty in
  let sc = service ~workers:4 model in
  check_bits_list "untrained: zeros and neg_infinity as sequential"
    (sequential_scores model states)
    (Score_service.score_states sc states)

(* ---- table accounting ---------------------------------------------------- *)

let distinct_programs cands =
  List.length
    (List.sort_uniq compare (List.map (fun (c : Ansor.Candidate.t) -> c.key) cands))

let test_hit_accounting () =
  let states, model = states_and_model ~n:12 (conv_dag ()) in
  let sc = service ~workers:1 model in
  let _ = Score_service.score_states sc states in
  let s1 = Score_service.stats sc in
  check_int "cold run has no hits" 0 s1.Score_service.hits;
  check_bool "cold run misses every unique program" true
    (s1.Score_service.misses > 0);
  let _ = Score_service.score_states sc states in
  let s2 = Score_service.stats sc in
  check_int "warm run hits exactly the cold run's misses"
    s1.Score_service.misses
    s2.Score_service.hits;
  check_int "no new misses" s1.Score_service.misses s2.Score_service.misses;
  let cands = candidates states in
  let fresh = service ~workers:1 model in
  ignore (Score_service.score fresh (cands @ cands));
  check_int "in-batch duplicates are featurized once" (distinct_programs cands)
    (Score_service.stats fresh).Score_service.misses

(* ---- retrain invalidation ------------------------------------------------- *)

let test_retrain_invalidation () =
  let states, model1 = states_and_model (conv_dag ()) in
  (* a second model trained on inverted latencies ranks differently *)
  let records2 =
    List.filter_map
      (fun st ->
        match Ansor.Lower.lower st with
        | exception Ansor.State.Illegal _ -> None
        | prog ->
          let latency = 1.0 /. Ansor.Simulator.estimate machine prog in
          Some (Ansor.Cost_model.record_of_prog ~task_key:"t" ~latency prog))
      states
  in
  let model2 = Ansor.Cost_model.train records2 in
  let sc = service ~workers:1 model1 in
  check_bits_list "scores under model 1"
    (sequential_scores model1 states)
    (Score_service.score_states sc states);
  let before = Score_service.stats sc in
  Score_service.set_model sc model2;
  check_int "set_model empties the table" 0 (Score_service.cache_size sc);
  check_bits_list "scores under model 2, from fresh features"
    (sequential_scores model2 states)
    (Score_service.score_states sc states);
  let after = Score_service.stats sc in
  check_int "the next batch hits nothing" before.Score_service.hits
    after.Score_service.hits;
  check_int "and misses every distinct program"
    (distinct_programs (candidates states))
    (after.Score_service.misses - before.Score_service.misses)

(* ---- telemetry threading -------------------------------------------------- *)

let test_telemetry_counters () =
  let states, model = states_and_model ~n:10 (conv_dag ()) in
  let tm = Telemetry.create () in
  let sc = service ~telemetry:tm ~workers:1 model in
  let _ = Score_service.score_states sc states in
  let _ = Score_service.score_states sc states in
  let s = Telemetry.stats tm in
  check_int "two batches accounted" 2 s.Telemetry.score_batches;
  check_bool "misses accounted" true (s.Telemetry.score_misses > 0);
  check_bool "hits accounted" true (s.Telemetry.score_hits > 0);
  check_bool "fan-out wall time accounted" true
    (s.Telemetry.score_wall_seconds > 0.0);
  let contains ~sub s =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    go 0
  in
  let json = Telemetry.to_json s in
  List.iter
    (fun field ->
      check_bool field true
        (contains ~sub:(Printf.sprintf "\"%s\"" field) json))
    [
      "score_hits"; "score_misses"; "score_batches"; "score_parallel_speedup";
    ]

(* ---- golden digests -------------------------------------------------------- *)

(* Search must stay bit-identical at equal seeds (same RNG draws, same
   fitness bits, same batches), so these only change with a deliberate
   change of search behaviour.  Captured before the candidate-record
   refactor; re-captured once since, when evolution, descent and the
   tuner's dedup began telling programs apart by [Candidate.key] instead
   of by step history (beam search kept its digest). *)

let md5 lines = Digest.to_hex (Digest.string (String.concat "\n" lines))

let history_hex (st : Ansor.State.t) =
  Digest.to_hex (Ansor.Step.history_key st.Ansor.State.history)

let test_evolve_golden () =
  let dag = conv_dag () in
  let states, model = states_and_model dag in
  let policy = Ansor.Policy.cpu ~workers:20 in
  let config =
    { Ansor.Evolution.default_config with population = 24; generations = 2 }
  in
  let digest workers =
    let rng = Rng.create 11 in
    Ansor.Evolution.evolve ~scorer:(service ~workers model) rng config policy
      dag ~init:(candidates states) ~out:8
    |> List.map (fun (s : Ansor.Evolution.scored) ->
           Printf.sprintf "%s %Lx" (history_hex s.cand.state) (bits s.fitness))
    |> md5
  in
  let golden = "34e0423b8fbc5c4bbd3ec529f6396a85" in
  check_string "1 worker" golden (digest 1);
  check_string "4 workers" golden (digest 4)

(* Curve, best history and every integer counter except the score
   table's, which are not part of the search trajectory.  The literal 0
   stands where the deleted verdict-memo hit counter was (always 0 in
   these simulated runs), so the goldens keep their bytes. *)
let tune_digest (r : Ansor.tune_result) =
  let s = r.Ansor.stats in
  let counters =
    [
      s.Telemetry.trials; s.measured; s.cache_hits; s.build_errors;
      s.compile_errors; s.run_errors; s.timeouts; s.retries; s.batches;
      s.statically_rejected; s.bounds_rejected; s.certified;
      0; s.warm_starts; s.store_samples; s.finetune_rounds;
      s.native_compiles; s.native_kernels; s.descent_trials;
      s.descent_sweeps; s.descent_improvements; s.descent_plateau_stops;
    ]
  in
  md5
    (List.map (fun (n, l) -> Printf.sprintf "%d %Lx" n (bits l)) r.Ansor.curve
    @ [ Option.fold ~none:"none" ~some:history_hex r.Ansor.best_state;
        String.concat "," (List.map string_of_int counters) ])

(* The session checkpoint without its telemetry, whose score counters
   and timers may move: everything else must marshal to the same bytes.
   The v8 digest was the v7 image's with Shared.snapshot's
   rounds_since_train field dropped; the v9 digest moved with the search
   (measured_keys holds program keys). *)
let checkpoint_digest path =
  match Ansor.Checkpoint.load ~path with
  | Error e -> Alcotest.fail e
  | Ok img ->
    let s = img.Ansor.Checkpoint.session in
    md5 [ Marshal.to_string { img with session = { s with stats = [||] } } [] ]

let test_tune_golden () =
  let dag = Ansor.Nn.matmul ~m:32 ~n:32 ~k:32 () in
  let snap = Filename.temp_file "ansor_golden" ".snap" in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun p -> if Sys.file_exists p then Sys.remove p)
        [ snap; snap ^ ".prev" ])
    (fun () ->
      let tune ?(seed = 4) ?(dag = dag) ?snapshot_path options trials =
        Ansor.tune ~seed ~options ~trials ?snapshot_path machine dag
      in
      let descent_options =
        { Ansor.Tuner.ansor_options with descent = Some Ansor.Descent.default_config }
      in
      (* 64 trials: three quarters of the budget is spent after three
         rounds of 16, long before the 6-round plateau rule could start
         descent *)
      let descent = tune ~snapshot_path:snap descent_options 64 in
      check_bool "descent ran" true
        (descent.Ansor.stats.Telemetry.descent_sweeps > 0);
      check_string "evolution + descent" "b0dae32965ce3d2b18d3a14d159c0742"
        (tune_digest descent);
      check_string "evolution + descent checkpoint" "70e36f42728a74e375c532394059feba"
        (checkpoint_digest snap);
      check_string "beam search" "823fe454f1b65ca0346ae8e68f1d0a53"
        (tune_digest (tune Ansor.Tuner.beam_options 32));
      check_string "evolution" "87154a59953caa3be8d2db8a17824d7e"
        (tune_digest (tune Ansor.Tuner.ansor_options 48));
      (* a tiny space exhausts long before 400 trials: some rounds deliver
         no result at all, and the session stops once a task is dead (3
         result-free rounds in a row) *)
      let tiny =
        tune ~seed:0 ~dag:(Ansor.Nn.matrix_norm ~m:4 ~n:4 ()) descent_options 400
      in
      check_bool "stopped before the budget" true
        (tiny.Ansor.stats.Telemetry.trials < 400);
      check_string "tiny space" "d3b1db048496a7c04aa6fe5b392dd5e7" (tune_digest tiny))

(* ---- resume equivalence with the score table active ----------------------- *)

let temp_path suffix =
  let p = Filename.temp_file "ansor_score" suffix in
  Sys.remove p;
  p

let test_resume_equivalence_with_cache () =
  let p = temp_path ".snap" in
  let cleanup () =
    List.iter
      (fun q -> if Sys.file_exists q then Sys.remove q)
      [ p; p ^ ".prev" ]
  in
  Fun.protect ~finally:cleanup (fun () ->
      let dag = Ansor.Nn.matmul ~m:32 ~n:32 ~k:32 () in
      let tune ?snapshot_path ?(resume = false) ?should_stop ?on_round () =
        Ansor.tune ~seed:7 ~trials:64
          ~service_config:
            { Ansor.Measure_service.default_config with num_workers = 4 }
          ?snapshot_path ~resume ?should_stop ?on_round machine dag
      in
      let reference = tune () in
      let rounds = ref 0 in
      let interrupted =
        tune ~snapshot_path:p
          ~should_stop:(fun () -> !rounds >= 2)
          ~on_round:(fun () -> incr rounds)
          ()
      in
      check_bool "interrupted early" true
        (interrupted.Ansor.trials_used < reference.Ansor.trials_used);
      (* score tables live for one round and are not checkpointed, so
         every round of the resumed session starts as cold as the
         uninterrupted run's: same results, same table traffic *)
      let resumed = tune ~snapshot_path:p ~resume:true () in
      check_int "same trial budget" reference.Ansor.trials_used
        resumed.Ansor.trials_used;
      check_bits "same best latency" reference.Ansor.best_latency
        resumed.Ansor.best_latency;
      check_bool "score table was exercised" true
        (resumed.Ansor.stats.Telemetry.score_hits > 0);
      check_int "same score hits" reference.Ansor.stats.Telemetry.score_hits
        resumed.Ansor.stats.Telemetry.score_hits;
      check_int "same score misses" reference.Ansor.stats.Telemetry.score_misses
        resumed.Ansor.stats.Telemetry.score_misses)

let () =
  Alcotest.run "score_service"
    [
      ( "predict_batch",
        [
          case "batch equals per-row predict" test_predict_batch_matches;
          case "short rows use bounds-check path" test_predict_batch_short_rows;
          case "input validation" test_predict_batch_validation;
        ] );
      ( "bit_identity",
        [
          case "batch equals sequential scoring" test_batch_matches_sequential;
          case "worker-count invariance" test_worker_count_invariance;
          case "untrained model" test_untrained_model_matches;
        ] );
      ( "cache",
        [
          case "hit accounting" test_hit_accounting;
          case "retrain invalidation" test_retrain_invalidation;
          case "telemetry counters" test_telemetry_counters;
        ] );
      ( "golden",
        [
          case "evolve output, any worker count" test_evolve_golden;
          case "tune run" test_tune_golden;
        ] );
      ( "integration",
        [
          case "resume equivalence with score cache"
            test_resume_equivalence_with_cache;
        ] );
    ]
