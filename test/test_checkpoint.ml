(* Crash-safe tuning sessions: atomic persistence, corruption salvage,
   checkpoint/resume equivalence and graceful shutdown.

   The acceptance bar: a session killed mid-run and restarted with
   [--resume] reaches the same trial budget and the same best latency as
   an uninterrupted run, and no torn artifact (cache, record log,
   snapshot) ever makes a load crash or lose the valid prefix. *)

open Helpers
module Atomic_file = Ansor_util.Atomic_file
module Cache = Ansor.Measure_cache
module Checkpoint = Ansor.Checkpoint

let temp_path suffix =
  let p = Filename.temp_file "ansor_ckpt" suffix in
  Sys.remove p;
  p

let with_temp suffix f =
  let p = temp_path suffix in
  let cleanup () =
    List.iter
      (fun q -> if Sys.file_exists q then Sys.remove q)
      [ p; p ^ ".prev"; p ^ ".log" ]
  in
  Fun.protect ~finally:cleanup (fun () -> f p)

let read_file p =
  let ic = open_in_bin p in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file p s =
  let oc = open_out_bin p in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc s)

(* Simulate a writer killed mid-line: keep everything up to the final
   line, plus the first 7 bytes of the final line — enough to be
   non-empty, too few to carry a valid magic token. *)
let tear_last_line p =
  let s = read_file p in
  let n = String.length s in
  let start_of_last =
    match String.rindex_from_opt s (n - 2) '\n' with
    | Some i -> i + 1
    | None -> 0
  in
  write_file p (String.sub s 0 (start_of_last + 7))

let no_temp_litter p =
  let base = Filename.basename p in
  Array.for_all
    (fun f ->
      not
        (String.length f > String.length base
        && String.sub f 0 (String.length base) = base
        && Filename.check_suffix f ".tmp"))
    (Sys.readdir (Filename.dirname p))

(* ---- atomic file helper -------------------------------------------------- *)

let test_atomic_write () =
  with_temp ".txt" (fun p ->
      Atomic_file.write_string ~path:p "first\n";
      check_string "written" "first\n" (read_file p);
      Atomic_file.write_string ~path:p "second\n";
      check_string "replaced" "second\n" (read_file p);
      (* a writer that dies mid-way leaves the old content untouched *)
      (try
         Atomic_file.write ~path:p (fun oc ->
             output_string oc "partial";
             failwith "boom")
       with Failure _ -> ());
      check_string "old content intact after failed write" "second\n"
        (read_file p);
      check_bool "no temp litter" true (no_temp_litter p))

let test_atomic_append () =
  with_temp ".txt" (fun p ->
      Ansor_util.Line_file.append ~path:p [ "one" ];
      Ansor_util.Line_file.append ~path:p [ "two" ];
      check_string "appended" "one\ntwo\n" (read_file p);
      check_bool "no temp litter" true (no_temp_litter p))

(* ---- torn-file salvage --------------------------------------------------- *)

let mk_cache entries =
  let c = Cache.create () in
  List.iter (fun (k, v) -> Cache.add c k v) entries;
  c

let test_cache_salvage () =
  with_temp ".cache" (fun p ->
      Cache.save ~path:p
        (mk_cache [ ("aaa", 1e-3); ("bbb", 2e-3); ("ccc", 3e-3) ]);
      tear_last_line p;
      match Cache.load_salvage ~path:p with
      | Error e -> Alcotest.failf "salvage failed: %s" e
      | Ok (c', skipped) ->
        check_int "one line skipped" 1 skipped;
        check_int "good prefix recovered" 2 (Cache.size c');
        check_bool "first entry intact" true (Cache.find c' "aaa" = Some 1e-3))

let test_cache_salvage_garbage_line () =
  with_temp ".cache" (fun p ->
      Cache.save ~path:p (mk_cache [ ("k", 5e-4) ]);
      write_file p (read_file p ^ "total garbage, not a cache line\n");
      match Cache.load_salvage ~path:p with
      | Error e -> Alcotest.failf "salvage failed: %s" e
      | Ok (c', skipped) ->
        check_int "garbage skipped" 1 skipped;
        check_int "entry kept" 1 (Cache.size c'))

let test_record_salvage () =
  with_temp ".log" (fun p ->
      let entry l = { Ansor.Record.task_key = "t/k"; latency = l; steps = [] } in
      Ansor.Record.save ~path:p [ entry 1e-3; entry 2e-3 ];
      Ansor.Record.append_batch ~path:p [ entry 3e-3 ];
      (match Ansor.Record.load_salvage ~path:p with
      | Ok (es, skipped) ->
        check_int "append visible to load" 3 (List.length es);
        check_int "intact log skips nothing" 0 skipped
      | Error e -> Alcotest.failf "load failed: %s" e);
      tear_last_line p;
      match Ansor.Record.load_salvage ~path:p with
      | Error e -> Alcotest.failf "salvage failed: %s" e
      | Ok (es, skipped) ->
        check_int "one line skipped" 1 skipped;
        check_int "good prefix recovered" 2 (List.length es))

(* ---- snapshot persistence ------------------------------------------------ *)

let small_dag () = Ansor.Nn.matmul ~m:32 ~n:32 ~k:32 ()

let tune_with ?snapshot_path ?(resume = false) ?should_stop ?on_round
    ?(workers = 1) ~trials () =
  Ansor.tune ~seed:7 ~trials
    ~service_config:
      { Ansor.Measure_service.default_config with num_workers = workers }
    ?snapshot_path ~resume ?should_stop ?on_round Ansor.Machine.intel_cpu
    (small_dag ())

let stop_after_rounds n =
  let rounds = ref 0 in
  ((fun () -> !rounds >= n), fun () -> incr rounds)

let test_snapshot_roundtrip_and_fallback () =
  with_temp ".snap" (fun p ->
      let should_stop, on_round = stop_after_rounds 2 in
      let _ = tune_with ~snapshot_path:p ~should_stop ~on_round ~trials:64 () in
      check_bool "snapshot written" true (Sys.file_exists p);
      check_bool "previous generation written" true
        (Sys.file_exists (p ^ ".prev"));
      (match Checkpoint.load_latest ~path:p with
      | Ok (img, Checkpoint.Current) ->
        check_int "two rounds recorded" 2 img.Checkpoint.meta.Checkpoint.rounds
      | Ok (_, Checkpoint.Previous _) ->
        Alcotest.fail "should load the current generation"
      | Error e -> Alcotest.failf "load_latest failed: %s" e);
      (* an image framed under the previous format version is refused by
         its magic line before Marshal could misread its payload *)
      (match
         Ansor_util.Framed.read ~path:p
           ~magic:(Printf.sprintf "ansor-snapshot-v%d" Checkpoint.version)
       with
      | Ok payload ->
        Ansor_util.Framed.write ~path:p ~magic:"ansor-snapshot-v4" payload
      | Error e -> Alcotest.failf "current generation unreadable: %s" e);
      (match Checkpoint.load ~path:p with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "v4 snapshot loaded");
      (* truncate the current generation: fall back to the previous one *)
      let s = read_file p in
      write_file p (String.sub s 0 (String.length s / 2));
      (match Checkpoint.load_latest ~path:p with
      | Ok (img, Checkpoint.Previous _) ->
        check_int "previous generation is one round older" 1
          img.Checkpoint.meta.Checkpoint.rounds
      | Ok (_, Checkpoint.Current) ->
        Alcotest.fail "torn current generation must not load"
      | Error e -> Alcotest.failf "fallback failed: %s" e);
      (* garbage in both generations: a clean error, never an exception *)
      write_file p "not a snapshot at all";
      write_file (p ^ ".prev") "also garbage";
      match Checkpoint.load_latest ~path:p with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "garbage snapshot loaded")

let test_snapshot_digest_detects_bitflip () =
  with_temp ".snap" (fun p ->
      let should_stop, on_round = stop_after_rounds 1 in
      let _ = tune_with ~snapshot_path:p ~should_stop ~on_round ~trials:32 () in
      let s = read_file p in
      (* flip one bit in the middle of the payload *)
      let b = Bytes.of_string s in
      let i = String.length s / 2 in
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 1));
      write_file p (Bytes.to_string b);
      match Checkpoint.load ~path:p with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "bit-flipped snapshot loaded")

let test_scheduler_restore_validates () =
  let mk dag =
    let task =
      Ansor.Task.create ~name:"t" ~machine:Ansor.Machine.intel_cpu dag
    in
    Ansor.Scheduler.create Ansor.Scheduler.default_options ~tasks:[| task |]
      ~networks:
        [ { Ansor.Scheduler.net_name = "n"; task_weights = [ (0, 1) ] } ]
  in
  let a = mk (Ansor.Nn.matmul ~m:32 ~n:32 ~k:32 ()) in
  let b = mk (Ansor.Nn.matmul ~m:16 ~n:16 ~k:16 ()) in
  let snap = Ansor.Scheduler.snapshot a in
  (match Ansor.Scheduler.restore b snap with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "restore accepted a foreign snapshot");
  match Ansor.Scheduler.restore a snap with
  | Ok () -> ()
  | Error e -> Alcotest.failf "self-restore failed: %s" e

(* ---- resume equivalence -------------------------------------------------- *)

let check_resume_equivalence ~workers () =
  with_temp ".snap" (fun p ->
      let reference = tune_with ~workers ~trials:64 () in
      let should_stop, on_round = stop_after_rounds 2 in
      let interrupted =
        tune_with ~workers ~snapshot_path:p ~should_stop ~on_round ~trials:64
          ()
      in
      check_bool "interrupted early" true
        (interrupted.Ansor.trials_used < reference.Ansor.trials_used);
      let resumed =
        tune_with ~workers ~snapshot_path:p ~resume:true ~trials:64 ()
      in
      check_int "same trial budget reached" reference.Ansor.trials_used
        resumed.Ansor.trials_used;
      check_float "same best latency" reference.Ansor.best_latency
        resumed.Ansor.best_latency)

let test_resume_equivalence_1w () = check_resume_equivalence ~workers:1 ()
let test_resume_equivalence_4w () = check_resume_equivalence ~workers:4 ()

let test_resume_mismatch_starts_fresh () =
  with_temp ".snap" (fun p ->
      let other_dag = Ansor.Nn.matmul ~m:16 ~n:16 ~k:16 () in
      let tune_other ~resume =
        Ansor.tune ~seed:7 ~trials:32 ~snapshot_path:p ~resume
          Ansor.Machine.intel_cpu other_dag
      in
      let should_stop, on_round = stop_after_rounds 1 in
      let _ = tune_with ~snapshot_path:p ~should_stop ~on_round ~trials:32 () in
      (* the snapshot belongs to the 32^3 task: resuming a 16^3 session
         from it must degrade to a fresh start, not restore or crash.
         tune_other overwrites the snapshot as it runs, so take the fresh
         reference second, after wiping both generations. *)
      let mismatched = tune_other ~resume:true in
      Sys.remove p;
      if Sys.file_exists (p ^ ".prev") then Sys.remove (p ^ ".prev");
      let fresh = tune_other ~resume:false in
      check_int "mismatched resume ran like a fresh session"
        fresh.Ansor.trials_used mismatched.Ansor.trials_used;
      check_float "identical results" fresh.Ansor.best_latency
        mismatched.Ansor.best_latency)

let test_network_resume_equivalence () =
  with_temp ".snap" (fun p ->
      let tune ?snapshot_path ?(resume = false) ?should_stop ?on_round () =
        Ansor.tune_networks_with_stats ~seed:3 ~trial_budget:96 ?snapshot_path
          ~resume ?should_stop ?on_round Ansor.Machine.intel_cpu
          [ Ansor.Workloads.dcgan ~batch:1 ]
      in
      let ref_results, ref_stats = tune () in
      let should_stop, on_round = stop_after_rounds 3 in
      let _ = tune ~snapshot_path:p ~should_stop ~on_round () in
      let res_results, res_stats = tune ~snapshot_path:p ~resume:true () in
      check_int "same trial total" ref_stats.Ansor.Telemetry.trials
        res_stats.Ansor.Telemetry.trials;
      List.iter2
        (fun (a : Ansor.network_result) (b : Ansor.network_result) ->
          check_float "same end-to-end latency" a.latency b.latency)
        ref_results res_results)

(* ---- graceful shutdown --------------------------------------------------- *)

let test_sigterm_graceful () =
  with_temp ".snap" (fun p ->
      let log = p ^ ".log" in
      Checkpoint.Shutdown.install ();
      Checkpoint.Shutdown.reset ();
      let rounds = ref 0 in
      let result =
        tune_with ~snapshot_path:p
          ~should_stop:(fun () -> Checkpoint.Shutdown.requested ())
          ~on_round:(fun () ->
            incr rounds;
            if !rounds = 2 then Unix.kill (Unix.getpid ()) Sys.sigterm)
          ~trials:10_000 ()
      in
      check_bool "shutdown observed" true (Checkpoint.Shutdown.requested ());
      check_string "reason is SIGTERM" "SIGTERM"
        (Option.value ~default:"none" (Checkpoint.Shutdown.reason ()));
      check_bool "stopped well before budget" true
        (result.Ansor.trials_used < 10_000);
      (* every artifact a real session flushes on shutdown is loadable *)
      (match Checkpoint.load_latest ~path:p with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "snapshot not loadable after SIGTERM: %s" e);
      (match result.Ansor.best_state with
      | Some st ->
        Ansor.Record.append_batch ~path:log
          [
            {
              Ansor.Record.task_key = "sigterm/test";
              latency = result.Ansor.best_latency;
              steps = st.Ansor.State.history;
            };
          ];
        (match Ansor.Record.load_salvage ~path:log with
        | Ok ([ _ ], 0) -> ()
        | Ok _ -> Alcotest.fail "unexpected record count"
        | Error e -> Alcotest.failf "record log not loadable: %s" e)
      | None -> Alcotest.fail "no best state despite measured rounds");
      Checkpoint.Shutdown.reset ())

(* ---- wall-clock batch deadline ------------------------------------------- *)

let test_batch_deadline () =
  let states = sample_programs ~seed:5 ~n:8 (small_dag ()) in
  let requests = List.map (fun st -> Ansor.Measure_protocol.request st) states in
  let run config =
    let service =
      Ansor.Measure_service.create ~config
        ~fault_hook:(fun ~key:_ ~attempt:_ ->
          (* a pathological workload: every run takes ~40ms of wall time *)
          Unix.sleepf 0.04;
          None)
        ~seed:11 Ansor.Machine.intel_cpu
    in
    let results = Ansor.Measure_service.measure_batch service requests in
    (Ansor.Measure_service.stats service, results)
  in
  (* without a deadline every candidate runs *)
  let free_stats, _ = run Ansor.Measure_service.default_config in
  check_int "no deadline: no timeouts" 0 free_stats.Ansor.Telemetry.timeouts;
  (* with a ~60ms budget the first candidates fit and later ones expire
     without ever starting *)
  let stats, results =
    run { Ansor.Measure_service.default_config with batch_deadline = 0.06 }
  in
  check_bool "some candidates expired" true
    (stats.Ansor.Telemetry.timeouts > 0);
  check_bool "some candidates still measured" true
    (stats.Ansor.Telemetry.measured > 0);
  check_int "every request answered" (List.length requests)
    (List.length results);
  check_bool "expired candidates consumed no trials" true
    (stats.Ansor.Telemetry.trials < free_stats.Ansor.Telemetry.trials)

let () =
  Alcotest.run "checkpoint"
    [
      ( "atomic-file",
        [ case "write" test_atomic_write; case "append" test_atomic_append ] );
      ( "salvage",
        [
          case "torn cache" test_cache_salvage;
          case "garbage cache line" test_cache_salvage_garbage_line;
          case "torn record log" test_record_salvage;
        ] );
      ( "snapshot",
        [
          case "roundtrip + generation fallback"
            test_snapshot_roundtrip_and_fallback;
          case "digest detects bit flip" test_snapshot_digest_detects_bitflip;
          case "scheduler restore validates" test_scheduler_restore_validates;
        ] );
      ( "resume",
        [
          case "equivalence (1 worker)" test_resume_equivalence_1w;
          case "equivalence (4 workers)" test_resume_equivalence_4w;
          case "network session equivalence" test_network_resume_equivalence;
          case "mismatched snapshot starts fresh"
            test_resume_mismatch_starts_fresh;
        ] );
      ( "shutdown",
        [ case "SIGTERM leaves loadable state" test_sigterm_graceful ] );
      ("deadline", [ case "wall-clock batch deadline" test_batch_deadline ]);
    ]
