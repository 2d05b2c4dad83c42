(* Tuning records: lossless round-trips and file handling. *)

open Helpers
module Record = Ansor.Record
module Step = Ansor.Step
module State = Ansor.State

let sample_entry seed =
  let dag = Ansor.Nn.matmul_relu ~m:16 ~n:16 ~k:16 () in
  match sample_programs ~seed ~n:1 dag with
  | [ st ] ->
    { Record.task_key = "intel-cpu/demo key with spaces";
      latency = 0.00123;
      steps = st.State.history }
  | _ -> Alcotest.fail "sampling failed"

let test_roundtrip_simple () =
  let entry =
    {
      Record.task_key = "k";
      latency = 1.5e-3;
      steps =
        Step.
          [
            Split { stage = "C"; iv = 0; lengths = [ 2; 4; 2 ]; tbd = false };
            Fuse { stage = "C"; ivs = [ 3; 4 ] };
            Reorder { stage = "C"; order = [ 6; 1; 2 ] };
            Compute_at
              { stage = "C"; target = "D"; target_iv = 3; bindings = [ (1, 2) ] };
            Compute_at { stage = "C"; target = "D"; target_iv = 3; bindings = [] };
            Compute_inline { stage = "P" };
            Compute_root { stage = "P" };
            Cache_write { stage = "C" };
            Rfactor { stage = "C"; iv = 2; lengths = [ 4; 4 ]; tbd = true };
            Annotate { stage = "C"; iv = 1; ann = Parallel };
            Annotate { stage = "C"; iv = 2; ann = Vectorize };
            Annotate { stage = "C"; iv = 3; ann = Unroll };
            Annotate { stage = "C"; iv = 4; ann = No_ann };
            Pragma_unroll { stage = "C"; max_step = 512 };
          ];
    }
  in
  match Record.of_line (Record.to_line entry) with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok e' ->
    check_string "key" entry.task_key e'.task_key;
    check_bool "steps identical" true
      (Step.history_key entry.steps = Step.history_key e'.steps)

let prop_roundtrip_sampled =
  qcheck ~count:40 "sampled histories round-trip"
    QCheck2.Gen.(int_range 0 10000)
    (fun seed ->
      let entry = sample_entry seed in
      match Record.of_line (Record.to_line entry) with
      | Error _ -> false
      | Ok e' ->
        String.equal (Step.history_key entry.steps) (Step.history_key e'.steps)
        && Float.abs (e'.latency -. entry.latency) /. entry.latency < 1e-6)

let test_parse_errors () =
  let bad l =
    match Record.of_line l with Ok _ -> Alcotest.failf "accepted %S" l | Error _ -> ()
  in
  bad "";
  bad "not-a-record";
  bad "ansor-v1\tkey";
  bad "ansor-v1\tkey\t-1.0\tI X";
  bad "ansor-v1\tkey\t0.001\tZZ X";
  bad "ansor-v1\tkey\t0.001\tS C zero 4,4 0"

let test_separator_validation () =
  (match
     Record.to_line
       { Record.task_key = "bad\tkey"; latency = 1.0; steps = [] }
   with
  | _ -> Alcotest.fail "tab in key accepted"
  | exception Invalid_argument _ -> ());
  match
    Record.to_line
      {
        Record.task_key = "k";
        latency = 1.0;
        steps = [ Step.Compute_inline { stage = "bad stage" } ];
      }
  with
  | _ -> Alcotest.fail "space in stage accepted"
  | exception Invalid_argument _ -> ()

let test_file_roundtrip () =
  let path = Filename.temp_file "ansor_records" ".log" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let e1 = sample_entry 1 and e2 = sample_entry 2 in
      Record.save ~path [ e1 ];
      Record.append_batch ~path [ { e2 with latency = 9.0 } ];
      match Record.load_salvage ~path with
      | Error e -> Alcotest.failf "load failed: %s" e
      | Ok (entries, skipped) ->
        check_int "nothing skipped" 0 skipped;
        check_int "two entries" 2 (List.length entries);
        (* best_for picks the lowest latency for the shared key *)
        (match Record.best_for entries ~task_key:e1.task_key with
        | Some best -> check_bool "lowest latency" true (best.latency < 1.0)
        | None -> Alcotest.fail "key not found");
        check_bool "missing key" true
          (Record.best_for entries ~task_key:"nope" = None))

let test_append_batch () =
  let path = Filename.temp_file "ansor_records" ".log" in
  Sys.remove path;
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () ->
      (* an empty batch is a no-op: no file appears *)
      Record.append_batch ~path [];
      check_bool "empty batch writes nothing" false (Sys.file_exists path);
      let e1 = sample_entry 1 and e2 = sample_entry 2 in
      Record.append_batch ~path [ e1; { e2 with task_key = "k2" } ];
      Record.append_batch ~path [ { e1 with latency = 0.5 } ];
      match Record.load_salvage ~path with
      | Error e -> Alcotest.failf "load failed: %s" e
      | Ok (entries, skipped) ->
        check_int "nothing skipped" 0 skipped;
        check_int "all batches landed" 3 (List.length entries);
        check_bool "order preserved" true
          ((List.nth entries 1).task_key = "k2"))

let test_compact () =
  let path = Filename.temp_file "ansor_records" ".log" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let e = sample_entry 1 in
      Record.save ~path
        [
          { e with task_key = "a"; latency = 3.0 };
          { e with task_key = "b"; latency = 1.0 };
          { e with task_key = "a"; latency = 1.0 };
          { e with task_key = "a"; latency = 2.0 };
        ];
      (match Record.compact ~path with
      | Error m -> Alcotest.failf "compact failed: %s" m
      | Ok removed -> check_int "two stale entries removed" 2 removed);
      match Record.load_salvage ~path with
      | Error e -> Alcotest.failf "reload failed: %s" e
      | Ok (entries, skipped) ->
        check_int "nothing skipped" 0 skipped;
        check_int "best per key" 2 (List.length entries);
        (* file order is preserved: "b" was recorded before the best "a" *)
        check_string "first key" "b" (List.hd entries).task_key;
        (match Record.best_for entries ~task_key:"a" with
        | Some best -> check_float "best a" 1.0 best.latency
        | None -> Alcotest.fail "key a lost");
        (* compacting a compact log is a no-op *)
        match Record.compact ~path with
        | Ok removed -> check_int "idempotent" 0 removed
        | Error m -> Alcotest.failf "second compact failed: %s" m)

let test_load_reports_bad_line () =
  let path = Filename.temp_file "ansor_records" ".log" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      output_string oc (Record.to_line (sample_entry 3));
      output_string oc "\ngarbage line\n";
      close_out oc;
      (match Record.load_salvage ~path with
      | Ok (entries, skipped) ->
        check_bool "garbage skipped" true (skipped > 0);
        check_int "good entry kept" 1 (List.length entries)
      | Error e -> Alcotest.failf "salvage failed: %s" e);
      (* the strict reader names the path and the offending line *)
      match Ansor_util.Line_file.read ~path ~strict:true Record.of_line with
      | Ok _ -> Alcotest.fail "garbage accepted"
      | Error msg ->
        check_bool "mentions line number" true
          (String.starts_with ~prefix:(path ^ ": line 2:") msg))

let test_replay_recorded_schedule () =
  (* record a tuned program, replay it and check latency and correctness *)
  let dag = Ansor.Nn.matmul ~m:32 ~n:32 ~k:32 () in
  let machine = Ansor.Machine.intel_cpu in
  let task = Ansor.Task.create ~name:"t" ~machine dag in
  let tuner, _ = Ansor.Tuner.tune ~seed:4 Ansor.Tuner.ansor_options ~trials:48 task in
  match Record.entry_of_tuner tuner with
  | None -> Alcotest.fail "no entry"
  | Some entry -> (
    let line = Record.to_line entry in
    match Record.of_line line with
    | Error e -> Alcotest.failf "round-trip failed: %s" e
    | Ok entry' -> (
      match Record.best_state entry' dag with
      | Error e -> Alcotest.failf "replay failed: %s" e
      | Ok st ->
        assert_state_correct st;
        let lat = Ansor.Simulator.estimate machine (Ansor.Lower.lower st) in
        (* recorded latency carries measurement noise; simulated truth is
           within a few percent *)
        check_bool "latency consistent" true
          (Float.abs (lat -. entry.latency) /. entry.latency < 0.2)))

let () =
  Alcotest.run "record"
    [
      ( "format",
        [
          case "all step kinds round-trip" test_roundtrip_simple;
          prop_roundtrip_sampled;
          case "parse errors" test_parse_errors;
          case "separator validation" test_separator_validation;
        ] );
      ( "files",
        [
          case "save/append/load/best_for" test_file_roundtrip;
          case "append_batch" test_append_batch;
          case "compact keeps per-key best" test_compact;
          case "malformed line reported" test_load_reports_bad_line;
        ] );
      ("replay", [ case "tuned schedule round-trips" test_replay_recorded_schedule ]);
    ]
