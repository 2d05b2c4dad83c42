(* The schedule registry: persistence, merge semantics and the
   resolution ladder (exact / adapted / default). *)

open Helpers
module Registry = Ansor.Registry
module Record = Ansor.Record
module Task = Ansor.Task

let machine = Ansor.Machine.intel_cpu

(* A tuned-ish entry for a small matmul: sample one legal program and
   record its history under the task's real key. *)
let entry_for ?(seed = 1) ?(latency = 1e-3) dag =
  let task = Task.create ~name:"t" ~machine dag in
  match sample_programs ~seed ~n:1 dag with
  | [ st ] ->
    {
      Record.task_key = Task.key task;
      latency;
      steps = st.Ansor.State.history;
    }
  | _ -> Alcotest.fail "sampling failed"

let test_add_semantics () =
  let r = Registry.create () in
  let e = { Record.task_key = "k"; latency = 2.0; steps = [] } in
  check_bool "added" true (Registry.add r e = `Added);
  check_bool "kept" true
    (Registry.add r { e with latency = 3.0 } = `Kept);
  check_bool "improved" true
    (Registry.add r { e with latency = 1.0 } = `Improved);
  check_int "one key" 1 (Registry.size r);
  match Registry.find r ~task_key:"k" with
  | Some b -> check_float "best kept" 1.0 b.latency
  | None -> Alcotest.fail "key lost"

let test_roundtrip () =
  let dag = Ansor.Nn.matmul ~m:16 ~n:16 ~k:16 () in
  let path = Filename.temp_file "ansor_registry" ".reg" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let r = Registry.of_entries [ entry_for dag ] in
      Registry.save ~path r;
      match Registry.load ~path with
      | Error e -> Alcotest.failf "load failed: %s" e
      | Ok r' ->
        check_int "size survives" (Registry.size r) (Registry.size r');
        check_bool "keys survive" true (Registry.keys r = Registry.keys r');
        let e = List.hd (Registry.entries r)
        and e' = List.hd (Registry.entries r') in
        check_bool "steps survive" true
          (Ansor.Step.history_key e.steps = Ansor.Step.history_key e'.steps))

let test_rejects_raw_log () =
  (* a raw record log has no registry header: refuse it loudly instead of
     silently treating it as a registry *)
  let dag = Ansor.Nn.matmul ~m:16 ~n:16 ~k:16 () in
  let path = Filename.temp_file "ansor_registry" ".log" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Record.save ~path [ entry_for dag ];
      (match Registry.load ~path with
      | Ok _ -> Alcotest.fail "raw log accepted"
      | Error msg -> check_bool "names the header" true (String.length msg > 0));
      match Registry.load_salvage ~path with
      | Ok _ -> Alcotest.fail "raw log accepted in salvage mode"
      | Error _ -> ())

let test_merge_keeps_best () =
  let dag = Ansor.Nn.matmul ~m:16 ~n:16 ~k:16 () in
  let e_slow = entry_for ~seed:1 ~latency:5e-3 dag in
  let e_fast = { (entry_for ~seed:2 ~latency:1e-3 dag) with
                 task_key = e_slow.task_key } in
  let other = { Record.task_key = "other"; latency = 1.0; steps = [] } in
  let a = Registry.of_entries [ e_slow ] in
  let b = Registry.of_entries [ e_fast; other ] in
  let changed = Registry.merge_into ~dst:a b in
  check_int "fast entry + new key" 2 changed;
  check_int "two keys" 2 (Registry.size a);
  (match Registry.find a ~task_key:e_slow.task_key with
  | Some e -> check_float "best latency wins" 1e-3 e.latency
  | None -> Alcotest.fail "key lost");
  (* merging back the slower registry changes nothing *)
  check_int "reverse merge is a no-op" 0
    (Registry.merge_into ~dst:a (Registry.of_entries [ e_slow ]))

let test_build_from_logs () =
  let dag = Ansor.Nn.matmul ~m:16 ~n:16 ~k:16 () in
  let p1 = Filename.temp_file "ansor_reg_log" ".log" in
  let p2 = Filename.temp_file "ansor_reg_log" ".log" in
  Fun.protect
    ~finally:(fun () -> Sys.remove p1; Sys.remove p2)
    (fun () ->
      let e = entry_for ~latency:5e-3 dag in
      Record.save ~path:p1 [ e ];
      Record.save ~path:p2 [ { e with latency = 2e-3 } ];
      match Registry.build_from_logs ~paths:[ p1; p2 ] with
      | Error m -> Alcotest.failf "build failed: %s" m
      | Ok (r, skipped) ->
        check_int "nothing skipped" 0 skipped;
        check_int "one task" 1 (Registry.size r);
        (match Registry.find r ~task_key:e.task_key with
        | Some b -> check_float "best across logs" 2e-3 b.latency
        | None -> Alcotest.fail "key lost"))

let test_compact_file () =
  let dag = Ansor.Nn.matmul ~m:16 ~n:16 ~k:16 () in
  let path = Filename.temp_file "ansor_registry" ".reg" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let e = entry_for dag in
      Registry.save ~path (Registry.of_entries [ e ]);
      (* simulate a concatenated registry: the same key appended twice *)
      let oc = open_out_gen [ Open_append ] 0o644 path in
      output_string oc (Record.to_line { e with latency = 9.0 });
      output_char oc '\n';
      output_string oc "garbage line\n";
      close_out oc;
      (match Registry.compact_file ~path with
      | Error m -> Alcotest.failf "compact failed: %s" m
      | Ok dropped -> check_int "dup + garbage dropped" 2 dropped);
      match Registry.load ~path with
      | Error m -> Alcotest.failf "reload failed: %s" m
      | Ok r ->
        check_int "one entry" 1 (Registry.size r);
        check_float "best kept"
          e.latency
          (List.hd (Registry.entries r)).latency)

let test_resolve_exact () =
  let dag = Ansor.Nn.matmul ~m:16 ~n:16 ~k:16 () in
  let task = Task.create ~name:"t" ~machine dag in
  let r = Registry.of_entries [ entry_for dag ] in
  let st, outcome = Registry.resolve r task in
  check_bool "exact" true (outcome = Registry.Exact);
  assert_state_correct st;
  check_bool "not the naive program" true (st.Ansor.State.history <> [])

let test_resolve_default_when_empty () =
  let dag = Ansor.Nn.matmul ~m:16 ~n:16 ~k:16 () in
  let task = Task.create ~name:"t" ~machine dag in
  let st, outcome = Registry.resolve (Registry.create ()) task in
  (match outcome with
  | Registry.Defaulted _ -> ()
  | o -> Alcotest.failf "expected default, got %s" (Registry.outcome_to_string o));
  check_bool "naive program" true (st.Ansor.State.history = [])

let test_similarity_fallback () =
  (* register a tuned 16^3 matmul, query the untuned 32^3 shape: the
     registry must adapt the nearest record, never raise, and the adapted
     program must still compute the right answer *)
  let tuned = Ansor.Nn.matmul ~m:16 ~n:16 ~k:16 () in
  let query = Ansor.Nn.matmul ~m:32 ~n:32 ~k:32 () in
  let r = Registry.of_entries [ entry_for tuned ] in
  let task = Task.create ~name:"q" ~machine query in
  check_bool "same structure class, one candidate" true
    (List.length (Registry.similar_keys r ~task_key:(Task.key task)) = 1);
  let st, outcome = Registry.resolve r task in
  (match outcome with
  | Registry.Adapted { source_key; distance } ->
    check_bool "adapted from the tuned key" true
      (source_key = (List.hd (Registry.entries r)).task_key);
    check_bool "positive distance" true (distance > 0.0)
  | o -> Alcotest.failf "expected adapted, got %s" (Registry.outcome_to_string o));
  check_bool "adapted schedule is non-trivial" true
    (st.Ansor.State.history <> []);
  assert_state_correct st

let test_similarity_needs_same_class () =
  (* a structurally different workload must not adapt from a matmul *)
  let tuned = Ansor.Nn.matmul ~m:16 ~n:16 ~k:16 () in
  let query = Ansor.Nn.matmul_relu ~m:16 ~n:16 ~k:16 () in
  let r = Registry.of_entries [ entry_for tuned ] in
  let task = Task.create ~name:"q" ~machine query in
  check_int "no candidates across classes" 0
    (List.length (Registry.similar_keys r ~task_key:(Task.key task)));
  let _, outcome = Registry.resolve r task in
  match outcome with
  | Registry.Defaulted _ -> ()
  | o -> Alcotest.failf "expected default, got %s" (Registry.outcome_to_string o)

let test_resolve_is_total =
  (* resolve never raises, whatever shape is thrown at it *)
  qcheck ~count:20 "resolve is total over shapes"
    QCheck2.Gen.(pair (int_range 1 6) (int_range 1 6))
    (fun (a, b) ->
      let tuned = Ansor.Nn.matmul ~m:16 ~n:16 ~k:16 () in
      let query = Ansor.Nn.matmul ~m:(a * 8) ~n:(b * 8) ~k:24 () in
      let r = Registry.of_entries [ entry_for tuned ] in
      let task = Task.create ~name:"q" ~machine query in
      match Registry.resolve r task with
      | _st, _outcome -> true
      | exception _ -> false)

let test_prune () =
  let r =
    Registry.of_entries
      [
        { Record.task_key = "fast"; latency = 1e-4; steps = [] };
        { Record.task_key = "slow"; latency = 1.0; steps = [] };
      ]
  in
  check_int "one removed" 1 (Registry.prune r ~keep:(fun e -> e.latency < 0.5));
  check_bool "fast kept" true (Registry.find r ~task_key:"fast" <> None);
  check_bool "slow gone" true (Registry.find r ~task_key:"slow" = None)

(* ---- one serving path ------------------------------------------------- *)

(* [ansor replay], [Deploy.plan] and [Server] answer "which program runs
   for this task?" from one registry through one ladder, so they agree
   on the rung and on the program itself.  The log has three tuned tasks
   (two matmuls of one structure class, with two entries for one key)
   and is queried for them, an untuned matmul sibling and a task of no
   tuned class. *)
let test_one_path () =
  let mm16 = Ansor.Nn.matmul ~m:16 ~n:16 ~k:16 () in
  let tuned =
    [
      ("mm16", mm16);
      ("mm32", Ansor.Nn.matmul ~m:32 ~n:32 ~k:32 ());
      ("nrm", Ansor.Nn.matrix_norm ~m:8 ~n:32 ());
    ]
  in
  let queries =
    tuned
    @ [
        ("mm16x32", Ansor.Nn.matmul ~m:16 ~n:32 ~k:16 ());
        ("softmax", Ansor.Nn.softmax ~m:4 ~n:8 ());
      ]
  in
  let log =
    entry_for ~seed:2 ~latency:2e-3 mm16
    :: List.mapi (fun i (_, dag) -> entry_for ~seed:(i + 1) dag) tuned
  in
  let path = Filename.temp_file "ansor_one_path" ".log" in
  let entries =
    Fun.protect
      ~finally:(fun () -> Sys.remove path)
      (fun () ->
        Record.save ~path log;
        match Record.load_salvage ~path with
        | Ok (es, 0) -> es
        | _ -> Alcotest.fail "log unreadable")
  in
  let registry = Registry.of_entries entries in
  let task (name, dag) = Task.create ~name ~machine dag in
  (* replay: what [ansor replay] prints for one task of the log *)
  let replayed =
    List.map
      (fun q ->
        let st, o = Registry.resolve registry (task q) in
        (Ansor.Lower.lower st, o))
      queries
  in
  let deployed =
    List.map
      (fun ((k : Ansor.Deploy.kernel), prog) -> (prog, k.outcome))
      (Ansor.Deploy.plan ~machine ~registry queries)
  in
  let server =
    Ansor.Server.create ~registry ~machine
      {
        Ansor.Workloads.net_name = "one-path";
        layers =
          List.map
            (fun (case_name, dag) -> ({ Ansor.Workloads.case_name; dag }, 1))
            queries;
      }
  in
  let served =
    List.map
      (fun q ->
        Option.get (Ansor.Server.incumbent server ~key:(Task.key (task q))))
      queries
  in
  let rung (_, o) = Registry.outcome_to_string o in
  let hash (p, _) = Ansor.Prog.canonical_hash p in
  List.iteri
    (fun i (name, _) ->
      let r = List.nth replayed i in
      List.iter
        (fun (path, x) ->
          check_string (Printf.sprintf "%s: %s rung" name path) (rung r) (rung x);
          check_string (Printf.sprintf "%s: %s program" name path) (hash r) (hash x))
        [ ("deploy", List.nth deployed i); ("serve", List.nth served i) ])
    queries;
  let mm16_key = Task.key (task ("mm16", mm16)) in
  check_string "tuned tasks are exact"
    "exact exact exact"
    (String.concat " " (List.map rung (List.filteri (fun i _ -> i < 3) replayed)));
  (match snd (List.nth replayed 3) with
  | Registry.Adapted { source_key; _ } ->
    check_string "sibling adapted from the nearest" mm16_key source_key
  | o -> Alcotest.failf "sibling: %s" (Registry.outcome_to_string o));
  (match snd (List.nth replayed 4) with
  | Registry.Defaulted _ -> ()
  | o -> Alcotest.failf "softmax: %s" (Registry.outcome_to_string o));
  (* the per-key best: the lower-latency mm16 entry is the one replayed *)
  check_float "best of two entries" 1e-3
    (Option.get (Registry.find registry ~task_key:mm16_key)).latency

let () =
  Alcotest.run "registry"
    [
      ( "database",
        [
          case "add keeps per-key best" test_add_semantics;
          case "save/load round-trip" test_roundtrip;
          case "raw record log rejected" test_rejects_raw_log;
          case "merge keeps best" test_merge_keeps_best;
          case "build from tuning logs" test_build_from_logs;
          case "compact heals concatenated file" test_compact_file;
          case "prune" test_prune;
        ] );
      ( "resolution",
        [
          case "exact hit" test_resolve_exact;
          case "empty registry defaults" test_resolve_default_when_empty;
          case "similarity fallback adapts untuned shape"
            test_similarity_fallback;
          case "no cross-class adaptation" test_similarity_needs_same_class;
          test_resolve_is_total;
        ] );
      ("one path", [ case "replay, deploy and serve agree" test_one_path ]);
    ]
