(* End-to-end properties: the system-wide soundness invariant — every
   program the sampler or the tuner produces computes exactly what the
   naive program computes — plus the public facade. *)

open Helpers
module State = Ansor.State

(* qcheck-driven: a random seed yields a random sampled program on a
   randomly chosen DAG; it must verify *)
let dags =
  lazy
    [|
      ("matmul_relu", Ansor.Nn.matmul_relu ~m:16 ~n:16 ~k:16 ());
      ("matmul_bias_relu", Ansor.Nn.matmul_bias_relu ~m:8 ~n:16 ~k:8 ());
      ("conv2d", Ansor.Nn.conv2d ~n:1 ~c:4 ~h:8 ~w:8 ~f:4 ~kh:3 ~kw:3 ~stride:1 ~pad:1 ());
      ("conv_layer", Ansor.Nn.conv_layer ~n:1 ~c:4 ~h:6 ~w:6 ~f:4 ~kh:3 ~kw:3 ~stride:1 ~pad:1 ());
      ("depthwise", Ansor.Nn.depthwise_conv2d ~n:1 ~c:8 ~h:8 ~w:8 ~kh:3 ~kw:3 ~stride:1 ~pad:1 ());
      ("t2d", Ansor.Nn.conv2d_transposed ~n:1 ~c:4 ~h:6 ~w:6 ~f:4 ~kh:4 ~kw:4 ~stride:2 ~pad:1 ());
      ("norm", Ansor.Nn.matrix_norm ~m:16 ~n:32 ());
      ("figure5", Ansor.Nn.figure5_input2 ());
      ("tbg", Ansor.Nn.tbg ~b:4 ~m:8 ~n:8 ~k:8 ());
      ("grouped", Ansor.Nn.conv2d ~groups:2 ~n:1 ~c:4 ~h:6 ~w:6 ~f:4 ~kh:3 ~kw:3 ~stride:1 ~pad:1 ());
    |]

let prop_sampled_programs_correct =
  qcheck ~count:60 "every sampled program == naive program"
    QCheck2.Gen.(pair (int_range 0 9) (int_range 0 100000))
    (fun (dag_idx, seed) ->
      let _, dag = (Lazy.force dags).(dag_idx) in
      match sample_programs ~seed ~n:1 dag with
      | [ st ] -> (
        let inputs =
          Ansor.Interp.random_inputs (Ansor.Rng.create (seed + 1)) dag
        in
        let prog = Ansor.Lower.lower st in
        match Ansor.Interp.check_equivalent dag prog ~inputs with
        | Ok () -> true
        | Error _ -> false)
      | _ -> QCheck2.assume_fail ())

let prop_mutated_programs_correct =
  qcheck ~count:40 "every accepted mutation == naive program"
    QCheck2.Gen.(pair (int_range 0 9) (int_range 0 100000))
    (fun (dag_idx, seed) ->
      let _, dag = (Lazy.force dags).(dag_idx) in
      match sample_programs ~seed ~n:1 dag with
      | [ st ] -> (
        let rng = Ansor.Rng.create (seed + 7) in
        let mutations =
          [
            Ansor.Evolution.mutate_tile_sizes rng dag;
            Ansor.Evolution.mutate_annotation rng dag;
            Ansor.Evolution.mutate_location rng dag;
          ]
        in
        List.for_all
          (fun mutate ->
            match mutate st with
            | None -> true
            | Some c -> (
              let inputs =
                Ansor.Interp.random_inputs (Ansor.Rng.create (seed + 2)) dag
              in
              match
                Ansor.Interp.check_equivalent dag c.Ansor.Candidate.prog
                  ~inputs
              with
              | Ok () -> true
              | Error _ -> false))
          mutations)
      | _ -> QCheck2.assume_fail ())

let test_tune_facade () =
  let dag = Ansor.Nn.matmul ~m:32 ~n:32 ~k:32 () in
  let result = Ansor.tune ~seed:1 ~trials:40 Ansor.Machine.intel_cpu dag in
  check_bool "best found" true (result.best_state <> None);
  check_bool "latency finite" true (Float.is_finite result.best_latency);
  check_bool "trials counted" true (result.trials_used >= 40);
  match result.best_state with
  | Some st -> (
    match Ansor.verify_state st with
    | Ok () -> ()
    | Error e -> Alcotest.failf "tuned program wrong: %s" e)
  | None -> ()

let test_tune_networks_facade () =
  (* a miniature network with two layers sharing one subgraph *)
  let case name dag = { Ansor.Workloads.case_name = name; dag } in
  let net =
    {
      Ansor.Workloads.net_name = "tiny";
      layers =
        [
          (case "mm" (Ansor.Nn.matmul ~m:32 ~n:32 ~k:32 ()), 2);
          (case "mm2" (Ansor.Nn.matmul ~m:16 ~n:64 ~k:16 ()), 1);
        ];
    }
  in
  let results, _ =
    Ansor.tune_networks ~seed:2 ~trial_budget:60 Ansor.Machine.intel_cpu [ net ]
  in
  match results with
  | [ r ] ->
    check_bool "latency positive" true (r.latency > 0.0 && Float.is_finite r.latency);
    check_int "per-task entries" 2 (List.length r.per_task);
    (* end-to-end = sum of weighted task latencies *)
    let sum =
      List.fold_left2
        (fun acc (_, l) w -> acc +. (float_of_int w *. l))
        0.0 r.per_task [ 2; 1 ]
    in
    check_floatish "weighted sum" sum r.latency
  | _ -> Alcotest.fail "one result expected"

let test_shared_tasks_deduplicated () =
  (* two networks using the same subgraph: the scheduler sees it once *)
  let case name dag = { Ansor.Workloads.case_name = name; dag } in
  let shared_case = case "mm" (Ansor.Nn.matmul ~m:32 ~n:32 ~k:32 ()) in
  let net1 = { Ansor.Workloads.net_name = "n1"; layers = [ (shared_case, 1) ] } in
  let net2 = { Ansor.Workloads.net_name = "n2"; layers = [ (shared_case, 3) ] } in
  let results, _ =
    Ansor.tune_networks ~seed:3 ~trial_budget:40 Ansor.Machine.intel_cpu
      [ net1; net2 ]
  in
  match results with
  | [ r1; r2 ] ->
    let l1 = List.assoc "mm" r1.per_task and l2 = List.assoc "mm" r2.per_task in
    check_floatish "both networks see the same tuned latency" l1 l2;
    check_floatish "weights applied" (3.0 *. l1 /. 1.0) (r2.latency *. l1 /. l2 /. 1.0 *. 1.0)
  | _ -> Alcotest.fail "two results expected"

let test_verify_state_detects_nothing_wrong () =
  let dag = small_matmul_relu () in
  match Ansor.verify_state (State.init dag) with
  | Ok () -> ()
  | Error e -> Alcotest.failf "naive state must verify: %s" e

let () =
  Alcotest.run "endtoend"
    [
      ( "soundness",
        [
          prop_sampled_programs_correct;
          prop_mutated_programs_correct;
          case "verify_state" test_verify_state_detects_nothing_wrong;
        ] );
      ( "facade",
        [
          case "tune" test_tune_facade;
          case "tune_networks" test_tune_networks_facade;
          case "task deduplication" test_shared_tasks_deduplicated;
        ] );
    ]
