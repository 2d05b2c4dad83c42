(* Tasks, the per-task tuner and single-operator tuning sessions,
   including the baseline strategies. *)

open Helpers
module Task = Ansor.Task
module Tuner = Ansor.Tuner
module Machine = Ansor.Machine
module Service = Ansor.Measure_service
module Nn = Ansor.Nn

let small_dag () = Nn.matmul ~m:64 ~n:64 ~k:64 ()
let small_task () = Task.create ~name:"gmm" ~machine:Machine.intel_cpu (small_dag ())

let test_task_basics () =
  let t = small_task () in
  check_string "machine in key" "intel-cpu"
    (String.sub (Task.key t) 0 9);
  check_bool "flops" true (Task.flops t = float_of_int (2 * 64 * 64 * 64));
  let t2 =
    Task.create ~name:"other" ~machine:Machine.intel_cpu
      (Nn.matmul ~m:64 ~n:64 ~k:64 ())
  in
  check_string "same computation, same key" (Task.key t) (Task.key t2);
  let gpu_task =
    Task.create ~name:"gmm" ~machine:Machine.gpu (Nn.matmul ~m:64 ~n:64 ~k:64 ())
  in
  check_bool "machine changes key" true (Task.key t <> Task.key gpu_task);
  (match Task.create ~weight:0 ~name:"w" ~machine:Machine.intel_cpu (Nn.matmul ~m:4 ~n:4 ~k:4 ()) with
  | _ -> Alcotest.fail "expected weight validation"
  | exception Invalid_argument _ -> ())

let test_task_policy_follows_machine () =
  let cpu_t = small_task () in
  let gpu_t =
    Task.create ~name:"g" ~machine:Machine.gpu (Nn.matmul ~m:8 ~n:8 ~k:8 ())
  in
  check_bool "gpu policy bigger parallel target" true
    ((Task.policy gpu_t).parallel_target > (Task.policy cpu_t).parallel_target)

let test_shared_state () =
  let shared = Tuner.Shared.create () in
  check_bool "untrained" false
    (Ansor.Cost_model.is_trained (Tuner.Shared.model shared));
  check_int "no records" 0 (Tuner.Shared.num_records shared)

let test_tune_measures_and_improves () =
  let r = Ansor.tune ~seed:1 ~trials:96 Machine.intel_cpu (small_dag ()) in
  check_bool "used the budget" true (r.Ansor.trials_used >= 96);
  check_bool "found a program" true (r.Ansor.best_state <> None);
  check_bool "finite latency" true (Float.is_finite r.Ansor.best_latency);
  let curve = r.Ansor.curve in
  check_bool "curve recorded" true (List.length curve >= 2);
  (* best-so-far is non-increasing *)
  let rec monotone = function
    | (_, a) :: ((_, b) :: _ as rest) -> a >= b && monotone rest
    | _ -> true
  in
  check_bool "curve monotone" true (monotone curve);
  (* trials in the curve are increasing *)
  let rec increasing = function
    | (a, _) :: ((b, _) :: _ as rest) -> a < b && increasing rest
    | _ -> true
  in
  check_bool "trials increase" true (increasing curve);
  (* and it actually improved over the first batch *)
  let first = snd (List.hd curve) and last = r.Ansor.best_latency in
  check_bool "improved or equal" true (last <= first)

let test_best_state_is_correct () =
  match
    (Ansor.tune ~seed:2 ~trials:48 Machine.intel_cpu
       (Nn.matmul_relu ~m:16 ~n:16 ~k:16 ()))
      .best_state
  with
  | None -> Alcotest.fail "no best state"
  | Some st -> assert_state_correct st

let test_all_strategies_run () =
  List.iter
    (fun (name, options) ->
      let r = Ansor.tune ~seed:3 ~options ~trials:40 Machine.intel_cpu (small_dag ()) in
      check_bool (name ^ " found a program") true
        (Float.is_finite r.Ansor.best_latency))
    [
      ("ansor", Tuner.ansor_options);
      ("no-finetune", Tuner.no_finetune_options);
      ("limited", Tuner.limited_options);
      ("beam", Tuner.beam_options);
      ("autotvm", Tuner.autotvm_options);
      ("flextensor", Tuner.flextensor_options);
    ]

let test_no_duplicate_measurements () =
  let task = small_task () in
  let shared = Tuner.Shared.create () in
  let service = Service.create ~seed:9 Machine.intel_cpu in
  let tuner = Tuner.create ~seed:4 Tuner.ansor_options task in
  Tuner.round tuner shared service;
  Tuner.round tuner shared service;
  (* every Ok result becomes a record: backend measurements plus dedup
     cache hits, nothing measured twice *)
  let stats = Service.stats service in
  check_int "records = measured + cache hits"
    (stats.Ansor.Telemetry.measured + stats.Ansor.Telemetry.cache_hits)
    (Tuner.Shared.num_records shared);
  check_int "trials = measured (no retries without faults)"
    stats.Ansor.Telemetry.measured (Service.trials service)

let test_shared_model_trains_after_round () =
  let task = small_task () in
  let shared = Tuner.Shared.create () in
  let service = Service.create ~seed:10 Machine.intel_cpu in
  let tuner = Tuner.create ~seed:5 Tuner.ansor_options task in
  Tuner.round tuner shared service;
  check_bool "model trained after first batch" true
    (Ansor.Cost_model.is_trained (Tuner.Shared.model shared))

let test_gpu_task_runs () =
  let r =
    Ansor.tune ~seed:6 ~trials:40 Machine.gpu (Nn.matmul ~m:256 ~n:256 ~k:64 ())
  in
  check_bool "gpu tuning works" true (Float.is_finite r.Ansor.best_latency)

let () =
  Alcotest.run "search" ~and_exit:false
    [
      ( "task",
        [
          case "key and flops" test_task_basics;
          case "policy follows machine" test_task_policy_follows_machine;
        ] );
      ( "tuner",
        [
          case "shared state" test_shared_state;
          case "tuning measures and improves" test_tune_measures_and_improves;
          case "best state verified" test_best_state_is_correct;
          case "all strategies run" test_all_strategies_run;
          case "no duplicate measurements" test_no_duplicate_measurements;
          case "shared model trains" test_shared_model_trains_after_round;
          case "gpu machine" test_gpu_task_runs;
        ] );
    ]

(* ---------- warm start (appended suite) ---------- *)

let test_warm_start_recovers_past_result () =
  let task = small_task () in
  (* first session: tune and keep the best history *)
  let first = Ansor.tune ~seed:21 ~trials:96 Machine.intel_cpu (small_dag ()) in
  let best1 = first.Ansor.best_latency in
  let steps = (Option.get first.Ansor.best_state).Ansor.State.history in
  (* second session: warm-started, tiny budget *)
  let shared = Tuner.Shared.create () in
  let service = Service.create ~seed:77 Machine.intel_cpu in
  let tuner2 =
    Tuner.create ~seed:22 ~warm_start:[ steps ] Tuner.ansor_options task
  in
  Tuner.round tuner2 shared service;
  let warm = Tuner.best_latency tuner2 in
  (* a cold tuner with the same tiny budget *)
  let service3 = Service.create ~seed:78 Machine.intel_cpu in
  let tuner3 = Tuner.create ~seed:22 Tuner.ansor_options task in
  Tuner.round tuner3 shared service3;
  let cold = Tuner.best_latency tuner3 in
  Helpers.check_bool
    (Printf.sprintf "warm (%.4g) close to recorded best (%.4g), cold %.4g"
       warm best1 cold)
    true
    (warm <= best1 *. 1.15);
  Helpers.check_bool "warm start no worse than cold" true (warm <= cold *. 1.05)

let test_warm_start_ignores_garbage () =
  let task = small_task () in
  let bad_history = [ Ansor.Step.Compute_inline { stage = "missing" } ] in
  let tuner = Tuner.create ~seed:23 ~warm_start:[ bad_history ] Tuner.ansor_options task in
  let shared = Tuner.Shared.create () in
  let service = Service.create ~seed:79 Machine.intel_cpu in
  Tuner.round tuner shared service;
  Helpers.check_bool "still tunes" true (Float.is_finite (Tuner.best_latency tuner))

let () =
  Alcotest.run "search_warmstart"
    [
      ( "warm start",
        [
          Helpers.case "recovers recorded result" test_warm_start_recovers_past_result;
          Helpers.case "ignores unreplayable histories" test_warm_start_ignores_garbage;
        ] );
    ]
