(* Vendor-library stand-ins and baseline wiring. *)

open Helpers
module B = Ansor.Baselines
module Task = Ansor.Task
module Machine = Ansor.Machine
module Nn = Ansor.Nn

let task dag = Task.create ~name:"t" ~machine:Machine.intel_cpu dag

let test_vendor_names () =
  Alcotest.(check (list string)) "names"
    [ "PyTorch"; "TensorFlow"; "TensorRT"; "TF-Lite" ]
    (List.map B.vendor_name [ B.Pytorch; B.Tensorflow; B.Tensorrt; B.Tflite ])

let test_vendor_deterministic () =
  let t = task (Nn.matmul ~m:64 ~n:64 ~k:64 ()) in
  let l1 = B.vendor_latency B.Pytorch t in
  let l2 = B.vendor_latency B.Pytorch t in
  check_float "same schedule every time" l1 l2;
  check_bool "finite" true (Float.is_finite l1 && l1 > 0.0)

let test_vendor_schedule_correct () =
  let dag = Nn.matmul_relu ~m:16 ~n:16 ~k:16 () in
  match B.vendor_state B.Pytorch (task dag) with
  | None -> Alcotest.fail "vendor produced no schedule"
  | Some st -> assert_state_correct st

let test_vendor_effort_ordering () =
  (* TensorRT invests the most offline candidates, TensorFlow the least on
     the GPU; with a shared candidate stream more candidates can only
     improve the chosen schedule *)
  let t =
    Task.create ~name:"t" ~machine:Machine.gpu (Nn.matmul ~m:256 ~n:256 ~k:256 ())
  in
  let trt = B.vendor_latency B.Tensorrt t in
  let tf = B.vendor_latency B.Tensorflow t in
  check_bool
    (Printf.sprintf "TensorRT (%.4gms) <= TensorFlow (%.4gms) * 1.05"
       (trt *. 1e3) (tf *. 1e3))
    true
    (trt <= tf *. 1.05)

let test_exotic_ops_get_less_effort () =
  (* the same vendor is relatively much further from Ansor on a transposed
     convolution than on a plain matmul *)
  let std = task (Nn.matmul ~m:128 ~n:128 ~k:128 ()) in
  let exotic =
    task
      (Nn.conv2d_transposed ~n:1 ~c:64 ~h:16 ~w:16 ~f:32 ~kh:4 ~kw:4 ~stride:2
         ~pad:1 ())
  in
  let ratio t =
    let vendor = B.vendor_latency B.Pytorch t in
    let r =
      Ansor.tune ~seed:3 ~options:B.ansor ~trials:150 t.Task.machine t.Task.dag
    in
    vendor /. r.Ansor.best_latency
  in
  let r_std = ratio std and r_exotic = ratio exotic in
  check_bool
    (Printf.sprintf "vendor gap bigger on exotic op (%.2fx vs %.2fx)" r_exotic
       r_std)
    true (r_exotic > r_std)

let test_network_latency_weighted () =
  let t1 = task (Nn.matmul ~m:32 ~n:32 ~k:32 ()) in
  let l1 = B.vendor_latency B.Tensorflow t1 in
  let total = B.vendor_network_latency B.Tensorflow [ (t1, 3) ] in
  check_floatish "weight applied" (3.0 *. l1) total

let test_option_aliases () =
  check_bool "ansor alias" true (B.ansor == Ansor.Tuner.ansor_options);
  check_bool "autotvm alias" true (B.autotvm == Ansor.Tuner.autotvm_options);
  check_bool "flextensor alias" true
    (B.flextensor == Ansor.Tuner.flextensor_options);
  check_bool "halide alias" true (B.halide_beam == Ansor.Tuner.beam_options)

let () =
  Alcotest.run "baselines"
    [
      ( "vendor",
        [
          case "names" test_vendor_names;
          case "deterministic" test_vendor_deterministic;
          case "schedule correct" test_vendor_schedule_correct;
          case "effort ordering" test_vendor_effort_ordering;
          case "exotic ops penalized" test_exotic_ops_get_less_effort;
          case "network latency" test_network_latency_weighted;
        ] );
      ("wiring", [ case "option aliases" test_option_aliases ]);
    ]
