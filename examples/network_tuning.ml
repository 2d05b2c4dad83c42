(* End-to-end network tuning with the task scheduler (§6): optimize
   MobileNet-V2's unique subgraphs under one measurement budget, letting
   the gradient-based scheduler decide which layers deserve trials.

     dune exec examples/network_tuning.exe
*)

let () =
  let machine = Ansor.Machine.intel_cpu in
  let net = Ansor.Workloads.mobilenet_v2 ~batch:1 in
  Printf.printf "%s: %d unique subgraphs\n\n" net.net_name
    (List.length net.layers);

  let results, _stats =
    Ansor.tune_networks ~seed:11 ~trial_budget:600 machine [ net ]
  in
  List.iter
    (fun (r : Ansor.network_result) ->
      Printf.printf "network %-14s  end-to-end %8.3f ms\n\n"
        r.net.net_name (r.latency *. 1e3);
      Printf.printf "  %-28s %12s\n" "subgraph" "latency (ms)";
      List.iter
        (fun (name, lat) -> Printf.printf "  %-28s %12.4f\n" name (lat *. 1e3))
        r.per_task)
    results
