(* Design-choice ablations beyond the paper's figures (DESIGN.md E-extras):

   1. task-scheduler gradient parameters: alpha (backward-difference
      trust), beta (similarity trust) and the epsilon-greedy rate;
   2. the cost model: GBDT vs always-zero scores (pure random selection)
      vs measuring candidates picked by the true simulator (oracle);
   3. evolutionary operators: each operator disabled in turn. *)

open Common

let machine = Ansor.Machine.intel_cpu

(* ---- 1. scheduler parameters ------------------------------------------- *)

let scheduler_sweep () =
  subheader "Task-scheduler gradient parameters (MobileNet-V2)";
  let net = Ansor.Workloads.mobilenet_v2 ~batch:1 in
  let pairs = Ansor.Workloads.net_tasks ~machine net in
  let tasks = Array.of_list (List.map fst pairs) in
  let networks =
    [
      {
        Ansor.Scheduler.net_name = net.net_name;
        task_weights = List.mapi (fun i (_, w) -> (i, w)) pairs;
      };
    ]
  in
  let budget = scaled 48 * Array.length tasks in
  let run name options =
    let sched = Ansor.Scheduler.create options ~tasks ~networks in
    let (), elapsed =
      time_of (fun () -> Ansor.Scheduler.run sched ~trial_budget:budget)
    in
    Printf.printf "  %-34s end-to-end %8.3f ms  (%.0fs)\n%!" name
      (Ansor.Scheduler.network_latency sched (List.hd networks) *. 1e3)
      elapsed
  in
  let base = { Ansor.Scheduler.default_options with seed } in
  run "alpha=0.2 beta=2 eps=0.05 (paper)" base;
  run "alpha=0.0 (forward guess only)" { base with alpha = 0.0 };
  run "alpha=1.0 (backward diff only)" { base with alpha = 1.0 };
  run "beta=0 (no similarity bound)" { base with beta = 0.0 };
  run "eps=1.0 (round-robin, no gradient)" { base with eps_greedy = 1.0 };
  run "eps=0.0 (pure greedy)" { base with eps_greedy = 0.0 }

(* ---- 2. cost-model ablation --------------------------------------------- *)

let cost_model_ablation () =
  subheader "Cost-model ablation (conv2d)";
  let dag =
    Ansor.Nn.conv2d ~n:1 ~c:128 ~h:28 ~w:28 ~f:128 ~kh:3 ~kw:3 ~stride:1 ~pad:1 ()
  in
  let task = Ansor.Task.create ~name:"c2d" ~machine dag in
  let trials = scaled 256 in
  List.iter
    (fun (label, options) ->
      let tuner, service = Ansor.Tuner.tune ~seed options ~trials task in
      let stats = Ansor.Measure_service.stats service in
      Printf.printf "  %-38s %8.4f ms\n    %s\n%!" label
        (Ansor.Tuner.best_latency tuner *. 1e3)
        (Ansor.Telemetry.summary stats))
    [
      ("model-guided fine-tuning (Ansor)", Ansor.Tuner.ansor_options);
      ( "model-guided + descent finisher",
        {
          Ansor.Tuner.ansor_options with
          Ansor.Tuner.descent = Some Ansor.Descent.default_config;
        } );
      ("no model, random sampling only", Ansor.Tuner.no_finetune_options);
    ];
  (* ranking quality of the learned model itself, on held-out programs *)
  let policy = Ansor.Policy.cpu ~workers:machine.num_workers in
  let sketches = Ansor.Sketch_gen.generate dag in
  let rng = Ansor.Rng.create seed in
  let sample n = Ansor.Sampler.sample rng policy dag ~sketches ~n in
  let with_latency states =
    List.map
      (fun st ->
        let p = Ansor.Lower.lower st in
        (p, Ansor.Simulator.estimate machine p))
      states
  in
  let train = with_latency (sample (scaled 200)) in
  let test = with_latency (sample (scaled 100)) in
  let model =
    Ansor.Cost_model.train
      (List.map
         (fun (p, l) -> Ansor.Cost_model.record_of_prog ~task_key:"t" ~latency:l p)
         train)
  in
  let predicted = List.map (fun (p, _) -> Ansor.Cost_model.score_prog model p) test in
  let actual = List.map (fun (_, l) -> 1.0 /. l) test in
  Printf.printf
    "  held-out ranking: pairwise accuracy %.3f, top-10%% recall %.3f\n%!"
    (Ansor.Cost_model.Metrics.pairwise_accuracy ~predicted ~actual)
    (Ansor.Cost_model.Metrics.recall_at_k
       ~k:(max 1 (List.length test / 10))
       ~predicted ~actual)

(* ---- 3. evolution operators ---------------------------------------------- *)

let evolution_operator_ablation () =
  subheader "Evolutionary operators (matmul 512^3, model-guided, 1 round)";
  let dag = Ansor.Nn.matmul ~m:512 ~n:512 ~k:512 () in
  let rng = Ansor.Rng.create seed in
  let policy = Ansor.Policy.cpu ~workers:machine.num_workers in
  let sketches = Ansor.Sketch_gen.generate dag in
  let init = Ansor.Sampler.sample rng policy dag ~sketches ~n:(scaled 64) in
  let latency st = Ansor.Simulator.estimate machine (Ansor.Lower.lower st) in
  let records =
    List.map
      (fun st ->
        Ansor.Cost_model.record_of_prog ~task_key:"t" ~latency:(latency st)
          (Ansor.Lower.lower st))
      init
  in
  let model = Ansor.Cost_model.train records in
  let base_cfg =
    { Ansor.Evolution.default_config with population = scaled 96; generations = 4 }
  in
  let best_of cfg label =
    let rng = Ansor.Rng.create (seed + 5) in
    let out = Ansor.Evolution.evolve rng cfg policy dag ~model ~init ~out:16 in
    let best =
      List.fold_left
        (fun acc (s : Ansor.Evolution.scored) -> Float.min acc (latency s.state))
        infinity out
    in
    Printf.printf "  %-34s %8.4f ms\n%!" label (best *. 1e3)
  in
  Printf.printf "  %-34s %8.4f ms\n%!" "best random sample (no evolution)"
    (List.fold_left (fun acc st -> Float.min acc (latency st)) infinity init *. 1e3);
  best_of base_cfg "all operators";
  best_of { base_cfg with crossover_prob = 0.0 } "no crossover";
  best_of { base_cfg with crossover_prob = 0.9 } "mostly crossover";
  best_of { base_cfg with mutate_annotations = false } "tile-size mutation only"

let run () =
  header "Ablations of design choices (beyond the paper's figures)";
  scheduler_sweep ();
  cost_model_ablation ();
  evolution_operator_ablation ()
