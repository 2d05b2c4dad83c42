(* ansor-cli: tune operators, subgraphs and networks from the command
   line on the simulated machines — and serve the tuned results.

     ansor-cli machines
     ansor-cli sketches -o GMM
     ansor-cli tune -o C2D -i 1 -b 1 -m intel-cpu -t 300 -s ansor
     ansor-cli network -n mobilenet_v2 -m intel-cpu --budget 500
     ansor-cli registry build -o sched.reg --from tune.log
     ansor-cli serve -n mobilenet_v2 --registry sched.reg --requests 200
*)

open Cmdliner

let machine_arg =
  let doc = "Target machine model (intel-cpu, arm-cpu, gpu)." in
  Arg.(value & opt string "intel-cpu" & info [ "m"; "machine" ] ~doc)

let lookup_machine name =
  match Ansor.Machine.by_name name with
  | m -> Ok m
  | exception Not_found ->
    Error
      (Printf.sprintf "unknown machine %s (expected: %s)" name
         (String.concat ", "
            (List.map
               (fun (m : Ansor.Machine.t) -> m.name)
               Ansor.Machine.all)))

let op_arg =
  let doc = "Operator family (C1D C2D C3D GMM GRP DIL DEP T2D CAP NRM), or \
             ConvLayer / TBG for the subgraph benchmarks." in
  Arg.(value & opt string "GMM" & info [ "o"; "op" ] ~doc)

let index_arg =
  let doc = "Shape configuration index (1-4)." in
  Arg.(value & opt int 1 & info [ "i"; "index" ] ~doc)

let batch_arg =
  let doc = "Batch size." in
  Arg.(value & opt int 1 & info [ "b"; "batch" ] ~doc)

let trials_arg =
  let doc = "Measurement-trial budget." in
  Arg.(value & opt int 200 & info [ "t"; "trials" ] ~doc)

let seed_arg =
  let doc = "Random seed." in
  Arg.(value & opt int 0 & info [ "seed" ] ~doc)

let strategy_arg =
  let doc =
    "Search strategy: ansor, autotvm, flextensor, beam, limited, \
     no-finetune."
  in
  Arg.(value & opt string "ansor" & info [ "s"; "strategy" ] ~doc)

let workers_arg =
  let doc = "Measurement worker domains (parallel program measurement)." in
  Arg.(value & opt int 1 & info [ "w"; "workers" ] ~doc)

let measure_timeout_arg =
  let doc =
    "Per-program measurement timeout in seconds; programs over the ceiling \
     are classified as timeouts instead of measured."
  in
  Arg.(value & opt (some float) None & info [ "measure-timeout" ] ~doc)

let stats_json_arg =
  let doc = "Dump measurement telemetry as JSON to this file ('-' for stdout)." in
  Arg.(value & opt (some string) None & info [ "stats-json" ] ~doc)

let batch_deadline_arg =
  let doc =
    "Wall-clock budget in seconds for one measurement batch; once it \
     expires, not-yet-started candidates are classified as timeouts \
     instead of run, so a stuck candidate cannot hang a worker forever."
  in
  Arg.(value & opt (some float) None & info [ "batch-deadline" ] ~doc)

let snapshot_arg =
  let doc =
    "Checkpoint the full session to this file after every tuning round \
     (atomic write; the previous round survives as FILE.prev). Combine \
     with --resume to continue an interrupted run."
  in
  Arg.(value & opt (some string) None & info [ "snapshot" ] ~doc)

let resume_arg =
  let doc =
    "Resume from the latest valid snapshot generation at the --snapshot \
     path (falls back to FILE.prev on corruption; starts fresh, with a \
     warning, when no usable snapshot exists)."
  in
  Arg.(value & flag & info [ "resume" ] ~doc)

let stop_after_rounds_arg =
  let doc =
    "Stop gracefully after N tuning rounds, flushing all session state \
     (deterministic interruption, for resume testing)."
  in
  Arg.(value & opt (some int) None & info [ "stop-after-rounds" ] ~doc)

let backend_arg =
  let doc =
    "Measurement backend: sim (the analytical machine simulator) or \
     native (candidates compiled with gcc -O3 -fopenmp -march=native and \
     timed on this host)."
  in
  Arg.(value & opt string "sim" & info [ "backend" ] ~doc)

let lookup_backend name =
  match Ansor.Measure_protocol.backend_of_string name with
  | Error _ as e -> e
  | Ok Ansor.Measure_protocol.Native
    when not (Ansor.Measure_native.available ()) ->
    Error
      "backend native: no working C compiler (install gcc or point \
       ANSOR_CC at one)"
  | Ok b -> Ok b

let service_config ?(backend = Ansor.Measure_protocol.Sim) workers
    measure_timeout batch_deadline =
  {
    Ansor.Measure_service.default_config with
    num_workers = workers;
    timeout = Option.value measure_timeout ~default:infinity;
    batch_deadline = Option.value batch_deadline ~default:infinity;
    backend;
    (* ANSOR_BOUNDS_CHECK=1 emits guarded kernels (clean abort on any
       out-of-range access), which makes measuring certifier-Unknown
       programs acceptable; without it the native gate refuses them. *)
    allow_unproven = Ansor.Measure_native.guard_requested ();
  }

(* Graceful interruption: SIGINT/SIGTERM set a flag the tuning loop polls
   between rounds, [--stop-after-rounds] trips the same path
   deterministically.  Returns the hooks to pass to the tuning entry
   points and a finisher that reports how the session ended. *)
let session_control stop_after_rounds =
  Ansor.Checkpoint.Shutdown.install ();
  let rounds = ref 0 in
  let should_stop () =
    Ansor.Checkpoint.Shutdown.requested ()
    || match stop_after_rounds with Some n -> !rounds >= n | None -> false
  in
  let on_round () = incr rounds in
  let summarize () =
    match Ansor.Checkpoint.Shutdown.reason () with
    | Some signal ->
      Printf.printf
        "interrupted by %s after %d rounds: session state flushed; rerun \
         with --resume to continue\n"
        signal !rounds
    | None -> (
      match stop_after_rounds with
      | Some n when !rounds >= n ->
        Printf.printf
          "stopped after %d rounds (--stop-after-rounds): rerun with \
           --resume to continue\n"
          !rounds
      | _ -> ())
  in
  (should_stop, on_round, summarize)

let check_resume_flags resume snapshot =
  if resume && snapshot = None then
    Error "--resume requires --snapshot PATH"
  else Ok ()

let emit_json ~what stats_json json =
  match stats_json with
  | None -> ()
  | Some "-" -> print_endline json
  | Some path -> (
    match open_out path with
    | exception Sys_error e ->
      Printf.eprintf "warning: cannot write %s: %s\n" what e
    | oc ->
      Fun.protect
        ~finally:(fun () -> close_out oc)
        (fun () -> output_string oc json);
      Printf.printf "%s written to %s\n" what path)

let emit_stats stats_json (stats : Ansor.Telemetry.stats) =
  Printf.printf "telemetry: %s\n" (Ansor.Telemetry.summary stats);
  emit_json ~what:"telemetry" stats_json (Ansor.Telemetry.to_json stats)

(* Resuming an interrupted session re-logs its best on the first improved
   round, and long sessions accumulate an improvement trail: compact the
   log (best per key) when picking a session back up so it stops growing
   unboundedly. *)
let compact_record_log ~resume save =
  match save with
  | Some path when resume && Sys.file_exists path -> (
    match Ansor.Record.compact ~path with
    | Ok 0 -> ()
    | Ok removed ->
      Printf.printf "record log %s compacted: %d stale entr%s removed\n" path
        removed
        (if removed = 1 then "y" else "ies")
    | Error msg ->
      Printf.eprintf "warning: cannot compact record log %s: %s\n" path msg)
  | _ -> ()

let warn_skipped ~what skipped =
  if skipped > 0 then
    Printf.eprintf "warning: %s: skipped %d malformed line%s\n" what skipped
      (if skipped = 1 then "" else "s")

let cache_path save = save ^ ".cache"

let load_cache save =
  match save with
  | Some path when Sys.file_exists (cache_path path) -> (
    (* salvage mode: a torn final line (e.g. from a killed writer) costs
       that line, not the whole cache *)
    match Ansor.Measure_cache.load_salvage ~path:(cache_path path) with
    | Ok (cache, skipped) ->
      Printf.printf "measurement cache: %d entries from %s\n"
        (Ansor.Measure_cache.size cache)
        (cache_path path);
      warn_skipped ~what:("cache " ^ cache_path path) skipped;
      cache
    | Error msg ->
      Printf.eprintf "warning: ignoring cache %s: %s\n" (cache_path path) msg;
      Ansor.Measure_cache.create ())
  | _ -> Ansor.Measure_cache.create ()

let lookup_strategy = function
  | "ansor" -> Ok Ansor.Tuner.ansor_options
  | "autotvm" -> Ok Ansor.Tuner.autotvm_options
  | "flextensor" -> Ok Ansor.Tuner.flextensor_options
  | "beam" -> Ok Ansor.Tuner.beam_options
  | "limited" -> Ok Ansor.Tuner.limited_options
  | "no-finetune" -> Ok Ansor.Tuner.no_finetune_options
  | s -> Error (Printf.sprintf "unknown strategy %s" s)

let cases_of op batch =
  match op with
  | "ConvLayer" -> Ok (Ansor.Workloads.conv_layer_cases ~batch)
  | "TBG" -> Ok (Ansor.Workloads.tbg_cases ~batch)
  | op -> (
    match Ansor.Workloads.op_cases ~op ~batch with
    | cases -> Ok cases
    | exception Invalid_argument msg -> Error msg)

let case_of op index batch =
  Result.bind (cases_of op batch) (fun cases ->
      match if index < 1 then None else List.nth_opt cases (index - 1) with
      | Some c -> Ok c
      | None -> Error (Printf.sprintf "shape index %d out of range" index))

let or_die = function
  | Ok v -> v
  | Error msg ->
    prerr_endline ("error: " ^ msg);
    exit 1

(* ---- cross-task model store --------------------------------------------- *)

let model_store_arg =
  let doc =
    "Cross-task model store file: the session warm-starts from the \
     pretrained model the exact/class/global ladder resolves for its \
     task(s), folds the store's same-class samples into training, and \
     appends its own measured batches back (see 'ansor-cli model')."
  in
  Arg.(value & opt (some string) None & info [ "model-store" ] ~docv:"FILE" ~doc)

let open_model_store = function
  | None -> None
  | Some path ->
    let ms = or_die (Ansor.Model_store.open_session ~path ()) in
    warn_skipped ~what:("model store " ^ path) ms.Ansor.Model_store.salvaged;
    (match ms.Ansor.Model_store.models_error with
    | Some e ->
      Printf.eprintf
        "warning: %s unusable (%s); pretraining in-memory from the store\n"
        (Ansor.Model_store.models_path path)
        e
    | None -> ());
    Printf.printf "model store %s: %d sample%s, %d pretrained model%s\n" path
      (Ansor.Model_store.size ms.Ansor.Model_store.store)
      (if Ansor.Model_store.size ms.store = 1 then "" else "s")
      (Ansor.Model_store.Pretrained.num_models ms.pretrained)
      (if Ansor.Model_store.Pretrained.num_models ms.pretrained = 1 then ""
       else "s");
    Some ms

(* tune's --stats-json: the telemetry object with the session outcome
   (final best and the best-so-far curve) spliced in front, so one file
   carries everything trials-to-quality analyses need.  The telemetry
   fields keep their exact shape — existing consumers notice nothing. *)
let tune_stats_json (result : Ansor.tune_result) =
  let telemetry = Ansor.Telemetry.to_json result.stats in
  let rest = String.sub telemetry 1 (String.length telemetry - 1) in
  let curve =
    String.concat ", "
      (List.map
         (fun (t, l) -> Printf.sprintf "[%d, %.9e]" t l)
         result.curve)
  in
  Printf.sprintf "{\"best_latency\":%.9e,\"trials_used\":%d,\"curve\":[%s],%s"
    result.best_latency result.trials_used curve rest

(* ---- commands ----------------------------------------------------------- *)

let machines_cmd =
  let run () =
    List.iter
      (fun (m : Ansor.Machine.t) ->
        Printf.printf "%-10s %3d workers x %2d lanes  %4.1f GHz  peak %7.1f GFLOP/s\n"
          m.name m.num_workers m.vector_lanes m.freq_ghz
          (Ansor.Machine.peak_flops m /. 1e9))
      Ansor.Machine.all
  in
  Cmd.v (Cmd.info "machines" ~doc:"List the simulated machine models.")
    Term.(const run $ const ())

let sketches_cmd =
  let run op index batch =
    let case = or_die (case_of op index batch) in
    Printf.printf "computation %s:\n%s\n\n" case.Ansor.Workloads.case_name
      (Format.asprintf "%a" Ansor.Dag.pp case.dag);
    let sketches = Ansor.Sketch_gen.generate case.dag in
    Printf.printf "%d sketches\n" (List.length sketches);
    List.iteri
      (fun i sk ->
        Printf.printf "--- sketch %d ---\n" i;
        List.iter
          (fun s -> Printf.printf "  %s\n" (Format.asprintf "%a" Ansor.Step.pp s))
          (Ansor.Sketch_gen.sketch_steps sk))
      sketches
  in
  Cmd.v
    (Cmd.info "sketches" ~doc:"Show the generated sketches of a workload.")
    Term.(const run $ op_arg $ index_arg $ batch_arg)

let save_arg =
  let doc = "Append the best record to this tuning-log file." in
  Arg.(value & opt (some string) None & info [ "save" ] ~doc)

let descent_arg =
  let doc =
    "Finish with the coordinate-descent exploitation stage: once evolution \
     plateaus (or three quarters of the trial budget is spent), greedily \
     line-search the incumbent's split/unroll/annotation coordinates under \
     the cost model, measure only the per-coordinate winners, and stop on a \
     measured plateau."
  in
  Arg.(value & flag & info [ "descent" ] ~doc)

let descent_plateau_arg =
  let doc =
    "Descent stop patience: consecutive non-improving measured sweeps before \
     the stage ends (default 2; implies $(b,--descent))."
  in
  Arg.(value & opt (some int) None & info [ "descent-plateau" ] ~docv:"K" ~doc)

let descent_options descent descent_plateau options =
  match (descent, descent_plateau) with
  | false, None -> options
  | _ ->
    let cfg = Ansor.Descent.default_config in
    let cfg =
      match descent_plateau with
      | Some k -> { cfg with Ansor.Descent.plateau_sweeps = max 1 k }
      | None -> cfg
    in
    { options with Ansor.Tuner.descent = Some cfg }

let curve_arg =
  let doc = "Plot the best-latency-vs-trials curve." in
  Arg.(value & flag & info [ "curve" ] ~doc)

let tune_cmd =
  let run op index batch machine trials seed strategy save curve workers
      measure_timeout batch_deadline backend stats_json snapshot resume
      stop_after_rounds model_store descent descent_plateau =
    or_die (check_resume_flags resume snapshot);
    let case = or_die (case_of op index batch) in
    let machine = or_die (lookup_machine machine) in
    let options =
      descent_options descent descent_plateau (or_die (lookup_strategy strategy))
    in
    let backend = or_die (lookup_backend backend) in
    let cache = load_cache save in
    let model_store = open_model_store model_store in
    compact_record_log ~resume save;
    let should_stop, on_round, summarize = session_control stop_after_rounds in
    let result =
      Ansor.tune ~seed ~trials ~options
        ~service_config:
          (service_config ~backend workers measure_timeout batch_deadline)
        ~cache ?model_store ?snapshot_path:snapshot ~resume ?record_log:save
        ~should_stop ~on_round machine case.dag
    in
    summarize ();
    Printf.printf "%s on %s (%s, %d trials): best %.4f ms\n"
      case.case_name machine.name strategy result.trials_used
      (result.best_latency *. 1e3);
    Printf.printf "telemetry: %s\n" (Ansor.Telemetry.summary result.stats);
    emit_json ~what:"telemetry" stats_json (tune_stats_json result);
    if curve then print_string (Ansor.Ascii_plot.render_latency_curve result.curve);
    (match result.best_state with
    | Some st ->
      let prog = Ansor.Lower.lower st in
      Format.printf "roofline: %a@." Ansor.Roofline.pp
        (Ansor.Roofline.analyze machine prog)
    | None -> ());
    (match save with
    | Some path when result.best_state <> None ->
      (* the improvement trail was batch-appended after every round
         (Record.append_batch); just say where it went *)
      Printf.printf "record log updated: %s\n" path;
      (* persist the dedup cache alongside the record log: a re-tuning
         session reuses past measurements instead of repeating them *)
      Ansor.Measure_cache.save ~path:(cache_path path) cache;
      Printf.printf "measurement cache (%d entries) written to %s\n"
        (Ansor.Measure_cache.size cache)
        (cache_path path)
    | _ -> ());
    match result.best_state with
    | Some st ->
      print_newline ();
      print_endline (Ansor.Prog.to_string (Ansor.Lower.lower st))
    | None -> print_endline "no valid program found"
  in
  Cmd.v (Cmd.info "tune" ~doc:"Auto-schedule one workload.")
    Term.(
      const run $ op_arg $ index_arg $ batch_arg $ machine_arg $ trials_arg
      $ seed_arg $ strategy_arg $ save_arg $ curve_arg $ workers_arg
      $ measure_timeout_arg $ batch_deadline_arg $ backend_arg
      $ stats_json_arg $ snapshot_arg $ resume_arg $ stop_after_rounds_arg
      $ model_store_arg $ descent_arg $ descent_plateau_arg)

let replay_cmd =
  let from_arg =
    let doc = "Tuning-log file written by tune --save." in
    Arg.(required & opt (some string) None & info [ "from" ] ~doc)
  in
  let run op index batch machine path =
    let case = or_die (case_of op index batch) in
    let machine = or_die (lookup_machine machine) in
    let task = Ansor.Task.create ~name:case.case_name ~machine case.dag in
    let entries =
      (* salvage mode: recover every intact record from a torn log *)
      match Ansor.Record.load_salvage ~path with
      | Ok (e, skipped) ->
        warn_skipped ~what:path skipped;
        e
      | Error m -> or_die (Error m)
    in
    match Ansor.Record.best_for entries ~task_key:(Ansor.Task.key task) with
    | None ->
      Printf.printf "no record for this task in %s\n" path;
      exit 1
    | Some entry -> (
      match Ansor.Record.best_state entry case.dag with
      | Error m -> or_die (Error m)
      | Ok st ->
        let lat = Ansor.Simulator.estimate machine (Ansor.Lower.lower st) in
        Printf.printf
          "replayed record (recorded %.4f ms, simulated now %.4f ms)\n"
          (entry.latency *. 1e3) (lat *. 1e3);
        print_endline (Ansor.Prog.to_string (Ansor.Lower.lower st)))
  in
  Cmd.v
    (Cmd.info "replay"
       ~doc:"Apply the best recorded schedule without searching.")
    Term.(const run $ op_arg $ index_arg $ batch_arg $ machine_arg $ from_arg)

let net_of_name name batch =
  match name with
  | "resnet50" -> Ok (Ansor.Workloads.resnet50 ~batch)
  | "mobilenet_v2" -> Ok (Ansor.Workloads.mobilenet_v2 ~batch)
  | "resnet3d_18" -> Ok (Ansor.Workloads.resnet3d_18 ~batch)
  | "dcgan" -> Ok (Ansor.Workloads.dcgan ~batch)
  | "bert" -> Ok (Ansor.Workloads.bert ~batch)
  | n -> Error (Printf.sprintf "unknown network %s" n)

let net_name_arg =
  let doc = "Network: resnet50, mobilenet_v2, resnet3d_18, dcgan, bert." in
  Arg.(value & opt string "mobilenet_v2" & info [ "n"; "network" ] ~doc)

let network_cmd =
  let budget_arg =
    let doc = "Total measurement-trial budget." in
    Arg.(value & opt int 500 & info [ "budget" ] ~doc)
  in
  let run name batch machine budget seed save workers measure_timeout
      batch_deadline backend stats_json snapshot resume stop_after_rounds
      model_store =
    or_die (check_resume_flags resume snapshot);
    let net = or_die (net_of_name name batch) in
    let machine = or_die (lookup_machine machine) in
    let backend = or_die (lookup_backend backend) in
    let model_store = open_model_store model_store in
    compact_record_log ~resume save;
    let should_stop, on_round, summarize = session_control stop_after_rounds in
    let results, stats =
      Ansor.tune_networks_with_stats ~seed ~trial_budget:budget
        ~service_config:
          (service_config ~backend workers measure_timeout batch_deadline)
        ?model_store ?snapshot_path:snapshot ~resume ?record_log:save
        ~should_stop ~on_round machine [ net ]
    in
    summarize ();
    List.iter
      (fun (r : Ansor.network_result) ->
        Printf.printf "%s end-to-end: %.3f ms\n" r.net.net_name
          (r.latency *. 1e3);
        List.iter
          (fun (n, l) -> Printf.printf "  %-28s %10.4f ms\n" n (l *. 1e3))
          r.per_task)
      results;
    (match save with
    | Some path -> Printf.printf "record log updated: %s\n" path
    | None -> ());
    emit_stats stats_json stats
  in
  Cmd.v
    (Cmd.info "network"
       ~doc:"Tune a whole network with the task scheduler.")
    Term.(
      const run $ net_name_arg $ batch_arg $ machine_arg $ budget_arg
      $ seed_arg $ save_arg $ workers_arg $ measure_timeout_arg
      $ batch_deadline_arg $ backend_arg $ stats_json_arg $ snapshot_arg
      $ resume_arg $ stop_after_rounds_arg $ model_store_arg)

(* ---- registry ----------------------------------------------------------- *)

let registry_out_arg =
  let doc = "Output registry file." in
  Arg.(required & opt (some string) None & info [ "o"; "out" ] ~doc)

let registry_build_cmd =
  let from_arg =
    let doc = "Tuning log written by tune/network --save (repeatable)." in
    Arg.(non_empty & opt_all string [] & info [ "from" ] ~doc)
  in
  let run out paths =
    let reg, skipped = or_die (Ansor.Registry.build_from_logs ~paths) in
    warn_skipped ~what:(String.concat ", " paths) skipped;
    Ansor.Registry.save ~path:out reg;
    Printf.printf "registry %s: %d task%s from %d log%s\n" out
      (Ansor.Registry.size reg)
      (if Ansor.Registry.size reg = 1 then "" else "s")
      (List.length paths)
      (if List.length paths = 1 then "" else "s")
  in
  Cmd.v
    (Cmd.info "build"
       ~doc:"Build a best-schedule registry from tuning logs.")
    Term.(const run $ registry_out_arg $ from_arg)

let registry_merge_cmd =
  let paths_arg =
    let doc = "Registry files to merge." in
    Arg.(non_empty & pos_all string [] & info [] ~docv:"REGISTRY" ~doc)
  in
  let run out paths =
    let dst = Ansor.Registry.create () in
    List.iter
      (fun path ->
        let reg = or_die (Ansor.Registry.load ~path) in
        let changed = Ansor.Registry.merge_into ~dst reg in
        Printf.printf "%s: %d entries, %d kept as best\n" path
          (Ansor.Registry.size reg) changed)
      paths;
    Ansor.Registry.save ~path:out dst;
    Printf.printf "merged registry %s: %d task%s\n" out
      (Ansor.Registry.size dst)
      (if Ansor.Registry.size dst = 1 then "" else "s")
  in
  Cmd.v
    (Cmd.info "merge"
       ~doc:"Merge registries, keeping the per-task best schedule.")
    Term.(const run $ registry_out_arg $ paths_arg)

let registry_path_arg =
  let doc = "Registry file." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"REGISTRY" ~doc)

let registry_compact_cmd =
  let run path =
    let dropped = or_die (Ansor.Registry.compact_file ~path) in
    Printf.printf "%s compacted: %d line%s dropped\n" path dropped
      (if dropped = 1 then "" else "s")
  in
  Cmd.v
    (Cmd.info "compact"
       ~doc:"Rewrite a registry in canonical form (best per task, sorted).")
    Term.(const run $ registry_path_arg)

let registry_show_cmd =
  let run path =
    let reg = or_die (Ansor.Registry.load ~path) in
    Printf.printf "%s: %d task%s\n" path (Ansor.Registry.size reg)
      (if Ansor.Registry.size reg = 1 then "" else "s");
    List.iter
      (fun (e : Ansor.Record.entry) ->
        Printf.printf "  %-60s %10.4f ms  %2d steps\n" e.task_key
          (e.latency *. 1e3)
          (List.length e.steps))
      (Ansor.Registry.entries reg)
  in
  Cmd.v (Cmd.info "show" ~doc:"List the entries of a registry.")
    Term.(const run $ registry_path_arg)

let registry_cmd =
  Cmd.group
    (Cmd.info "registry"
       ~doc:"Maintain the persistent best-schedule database.")
    [ registry_build_cmd; registry_merge_cmd; registry_compact_cmd;
      registry_show_cmd ]

(* ---- serve -------------------------------------------------------------- *)

let serve_cmd =
  let registry_arg =
    let doc = "Schedule registry built by 'registry build'." in
    Arg.(value & opt (some string) None & info [ "registry" ] ~doc)
  in
  let requests_arg =
    let doc = "End-to-end inference requests to dispatch." in
    Arg.(value & opt int 100 & info [ "requests" ] ~doc)
  in
  let capacity_arg =
    let doc = "Compiled-program LRU capacity per shard." in
    Arg.(value & opt int 64 & info [ "capacity" ] ~doc)
  in
  let naive_arg =
    let doc = "Bypass the registry and serve naive default schedules." in
    Arg.(value & flag & info [ "naive" ] ~doc)
  in
  let noise_arg =
    let doc = "Execution-jitter stddev (0 = deterministic latencies)." in
    Arg.(value & opt float 0.03 & info [ "noise" ] ~doc)
  in
  let net_arg =
    let doc =
      "Network to serve (resnet50, mobilenet_v2, resnet3d_18, dcgan, bert). \
       Omit to serve the single workload named by -o/-i/-b."
    in
    Arg.(value & opt (some string) None & info [ "n"; "network" ] ~doc)
  in
  let arrival_rate_arg =
    let doc =
      "Open-loop arrival rate (requests per virtual second).  0 serves \
       closed-loop: each completion issues the next request, so requests \
       never queue.  A positive rate offers a Poisson trace through \
       admission control, where overload sheds."
    in
    Arg.(value & opt float 0.0 & info [ "arrival-rate" ] ~doc)
  in
  let burst_arg =
    let doc =
      "Burst episode START:LEN:FACTOR (virtual seconds; repeatable; \
       overlapping episodes compose multiplicatively)."
    in
    Arg.(value & opt_all string [] & info [ "burst" ] ~docv:"SPEC" ~doc)
  in
  let queue_bound_arg =
    let doc = "Admission queue bound (waiting requests)." in
    Arg.(value & opt int 64 & info [ "queue-bound" ] ~doc)
  in
  let shed_policy_arg =
    let doc = "Overload shed policy: reject-newest or drop-oldest." in
    Arg.(value & opt string "reject-newest" & info [ "shed-policy" ] ~doc)
  in
  let discipline_arg =
    let doc = "Admission queue discipline: fifo or priority." in
    Arg.(value & opt string "fifo" & info [ "queue-discipline" ] ~doc)
  in
  let tenants_arg =
    let doc =
      "Tenant mix NAME:WEIGHT[:QUOTA_RATE[:QUOTA_BURST[:PRIORITY]]],... \
       (omitted quota fields mean unlimited)."
    in
    Arg.(value & opt string "" & info [ "tenants" ] ~docv:"SPEC" ~doc)
  in
  let shards_arg =
    let doc = "Compiled-program cache shards." in
    Arg.(value & opt int 4 & info [ "shards" ] ~doc)
  in
  let canary_arg =
    let doc =
      "Share of a key's traffic routed to a canary candidate, in (0,1)."
    in
    Arg.(value & opt float 0.2 & info [ "canary" ] ~doc)
  in
  let tune_every_arg =
    let doc =
      "Background-tuner round interval in virtual seconds (0 disables \
       background tuning)."
    in
    Arg.(value & opt float 0.0 & info [ "tune-every" ] ~doc)
  in
  let tune_trials_arg =
    let doc = "Measurement trials per background-tuner round." in
    Arg.(value & opt int 8 & info [ "tune-trials" ] ~doc)
  in
  let run net_name op index batch machine registry_path requests
      capacity workers naive noise seed stats_json resume
      arrival_rate bursts queue_bound shed_policy discipline tenants shards
      canary tune_every tune_trials model_store =
    (* --resume here means: the registry is still being written by a live
       tuning session, so salvage-load it instead of failing on a torn
       line.  Without a registry there is nothing to salvage. *)
    if resume && registry_path = None then
      or_die
        (Error
           "serve: --resume requires --registry PATH (resume salvage-loads \
            a registry still being written by a tuning session); without a \
            registry use --naive");
    let machine = or_die (lookup_machine machine) in
    let net =
      match net_name with
      | Some name -> or_die (net_of_name name batch)
      | None ->
        let case = or_die (case_of op index batch) in
        {
          Ansor.Workloads.net_name = case.case_name;
          layers = [ (case, 1) ];
        }
    in
    let registry =
      match registry_path with
      | None -> Ansor.Registry.create ()
      | Some path when resume ->
        let reg, skipped = or_die (Ansor.Registry.load_salvage ~path) in
        warn_skipped ~what:path skipped;
        reg
      | Some path -> or_die (Ansor.Registry.load ~path)
    in
    let bursts =
      List.map (fun s -> or_die (Ansor.Loadgen.burst_of_spec s)) bursts
    in
    let tenants = or_die (Ansor.Loadgen.tenants_of_spec tenants) in
    let shed_policy = or_die (Ansor.Admission.shed_policy_of_string shed_policy) in
    let discipline = or_die (Ansor.Admission.discipline_of_string discipline) in
    let config =
      {
        Ansor.Server.shards;
        capacity;
        service_workers = workers;
        pool_workers = 1;
        noise;
        seed;
        naive;
        load = { Ansor.Loadgen.arrival_rate; bursts; tenants; seed };
        admission = { Ansor.Admission.queue_bound; shed_policy; discipline };
        canary = { Ansor.Server.default_canary with fraction = canary };
        tuner =
          (if tune_every > 0.0 then
             Some { Ansor.Server.every = tune_every; trials = tune_trials }
           else None);
      }
    in
    let model_store = open_model_store model_store in
    let s = Ansor.Server.create ~config ?model_store ~registry ~machine net in
    Ansor.Server.run s ~requests;
    print_string (Ansor.Server.report s);
    emit_json ~what:"serving stats" stats_json
      (Ansor.Server.stats_json (Ansor.Server.stats s))
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Serve inference requests from a schedule registry.")
    Term.(
      const run $ net_arg $ op_arg $ index_arg $ batch_arg $ machine_arg
      $ registry_arg $ requests_arg $ capacity_arg
      $ workers_arg $ naive_arg $ noise_arg $ seed_arg $ stats_json_arg
      $ resume_arg $ arrival_rate_arg $ burst_arg $ queue_bound_arg
      $ shed_policy_arg $ discipline_arg $ tenants_arg $ shards_arg
      $ canary_arg $ tune_every_arg $ tune_trials_arg $ model_store_arg)

(* ---- lint --------------------------------------------------------------- *)

(* Record logs and registries identify programs by task key only, so
   linting them needs the key -> (machine, DAG) mapping back: index every
   built-in workload on every machine model. *)
let dag_index () =
  let tbl = Hashtbl.create 1024 in
  let add_case (c : Ansor.Workloads.case) =
    List.iter
      (fun (m : Ansor.Machine.t) ->
        let key = m.name ^ "/" ^ Ansor.Dag.workload_key c.dag in
        if not (Hashtbl.mem tbl key) then Hashtbl.replace tbl key (m, c.dag))
      Ansor.Machine.all
  in
  List.iter
    (fun batch ->
      List.iter
        (fun (_, cases) -> List.iter add_case cases)
        (Ansor.Workloads.single_op_suite ~batch);
      List.iter add_case (Ansor.Workloads.conv_layer_cases ~batch);
      List.iter add_case (Ansor.Workloads.tbg_cases ~batch);
      List.iter
        (fun (net : Ansor.Workloads.net) ->
          List.iter (fun (c, _) -> add_case c) net.layers)
        (Ansor.Workloads.networks ~batch))
    [ 1; 2; 4; 8; 16 ];
  tbl

let lint_cmd =
  let from_arg =
    let doc = "Lint every entry of this tuning log (repeatable)." in
    Arg.(value & opt_all string [] & info [ "from" ] ~doc)
  in
  let registry_arg =
    let doc = "Lint every entry of this schedule registry." in
    Arg.(value & opt (some string) None & info [ "registry" ] ~doc)
  in
  let sample_arg =
    let doc =
      "Lint N freshly sampled programs of the workload named by -o/-i/-b \
       on machine -m (sampler-cleanliness check)."
    in
    Arg.(value & opt (some int) None & info [ "sample" ] ~docv:"N" ~doc)
  in
  let json_arg =
    let doc = "Emit machine-readable JSON instead of text." in
    Arg.(value & flag & info [ "json" ] ~doc)
  in
  let bounds_arg =
    let doc =
      "Run the memory-safety certifier on every program: affine bounds \
       proofs with constructive out-of-bounds witnesses (error severity, \
       witness rendered) and the def-use uninitialized-read pass (warning \
       severity).  On by default; $(b,--bounds=false) disables."
    in
    Arg.(value & opt bool true & info [ "bounds" ] ~doc)
  in
  let run op index batch machine_name seed logs registry_path sample json
      bounds =
    if logs = [] && registry_path = None && sample = None then
      or_die (Error "lint: nothing to analyze (use --from, --registry or --sample)");
    let machine = or_die (lookup_machine machine_name) in
    let index_tbl = lazy (dag_index ()) in
    let targets = ref [] and skipped = ref 0 in
    let config_for (m : Ansor.Machine.t) dag =
      {
        Ansor.Analysis.default_config with
        workers = m.num_workers;
        vector_lanes = m.vector_lanes;
        outputs =
          List.map
            (fun i -> Ansor.Op.name (Ansor.Dag.op dag i))
            (Ansor.Dag.outputs dag);
      }
    in
    let skip ~what fmt =
      Printf.ksprintf
        (fun msg ->
          incr skipped;
          Printf.eprintf "warning: %s: %s\n" what msg)
        fmt
    in
    let lint_prog ~label config prog =
      let verdict = if bounds then Some (Ansor.Bounds.certify prog) else None in
      targets :=
        (label, verdict, Ansor.Analysis.analyze ~config ~bounds prog)
        :: !targets
    in
    let lint_entry ~what (e : Ansor.Record.entry) =
      match Hashtbl.find_opt (Lazy.force index_tbl) e.task_key with
      | None -> skip ~what "unknown task key %s (not a built-in workload)" e.task_key
      | Some (m, dag) -> (
        match Ansor.Record.best_state e dag with
        | Error msg -> skip ~what "%s: %s" e.task_key msg
        | Ok st -> (
          match Ansor.Lower.lower st with
          | exception Ansor.State.Illegal msg ->
            skip ~what "%s: does not lower: %s" e.task_key msg
          | prog -> lint_prog ~label:e.task_key (config_for m dag) prog))
    in
    List.iter
      (fun path ->
        let entries =
          match Ansor.Record.load_salvage ~path with
          | Ok (e, torn) ->
            warn_skipped ~what:path torn;
            e
          | Error m -> or_die (Error m)
        in
        List.iter (lint_entry ~what:path) entries)
      logs;
    (match registry_path with
    | None -> ()
    | Some path ->
      let reg = or_die (Ansor.Registry.load ~path) in
      List.iter (lint_entry ~what:path) (Ansor.Registry.entries reg));
    (match sample with
    | None -> ()
    | Some n ->
      let case = or_die (case_of op index batch) in
      let task = Ansor.Task.create ~name:case.case_name ~machine case.dag in
      let rng = Ansor.Rng.create seed in
      let sketches = Ansor.Sketch_gen.generate case.dag in
      let config = config_for machine case.dag in
      let states =
        Ansor.Sampler.sample rng (Ansor.Task.policy task) case.dag ~sketches ~n
      in
      List.iteri
        (fun i st ->
          match Ansor.Lower.lower st with
          | exception Ansor.State.Illegal msg ->
            skip ~what:"sample" "#%d: does not lower: %s" i msg
          | prog ->
            lint_prog ~label:(Printf.sprintf "%s sample#%d" case.case_name i)
              config prog)
        states);
    let targets = List.rev !targets in
    let count sev =
      List.fold_left
        (fun acc (_, _, ds) ->
          acc
          + List.length
              (List.filter (fun d -> d.Ansor.Diagnostic.severity = sev) ds))
        0 targets
    in
    let errors = count Ansor.Diagnostic.Error in
    let warns = count Ansor.Diagnostic.Warn in
    let infos = count Ansor.Diagnostic.Info in
    let certified, unsafe, unproven =
      List.fold_left
        (fun (c, u, k) (_, verdict, _) ->
          match verdict with
          | Some Ansor.Bounds.Certified -> (c + 1, u, k)
          | Some (Ansor.Bounds.Unsafe _) -> (c, u + 1, k)
          | Some Ansor.Bounds.Unknown -> (c, u, k + 1)
          | None -> (c, u, k))
        (0, 0, 0) targets
    in
    if json then
      Printf.printf
        "{\"targets\":[%s],\"analyzed\":%d,\"skipped\":%d,\"errors\":%d,\
         \"warnings\":%d,\"infos\":%d%s}\n"
        (String.concat ","
           (List.map
              (fun (label, verdict, ds) ->
                let bounds_fields =
                  match verdict with
                  | None -> ""
                  | Some v ->
                    let witness =
                      match v with
                      | Ansor.Bounds.Unsafe w ->
                        Printf.sprintf ",\"witness\":%s"
                          (Ansor.Bounds.witness_to_json w)
                      | _ -> ""
                    in
                    Printf.sprintf ",\"bounds_verdict\":\"%s\"%s"
                      (Ansor.Bounds.verdict_name v)
                      witness
                in
                Printf.sprintf "{\"name\":\"%s\"%s,\"diagnostics\":%s}"
                  (Ansor.Diagnostic.json_escape label)
                  bounds_fields
                  (Ansor.Diagnostic.list_to_json ds))
              targets))
        (List.length targets) !skipped errors warns infos
        (if bounds then
           Printf.sprintf
             ",\"bounds\":{\"certified\":%d,\"unsafe\":%d,\"unknown\":%d}"
             certified unsafe unproven
         else "")
    else begin
      List.iter
        (fun (label, verdict, ds) ->
          if
            ds <> []
            || match verdict with Some (Ansor.Bounds.Unsafe _) -> true | _ -> false
          then begin
            Printf.printf "%s:\n" label;
            (match verdict with
            | Some (Ansor.Bounds.Unsafe w) ->
              Printf.printf "  bounds verdict: unsafe — %s\n"
                (Ansor.Bounds.witness_to_string w)
            | Some Ansor.Bounds.Unknown ->
              Printf.printf "  bounds verdict: unknown (not proved safe)\n"
            | _ -> ());
            List.iter
              (fun d -> Printf.printf "  %s\n" (Ansor.Diagnostic.to_string d))
              ds
          end)
        targets;
      Printf.printf "%d program%s analyzed (%d skipped): %d error%s, %d \
                     warning%s, %d hint%s%s\n"
        (List.length targets)
        (if List.length targets = 1 then "" else "s")
        !skipped errors
        (if errors = 1 then "" else "s")
        warns
        (if warns = 1 then "" else "s")
        infos
        (if infos = 1 then "" else "s")
        (if bounds then
           Printf.sprintf "; bounds: %d certified, %d unsafe, %d unproven"
             certified unsafe unproven
         else "")
    end;
    if errors > 0 then exit 1
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "Statically analyze schedules (race detector + memory-safety \
          certifier + linter) from a tuning log, a registry, or fresh \
          samples; exits non-zero on any error-severity diagnostic \
          (provable races and witness-backed out-of-bounds accesses are \
          errors; unproven bounds and uninitialized reads are warnings).")
    Term.(
      const run $ op_arg $ index_arg $ batch_arg $ machine_arg $ seed_arg
      $ from_arg $ registry_arg $ sample_arg $ json_arg $ bounds_arg)

(* ---- model: the cross-task model store ---------------------------------- *)

let store_pos_arg =
  let doc = "Model store file." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"STORE" ~doc)

let load_store_salvage path =
  if not (Sys.file_exists path) then (Ansor.Model_store.create (), 0)
  else
    match Ansor.Model_store.load_salvage ~path with
    | Ok (store, skipped) ->
      warn_skipped ~what:path skipped;
      (store, skipped)
    | Error m -> or_die (Error m)

(* Record logs carry (task key, steps, latency) but no features: replay
   each entry through the workload index (key -> machine + DAG), lower it
   and featurize — exactly what a live tuning round would have stored. *)
let import_record_log store ~index_tbl ~path =
  let entries =
    match Ansor.Record.load_salvage ~path with
    | Ok (e, torn) ->
      warn_skipped ~what:path torn;
      e
    | Error m -> or_die (Error m)
  in
  let skipped = ref 0 in
  let fresh =
    List.filter_map
      (fun (e : Ansor.Record.entry) ->
        match Hashtbl.find_opt index_tbl e.task_key with
        | None ->
          incr skipped;
          None
        | Some (machine, dag) -> (
          match Ansor.Record.best_state e dag with
          | Error _ ->
            incr skipped;
            None
          | Ok st -> (
            match Ansor.Lower.lower st with
            | exception Ansor.State.Illegal _ ->
              incr skipped;
              None
            | prog when e.latency > 0.0 ->
              let s =
                {
                  Ansor.Model_store.task_key = e.task_key;
                  prog_key = Ansor.Measure_cache.key_of_prog machine prog;
                  latency = e.latency;
                  features = Ansor.Features.of_prog prog;
                }
              in
              if Ansor.Model_store.add store s then Some s else None
            | _ ->
              incr skipped;
              None)))
      entries
  in
  if !skipped > 0 then
    Printf.eprintf
      "warning: %s: %d entr%s not importable (unknown task key or \
       non-replayable schedule)\n"
      path !skipped
      (if !skipped = 1 then "y" else "ies");
  fresh

let pretrained_summary bundle =
  List.iter
    (fun (kind, key, trees) ->
      let kind =
        match kind with `Task -> "task " | `Class -> "class" | `Global -> "global"
      in
      Printf.printf "  %-6s %-60s %3d trees\n" kind key trees)
    (Ansor.Model_store.Pretrained.summary bundle)

let model_pretrain_cmd =
  let store_arg =
    let doc =
      "Model store file to pretrain from (and to append --from imports to)."
    in
    Arg.(required & opt (some string) None & info [ "store" ] ~docv:"FILE" ~doc)
  in
  let from_arg =
    let doc =
      "Import this tuning log's entries into the store first (repeatable): \
       each record is replayed, lowered and featurized, then deduplicated \
       by its canonical program hash."
    in
    Arg.(value & opt_all string [] & info [ "from" ] ~doc)
  in
  let min_samples_arg =
    let doc = "Skip task/class/global groups with fewer samples than this." in
    Arg.(value & opt int 8 & info [ "min-samples" ] ~doc)
  in
  let run store_path logs min_samples =
    if min_samples < 1 then or_die (Error "pretrain: --min-samples must be >= 1");
    let store, _ = load_store_salvage store_path in
    let index_tbl = lazy (dag_index ()) in
    List.iter
      (fun path ->
        let fresh =
          import_record_log store ~index_tbl:(Lazy.force index_tbl) ~path
        in
        Ansor.Model_store.append_batch ~path:store_path fresh;
        Printf.printf "%s: imported %d new sample%s\n" path (List.length fresh)
          (if List.length fresh = 1 then "" else "s"))
      logs;
    if Ansor.Model_store.size store = 0 then
      or_die (Error "pretrain: store is empty (import logs with --from, or \
                     tune with --model-store first)");
    let bundle = Ansor.Model_store.Pretrained.train ~min_samples store in
    if Ansor.Model_store.Pretrained.num_models bundle = 0 then
      or_die
        (Error
           (Printf.sprintf
              "pretrain: no group reaches %d samples (store has %d total); \
               lower --min-samples or import more logs"
              min_samples
              (Ansor.Model_store.size store)));
    let mp = Ansor.Model_store.models_path store_path in
    Ansor.Model_store.Pretrained.save ~path:mp bundle;
    Printf.printf "pretrained %d model%s from %d sample%s -> %s\n"
      (Ansor.Model_store.Pretrained.num_models bundle)
      (if Ansor.Model_store.Pretrained.num_models bundle = 1 then "" else "s")
      (Ansor.Model_store.size store)
      (if Ansor.Model_store.size store = 1 then "" else "s")
      mp;
    pretrained_summary bundle
  in
  Cmd.v
    (Cmd.info "pretrain"
       ~doc:
         "Fit the pretrained cost-model bundle (one GBDT per exact task, \
          per structure class, and a global fallback) from a model store, \
          optionally importing tuning logs first.")
    Term.(const run $ store_arg $ from_arg $ min_samples_arg)

let model_show_cmd =
  let run path =
    let store, _ = load_store_salvage path in
    Printf.printf "%s: %d sample%s, %d task%s, %d class%s\n" path
      (Ansor.Model_store.size store)
      (if Ansor.Model_store.size store = 1 then "" else "s")
      (List.length (Ansor.Model_store.task_keys store))
      (if List.length (Ansor.Model_store.task_keys store) = 1 then "" else "s")
      (List.length (Ansor.Model_store.class_keys store))
      (if List.length (Ansor.Model_store.class_keys store) = 1 then ""
       else "es");
    List.iter
      (fun cls ->
        Printf.printf "  %-60s %5d sample%s\n" cls
          (List.length (Ansor.Model_store.samples_for_class store ~class_key:cls))
          (if List.length
                (Ansor.Model_store.samples_for_class store ~class_key:cls)
              = 1
           then ""
           else "s"))
      (Ansor.Model_store.class_keys store);
    let mp = Ansor.Model_store.models_path path in
    if Sys.file_exists mp then
      match Ansor.Model_store.Pretrained.load ~path:mp with
      | Ok bundle ->
        Printf.printf "%s: %d pretrained model%s\n" mp
          (Ansor.Model_store.Pretrained.num_models bundle)
          (if Ansor.Model_store.Pretrained.num_models bundle = 1 then ""
           else "s");
        pretrained_summary bundle
      | Error e -> Printf.eprintf "warning: %s: %s\n" mp e
    else Printf.printf "%s: absent (run 'model pretrain')\n" mp
  in
  Cmd.v
    (Cmd.info "show"
       ~doc:"Summarize a model store and its pretrained bundle.")
    Term.(const run $ store_pos_arg)

let model_gc_cmd =
  let keep_arg =
    let doc = "Samples to keep per structure class (newest first)." in
    Arg.(value & opt int 512 & info [ "keep-per-class" ] ~doc)
  in
  let run path keep =
    if keep < 0 then or_die (Error "gc: --keep-per-class must be >= 0");
    if not (Sys.file_exists path) then
      or_die (Error (Printf.sprintf "gc: no store at %s" path));
    let store, _ = load_store_salvage path in
    let dropped = Ansor.Model_store.gc store ~keep_per_class:keep in
    Ansor.Model_store.save ~path store;
    Printf.printf "%s: dropped %d sample%s, kept %d\n" path dropped
      (if dropped = 1 then "" else "s")
      (Ansor.Model_store.size store);
    if dropped > 0 && Sys.file_exists (Ansor.Model_store.models_path path) then
      Printf.printf
        "note: %s now predates the store; rerun 'model pretrain' to refresh\n"
        (Ansor.Model_store.models_path path)
  in
  Cmd.v
    (Cmd.info "gc"
       ~doc:
         "Compact a model store, keeping the newest samples of each \
          structure class.")
    Term.(const run $ store_pos_arg $ keep_arg)

let model_cmd =
  Cmd.group
    (Cmd.info "model"
       ~doc:
         "Maintain the cross-task model store: persistent training samples \
          and pretrained cost models for warm-start tuning.")
    [ model_pretrain_cmd; model_show_cmd; model_gc_cmd ]

(* ---- xcheck ------------------------------------------------------------- *)

let xcheck_cmd =
  let sample_arg =
    let doc = "Random complete programs sampled per task." in
    Arg.(value & opt int 32 & info [ "sample" ] ~docv:"K" ~doc)
  in
  let net_opt_arg =
    let doc =
      "Cross-check every unique layer of this network instead of the \
       single workload named by -o/-i/-b."
    in
    Arg.(value & opt (some string) None & info [ "n"; "network" ] ~doc)
  in
  let json_arg =
    let doc = "Write the JSON report to this file ('-' for stdout)." in
    Arg.(value & opt (some string) None & info [ "json" ] ~doc)
  in
  let run op index batch net machine sample seed json =
    let machine = or_die (lookup_machine machine) in
    (match lookup_backend "native" with
    | Ok _ -> ()
    | Error _ as e -> or_die e);
    let cases =
      match net with
      | Some name ->
        let net = or_die (net_of_name name batch) in
        (* layers repeat within a network; each unique case once *)
        let seen = Hashtbl.create 16 in
        List.filter_map
          (fun ((c : Ansor.Workloads.case), _) ->
            if Hashtbl.mem seen c.case_name then None
            else begin
              Hashtbl.replace seen c.case_name ();
              Some (c.case_name, c.dag)
            end)
          net.layers
      | None ->
        let case = or_die (case_of op index batch) in
        [ (case.Ansor.Workloads.case_name, case.dag) ]
    in
    let report = Ansor.Xcheck.run ~sample ~seed ~machine cases in
    print_endline (Ansor.Xcheck.summary report);
    emit_json ~what:"xcheck report" json (Ansor.Xcheck.to_json report)
  in
  Cmd.v
    (Cmd.info "xcheck"
       ~doc:
         "Cross-check the simulator against native gcc measurement: \
          sample K programs per task, measure both backends, report the \
          Spearman rank correlation and top-1/top-5 agreement.")
    Term.(
      const run $ op_arg $ index_arg $ batch_arg $ net_opt_arg $ machine_arg
      $ sample_arg $ seed_arg $ json_arg)

let () =
  let info =
    Cmd.info "ansor-cli" ~version:"1.0.0"
      ~doc:"Auto-scheduling tensor programs (Ansor, OSDI 2020) on simulated machines."
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [ machines_cmd; sketches_cmd; tune_cmd; replay_cmd; network_cmd;
            registry_cmd; serve_cmd; lint_cmd; model_cmd; xcheck_cmd ]))
