(* End-to-end and per-layer benchmark of the Ansor reproduction.

   Usage:
     main.exe --workload tune-network|serve-rollout
              --seed N --seconds S --trace 0|1

   Everything is driven from outside the library through the public
   [Ansor] facade.  The last line of standard output is one JSON object
   {correct, attempted, failed, metrics}; with [--trace 0] the metrics are
   the end-to-end ones, with [--trace 1] the per-layer ones.  A failed
   correctness check makes the exit code 1.  See README.md for the
   workloads, the metrics and what each layer is expected to move. *)

open Ansor

let now = Unix.gettimeofday
let machine = Machine.intel_cpu

(* ---- spans ---------------------------------------------------------------- *)

(* Spans are recorded in memory, only while [on] is set, and written out
   once at the end of a traced run. *)
module Span = struct
  type t = { id : int; parent : int; name : string; start : float; stop : float }

  let on = ref false
  let recorded : t list ref = ref []
  let count = ref 0
  let stack = ref [ 0 ]
  let current () = List.hd !stack

  let fresh () =
    incr count;
    !count

  let add name ~start ~stop =
    if !on then
      recorded := { id = fresh (); parent = current (); name; start; stop } :: !recorded

  let wrap name f =
    if not !on then f ()
    else begin
      let id = fresh () and parent = current () in
      stack := id :: !stack;
      let start = now () in
      let finish () =
        stack := List.tl !stack;
        recorded := { id; parent; name; start; stop = now () } :: !recorded
      in
      match f () with
      | v ->
        finish ();
        v
      | exception e ->
        finish ();
        raise e
    end

  let write ~path ~origin =
    let oc = open_out path in
    List.iter
      (fun s ->
        Printf.fprintf oc
          "{\"id\":%d,\"parent\":%d,\"name\":%S,\"start_ms\":%.3f,\"dur_ms\":%.3f}\n"
          s.id s.parent s.name
          ((s.start -. origin) *. 1e3)
          ((s.stop -. s.start) *. 1e3))
      (List.rev !recorded);
    close_out oc
end

(* ---- small helpers -------------------------------------------------------- *)

let median = function [] -> 0.0 | l -> Stats.median l
let geomean = function [] -> 0.0 | l -> Stats.geomean l
let quantile q = function [] -> 0.0 | l -> Stats.quantile q l
let sum f l = List.fold_left (fun acc x -> acc +. f x) 0.0 l
let isum f l = List.fold_left (fun acc x -> acc + f x) 0 l
let frac a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b

let time f =
  let t0 = now () in
  let v = f () in
  (v, now () -. t0)

(* Session seeds derive from the benchmark seed, so --seed 0 replays the
   CLI's seeds 0, 1, 2, ... *)
let session_seed seed i = (seed * 1000) + i

let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. 1048576.0

(* Per-call cost of [f] over [inputs]: whole passes until [budget] seconds
   are spent (at least 3, at most 200 passes), reported as the median pass
   mean.  One span covers all passes, so tracing adds nothing per call. *)
let per_call ?(budget = 0.15) name f inputs =
  let n = Array.length inputs in
  if n = 0 then 0.0
  else
    Span.wrap name (fun () ->
        let t_end = now () +. budget in
        let rec loop acc passes =
          let t0 = now () in
          Array.iter f inputs;
          let acc = ((now () -. t0) /. float_of_int n) :: acc in
          if passes >= 200 || (passes >= 3 && now () > t_end) then acc
          else loop acc (passes + 1)
        in
        median (loop [] 1))

let lower_opt st = match Lower.lower st with p -> Some p | exception State.Illegal _ -> None

let rec take n = function
  | x :: rest when n > 0 -> x :: take (n - 1) rest
  | _ -> []

(* ---- correctness checks --------------------------------------------------- *)

let failures : string list ref = ref []
let fail fmt = Printf.ksprintf (fun m -> failures := m :: !failures) fmt

let check_static what st =
  match lower_opt st with
  | None -> fail "%s: best program does not lower" what
  | Some prog -> (
    match Analysis.static_errors prog with
    | [] -> ()
    | d :: _ -> fail "%s: %s" what (Format.asprintf "%a" Diagnostic.pp d))

(* Interpreter equivalence costs about 1.3 s per million flops, so only
   small layers are checked, each once per run. *)
let affordable_flops = 6e5
let interp_checked = Hashtbl.create 8

let check_interp what (task : Task.t) st =
  if Task.flops task <= affordable_flops && not (Hashtbl.mem interp_checked (Task.key task))
  then begin
    Hashtbl.replace interp_checked (Task.key task) ();
    match verify_state st with Ok () -> () | Error m -> fail "%s: %s" what m
  end

(* ---- deployment: serve a set of programs through the streaming tier ----- *)

(* The sustained load of bench/serving.ml: open-loop Poisson at 0.6 of the
   virtual service workers, with the default admission queue bound. *)
let utilization = 0.6

let serve_config ~seed ~nominal =
  let d = Server.default_config in
  {
    d with
    Server.seed;
    load =
      {
        Loadgen.default_config with
        Loadgen.arrival_rate =
          utilization *. float_of_int d.Server.service_workers /. nominal;
        seed;
      };
  }

(* The arrival rate is fixed relative to the network's own noise-free
   service time, so a probe server resolves the layers first. *)
let create_server ~seed ~registry net =
  let nominal = Server.nominal_latency (Server.create ~registry ~machine net) in
  Server.create ~config:(serve_config ~seed ~nominal) ~registry ~machine net

(* What one serving stretch measured: host seconds inside [Server.run]
   and the server's own statistics. *)
type served = { host_s : float; sv : Server.stats }

let served_of s host_s =
  let sv = Server.stats s in
  if not (Server.conserved sv) then fail "Server.conserved failed";
  { host_s; sv }

let lost d = d.sv.Server.shed + d.sv.Server.quota_rejected
let req_per_s d = float_of_int d.sv.Server.served /. d.host_s
let p50 d = d.sv.Server.sojourn.Histogram.p50
let p99 d = d.sv.Server.sojourn.Histogram.p99

let lru_hit_frac d =
  let hits = isum (fun (sh : Server.shard_stats) -> sh.Server.hits) d.sv.Server.shards
  and misses = isum (fun (sh : Server.shard_stats) -> sh.Server.misses) d.sv.Server.shards in
  frac hits (hits + misses)

let run_segment s ~requests =
  snd (time (fun () -> Span.wrap "serve.run" (fun () -> Server.run s ~requests)))

(* Serve the tuned programs: one exact registry entry per layer. *)
let deploy ~seed net (bests : (Task.t * State.t) list) ~requests =
  Span.wrap "deploy" (fun () ->
      let registry = Registry.create () in
      List.iter
        (fun ((task : Task.t), (st : State.t)) ->
          match lower_opt st with
          | Some prog ->
            ignore
              (Registry.add registry
                 {
                   Record.task_key = Task.key task;
                   latency = Simulator.estimate machine prog;
                   steps = st.State.history;
                 })
          | None -> ())
        bests;
      let s = create_server ~seed ~registry net in
      let host_s = run_segment s ~requests in
      (served_of s host_s, Server.nominal_latency s, registry))

(* ---- tuning sessions ------------------------------------------------------ *)

(* Inputs captured from one traced session for the per-layer replays. *)
type inputs = {
  corpus : Cost_model.record list;  (** final training set *)
  model : Cost_model.t;  (** final cost model *)
  population : State.t list;  (** states from every round's snapshot *)
  registry : Registry.t;  (** what the session deployed *)
}

(* One tuning session, as measured from outside. *)
type session = {
  wall : float;  (** tuning wall seconds (setup excluded) *)
  trials : int;
  stats : Telemetry.stats;
  slots_seen : int;  (** distinct candidates the tuners remembered *)
  rounds : int;
  round_ms : float list;  (** time between [on_round] calls *)
  bests : (Task.t * State.t) list;
  alloc : int array;  (** scheduler allocations per task *)
  train_rows : int;
  train_unique : float;
  deployed : served;
  net_s : float;  (** deployed network's noise-free latency *)
  inputs : inputs option;
}

(* Round timing from the [on_round] hook: a span per round, parented to
   the session span. *)
let round_clock () =
  let last = ref (now ()) and acc = ref [] in
  let tick name =
    let t = now () in
    acc := ((t -. !last) *. 1e3) :: !acc;
    Span.add name ~start:!last ~stop:t;
    last := t
  in
  (tick, fun () -> List.rev !acc)

let states_of_snapshot dag (snap : Tuner.Snapshot.t) =
  let replay steps =
    match State.replay_checked dag steps with Ok s -> Some s | Error _ -> None
  in
  List.filter_map (fun (steps, _) -> replay steps) snap.Tuner.Snapshot.good

let dedup_states states =
  let seen = Hashtbl.create 64 in
  List.filter
    (fun (st : State.t) ->
      let k = Step.history_key st.State.history in
      (not (Hashtbl.mem seen k)) && (Hashtbl.replace seen k (); true))
    states

let unique_frac (corpus : Cost_model.record list) =
  let seen = Hashtbl.create 256 in
  List.iter
    (fun (r : Cost_model.record) ->
      Hashtbl.replace seen
        (Digest.string
           (Marshal.to_string (r.Cost_model.task_key, r.Cost_model.features) []))
        ())
    corpus;
  frac (Hashtbl.length seen) (List.length corpus)

let deploy_requests = 100_000

(* tune-network: MobileNet-V2 under the task scheduler, objective F1. *)
let net_budget = 300
let net_session_s = 13.0

type net_setup = {
  n_seed : int;
  n_net : Workloads.net;
  n_tasks : Task.t array;
  n_sched : Scheduler.t;
}

let net_setup n_seed =
  let n_net = Workloads.mobilenet_v2 ~batch:1 in
  let tw = Workloads.net_tasks ~machine n_net in
  let n_tasks = Array.of_list (List.map fst tw) in
  let n_sched =
    Scheduler.create
      { Scheduler.default_options with Scheduler.objective = Scheduler.F1_sum; seed = n_seed }
      ~tasks:n_tasks
      ~networks:
        [
          {
            Scheduler.net_name = n_net.Workloads.net_name;
            task_weights = List.mapi (fun i (_, w) -> (i, w)) tw;
          };
        ]
  in
  { n_seed; n_net; n_tasks; n_sched }

(* One session: tune, then deploy the bests; [keep] keeps the replay
   inputs. *)
let net_session ~keep (n : net_setup) =
  Span.wrap "session" (fun () ->
      let tick, round_ms = round_clock () in
      let sched = n.n_sched in
      let (), wall =
        time (fun () ->
            Scheduler.run ~on_round:(fun _ -> tick "allocation") sched ~trial_budget:net_budget)
      in
      let tuners = (Scheduler.snapshot sched).Scheduler.Snapshot.tuners in
      let bests =
        List.concat
          (List.mapi
             (fun i (task : Task.t) ->
               match Scheduler.best_state sched i with
               | Some st -> [ (task, st) ]
               | None ->
                 fail "seed %d: task %s has no program" n.n_seed task.Task.name;
                 [])
             (Array.to_list n.n_tasks))
      in
      let alloc = Scheduler.allocations sched in
      let shared = Scheduler.shared sched in
      let corpus = Tuner.Shared.records shared in
      Gc.compact ();
      let deployed, net_s, registry =
        deploy ~seed:n.n_seed n.n_net bests ~requests:deploy_requests
      in
      {
        wall;
        trials = Scheduler.total_trials sched;
        stats = Scheduler.stats sched;
        slots_seen =
          Array.fold_left
            (fun acc (ts : Tuner.Snapshot.t) ->
              acc + List.length ts.Tuner.Snapshot.measured_keys)
            0 tuners;
        rounds = Array.fold_left ( + ) 0 alloc;
        round_ms = round_ms ();
        bests;
        alloc;
        train_rows = List.length corpus;
        train_unique = unique_frac corpus;
        deployed;
        net_s;
        inputs =
          (if keep then
             Some
               {
                 corpus;
                 model = Tuner.Shared.model shared;
                 population =
                   dedup_states
                     (List.concat
                        (List.mapi
                           (fun i ts -> states_of_snapshot n.n_tasks.(i).Task.dag ts)
                           (Array.to_list tuners)));
                 registry;
               }
           else None);
      })

(* Correctness of one session, outside the timed region. *)
let check_session (s : session) =
  List.iter
    (fun ((task : Task.t), st) ->
      check_static task.Task.name st;
      check_interp task.Task.name task st)
    s.bests;
  (* slot conservation: every distinct candidate the tuners remembered got
     exactly one classified result *)
  let results = Telemetry.results s.stats in
  if s.slots_seen <> results then
    fail "slots %d <> measured + cache hits + failures %d" s.slots_seen results;
  if s.trials < 1 then fail "a session measured nothing"

let tune_errors (st : Telemetry.stats) =
  st.Telemetry.build_errors + st.Telemetry.compile_errors + st.Telemetry.run_errors
  + st.Telemetry.timeouts + st.Telemetry.bounds_rejected

let best_ms (s : session) =
  1e3
  *. geomean
       (List.filter_map
          (fun (_, st) -> Option.map (Simulator.estimate machine) (lower_opt st))
          s.bests)

(* ---- serve-rollout -------------------------------------------------------- *)

(* MobileNet-V2 served from a registry of seeded sampled schedules: the
   first four layers are registered (exact), the other convolutions are
   answered by adapting a registered sibling of their structure class, and
   the dense layer has no sibling (defaulted). *)
let registered_layers = 4
let registry_samples = 8
let candidate_samples = 8
let segments_per_epoch = 40
let segment_requests = 2_500
let epoch_s = 2.0

type epoch_setup = {
  e_seed : int;
  e_net : Workloads.net;
  e_tasks : Task.t array;
  e_sketches : State.t list array;
  e_server : Server.t;
  e_service : Measure_service.t;
  e_registry : Registry.t;
  e_rng : Rng.t;
}

let sample_states rng (task : Task.t) sketches n =
  Sampler.sample rng (Task.policy task) task.Task.dag ~sketches ~n

let epoch_setup e_seed =
  let e_net = Workloads.mobilenet_v2 ~batch:1 in
  let e_tasks = Array.of_list (List.map fst (Workloads.net_tasks ~machine e_net)) in
  let e_sketches = Array.map (fun (t : Task.t) -> Sketch_gen.generate t.Task.dag) e_tasks in
  let e_rng = Rng.create e_seed in
  let e_registry = Registry.create () in
  Array.iteri
    (fun i (task : Task.t) ->
      if i < registered_layers then
        let scored =
          List.filter_map
            (fun st -> Option.map (fun p -> (Simulator.estimate machine p, st)) (lower_opt st))
            (sample_states e_rng task e_sketches.(i) registry_samples)
        in
        match List.sort (fun (a, _) (b, _) -> compare a b) scored with
        | (lat, (st : State.t)) :: _ ->
          ignore
            (Registry.add e_registry
               { Record.task_key = Task.key task; latency = lat; steps = st.State.history })
        | [] -> fail "serve-rollout seed %d: no sample for %s" e_seed task.Task.name)
    e_tasks;
  let e_server = create_server ~seed:e_seed ~registry:e_registry e_net in
  let e_service = Measure_service.create ~seed:(e_seed + 17) machine in
  { e_seed; e_net; e_tasks; e_sketches; e_server; e_service; e_registry; e_rng }

type epoch = {
  served : served;
  cand_wall : float;  (** seconds sampling + measuring candidates *)
  cand_trials : int;
  cand_failed : int;
  sample_s : float;
  cand_stats : Telemetry.stats;
  nominal_s : float;
  incumbents_ms : float list;
  kept : (epoch_setup * State.t list) option;  (** setup and proposals *)
}

(* Every served program must pass the static checks: the registry's
   answers up front, and each candidate the canary gate promoted. *)
let check_incumbents (e : epoch_setup) =
  Array.iter
    (fun (task : Task.t) ->
      let st, _ = Registry.resolve e.e_registry task in
      check_static task.Task.name st;
      check_interp task.Task.name task st)
    e.e_tasks

(* Between serving segments, sample and measure candidates for the next
   layer in turn and propose one, so the canary gate both promotes and
   rolls back. *)
let serve_epoch ~keep (e : epoch_setup) =
  Span.wrap "epoch" (fun () ->
      check_incumbents e;
      let host = ref 0.0 and cand_wall = ref 0.0 and sample_s = ref 0.0 in
      let cand_failed = ref 0 and proposed = ref [] in
      let pending = Hashtbl.create 16 in
      let settle key =
        match Hashtbl.find_opt pending key with
        | Some ((task : Task.t), st, gen) when Server.generation e.e_server ~key <> Some gen ->
          Hashtbl.remove pending key;
          check_static ("promoted " ^ task.Task.name) st;
          check_interp task.Task.name task st
        | _ -> ()
      in
      let n = Array.length e.e_tasks in
      for k = 0 to segments_per_epoch - 1 do
        host := !host +. run_segment e.e_server ~requests:segment_requests;
        let task = e.e_tasks.(k mod n) in
        let key = Task.key task in
        let t0 = now () in
        let samples, ds =
          time (fun () ->
              Span.wrap "sample" (fun () ->
                  sample_states e.e_rng task e.e_sketches.(k mod n) candidate_samples))
        in
        sample_s := !sample_s +. ds;
        let results =
          Span.wrap "measure" (fun () ->
              Measure_service.measure_batch e.e_service
                (List.map (fun st -> Measure_protocol.request st) samples))
        in
        let measured =
          List.filter_map
            (fun (st, (r : Measure_protocol.result)) ->
              match r.Measure_protocol.latency with
              | Ok l -> Some (l, st)
              | Error _ ->
                incr cand_failed;
                None)
            (List.combine samples results)
          |> List.sort (fun (a, _) (b, _) -> compare a b)
        in
        cand_wall := !cand_wall +. (now () -. t0);
        settle key;
        (* the best sample on even turns; on odd turns the best one that is
           worse than the incumbent, so a rollback does not stall the queue *)
        let pick =
          if k mod 2 = 0 then List.nth_opt measured 0
          else
            let inc = Option.value ~default:0.0 (Server.incumbent_latency e.e_server ~key) in
            match List.find_opt (fun (l, _) -> l > inc) measured with
            | Some c -> Some c
            | None -> List.nth_opt (List.rev measured) 0
        in
        match pick with
        | None -> ()
        | Some (_, st) ->
          let gen = Option.value ~default:0 (Server.generation e.e_server ~key) in
          if
            Span.wrap "propose" (fun () ->
                Server.propose e.e_server ~origin:"bench" ~key st)
            = Ok ()
          then begin
            Hashtbl.replace pending key (task, st, gen);
            if keep then proposed := st :: !proposed
          end
      done;
      Array.iter (fun t -> settle (Task.key t)) e.e_tasks;
      {
        served = served_of e.e_server !host;
        cand_wall = !cand_wall;
        cand_trials = Measure_service.trials e.e_service;
        cand_failed = !cand_failed;
        sample_s = !sample_s;
        cand_stats = Measure_service.stats e.e_service;
        nominal_s = Server.nominal_latency e.e_server;
        incumbents_ms =
          List.filter_map
            (fun key ->
              Option.map (fun l -> l *. 1e3) (Server.incumbent_latency e.e_server ~key))
            (Server.keys e.e_server);
        kept = (if keep then Some (e, !proposed) else None);
      })

(* ---- metrics output ------------------------------------------------------- *)

type metric = { name : string; value : float; unit : string }

let m name unit value = { name; value; unit }
let count name n = m name "count" (float_of_int n)

let json_float v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.1f" v
  else Printf.sprintf "%.17g" v

let print_result ~correct ~attempted ~failed metrics =
  let body =
    String.concat ", "
      (List.map
         (fun mt ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" mt.name
             (json_float mt.value) mt.unit)
         metrics)
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed body

(* Lines of .ml/.mli source under a directory of the checkout. *)
let rec source_lines dir =
  if not (Sys.file_exists dir && Sys.is_directory dir) then 0
  else
    Array.fold_left
      (fun acc f ->
        let p = Filename.concat dir f in
        if Sys.is_directory p then acc + source_lines p
        else if Filename.check_suffix f ".ml" || Filename.check_suffix f ".mli" then begin
          let ic = open_in p in
          let n = ref 0 in
          (try
             while true do
               ignore (input_line ic);
               incr n
             done
           with End_of_file -> ());
          close_in ic;
          acc + !n
        end
        else acc)
      0 (Sys.readdir dir)

(* ---- per-layer replay ----------------------------------------------------- *)

let us x = 1e6 *. x

(* Per-call costs of the layers every workload touches, on its own
   programs. *)
let program_replay (states : State.t list) (task : Task.t) =
  let states = Array.of_list (take 48 states) in
  let progs = Array.of_list (List.filter_map lower_opt (Array.to_list states)) in
  let sketches = Sketch_gen.generate task.Task.dag in
  let rng = Rng.create 7 in
  [
    m "sched.lower_us" "us" (us (per_call "sched.lower" (fun st -> ignore (lower_opt st)) states));
    m "machine.simulate_us" "us"
      (us (per_call "machine.simulate" (fun p -> ignore (Simulator.estimate machine p)) progs));
    m "analysis.certify_us" "us"
      (us (per_call "analysis.certify" (fun p -> ignore (Bounds.check p)) progs));
    m "analysis.races_us" "us"
      (us (per_call "analysis.races" (fun p -> ignore (Analysis.races p)) progs));
    m "sketch.sample_one_us" "us"
      (us
         (per_call "sketch.sample_one"
            (fun () ->
              ignore (Sampler.sample_one rng (Task.policy task) task.Task.dag ~sketches))
            (Array.make 16 ())));
  ]

(* Per-call costs of the search layers, replayed on inputs captured from
   the first traced session: its population, final training set and final
   model. *)
let search_replay (inp : inputs) (task : Task.t) =
  let states = Array.of_list (take 48 inp.population) in
  let progs = Array.of_list (List.filter_map lower_opt (Array.to_list states)) in
  let rng = Rng.create 11 in
  let policy = Task.policy task in
  let rows = List.concat_map (fun (r : Cost_model.record) -> r.Cost_model.features) inp.corpus in
  let nrows = List.length rows in
  [
    m "features.of_prog_us" "us"
      (us (per_call "features.of_prog" (fun p -> ignore (Features.of_prog p)) progs));
    m "evolution.mutate_us" "us"
      (us
         (per_call "evolution.mutate"
            (fun (st : State.t) ->
              let dag = st.State.dag in
              ignore
                (match Rng.int rng 4 with
                | 0 -> Evolution.mutate_tile_sizes rng dag st
                | 1 -> Evolution.mutate_annotation rng dag st
                | 2 -> Evolution.mutate_pragma rng policy dag st
                | _ -> Evolution.mutate_location rng dag st))
            states));
    (* a fresh scorer per batch: lowering + featurization + prediction *)
    m "cost_model.score_us_per_cand" "us"
      (us
         (per_call "cost_model.score"
            (fun batch ->
              let sc = Score_service.create ~num_workers:1 machine in
              Score_service.set_model sc inp.model;
              ignore (Score_service.score_states sc batch))
            [| Array.to_list states |])
      /. float_of_int (max 1 (Array.length states)));
    m "gbdt.predict_ns_per_row" "ns"
      (match Cost_model.gbdt inp.model with
      | Some g when nrows > 0 ->
        let flat = Array.concat rows in
        1e9
        *. per_call "gbdt.predict_batch"
             (fun () -> ignore (Gbdt.predict_batch g ~width:Features.dim flat))
             [| () |]
        /. float_of_int nrows
      | _ -> 0.0);
    m "cost_model.train_ms" "ms"
      (1e3
      *. per_call ~budget:0.0 "cost_model.train"
           (fun () -> ignore (Cost_model.train inp.corpus))
           [| () |]);
  ]

(* Per-call costs on the serving path: registry resolution of every layer
   and open-loop trace generation. *)
let serving_replay registry net =
  let tasks = Array.of_list (List.map fst (Workloads.net_tasks ~machine net)) in
  let n = 20_000 in
  [
    m "registry.resolve_us" "us"
      (us (per_call "registry.resolve" (fun t -> ignore (Registry.resolve registry t)) tasks));
    m "serve.loadgen_us_per_req" "us"
      (us
         (per_call "loadgen.generate"
            (fun () -> ignore (Loadgen.generate Loadgen.default_config ~n))
            [| () |])
      /. float_of_int n);
  ]

let serve_layers (sv : served) =
  let st = sv.sv in
  [
    count "registry.exact" st.Server.exact;
    count "registry.adapted" st.Server.adapted;
    count "registry.defaulted" st.Server.defaulted;
    m "serve.run_s" "s" sv.host_s;
    m "serve.req_per_s" "req/s" (req_per_s sv);
    m "serve.lru_hit_frac" "fraction" (lru_hit_frac sv);
    count "serve.invalidations" st.Server.invalidations;
    count "serve.promotions" st.Server.promotions;
    count "serve.rollbacks" st.Server.rollbacks;
    count "serve.shed" st.Server.shed;
    count "serve.sojourn_samples" st.Server.sojourn.Histogram.count;
  ]

let phase (st : Telemetry.stats) name =
  Option.value ~default:0.0 (List.assoc_opt name st.Telemetry.phase_seconds)

(* The layers a workload does not exercise report 0. *)
let not_exercised names = List.map (fun (n, u) -> m n u 0.0) names

let search_names =
  [
    ("search.rounds", "count"); ("search.round_ms.p50", "ms");
    ("search.round_ms.p90", "ms"); ("search.dup_slots", "count");
    ("search.slot_useful_frac", "fraction"); ("search.unattributed_frac", "fraction");
    ("cost_model.train_rows", "count"); ("cost_model.train_unique_frac", "fraction");
    ("cost_model.retrain_s", "s"); ("cost_model.score_s", "s");
    ("cost_model.score_hit_frac", "fraction"); ("evolution.evolve_s", "s");
    ("evolution.static_rejected", "count"); ("features.of_prog_us", "us");
    ("evolution.mutate_us", "us"); ("cost_model.score_us_per_cand", "us");
    ("gbdt.predict_ns_per_row", "ns"); ("cost_model.train_ms", "ms");
  ]

let scheduler_names =
  [
    ("scheduler.allocations", "count"); ("scheduler.alloc_ms.p50", "ms");
    ("scheduler.alloc_ms.p90", "ms"); ("scheduler.tasks_tuned", "count");
  ]

(* ---- running the workloads ----------------------------------------------- *)

type outcome = { e2e : metric list; layers : metric list; attempted : int; failed : int }

(* Each session's set-up is repeated for [setup_slice] seconds (at least
   three times) on a compacted heap and the last copy is used; [setup_s]
   is the median over all repetitions, so it samples the whole run. *)
let setup_slice = 0.1

(* A run does a fixed amount of work: [sessions_for ~seconds unit_s]
   sessions, where [unit_s] is a workload's typical session time on a
   2-core x86 host, so a run takes about [seconds] there.  Fixed work keeps
   the quality metrics a function of the seed alone. *)
let sessions_for ~seconds unit_s = max 1 (int_of_float (Float.round (seconds /. unit_s)))

(* Session [i] uses seed [session_seed seed i]. *)
let run_sessions ~n ~seed ~setup ~session =
  let setup_times = ref [] in
  let rec timed_setup sseed t_end reps =
    let s, dt = time (fun () -> setup sseed) in
    setup_times := dt :: !setup_times;
    if reps < 3 || now () < t_end then timed_setup sseed t_end (reps + 1) else s
  in
  let sessions =
    List.init n (fun i ->
        Gc.compact ();
        let st = timed_setup (session_seed seed i) (now () +. setup_slice) 1 in
        Gc.compact ();
        session st)
  in
  (sessions, median !setup_times)

(* A traced run pairs every session with an untraced copy of itself (same
   seed) and alternates which copy runs first, so warm process-wide memo
   tables favour neither side: the second copy of a pair runs up to 20%
   faster.  A discarded warm-up session first takes the process's
   cold-start cost.  It runs half as many pairs as an untraced run has
   sessions, in an even number (at least two), so it takes about as long;
   only the first traced session keeps replay inputs.  Returns the
   untraced and the traced sessions. *)
let paired_sessions ~n ~seed ~setup ~session =
  let run i traced =
    let st = setup (session_seed seed i) in
    Gc.compact ();
    Span.on := traced;
    let r = session ~keep:(traced && i = 0) st in
    Span.on := false;
    r
  in
  let pairs = max 2 (2 * (n / 4)) in
  ignore (run 0 false);
  List.split
    (List.init pairs (fun i ->
         if i mod 2 = 0 then
           let u = run i false in
           (u, run i true)
         else
           let t = run i true in
           (run i false, t)))

(* Host times are medians over sessions (robust to a stalled host);
   deterministic quantities are geometric means. *)
let tuning_e2e ~setup_s (sessions : session list) =
  let sojourn q = geomean (List.map (fun s -> 1e3 *. q s.deployed) sessions) in
  [
    m "setup_s" "s" setup_s;
    m "wall_per_trial_ms" "ms"
      (median (List.map (fun s -> 1e3 *. s.wall /. float_of_int s.trials) sessions));
    m "best_ms" "ms" (geomean (List.map best_ms sessions));
    m "net_latency_ms" "ms" (geomean (List.map (fun s -> 1e3 *. s.net_s) sessions));
    m "peak_heap_mb" "MB" (peak_heap_mb ());
    m "sojourn_p50_ms" "ms" (sojourn p50);
    m "sojourn_p99_ms" "ms" (sojourn p99);
  ]

(* Counters and phase times are those of the first session, so they are
   deterministic for a seed; round times pool every traced session.  One
   scheduler allocation is one tuner round, so rounds and allocations are
   the same events. *)
let tuning_layers ~(untraced : session list) ~(traced : session list) =
  let first = List.hd traced in
  let tot = first.stats in
  let inp = Option.get first.inputs in
  let task = fst (List.hd first.bests) in
  let round_ms = List.concat_map (fun s -> s.round_ms) traced in
  (* phases do not nest, except score inside evolve, which is not a phase *)
  let unattributed =
    1.0
    -. (sum (fun s -> sum snd s.stats.Telemetry.phase_seconds) untraced
       /. sum (fun s -> s.wall) untraced)
  in
  [
    count "search.rounds" first.rounds;
    m "search.round_ms.p50" "ms" (quantile 0.5 round_ms);
    m "search.round_ms.p90" "ms" (quantile 0.9 round_ms);
    count "search.dup_slots" tot.Telemetry.cache_hits;
    m "search.slot_useful_frac" "fraction"
      (frac tot.Telemetry.measured (Telemetry.results tot));
    m "search.unattributed_frac" "fraction" unattributed;
    count "cost_model.train_rows" first.train_rows;
    m "cost_model.train_unique_frac" "fraction" first.train_unique;
    m "cost_model.retrain_s" "s" (phase tot "retrain");
    m "cost_model.score_s" "s" tot.Telemetry.score_wall_seconds;
    m "cost_model.score_hit_frac" "fraction"
      (frac tot.Telemetry.score_hits (tot.Telemetry.score_hits + tot.Telemetry.score_misses));
    m "evolution.evolve_s" "s" (phase tot "evolve");
    count "evolution.static_rejected" tot.Telemetry.statically_rejected;
    m "sketch.sample_s" "s" (phase tot "sample");
    m "measure.measure_s" "s" (phase tot "measure");
    count "measure.trials" tot.Telemetry.trials;
    count "measure.batches" tot.Telemetry.batches;
    count "scheduler.allocations" first.rounds;
    m "scheduler.alloc_ms.p50" "ms" (quantile 0.5 round_ms);
    m "scheduler.alloc_ms.p90" "ms" (quantile 0.9 round_ms);
    count "scheduler.tasks_tuned"
      (Array.fold_left (fun a x -> if x > 0 then a + 1 else a) 0 first.alloc);
  ]
  @ serve_layers first.deployed
  @ Span.wrap "replay" (fun () ->
        serving_replay inp.registry (Workloads.mobilenet_v2 ~batch:1)
        @ program_replay inp.population task
        @ search_replay inp task)

let overhead ~traced ~untraced = (traced /. untraced) -. 1.0

let tune_workload ~traced_run ~n ~seed =
  let session ~keep st =
    let s = net_session ~keep st in
    check_session s;
    Printf.eprintf "session: wall %.2fs trials %d rounds %d best %.4fms net %.4fms\n%!"
      s.wall s.trials s.rounds (best_ms s) (1e3 *. s.net_s);
    s
  in
  let totals sessions =
    ( isum (fun s -> Telemetry.results s.stats + s.deployed.sv.Server.offered) sessions,
      isum (fun s -> tune_errors s.stats + lost s.deployed) sessions )
  in
  if not traced_run then begin
    let sessions, setup_s =
      run_sessions ~n ~seed ~setup:net_setup ~session:(session ~keep:false)
    in
    let attempted, failed = totals sessions in
    { e2e = tuning_e2e ~setup_s sessions; layers = []; attempted; failed }
  end
  else begin
    let untraced, traced = paired_sessions ~n ~seed ~setup:net_setup ~session in
    let attempted, failed = totals (untraced @ traced) in
    let timed l = sum (fun s -> s.wall +. s.deployed.host_s) l in
    Span.on := true;
    {
      e2e = [];
      layers =
        tuning_layers ~untraced ~traced
        @ [
            m "trace.overhead_frac" "fraction"
              (overhead ~traced:(timed traced) ~untraced:(timed untraced));
          ];
      attempted;
      failed;
    }
  end

let serve_workload ~traced_run ~n ~seed =
  let totals epochs =
    ( isum (fun e -> e.served.sv.Server.offered + Telemetry.results e.cand_stats) epochs,
      isum (fun e -> lost e.served + e.cand_failed) epochs )
  in
  if not traced_run then begin
    let epochs, setup_s =
      run_sessions ~n ~seed ~setup:epoch_setup ~session:(serve_epoch ~keep:false)
    in
    let attempted, failed = totals epochs in
    (* the median: an epoch whose rollback stalled the queue is an outlier *)
    let sojourn q = median (List.map (fun e -> 1e3 *. q e.served) epochs) in
    {
      e2e =
        [
          m "setup_s" "s" setup_s;
          m "wall_per_trial_ms" "ms"
            (1e3 *. sum (fun e -> e.cand_wall) epochs
            /. float_of_int (max 1 (isum (fun e -> e.cand_trials) epochs)));
          m "best_ms" "ms" (geomean (List.map (fun e -> geomean e.incumbents_ms) epochs));
          m "net_latency_ms" "ms" (geomean (List.map (fun e -> 1e3 *. e.nominal_s) epochs));
          m "peak_heap_mb" "MB" (peak_heap_mb ());
          m "sojourn_p50_ms" "ms" (sojourn p50);
          m "sojourn_p99_ms" "ms" (sojourn p99);
        ];
      layers = [];
      attempted;
      failed;
    }
  end
  else begin
    let untraced, traced =
      paired_sessions ~n ~seed ~setup:epoch_setup ~session:serve_epoch
    in
    let attempted, failed = totals (untraced @ traced) in
    let timed l = sum (fun e -> e.served.host_s +. e.cand_wall) l in
    Span.on := true;
    (* counters of the first epoch, as for the tuning workloads *)
    let e0 = List.hd traced in
    let first, proposed = Option.get e0.kept in
    let tot = e0.cand_stats in
    {
      e2e = [];
      layers =
        not_exercised (search_names @ scheduler_names)
        @ [
            m "sketch.sample_s" "s" e0.sample_s;
            m "measure.measure_s" "s" (phase tot "measure");
            count "measure.trials" tot.Telemetry.trials;
            count "measure.batches" tot.Telemetry.batches;
          ]
        @ serve_layers e0.served
        @ Span.wrap "replay" (fun () ->
              serving_replay first.e_registry first.e_net
              @ program_replay proposed first.e_tasks.(0))
        @ [
            m "trace.overhead_frac" "fraction"
              (overhead ~traced:(timed traced) ~untraced:(timed untraced));
          ];
      attempted;
      failed;
    }
  end

(* ---- entry point ---------------------------------------------------------- *)

let usage () =
  prerr_endline
    "usage: main.exe --workload tune-network|serve-rollout --seed N \
     --seconds S --trace 0|1";
  exit 2

let () =
  let workload = ref "" and seed = ref 0 and seconds = ref 10.0 and trace = ref false in
  let rec parse = function
    | "--workload" :: w :: rest ->
      workload := w;
      parse rest
    | "--seed" :: n :: rest ->
      seed := (match int_of_string_opt n with Some v -> v | None -> usage ());
      parse rest
    | "--seconds" :: n :: rest ->
      seconds := (match float_of_string_opt n with Some v when v > 0.0 -> v | _ -> usage ());
      parse rest
    | "--trace" :: n :: rest ->
      trace := (match n with "0" -> false | "1" -> true | _ -> usage ());
      parse rest
    | [] -> ()
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let traced_run = !trace and origin = now () in
  let out =
    match !workload with
    | "tune-network" ->
      tune_workload ~traced_run ~n:(sessions_for ~seconds:!seconds net_session_s) ~seed:!seed
    | "serve-rollout" ->
      serve_workload ~traced_run ~n:(sessions_for ~seconds:!seconds epoch_s) ~seed:!seed
    | _ -> usage ()
  in
  let metrics =
    if traced_run then
      out.layers
      @ [
          m "code.lib_lines" "lines" (float_of_int (source_lines "lib"));
          m "code.bin_lines" "lines" (float_of_int (source_lines "bin"));
        ]
    else out.e2e
  in
  if traced_run then begin
    let dir = Filename.concat "perfbench" "out" in
    if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
    Span.write ~origin
      ~path:(Filename.concat dir (Printf.sprintf "%s-seed%d.trace.jsonl" !workload !seed))
  end;
  List.iter (fun mt -> if not (Float.is_finite mt.value) then fail "%s is not finite" mt.name) metrics;
  List.iter (fun f -> Printf.printf "check failed: %s\n" f) (List.rev !failures);
  let correct = !failures = [] in
  let metrics =
    List.map (fun mt -> if Float.is_finite mt.value then mt else { mt with value = 0.0 }) metrics
  in
  print_result ~correct ~attempted:out.attempted ~failed:out.failed metrics;
  if not correct then exit 1
