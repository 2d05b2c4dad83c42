module Tuner = Ansor_search.Tuner
module Task = Ansor_search.Task
module Service = Ansor_measure_service.Service
module Telemetry = Ansor_measure_service.Telemetry
module Cache = Ansor_measure_service.Cache
module Rng = Ansor_util.Rng

type objective =
  | F1_sum
  | F2_requirements of float array
  | F3_geomean_speedup of float array
  | F4_early_stopping of { patience : int }
  | Custom of (float array -> float)

type network = { net_name : string; task_weights : (int * int) list }

type options = {
  objective : objective;
  alpha : float;
  beta : float;
  eps_greedy : float;
  tuner_options : Tuner.options;
  service_config : Service.config;
  seed : int;
}

let default_options =
  {
    objective = F1_sum;
    alpha = 0.2;
    beta = 2.0;
    eps_greedy = 0.05;
    tuner_options = Tuner.ansor_options;
    service_config = Service.default_config;
    seed = 0;
  }

type task_state = {
  tuner : Tuner.t;
  service : Service.t;
  mutable history : float list;  (* best latency after each unit, newest first *)
  mutable no_improve : int;
  mutable empty_rounds : int;
      (* consecutive allocations that delivered no classified result *)
}

type t = {
  options : options;
  tasks : Task.t array;
  networks : network list;
  states : task_state array;
  shr : Tuner.Shared.t;
  rng : Rng.t;
  class_keys : string array;
  mutable curve_rev : (int * float array) list;
}

(* Structural similarity class: the workload key with concrete sizes
   blanked out — subgraphs of the same shape family land together.
   Shared with the registry and the model store (Ansor_util.Task_key),
   so 512 and 1024 variants of one operator fall in the same class. *)
let class_key task = Ansor_util.Task_key.class_key (Task.key task)

let create ?native_runner ?cache options ~tasks ~networks =
  if Array.length tasks = 0 then invalid_arg "Scheduler.create: no tasks";
  if networks = [] then invalid_arg "Scheduler.create: no networks";
  List.iter
    (fun n ->
      List.iter
        (fun (i, w) ->
          if i < 0 || i >= Array.length tasks then
            invalid_arg "Scheduler.create: task index out of range";
          if w < 1 then invalid_arg "Scheduler.create: non-positive weight")
        n.task_weights)
    networks;
  let states =
    Array.mapi
      (fun i task ->
        {
          tuner = Tuner.create ~seed:(options.seed + i) options.tuner_options task;
          service =
            Service.create ~config:options.service_config ?cache ?native_runner
              ~seed:(options.seed + 17 + (31 * i))
              task.Task.machine;
          history = [];
          no_improve = 0;
          empty_rounds = 0;
        })
      tasks
  in
  {
    options;
    tasks;
    networks;
    states;
    shr = Tuner.Shared.create ();
    rng = Rng.create (options.seed + 99);
    class_keys = Array.map class_key tasks;
    curve_rev = [];
  }

module Snapshot = struct
  type t = {
    rng_state : int64;
    tuners : Tuner.Snapshot.t array;
    histories : float list array;  (* newest first, as held in task_state *)
    no_improves : int array;
    empty_rounds : int array;
    curve : (int * float array) list;  (* oldest first *)
    shared : Tuner.Shared.snapshot;
    caches : (string * float) list array;  (* per-task dedup-cache entries *)
    stats : Telemetry.stats array;  (* per-task service telemetry *)
  }

  let task_keys s = Array.map (fun (ts : Tuner.Snapshot.t) -> ts.task_key) s.tuners
end

let snapshot t =
  {
    Snapshot.rng_state = Rng.state t.rng;
    tuners = Array.map (fun s -> Tuner.snapshot s.tuner) t.states;
    histories = Array.map (fun s -> s.history) t.states;
    no_improves = Array.map (fun s -> s.no_improve) t.states;
    empty_rounds = Array.map (fun s -> s.empty_rounds) t.states;
    curve = List.rev t.curve_rev;
    shared = Tuner.Shared.snapshot t.shr;
    caches = Array.map (fun s -> Cache.entries (Service.cache s.service)) t.states;
    stats = Array.map (fun s -> Service.stats s.service) t.states;
  }

let restore t (s : Snapshot.t) =
  let n = Array.length t.states in
  if Array.length s.Snapshot.tuners <> n then
    Error
      (Printf.sprintf "snapshot has %d tasks, session has %d"
         (Array.length s.Snapshot.tuners) n)
  else begin
    (* validate every task key before mutating anything *)
    let mismatch = ref None in
    Array.iteri
      (fun i st ->
        let want = Task.key (Tuner.task st.tuner) in
        let got = s.Snapshot.tuners.(i).Tuner.Snapshot.task_key in
        if !mismatch = None && not (String.equal want got) then
          mismatch :=
            Some (Printf.sprintf "task %d: snapshot is for %s, not %s" i got want))
      t.states;
    match !mismatch with
    | Some msg -> Error msg
    | None ->
      Array.iteri
        (fun i st ->
          (match Tuner.restore st.tuner s.Snapshot.tuners.(i) with
          | Ok () -> ()
          | Error _ -> assert false (* keys were validated above *));
          st.history <- s.Snapshot.histories.(i);
          st.no_improve <- s.Snapshot.no_improves.(i);
          st.empty_rounds <- s.Snapshot.empty_rounds.(i);
          let cache = Service.cache st.service in
          List.iter (fun (k, v) -> Cache.add cache k v) s.Snapshot.caches.(i);
          Telemetry.restore (Service.telemetry st.service) s.Snapshot.stats.(i))
        t.states;
      Tuner.Shared.restore t.shr s.Snapshot.shared;
      Rng.set_state t.rng s.Snapshot.rng_state;
      t.curve_rev <- List.rev s.Snapshot.curve;
      Ok ()
  end

let allocations t = Array.map (fun s -> List.length s.history) t.states
let best_latency t i = Tuner.best_latency t.states.(i).tuner
let best_state t i = Tuner.best_state t.states.(i).tuner
let shared t = t.shr
let telemetry t i = Service.telemetry t.states.(i).service

let total_trials t =
  Array.fold_left (fun acc s -> acc + Service.trials s.service) 0 t.states

let stats t =
  Telemetry.total
    (Array.to_list (Array.map (fun s -> Service.stats s.service) t.states))

let finite g = if Float.is_finite g then g else 1.0 (* 1 second: "very slow" *)

let latencies t =
  Array.map (fun s -> finite (Tuner.best_latency s.tuner)) t.states

let network_latency_of g net =
  List.fold_left
    (fun acc (i, w) -> acc +. (float_of_int w *. g.(i)))
    0.0 net.task_weights

let network_latency t net = network_latency_of (latencies t) net

let objective_of t (netlats : float array) =
  match t.options.objective with
  | F1_sum | F4_early_stopping _ -> Array.fold_left ( +. ) 0.0 netlats
  | F2_requirements reqs ->
    let acc = ref 0.0 in
    Array.iteri
      (fun j l ->
        let r = if j < Array.length reqs then reqs.(j) else 0.0 in
        acc := !acc +. Float.max l r)
      netlats;
    !acc
  | F3_geomean_speedup refs ->
    let m = Array.length netlats in
    let s = ref 0.0 in
    Array.iteri
      (fun j l ->
        let b = if j < Array.length refs then refs.(j) else 1.0 in
        s := !s +. log (Float.max 1e-12 (b /. l)))
      netlats;
    -.exp (!s /. float_of_int m)
  | Custom f -> f netlats

let netlats_of t g =
  Array.of_list (List.map (network_latency_of g) t.networks)

let objective_value t = objective_of t (netlats_of t (latencies t))

(* df/dg_i by a backward numeric difference on the objective. *)
let dobj_dg t g i =
  let gi = g.(i) in
  let delta = Float.max (gi *. 0.01) 1e-12 in
  let f0 = objective_of t (netlats_of t g) in
  let g' = Array.copy g in
  g'.(i) <- gi -. delta;
  let f1 = objective_of t (netlats_of t g') in
  (f0 -. f1) /. delta

(* dg_i/dt_i per Appendix A. *)
let dg_dt t g i =
  let s = t.states.(i) in
  let ti = List.length s.history in
  if ti = 0 then Float.neg_infinity
  else begin
    let gi = g.(i) in
    (* a backward difference over the last 3 units (Delta-t) *)
    let dt = min 3 (ti - 1) in
    let backward =
      if dt <= 0 then 0.0
      else
        let past = List.nth s.history dt in
        (gi -. finite past) /. float_of_int dt
    in
    let optimistic = -.gi /. float_of_int ti in
    let similarity =
      let ci = Task.flops t.tasks.(i) in
      let max_v = ref 0.0 in
      Array.iteri
        (fun k sk ->
          if k <> i && String.equal t.class_keys.(k) t.class_keys.(i) then begin
            let gk = Tuner.best_latency sk.tuner in
            if Float.is_finite gk && gk > 0.0 then
              max_v := Float.max !max_v (Task.flops t.tasks.(k) /. gk)
          end)
        t.states;
      if !max_v > 0.0 then (t.options.beta *. ci /. !max_v) -. gi
      else Float.neg_infinity
    in
    let forward =
      if similarity = Float.neg_infinity then optimistic
      else Float.min optimistic similarity
    in
    (t.options.alpha *. backward) +. ((1.0 -. t.options.alpha) *. forward)
  end

(* The stop rule besides the trial budget.  A task is dead — its tuner
   cannot propose anything new — once [stall_limit] allocations in a row
   delivered no classified result (not even cache hits or failures), and
   {!run} stops after [stall_limit] trial-free allocations per task in a
   row.  A one-task session therefore stops after 3 trial-free rounds. *)
let stall_limit = 3

let dead s = s.empty_rounds >= stall_limit

let gradient t g i =
  let s = t.states.(i) in
  if dead s then 0.0
  else
    match t.options.objective with
    | F4_early_stopping { patience } when s.no_improve >= patience -> 0.0
    | _ -> dobj_dg t g i *. dg_dt t g i

let allocate t ~trial_budget i =
  let s = t.states.(i) in
  let before = Service.stats s.service in
  let before_best = Tuner.best_latency s.tuner in
  Tuner.round ~budget:trial_budget s.tuner t.shr s.service;
  let g = Tuner.best_latency s.tuner in
  s.history <- g :: s.history;
  let after = Service.stats s.service in
  if Telemetry.results after = Telemetry.results before then
    s.empty_rounds <- s.empty_rounds + 1
  else s.empty_rounds <- 0;
  if Float.is_finite before_best && g >= before_best *. 0.999 then
    s.no_improve <- s.no_improve + 1
  else s.no_improve <- 0;
  t.curve_rev <- (total_trials t, netlats_of t (latencies t)) :: t.curve_rev

let run ?(should_stop = fun () -> false) ?on_round t ~trial_budget =
  (* a task whose rounds only return cache hits stays alive but consumes no
     trials; bound the number of consecutive trial-free allocations (warm-up
     included) so the budget loop always terminates *)
  let stagnant = ref 0 in
  let allocate t i =
    let before = total_trials t in
    allocate t ~trial_budget i;
    if total_trials t = before then incr stagnant else stagnant := 0;
    match on_round with Some f -> f t | None -> ()
  in
  (* warm-up: one unit per task, round-robin (a resumed session's tasks
     already have history, so warm-up is naturally skipped) *)
  Array.iteri
    (fun i s ->
      if s.history = [] && total_trials t < trial_budget && not (should_stop ())
      then allocate t i)
    t.states;
  let n = Array.length t.tasks in
  let continue = ref true in
  while
    (not (should_stop ()))
    && !continue
    && total_trials t < trial_budget
    && !stagnant < stall_limit * n
  do
    let alive =
      Array.to_list (Array.init n Fun.id)
      |> List.filter (fun i -> not (dead t.states.(i)))
    in
    if alive = [] then continue := false
    else begin
      let i =
        if Rng.float t.rng 1.0 < t.options.eps_greedy then
          Rng.choice_list t.rng alive
        else begin
          let g = latencies t in
          let scored =
            List.map (fun i -> (i, Float.abs (gradient t g i))) alive
          in
          let best =
            List.fold_left
              (fun (bi, bs) (i, s) -> if s > bs then (i, s) else (bi, bs))
              (List.hd alive, -1.0) scored
          in
          fst best
        end
      in
      allocate t i
    end
  done

let curve t = List.rev t.curve_rev
