module Registry = Ansor_registry.Registry
module Task = Ansor_search.Task
module Tuner = Ansor_search.Tuner
module State = Ansor_sched.State
module Lower = Ansor_sched.Lower
module Prog = Ansor_sched.Prog
module Simulator = Ansor_machine.Simulator
module Machine = Ansor_machine.Machine
module Interp = Ansor_interp.Interp
module Service = Ansor_measure_service.Service
module Model_store = Ansor_model_store.Model_store
module Task_key = Ansor_util.Task_key
module Lru = Ansor_util.Lru
module Rng = Ansor_util.Rng
module Workloads = Ansor_workloads.Workloads

type canary_config = {
  fraction : float;  (* share of a key's traffic routed to the candidate *)
  min_samples : int;  (* per-arm sample floor before deciding *)
  margin : float;  (* tail-regression tolerance on p95 *)
}

let default_canary = { fraction = 0.2; min_samples = 24; margin = 0.05 }

type tuner_config = {
  every : float;  (* virtual seconds between background rounds *)
  trials : int;  (* measurements per round *)
}

type config = {
  shards : int;
  capacity : int;  (* per-shard compiled-program LRU capacity *)
  service_workers : int;  (* virtual in-flight request slots *)
  pool_workers : int;  (* domains for the background tuner's measurements *)
  noise : float;
  seed : int;
  naive : bool;
  load : Loadgen.config;
  admission : Admission.config;
  canary : canary_config;
  tuner : tuner_config option;
}

let default_config =
  {
    shards = 4;
    capacity = 64;
    service_workers = 2;
    pool_workers = 1;
    noise = 0.03;
    seed = 0;
    naive = false;
    load = Loadgen.default_config;
    admission = Admission.default_config;
    canary = default_canary;
    tuner = None;
  }

type compiled = { prog : Prog.t; base : float; stamp : int }

type candidate = {
  cand_state : State.t;
  cand_base : float;
  origin : string;
  canary_hist : Histogram.t;  (* layer latencies served by the candidate *)
  control_hist : Histogram.t;  (* incumbent latencies over the same window *)
}

type live = {
  task : Task.t;
  key : string;
  weight : int;
  shard_id : int;
  mutable state : State.t;  (* the incumbent schedule *)
  mutable outcome : Registry.outcome;
  mutable generation : int;  (* bumped by every promotion *)
  mutable hot : int;  (* layer runs since the tuner's last visit *)
  mutable candidate : candidate option;
  mutable tuner : Tuner.t option;
}

type shard = { lru : compiled Lru.t; hist : Histogram.t }

type event_kind = Proposed | Promoted | Rolled_back

let event_kind_to_string = function
  | Proposed -> "proposed"
  | Promoted -> "promoted"
  | Rolled_back -> "rolled_back"

type event = {
  vtime : float;
  key : string;
  kind : event_kind;
  origin : string;
  candidate_p95 : float;
  incumbent_p95 : float;
}

type tstats = {
  mutable t_offered : int;
  mutable t_served : int;
  mutable t_shed : int;
  mutable t_quota : int;
}

type t = {
  config : config;
  machine : Machine.t;
  registry : Registry.t;
  net : Workloads.net;
  layers : live array;
  shards : shard array;
  sojourn : Histogram.t;  (* accepted-request latency, queueing included *)
  admission : Loadgen.request Admission.t;
  tenants : (string, tstats) Hashtbl.t;
  mutable served : int;
  mutable layer_runs : int;
  mutable invalidations : int;
  mutable promotions : int;
  mutable rollbacks : int;
  mutable proposals : int;
  mutable tuner_rounds : int;
  mutable events_rev : event list;
  mutable vtime : float;  (* last event processed, virtual seconds *)
  mutable wall_seconds : float;
  shared : Tuner.Shared.t;
  service : Service.t option;  (* background tuner's measure service *)
  model_store : Model_store.session option;
      (* cross-task store: warm-starts the first background retune and
         receives every batch the tuner measures *)
}

let validate (c : config) =
  if c.shards < 1 then invalid_arg "Server.create: shards < 1";
  if c.capacity < 1 then invalid_arg "Server.create: capacity < 1";
  if c.service_workers < 1 then invalid_arg "Server.create: service_workers < 1";
  if c.pool_workers < 1 then invalid_arg "Server.create: pool_workers < 1";
  if not (c.canary.fraction > 0.0 && c.canary.fraction < 1.0) then
    invalid_arg "Server.create: canary fraction must be in (0, 1)";
  if c.canary.min_samples < 1 then
    invalid_arg "Server.create: canary min_samples < 1";
  if c.canary.margin < 0.0 then invalid_arg "Server.create: canary margin < 0";
  match c.tuner with
  | Some tc ->
    if tc.every <= 0.0 || tc.trials < 1 then
      invalid_arg "Server.create: tuner needs every > 0 and trials >= 1"
  | None -> ()

let shard_of ~shards key = Hashtbl.hash key mod shards

let create ?(config = default_config) ?model_store ~registry ~machine net =
  validate config;
  let tasks = Array.of_list (Workloads.net_tasks ~machine net) in
  if Array.length tasks = 0 then invalid_arg "Server.create: network has no layers";
  let layers =
    Array.map
      (fun ((task : Task.t), weight) ->
        let state, outcome =
          if config.naive then
            (State.init task.Task.dag, Registry.Defaulted "naive dispatch")
          else Registry.resolve registry task
        in
        {
          task;
          key = Task.key task;
          weight;
          shard_id = shard_of ~shards:config.shards (Task.key task);
          state;
          outcome;
          generation = 0;
          hot = 0;
          candidate = None;
          tuner = None;
        })
      tasks
  in
  let shards =
    Array.init config.shards (fun _ ->
        { lru = Lru.create ~capacity:config.capacity; hist = Histogram.create () })
  in
  let service =
    match config.tuner with
    | None -> None
    | Some _ ->
      Some
        (Service.create
           ~config:
             { Service.default_config with num_workers = config.pool_workers }
           ~seed:(config.seed + 77) machine)
  in
  let shared = Tuner.Shared.create () in
  (* attach the cross-task store up front so every background round's
     measured batch is appended; the warm start itself is lazy (first
     tuner tick — see [tuner_tick]) so it targets the key actually hot *)
  (match model_store with
  | Some (ms : Model_store.session) ->
    Tuner.Shared.attach_store ?path:ms.Model_store.path shared
      ms.Model_store.store
  | None -> ());
  {
    config;
    machine;
    registry;
    net;
    layers;
    shards;
    sojourn = Histogram.create ();
    admission = Admission.create ~config:config.admission ();
    tenants = Hashtbl.create 8;
    served = 0;
    layer_runs = 0;
    invalidations = 0;
    promotions = 0;
    rollbacks = 0;
    proposals = 0;
    tuner_rounds = 0;
    events_rev = [];
    vtime = 0.0;
    wall_seconds = 0.0;
    shared;
    service;
    model_store;
  }

let net t = t.net
let machine t = t.machine
let keys t = Array.to_list (Array.map (fun (l : live) -> l.key) t.layers)

let find_live t key = Array.find_opt (fun (l : live) -> l.key = key) t.layers

let generation t ~key = Option.map (fun l -> l.generation) (find_live t key)

let candidate_active t ~key =
  match find_live t key with Some l -> l.candidate <> None | None -> false

(* ---- compiled-program shards -------------------------------------------- *)

let compile_live t live =
  let prog = Lower.lower live.state in
  { prog; base = Simulator.estimate t.machine prog; stamp = live.generation }

(* Per-shard LRU, stamped with the key's promotion generation: a stale hit
   (entry compiled before the last promotion) recompiles in place — the
   same invalidation pattern as Score_service's model generations. *)
let fetch t live =
  let sh = t.shards.(live.shard_id) in
  match Lru.find sh.lru live.key with
  | Some c when c.stamp = live.generation -> c
  | found ->
    if found <> None then t.invalidations <- t.invalidations + 1;
    let c = compile_live t live in
    Lru.add sh.lru live.key c;
    c

let warm t = Array.iter (fun live -> ignore (fetch t live)) t.layers

let incumbent_latency t ~key =
  Option.map (fun live -> (fetch t live).base) (find_live t key)

let nominal_latency t =
  Array.fold_left
    (fun acc live -> acc +. (float_of_int live.weight *. (fetch t live).base))
    0.0 t.layers

let verify_outputs ?tol ?(seed = 2024) t =
  let rec go i =
    if i >= Array.length t.layers then Ok ()
    else
      let live = t.layers.(i) in
      let dag = live.task.Task.dag in
      let inputs = Interp.random_inputs (Rng.create (seed + i)) dag in
      match Interp.check_equivalent ?tol dag (fetch t live).prog ~inputs with
      | Ok () -> go (i + 1)
      | Error msg ->
        Error
          (Printf.sprintf "layer %s (%s): %s" live.task.Task.name
             (Registry.outcome_to_string live.outcome) msg)
  in
  go 0

(* ---- canary gate --------------------------------------------------------- *)

let push_event t ev = t.events_rev <- ev :: t.events_rev

(* Promote only on a win: median strictly better and the tail (p95) not
   regressed beyond the margin.  Anything else rolls the candidate back —
   the incumbent was never replaced, so "rollback" just restores 100% of
   the key's traffic to it and records the regression. *)
let maybe_decide t ~vtime live =
  match live.candidate with
  | Some c
    when Histogram.count c.canary_hist >= t.config.canary.min_samples
         && Histogram.count c.control_hist >= t.config.canary.min_samples ->
    let cp95 = Histogram.quantile c.canary_hist 0.95
    and ip95 = Histogram.quantile c.control_hist 0.95
    and cp50 = Histogram.quantile c.canary_hist 0.5
    and ip50 = Histogram.quantile c.control_hist 0.5 in
    let win = cp50 < ip50 && cp95 <= ip95 *. (1.0 +. t.config.canary.margin) in
    live.candidate <- None;
    let ev kind =
      {
        vtime;
        key = live.key;
        kind;
        origin = c.origin;
        candidate_p95 = cp95;
        incumbent_p95 = ip95;
      }
    in
    if win then begin
      live.state <- c.cand_state;
      live.generation <- live.generation + 1;
      t.promotions <- t.promotions + 1;
      push_event t (ev Promoted)
    end
    else begin
      t.rollbacks <- t.rollbacks + 1;
      push_event t (ev Rolled_back)
    end
  | _ -> ()

let propose t ~origin ~key state =
  match find_live t key with
  | None -> Error (Printf.sprintf "propose: unknown task key %s" key)
  | Some live -> (
    if live.candidate <> None then
      Error (Printf.sprintf "propose: %s already has a candidate in canary" key)
    else
      match Lower.lower state with
      | exception State.Illegal msg ->
        Error (Printf.sprintf "propose: candidate does not lower: %s" msg)
      | prog ->
        let cand_base = Simulator.estimate t.machine prog in
        live.candidate <-
          Some
            {
              cand_state = state;
              cand_base;
              origin;
              canary_hist = Histogram.create ();
              control_hist = Histogram.create ();
            };
        t.proposals <- t.proposals + 1;
        push_event t
          {
            vtime = t.vtime;
            key;
            kind = Proposed;
            origin;
            candidate_p95 = cand_base;
            incumbent_p95 = (fetch t live).base;
          };
        Ok ())

(* ---- request execution --------------------------------------------------- *)

(* Canary routing is a pure function of (seed, request id, key): the same
   request always lands on the same arm, for any event interleaving. *)
let canary_draw t rid key =
  let r =
    Rng.create
      (t.config.seed lxor (rid * 0x9e3779b1) lxor (Hashtbl.hash key * 0x85ebca77))
  in
  Rng.float r 1.0

(* One end-to-end request at its service start: every layer's simulated
   latency (weighted, with per-request log-normal jitter) lands in its
   shard's histogram; layers with an active candidate also feed the canary
   arms.  Returns the request's total service time. *)
let exec_request t ~vtime (r : Loadgen.request) =
  let rng = Rng.create (t.config.seed + (7919 * r.Loadgen.id) + 1) in
  let total = ref 0.0 in
  Array.iter
    (fun live ->
      live.hot <- live.hot + live.weight;
      let inc = fetch t live in
      let jitter =
        if t.config.noise <= 0.0 then 1.0
        else exp (t.config.noise *. Rng.gaussian rng)
      in
      let cand = live.candidate in
      let on_candidate =
        match cand with
        | Some _ -> canary_draw t r.Loadgen.id live.key < t.config.canary.fraction
        | None -> false
      in
      let base =
        match cand with
        | Some c when on_candidate -> c.cand_base
        | _ -> inc.base
      in
      let lat = float_of_int live.weight *. base *. jitter in
      Histogram.add t.shards.(live.shard_id).hist lat;
      (match cand with
      | Some c ->
        Histogram.add (if on_candidate then c.canary_hist else c.control_hist) lat;
        maybe_decide t ~vtime live
      | None -> ());
      t.layer_runs <- t.layer_runs + 1;
      total := !total +. lat)
    t.layers;
  !total

(* ---- background tuner ---------------------------------------------------- *)

(* One background round on the hottest key (most layer runs since its last
   visit): advance that key's persistent tuner by one batch on the domain
   pool, and if its best program now beats the incumbent's simulator
   estimate, enter it into the canary gate.  The gate — not the tuner —
   decides whether it ever takes live traffic for good. *)
let tuner_tick t =
  match (t.config.tuner, t.service) with
  | Some tc, Some service -> (
    let hottest =
      Array.fold_left
        (fun acc live ->
          match acc with
          | Some (best : live) when best.hot >= live.hot -> acc
          | _ -> if live.hot > 0 then Some live else acc)
        None t.layers
    in
    match hottest with
    | None -> ()
    | Some live ->
      live.hot <- 0;
      let tuner =
        match live.tuner with
        | Some tu -> tu
        | None ->
          let opts = { Tuner.ansor_options with batch_size = tc.trials } in
          let tu =
            Tuner.create
              ~seed:(t.config.seed + (Hashtbl.hash live.key land 0xffff) + 13)
              opts live.task
          in
          live.tuner <- Some tu;
          tu
      in
      (* warm-start the shared cost model on the first retune: resolve
         the pretrained ladder for the key actually being retuned and
         fold in its class's stored samples.  adopt_store bumps the
         model generation at most once, and only while still cold —
         later ticks (and later hot keys) fine-tune from here. *)
      (match t.model_store with
      | Some ms when String.equal (Tuner.Shared.provenance t.shared) "cold" ->
        let warm =
          Option.map
            (fun (g, o) -> (Model_store.Pretrained.origin_name o, g))
            (Model_store.Pretrained.resolve ms.Model_store.pretrained
               ~task_key:live.key)
        in
        let aux =
          Model_store.samples_for_class ms.Model_store.store
            ~class_key:(Task_key.class_key live.key)
        in
        ignore (Tuner.Shared.adopt_store t.shared ~warm ~aux)
      | _ -> ());
      Tuner.round tuner t.shared service;
      t.tuner_rounds <- t.tuner_rounds + 1;
      if live.candidate = None then
        match Tuner.best_state tuner with
        | Some st -> (
          match Lower.lower st with
          | exception State.Illegal _ -> ()
          | prog ->
            let cand = Simulator.estimate t.machine prog in
            if cand < (fetch t live).base *. 0.999 then
              ignore (propose t ~origin:"tuner" ~key:live.key st))
        | None -> ())
  | _ -> ()

(* ---- the event loop ------------------------------------------------------ *)

let tstats_for t name =
  match Hashtbl.find_opt t.tenants name with
  | Some s -> s
  | None ->
    let s = { t_offered = 0; t_served = 0; t_shed = 0; t_quota = 0 } in
    Hashtbl.replace t.tenants name s;
    s

(* Deterministic discrete-event simulation over the arrival trace.
   Three event sources — arrivals, completions, tuner ticks — are merged
   in virtual-time order (completions first on ties, so a freed worker
   can serve a simultaneous arrival).  Open loop replays the generated
   trace; closed loop issues the next request whenever a service slot is
   free, stamped with the current virtual time, so requests never wait.
   Every offered request ends in exactly one of: served, shed
   (classified), quota-rejected. *)
let run t ~requests =
  if requests < 1 then invalid_arg "Server.run: requests < 1";
  let t0 = Unix.gettimeofday () in
  let closed = t.config.load.Loadgen.arrival_rate = 0.0 in
  let arrivals =
    if closed then Loadgen.closed_loop t.config.load ~n:requests
    else Loadgen.generate t.config.load ~n:requests
  in
  (* closed loop has no trace end; background ticks run while requests
     remain to be issued *)
  let horizon =
    if closed then infinity else arrivals.(requests - 1).Loadgen.arrival
  in
  t.vtime <- 0.0;
  (* pending completions, ascending (time, request); at most
     service_workers entries, so sorted-list insertion is cheap *)
  let completions = ref [] in
  let busy = ref 0 in
  let insert_completion time r =
    let rec ins = function
      | [] -> [ (time, r) ]
      | (tc, _) :: _ as rest when time < tc -> (time, r) :: rest
      | x :: rest -> x :: ins rest
    in
    completions := ins !completions
  in
  let start tm (r : Loadgen.request) =
    incr busy;
    let service = exec_request t ~vtime:tm r in
    insert_completion (tm +. service) r
  in
  let try_start tm =
    while
      !busy < t.config.service_workers
      &&
      match Admission.take t.admission with
      | Some r ->
        start tm r;
        true
      | None -> false
    do
      ()
    done
  in
  let complete tm (r : Loadgen.request) =
    decr busy;
    t.served <- t.served + 1;
    let ts = tstats_for t r.Loadgen.tenant.Loadgen.name in
    ts.t_served <- ts.t_served + 1;
    Histogram.add t.sojourn (tm -. r.Loadgen.arrival);
    try_start tm
  in
  let arrive (r : Loadgen.request) =
    let ts = tstats_for t r.Loadgen.tenant.Loadgen.name in
    ts.t_offered <- ts.t_offered + 1;
    (match
       Admission.offer t.admission ~now:r.Loadgen.arrival ~tenant:r.Loadgen.tenant
         r
     with
    | `Admitted -> ()
    | `Quota_exceeded -> ts.t_quota <- ts.t_quota + 1
    | `Shed_queue_full -> ts.t_shed <- ts.t_shed + 1
    | `Displaced (v : Loadgen.request) ->
      let vs = tstats_for t v.Loadgen.tenant.Loadgen.name in
      vs.t_shed <- vs.t_shed + 1);
    try_start r.Loadgen.arrival
  in
  let next_tick =
    ref (match t.config.tuner with Some tc -> tc.every | None -> infinity)
  in
  let i = ref 0 in
  while !i < requests || !completions <> [] do
    let t_arr =
      if !i >= requests then infinity
      else if not closed then arrivals.(!i).Loadgen.arrival
      else if !busy < t.config.service_workers then t.vtime
      else infinity
    in
    let t_comp = match !completions with (tc, _) :: _ -> tc | [] -> infinity in
    let t_tick =
      if !next_tick <= horizon && !i < requests then !next_tick else infinity
    in
    if t_comp <= t_arr && t_comp <= t_tick then begin
      let tm, r = List.hd !completions in
      completions := List.tl !completions;
      t.vtime <- tm;
      complete tm r
    end
    else if t_tick <= t_arr then begin
      t.vtime <- t_tick;
      tuner_tick t;
      next_tick :=
        !next_tick
        +. (match t.config.tuner with Some tc -> tc.every | None -> infinity)
    end
    else begin
      let r = arrivals.(!i) in
      let r = if closed then { r with Loadgen.arrival = t_arr } else r in
      incr i;
      t.vtime <- r.Loadgen.arrival;
      arrive r
    end
  done;
  t.wall_seconds <- t.wall_seconds +. (Unix.gettimeofday () -. t0)

(* ---- telemetry ----------------------------------------------------------- *)

type shard_stats = {
  shard_id : int;
  runs : int;
  hits : int;
  misses : int;
  evictions : int;
  latency : Histogram.summary;
}

type tenant_stats = {
  tenant : string;
  offered : int;
  served : int;
  shed : int;
  quota_rejected : int;
}

type stats = {
  offered : int;
  served : int;
  shed : int;
  shed_queue_full : int;
  shed_displaced : int;
  quota_rejected : int;
  max_queue_depth : int;
  layer_runs : int;
  exact : int;
  adapted : int;
  defaulted : int;
  invalidations : int;
  promotions : int;
  rollbacks : int;
  proposals : int;
  tuner_rounds : int;
  warm_starts : int;
  store_samples : int;
  sojourn : Histogram.summary;
  service : Histogram.summary;
  shards : shard_stats list;
  tenants : tenant_stats list;
  events : event list;
  vtime : float;
  wall_seconds : float;
}

let stats t =
  let a = Admission.stats t.admission in
  let outcome_count p =
    Array.fold_left
      (fun acc live -> if p live.outcome then acc + 1 else acc)
      0 t.layers
  in
  let shards =
    List.mapi
      (fun shard_id (sh : shard) ->
        {
          shard_id;
          runs = Histogram.count sh.hist;
          hits = Lru.hits sh.lru;
          misses = Lru.misses sh.lru;
          evictions = Lru.evictions sh.lru;
          latency = Histogram.summary sh.hist;
        })
      (Array.to_list t.shards)
  in
  let tenants =
    Hashtbl.fold
      (fun name (s : tstats) acc ->
        {
          tenant = name;
          offered = s.t_offered;
          served = s.t_served;
          shed = s.t_shed;
          quota_rejected = s.t_quota;
        }
        :: acc)
      t.tenants []
    |> List.sort (fun a b -> compare a.tenant b.tenant)
  in
  {
    offered = a.Admission.offered;
    served = t.served;
    shed = Admission.shed a;
    shed_queue_full = a.Admission.shed_queue_full;
    shed_displaced = a.Admission.shed_displaced;
    quota_rejected = a.Admission.quota_rejected;
    max_queue_depth = a.Admission.max_depth;
    layer_runs = t.layer_runs;
    exact = outcome_count (function Registry.Exact -> true | _ -> false);
    adapted = outcome_count (function Registry.Adapted _ -> true | _ -> false);
    defaulted = outcome_count (function Registry.Defaulted _ -> true | _ -> false);
    invalidations = t.invalidations;
    promotions = t.promotions;
    rollbacks = t.rollbacks;
    proposals = t.proposals;
    tuner_rounds = t.tuner_rounds;
    warm_starts = Tuner.Shared.warm_starts t.shared;
    store_samples = Tuner.Shared.store_added t.shared;
    sojourn = Histogram.summary t.sojourn;
    service =
      Histogram.summary
        (Histogram.merge (Array.to_list (Array.map (fun sh -> sh.hist) t.shards)));
    shards;
    tenants;
    events = List.rev t.events_rev;
    vtime = t.vtime;
    wall_seconds = t.wall_seconds;
  }

let conserved (s : stats) = s.offered = s.served + s.shed + s.quota_rejected

(* ---- JSON ---------------------------------------------------------------- *)

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let summary_json (s : Histogram.summary) =
  Printf.sprintf
    "{\"count\": %d, \"mean\": %.9e, \"min\": %.9e, \"max\": %.9e, \"p50\": \
     %.9e, \"p95\": %.9e, \"p99\": %.9e, \"p999\": %.9e}"
    s.Histogram.count s.Histogram.mean s.Histogram.min s.Histogram.max
    s.Histogram.p50 s.Histogram.p95 s.Histogram.p99 s.Histogram.p999

let event_json (e : event) =
  Printf.sprintf
    "{\"vtime\": %.6f, \"key\": %s, \"event\": \"%s\", \"origin\": \"%s\", \
     \"candidate_p95\": %.9e, \"incumbent_p95\": %.9e}"
    e.vtime (json_string e.key)
    (event_kind_to_string e.kind)
    e.origin e.candidate_p95 e.incumbent_p95

let stats_json (s : stats) =
  let shards =
    String.concat ", "
      (List.map
         (fun sh ->
           Printf.sprintf
             "{\"shard\": %d, \"runs\": %d, \"hits\": %d, \"misses\": %d, \
              \"evictions\": %d, \"p99\": %.9e, \"p999\": %.9e}"
             sh.shard_id sh.runs sh.hits sh.misses sh.evictions
             sh.latency.Histogram.p99 sh.latency.Histogram.p999)
         s.shards)
  in
  let tenants =
    String.concat ", "
      (List.map
         (fun ts ->
           Printf.sprintf
             "{\"tenant\": %s, \"offered\": %d, \"served\": %d, \"shed\": %d, \
              \"quota_rejected\": %d}"
             (json_string ts.tenant) ts.offered ts.served ts.shed
             ts.quota_rejected)
         s.tenants)
  in
  let events = String.concat ", " (List.map event_json s.events) in
  Printf.sprintf
    "{\"offered\": %d, \"served\": %d, \"shed\": %d, \"shed_queue_full\": %d, \
     \"shed_displaced\": %d, \"quota_rejected\": %d, \"conserved\": %b, \
     \"max_queue_depth\": %d, \"layer_runs\": %d, \"exact\": %d, \"adapted\": \
     %d, \"defaulted\": %d, \"invalidations\": %d, \"promotions\": %d, \
     \"rollbacks\": %d, \"proposals\": %d, \"tuner_rounds\": %d, \
     \"warm_starts\": %d, \"store_samples\": %d, \"sojourn\": \
     %s, \"service\": %s, \"shards\": [%s], \"tenants\": [%s], \"events\": \
     [%s], \"vtime\": %.6f, \"wall_seconds\": %.3f}"
    s.offered s.served s.shed s.shed_queue_full s.shed_displaced
    s.quota_rejected (conserved s) s.max_queue_depth s.layer_runs s.exact
    s.adapted s.defaulted s.invalidations s.promotions s.rollbacks s.proposals
    s.tuner_rounds s.warm_starts s.store_samples (summary_json s.sojourn)
    (summary_json s.service) shards tenants events s.vtime s.wall_seconds

let report t =
  let s = stats t in
  let b = Buffer.create 1024 in
  Buffer.add_string b
    (Printf.sprintf
       "%s on %s: %d offered = %d served + %d shed (%d queue-full, %d \
        displaced) + %d quota-rejected\n"
       t.net.Workloads.net_name t.machine.Machine.name s.offered s.served
       s.shed s.shed_queue_full s.shed_displaced s.quota_rejected);
  Buffer.add_string b
    (Printf.sprintf "virtual time: %.4fs   max queue depth: %d\n" s.vtime
       s.max_queue_depth);
  Buffer.add_string b
    (Printf.sprintf "sojourn: %s\n" (Histogram.summary_line s.sojourn));
  Buffer.add_string b
    (Printf.sprintf "service: %s\n" (Histogram.summary_line s.service));
  List.iter
    (fun sh ->
      Buffer.add_string b
        (Printf.sprintf
           "  shard %d: %d runs, %d hits / %d misses / %d evictions, \
            p99=%.4fms p99.9=%.4fms\n"
           sh.shard_id sh.runs sh.hits sh.misses sh.evictions
           (sh.latency.Histogram.p99 *. 1e3)
           (sh.latency.Histogram.p999 *. 1e3)))
    s.shards;
  List.iter
    (fun ts ->
      Buffer.add_string b
        (Printf.sprintf
           "  tenant %-12s offered %6d  served %6d  shed %6d  quota %6d\n"
           ts.tenant ts.offered ts.served ts.shed ts.quota_rejected))
    s.tenants;
  Buffer.add_string b
    (Printf.sprintf
       "registry: %d exact, %d adapted, %d default; rollout: %d proposed, %d \
        promoted, %d rolled back (%d tuner rounds)\n"
       s.exact s.adapted s.defaulted s.proposals s.promotions s.rollbacks
       s.tuner_rounds);
  if s.warm_starts > 0 || s.store_samples > 0 then
    Buffer.add_string b
      (Printf.sprintf
         "model store: %d warm start(s), %d sample(s) contributed\n"
         s.warm_starts s.store_samples);
  List.iter
    (fun (e : event) ->
      Buffer.add_string b
        (Printf.sprintf "  [%.4fs] %-10s %s (%s) cand p95 %.4fms vs inc %.4fms\n"
           e.vtime
           (event_kind_to_string e.kind)
           e.key e.origin
           (e.candidate_p95 *. 1e3)
           (e.incumbent_p95 *. 1e3)))
    s.events;
  Buffer.add_string b (Histogram.render t.sojourn);
  Buffer.contents b
