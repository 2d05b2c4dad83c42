type phase =
  | Sample
  | Evolve
  | Model_rank
  | Measure
  | Retrain
  | Compile
  | Native_run
  | Descent

let phase_name = function
  | Sample -> "sample"
  | Evolve -> "evolve"
  | Model_rank -> "model_rank"
  | Measure -> "measure"
  | Retrain -> "retrain"
  | Compile -> "compile"
  | Native_run -> "native_run"
  | Descent -> "descent"

type stats = {
  trials : int;
  measured : int;
  cache_hits : int;
  build_errors : int;
  compile_errors : int;
  run_errors : int;
  timeouts : int;
  retries : int;
  batches : int;
  statically_rejected : int;
  bounds_rejected : int;
  certified : int;
  warm_starts : int;
  store_samples : int;
  finetune_rounds : int;
  native_compiles : int;
  native_kernels : int;
  descent_trials : int;
  descent_sweeps : int;
  descent_improvements : int;
  descent_plateau_stops : int;
  score_hits : int;
  score_misses : int;
  score_batches : int;
  score_wall_seconds : float;
  score_work_seconds : float;
  phase_seconds : (string * float) list;
}

let empty_stats =
  {
    trials = 0;
    measured = 0;
    cache_hits = 0;
    build_errors = 0;
    compile_errors = 0;
    run_errors = 0;
    timeouts = 0;
    retries = 0;
    batches = 0;
    statically_rejected = 0;
    bounds_rejected = 0;
    certified = 0;
    warm_starts = 0;
    store_samples = 0;
    finetune_rounds = 0;
    native_compiles = 0;
    native_kernels = 0;
    descent_trials = 0;
    descent_sweeps = 0;
    descent_improvements = 0;
    descent_plateau_stops = 0;
    score_hits = 0;
    score_misses = 0;
    score_batches = 0;
    score_wall_seconds = 0.0;
    score_work_seconds = 0.0;
    phase_seconds =
      List.map (fun p -> (phase_name p, 0.0))
        [ Sample; Evolve; Model_rank; Measure; Retrain; Compile; Native_run; Descent ];
  }

(* Every counter of [stats] except the phase timers, in JSON order: its
   JSON name, getter and functional setter.  Summing, JSON and the text
   summary are folds over this table, so a new counter is one record
   field, one [empty_stats] entry and one row here. *)
type field =
  | Int of string * (stats -> int) * (stats -> int -> stats)
  | Float of string * (stats -> float) * (stats -> float -> stats)

let fields =
  [
    Int ("trials", (fun s -> s.trials), fun s v -> { s with trials = v });
    Int ("measured", (fun s -> s.measured), fun s v -> { s with measured = v });
    Int ("cache_hits", (fun s -> s.cache_hits), fun s v -> { s with cache_hits = v });
    Int ("build_errors", (fun s -> s.build_errors),
      fun s v -> { s with build_errors = v });
    Int ("compile_errors", (fun s -> s.compile_errors),
      fun s v -> { s with compile_errors = v });
    Int ("run_errors", (fun s -> s.run_errors), fun s v -> { s with run_errors = v });
    Int ("timeouts", (fun s -> s.timeouts), fun s v -> { s with timeouts = v });
    Int ("retries", (fun s -> s.retries), fun s v -> { s with retries = v });
    Int ("batches", (fun s -> s.batches), fun s v -> { s with batches = v });
    Int ("statically_rejected", (fun s -> s.statically_rejected),
      fun s v -> { s with statically_rejected = v });
    Int ("bounds_rejected", (fun s -> s.bounds_rejected),
      fun s v -> { s with bounds_rejected = v });
    Int ("certified", (fun s -> s.certified), fun s v -> { s with certified = v });
    Int ("warm_starts", (fun s -> s.warm_starts),
      fun s v -> { s with warm_starts = v });
    Int ("store_samples", (fun s -> s.store_samples),
      fun s v -> { s with store_samples = v });
    Int ("finetune_rounds", (fun s -> s.finetune_rounds),
      fun s v -> { s with finetune_rounds = v });
    Int ("native_compiles", (fun s -> s.native_compiles),
      fun s v -> { s with native_compiles = v });
    Int ("native_kernels", (fun s -> s.native_kernels),
      fun s v -> { s with native_kernels = v });
    Int ("descent_trials", (fun s -> s.descent_trials),
      fun s v -> { s with descent_trials = v });
    Int ("descent_sweeps", (fun s -> s.descent_sweeps),
      fun s v -> { s with descent_sweeps = v });
    Int ("descent_improvements", (fun s -> s.descent_improvements),
      fun s v -> { s with descent_improvements = v });
    Int ("descent_plateau_stops", (fun s -> s.descent_plateau_stops),
      fun s v -> { s with descent_plateau_stops = v });
    Int ("score_hits", (fun s -> s.score_hits), fun s v -> { s with score_hits = v });
    Int ("score_misses", (fun s -> s.score_misses),
      fun s v -> { s with score_misses = v });
    Int ("score_batches", (fun s -> s.score_batches),
      fun s v -> { s with score_batches = v });
    Float ("score_wall_seconds", (fun s -> s.score_wall_seconds),
      fun s v -> { s with score_wall_seconds = v });
    Float ("score_work_seconds", (fun s -> s.score_work_seconds),
      fun s v -> { s with score_work_seconds = v });
  ]

let total stats =
  let add acc s =
    let acc =
      List.fold_left
        (fun acc -> function
          | Int (_, get, set) -> set acc (get acc + get s)
          | Float (_, get, set) -> set acc (get acc +. get s))
        acc fields
    in
    {
      acc with
      phase_seconds =
        List.map2 (fun (n, a) (_, b) -> (n, a +. b)) acc.phase_seconds s.phase_seconds;
    }
  in
  List.fold_left add empty_stats stats

let results s =
  s.measured + s.cache_hits + s.build_errors + s.compile_errors
  + s.bounds_rejected + s.run_errors + s.timeouts

let score_speedup s =
  if s.score_wall_seconds > 0.0 then s.score_work_seconds /. s.score_wall_seconds
  else 1.0

(* Every counter as (JSON name, printed value), float counters printed
   with [float_fmt]; with [~nonzero:true], zero counters are dropped. *)
let counters ?(nonzero = false) ~float_fmt s =
  List.filter_map
    (function
      | Int (n, get, _) ->
        if nonzero && get s = 0 then None else Some (n, string_of_int (get s))
      | Float (n, get, _) ->
        if nonzero && get s = 0.0 then None
        else Some (n, Printf.sprintf float_fmt (get s)))
    fields

let summary s =
  let pair (n, v) = n ^ "=" ^ v in
  let timers =
    List.map (fun (n, v) -> pair (n, Printf.sprintf "%.3fs" v)) s.phase_seconds
  in
  String.concat " "
    (List.map pair (counters ~nonzero:true ~float_fmt:"%.3fs" s)
    @ ("|" :: timers))

let to_json s =
  let pair (n, v) = Printf.sprintf "\"%s\":%s" n v in
  let timers =
    List.map (fun (n, v) -> pair (n, Printf.sprintf "%.6f" v)) s.phase_seconds
  in
  Printf.sprintf "{%s,\"score_parallel_speedup\":%.6f,\"phase_seconds\":{%s}}"
    (String.concat "," (List.map pair (counters ~float_fmt:"%.6f" s)))
    (score_speedup s) (String.concat "," timers)

type t = { mutable s : stats }

let create () = { s = empty_stats }
let reset t = t.s <- empty_stats
let stats t = t.s
let restore t s = t.s <- s
let update t f = t.s <- f t.s

let add_phase t phase seconds =
  let name = phase_name phase in
  let bump (n, v) = if n = name then (n, v +. seconds) else (n, v) in
  update t (fun s -> { s with phase_seconds = List.map bump s.phase_seconds })

let time t phase f =
  let t0 = Unix.gettimeofday () in
  Fun.protect ~finally:(fun () -> add_phase t phase (Unix.gettimeofday () -. t0)) f

let record_result t ?(attempts = 1) ?(cache_hit = false) latency =
  update t (fun s ->
      let retries = s.retries + max 0 (attempts - 1) in
      let s = { s with trials = s.trials + attempts; retries } in
      if cache_hit then { s with cache_hits = s.cache_hits + 1 }
      else
        match latency with
        | Ok _ -> { s with measured = s.measured + 1 }
        | Error (Protocol.Build_error _) ->
          { s with build_errors = s.build_errors + 1 }
        | Error (Protocol.Compile_error _) ->
          { s with compile_errors = s.compile_errors + 1 }
        | Error (Protocol.Bounds_error _) ->
          { s with bounds_rejected = s.bounds_rejected + 1 }
        | Error (Protocol.Run_error _) -> { s with run_errors = s.run_errors + 1 }
        | Error Protocol.Timeout -> { s with timeouts = s.timeouts + 1 })

let incr_batches t = update t (fun s -> { s with batches = s.batches + 1 })

let incr_statically_rejected t =
  update t (fun s -> { s with statically_rejected = s.statically_rejected + 1 })

let incr_certified t = update t (fun s -> { s with certified = s.certified + 1 })

let incr_warm_starts t = update t (fun s -> { s with warm_starts = s.warm_starts + 1 })

let add_store_samples t n =
  update t (fun s -> { s with store_samples = s.store_samples + n })

let incr_finetune_rounds t =
  update t (fun s -> { s with finetune_rounds = s.finetune_rounds + 1 })

let add_native_compiles t ~compiles ~kernels =
  update t (fun s ->
      {
        s with
        native_compiles = s.native_compiles + compiles;
        native_kernels = s.native_kernels + kernels;
      })

let add_descent_sweep t ~trials ~improved =
  update t (fun s ->
      {
        s with
        descent_sweeps = s.descent_sweeps + 1;
        descent_trials = s.descent_trials + trials;
        descent_improvements =
          (s.descent_improvements + if improved then 1 else 0);
      })

let incr_descent_plateau_stops t =
  update t (fun s -> { s with descent_plateau_stops = s.descent_plateau_stops + 1 })

let add_score_batch t ~hits ~misses ~wall ~work =
  update t (fun s ->
      {
        s with
        score_hits = s.score_hits + hits;
        score_misses = s.score_misses + misses;
        score_batches = s.score_batches + 1;
        score_wall_seconds = s.score_wall_seconds +. wall;
        score_work_seconds = s.score_work_seconds +. work;
      })
