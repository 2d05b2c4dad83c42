(* The coordinate-descent exploitation finisher (Descent + its Tuner
   phase wiring): enumeration totality, worker invariance, the plateau
   stop, snapshot round-trips and trial accounting. *)

open Helpers
module Task = Ansor.Task
module Tuner = Ansor.Tuner
module Descent = Ansor.Descent
module Machine = Ansor.Machine
module Service = Ansor.Measure_service
module Telemetry = Ansor.Telemetry
module State = Ansor.State

let small_dag () = Ansor.Nn.matmul ~m:64 ~n:64 ~k:64 ()

let small_task () =
  Task.create ~name:"gmm" ~machine:Machine.intel_cpu (small_dag ())

let descent_options =
  { Tuner.ansor_options with descent = Some Descent.default_config }

(* Every neighbor proposed along any coordinate of any sampled sketch
   must re-validate: replay from its raw history, lower, and carry no
   provable data race.  Edits are same-index replacements, so the
   history length is invariant. *)
let test_enumeration_totality () =
  let dag = small_dag () in
  let policy = Ansor.Policy.cpu ~workers:20 in
  let samples = sample_programs ~seed:3 ~n:8 dag in
  check_bool "sampled programs" true (samples <> []);
  let total = ref 0 in
  List.iter
    (fun (st : State.t) ->
      let coords = Descent.coordinates st in
      check_bool "annotated sample has coordinates" true (coords <> []);
      List.iter
        (fun c ->
          check_bool "coordinate addresses a history step" true
            (Descent.coord_index c < List.length st.State.history);
          List.iter
            (fun ({ Ansor.Candidate.state = nb; prog; _ } : Ansor.Candidate.t) ->
              incr total;
              check_int "same-index replacement keeps history length"
                (List.length st.State.history)
                (List.length nb.State.history);
              (match State.replay_checked dag nb.State.history with
              | Ok _ -> ()
              | Error e -> Alcotest.failf "neighbor does not replay: %s" e);
              check_bool "neighbor has no static errors" true
                (Ansor.Analysis.static_errors prog = []))
            (Descent.neighbors ~policy dag st c))
        coords)
    samples;
  check_bool "neighbors were proposed" true (!total > 0)

let tune ?service_config trials =
  Ansor.tune ~seed:5 ~options:descent_options ?service_config ~trials
    Machine.intel_cpu (small_dag ())

let tune_with_workers n =
  let r =
    tune
      ~service_config:{ Service.default_config with Service.num_workers = n }
      96
  in
  (r.Ansor.curve, r.Ansor.best_latency, r.Ansor.stats)

(* The stage consumes no RNG and ties break by index, so the whole
   session — curve, best, and every descent counter — is bit-identical
   at 1 and 4 measurement workers, like every other phase. *)
let test_worker_invariance () =
  let c1, b1, (s1 : Telemetry.stats) = tune_with_workers 1 in
  let c4, b4, (s4 : Telemetry.stats) = tune_with_workers 4 in
  check_bool "descent ran" true (s1.Telemetry.descent_trials > 0);
  check_bool "identical curves" true (c1 = c4);
  check_float "identical best" b1 b4;
  check_int "identical descent trials" s1.Telemetry.descent_trials
    s4.Telemetry.descent_trials;
  check_int "identical sweeps" s1.Telemetry.descent_sweeps
    s4.Telemetry.descent_sweeps;
  check_int "identical improvements" s1.Telemetry.descent_improvements
    s4.Telemetry.descent_improvements;
  check_int "identical plateau stops" s1.Telemetry.descent_plateau_stops
    s4.Telemetry.descent_plateau_stops

(* The cursor algebra: improvements reset the plateau counter, k
   consecutive non-improving sweeps finish the stage; end-to-end, the
   stop fires within the budget and evolution resumes afterwards. *)
let test_plateau_stop () =
  let cfg = { Descent.default_config with Descent.plateau_sweeps = 2 } in
  let dag = small_dag () in
  let st = List.hd (sample_programs ~seed:4 ~n:1 dag) in
  let c0 = Descent.start st in
  check_bool "fresh cursor unfinished" false c0.Descent.finished;
  let c1 = Descent.advance cfg c0 ~improved:false ~best:st.State.history in
  check_bool "one miss is not a plateau" false c1.Descent.finished;
  let c2 = Descent.advance cfg c1 ~improved:true ~best:st.State.history in
  check_int "improvement resets the counter" 0 c2.Descent.non_improving;
  check_bool "improvement re-anchors" true
    (c2.Descent.current == st.State.history);
  let c3 = Descent.advance cfg c2 ~improved:false ~best:st.State.history in
  let c4 = Descent.advance cfg c3 ~improved:false ~best:st.State.history in
  check_bool "k misses finish the stage" true c4.Descent.finished;
  let r = tune 140 in
  let stats = r.Ansor.stats in
  check_bool "plateau stop fired" true
    (stats.Telemetry.descent_plateau_stops >= 1);
  check_bool "descent measured winners" true
    (stats.Telemetry.descent_trials > 0);
  check_bool "evolution resumed and spent the budget" true
    (r.Ansor.trials_used >= 140)

(* A snapshot taken mid-descent carries the cursor; it marshals (as the
   checkpoint file does) and restores into a fresh tuner exactly.  The
   config triggers immediately and never plateau-stops, so the stage is
   guaranteed active when the session is interrupted. *)
let test_cursor_snapshot_roundtrip () =
  let task = small_task () in
  let eager =
    {
      Tuner.ansor_options with
      descent =
        Some
          { Descent.budget_fraction = 0.05; plateau_sweeps = 1000 };
    }
  in
  let shared = Tuner.Shared.create () in
  let service = Service.create ~seed:22 Machine.intel_cpu in
  let tuner = Tuner.create ~seed:5 eager task in
  for _ = 1 to 5 do
    Tuner.round ~budget:96 tuner shared service
  done;
  let snap = Tuner.snapshot tuner in
  (match snap.Tuner.Snapshot.descent with
  | None -> Alcotest.fail "expected an active descent cursor after 5 rounds"
  | Some cur ->
    check_bool "interrupted mid-descent" false cur.Descent.finished;
    check_bool "cursor has walked" true (cur.Descent.sweeps >= 1));
  let snap' : Tuner.Snapshot.t =
    Marshal.from_string (Marshal.to_string snap []) 0
  in
  let fresh = Tuner.create ~seed:5 eager task in
  (match Tuner.restore fresh snap' with
  | Ok () -> ()
  | Error e -> Alcotest.failf "restore failed: %s" e);
  check_bool "snapshot round-trips through marshal + restore" true
    (Tuner.snapshot fresh = snap)

(* Descent trials are ordinary service trials, counted exactly once: the
   telemetry subset relation holds and the curve's x axis, the session's
   trial count and the stats agree. *)
let test_trial_accounting () =
  let r = tune 96 in
  let stats = r.Ansor.stats in
  check_bool "descent ran" true (stats.Telemetry.descent_trials > 0);
  check_bool "descent trials inside the budget" true
    (stats.Telemetry.descent_trials <= stats.Telemetry.trials);
  check_int "sim backend: every trial is one measured run"
    stats.Telemetry.measured stats.Telemetry.trials;
  check_int "session and telemetry agree" r.Ansor.trials_used
    stats.Telemetry.trials;
  (match List.rev r.Ansor.curve with
  | (t, _) :: _ -> check_int "curve counts the same unit" r.Ansor.trials_used t
  | [] -> Alcotest.fail "no curve recorded");
  check_bool "improvements bounded by sweeps" true
    (stats.Telemetry.descent_improvements <= stats.Telemetry.descent_sweeps)

let () =
  Alcotest.run "descent"
    [
      ( "coordinates",
        [ case "every proposed neighbor re-validates" test_enumeration_totality ] );
      ( "determinism",
        [ case "bit-identical at 1 and 4 workers" test_worker_invariance ] );
      ( "plateau",
        [ case "k non-improving sweeps stop the stage" test_plateau_stop ] );
      ( "checkpoint",
        [ case "cursor snapshot round-trip" test_cursor_snapshot_roundtrip ] );
      ( "accounting",
        [ case "descent trials counted once" test_trial_accounting ] );
    ]
