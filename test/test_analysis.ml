(* Static dependence analysis: the race detector, the schedule linter
   and their wiring into evolution.

   The detector's severity contract is cross-validated against the
   interpreter's differential oracle ({!Ansor.Interp.order_sensitive}):
   every [Error] it claims comes with a program that really computes
   different tensors under some reordered/concurrent interpretation of
   its parallel loops, and every program it passes is order-independent
   in practice. *)

open Helpers
module Step = Ansor.Step
module State = Ansor.State
module Lower = Ansor.Lower
module Prog = Ansor.Prog
module Expr = Ansor.Expr
module D = Ansor.Diagnostic
module Analysis = Ansor.Analysis
module Interp = Ansor.Interp
module Evolution = Ansor.Evolution
module Cost_model = Ansor.Cost_model
module Policy = Ansor.Policy
module Rng = Ansor.Rng

let has_code code ds = List.exists (fun d -> d.D.code = code) ds

let reduce_iv st stage =
  let s = State.find_stage st stage in
  List.find
    (fun iv -> (State.ivar s iv).State.kind = State.Reduce)
    s.State.leaves

(* the oracle: does any non-sequential interpretation of the parallel
   loops compute different tensors? *)
let diverges ?(seed = 7) dag prog =
  let inputs = Interp.random_inputs (Rng.create seed) dag in
  Interp.order_sensitive prog ~inputs <> None

(* ---- illegal-annotation corpus ------------------------------------------- *)

(* every Error the detector claims must be a real miscompile: the
   differential oracle must disagree on the same program *)

let test_parallel_reduction_race () =
  let dag = Ansor.Nn.matmul ~m:6 ~n:4 ~k:8 () in
  let st = State.init dag in
  let iv = reduce_iv st "C" in
  let st = State.apply st (Step.Annotate { stage = "C"; iv; ann = Step.Parallel }) in
  let prog = Lower.lower st in
  let races = Analysis.races prog in
  check_bool "flagged as Error" true (D.has_errors races);
  check_bool "parallel-reduction-race code" true
    (has_code "parallel-reduction-race" races);
  check_bool "oracle: some order diverges" true (diverges dag prog)

let test_vectorized_reduction_is_warn () =
  (* the sampler legally vectorizes reduction axes (lockstep lanes): the
     same shape under Vectorize must NOT be an Error *)
  let dag = Ansor.Nn.matmul ~m:6 ~n:4 ~k:8 () in
  let st = State.init dag in
  let iv = reduce_iv st "C" in
  let st =
    State.apply st (Step.Annotate { stage = "C"; iv; ann = Step.Vectorize })
  in
  let races = Analysis.races (Lower.lower st) in
  check_bool "no Error" false (D.has_errors races);
  check_bool "vectorized-reduction warn" true
    (has_code "vectorized-reduction" races)

(* one parallel loop over one statement, with hand-chosen indices/rhs *)
let one_loop_prog ?(extent = 8) ?(ann = Step.Parallel) ?update ~shape ~indices
    rhs =
  {
    Prog.items =
      [
        Prog.Loop
          {
            lvar = "p";
            extent;
            kind = State.Space;
            ann;
            body =
              [
                Prog.Stmt
                  {
                    stage = "B";
                    tensor = "B";
                    indices;
                    rhs;
                    update;
                    max_unroll = None;
                  };
              ];
          };
      ];
    buffers = [ ("B", shape) ];
    inits = (match update with None -> [] | Some _ -> [ ("B", 0.0) ]);
  }

let test_modular_write_race () =
  (* B[p mod 4] = p over p in [0,8): iterations 0 and 4 write the same
     element with different values *)
  let prog =
    one_loop_prog ~shape:[ 4 ]
      ~indices:[ Expr.Imod (Expr.Axis "p", Expr.Int 4) ]
      (Expr.Cast_int (Expr.Axis "p"))
  in
  let races = Analysis.races prog in
  check_bool "write-race Error" true
    (D.has_errors races && has_code "write-race" races);
  check_bool "oracle: some order diverges" true
    (Interp.order_sensitive prog ~inputs:[] <> None)

let test_split_aliasing_write_race () =
  (* B[p / 4] = p: the split parent's high digit aliases four iterations
     onto each element *)
  let prog =
    one_loop_prog ~shape:[ 2 ]
      ~indices:[ Expr.Idiv (Expr.Axis "p", Expr.Int 4) ]
      (Expr.Cast_int (Expr.Axis "p"))
  in
  let races = Analysis.races prog in
  check_bool "write-race Error" true
    (D.has_errors races && has_code "write-race" races);
  check_bool "oracle: some order diverges" true
    (Interp.order_sensitive prog ~inputs:[] <> None)

let test_idempotent_collision_is_benign () =
  (* B[p mod 4] = p mod 4: colliding iterations write identical values —
     a Warn (wasted work), not an Error, and the oracle agrees that no
     order changes the result *)
  let prog =
    one_loop_prog ~shape:[ 4 ]
      ~indices:[ Expr.Imod (Expr.Axis "p", Expr.Int 4) ]
      (Expr.Cast_int (Expr.Imod (Expr.Axis "p", Expr.Int 4)))
  in
  let races = Analysis.races prog in
  check_bool "no Error" false (D.has_errors races);
  check_bool "redundant-writes warn" true (has_code "redundant-writes" races);
  check_bool "oracle: all orders agree" false
    (Interp.order_sensitive prog ~inputs:[] <> None)

let test_disjoint_writes_are_clean () =
  let prog =
    one_loop_prog ~shape:[ 8 ]
      ~indices:[ Expr.Axis "p" ]
      (Expr.Cast_int (Expr.Axis "p"))
  in
  check_int "no diagnostics" 0 (List.length (Analysis.races prog));
  check_bool "oracle: all orders agree" false
    (Interp.order_sensitive prog ~inputs:[] <> None)

let test_vector_write_race_is_warn () =
  (* same collision under Vectorize: capped at Warn *)
  let prog =
    one_loop_prog ~ann:Step.Vectorize ~shape:[ 4 ]
      ~indices:[ Expr.Imod (Expr.Axis "p", Expr.Int 4) ]
      (Expr.Cast_int (Expr.Axis "p"))
  in
  let races = Analysis.races prog in
  check_bool "no Error" false (D.has_errors races);
  check_bool "vector-write-race warn" true (has_code "vector-write-race" races)

let test_cross_iteration_read () =
  (* A[p] = p; B[p] = A[0]: every iteration but the first reads an
     element another iteration writes *)
  let stmt stage tensor indices rhs =
    Prog.Stmt { stage; tensor; indices; rhs; update = None; max_unroll = None }
  in
  let prog =
    {
      Prog.items =
        [
          Prog.Loop
            {
              lvar = "p";
              extent = 8;
              kind = State.Space;
              ann = Step.Parallel;
              body =
                [
                  stmt "A" "A" [ Expr.Axis "p" ] (Expr.Cast_int (Expr.Axis "p"));
                  stmt "B" "B" [ Expr.Axis "p" ]
                    (Expr.Access ("A", [ Expr.Int 0 ]));
                ];
            };
        ];
      buffers = [ ("A", [ 8 ]); ("B", [ 8 ]) ];
      inits = [];
    }
  in
  let races = Analysis.races prog in
  check_bool "possible-read-race warn" true (has_code "possible-read-race" races);
  check_bool "not an Error (no constructive proof)" false (D.has_errors races)

let test_rank_mismatch_is_no_claim () =
  (* B[p] into a 2-d buffer: the offset has no row-major form, so no
     claim, and no exception out of the gate evolution runs on mutants *)
  let prog =
    one_loop_prog ~extent:4 ~shape:[ 2; 2 ] ~indices:[ Expr.Axis "p" ]
      (Expr.Const 1.0)
  in
  check_int "races" 0 (List.length (Ansor_analysis.Races.check prog));
  check_int "race errors" 0 (List.length (Ansor_analysis.Races.errors prog));
  check_int "validator" 0 (List.length (Ansor.Validate.check prog));
  check_int "linter" 0 (List.length (Analysis.lint Analysis.default_config prog));
  check_bool "certifier unknown" true
    (Analysis.certify prog = Ansor.Bounds.Unknown);
  let vectorized =
    one_loop_prog ~ann:Step.Vectorize ~extent:4 ~shape:[ 2; 2 ]
      ~indices:[ Expr.Axis "p" ] (Expr.Const 1.0)
  in
  check_bool "linter: no stride" false
    (has_code "vector-stride" (Analysis.lint Analysis.default_config vectorized))

let test_unbound_variable_is_no_claim () =
  (* B[(p + z) / 2], z bound by no loop: read with z at 0 it would be the
     digit p / 2, which aliases iterations 0 and 1 *)
  let index = Expr.Idiv (Expr.Iadd (Expr.Axis "p", Expr.Axis "z"), Expr.Int 2) in
  let prog =
    one_loop_prog ~shape:[ 8 ] ~indices:[ index ] (Expr.Cast_int (Expr.Axis "p"))
  in
  check_int "races" 0 (List.length (Ansor_analysis.Races.check prog));
  check_bool "hull inexact" true
    (match
       Ansor.Bounds.exact_hull
         (fun v -> if v = "p" then Some { Ansor.Validate.Interval.lo = 0; hi = 7 } else None)
         index
     with
    | exception Ansor.Bounds.Inexact -> true
    | _ -> false)

let test_uninit_reduction_reported_once () =
  (* X[i] += 1 with no init, as test_einsum_validate builds it: the
     validator's uninit-reduction is the one report, since Defuse judges
     only the buffers a statement's value reads *)
  let stmt =
    {
      Prog.stage = "X";
      tensor = "X";
      indices = [ Expr.Axis "i" ];
      rhs = Expr.Const 1.0;
      update = Some Ansor.Op.Sum;
      max_unroll = None;
    }
  in
  let prog =
    {
      Prog.items =
        [
          Prog.Loop
            { lvar = "i"; extent = 4; kind = State.Space; ann = Step.No_ann; body = [ Prog.Stmt stmt ] };
        ];
      buffers = [ ("X", [ 4 ]) ];
      inits = [];
    }
  in
  check_bool "validator: uninit-reduction" true
    (match Ansor.Validate.check prog with
    | [ d ] -> d.D.code = "uninit-reduction" && d.D.severity = D.Error
    | _ -> false);
  check_int "def-use: nothing" 0 (List.length (Ansor.Defuse.check prog))

(* ---- linter --------------------------------------------------------------- *)

let loop ?(ann = Step.No_ann) ?(extent = 8) lvar body =
  Prog.Loop { lvar; extent; kind = State.Space; ann; body }

let simple_stmt ?update ?max_unroll tensor =
  Prog.Stmt
    {
      stage = tensor;
      tensor;
      indices = [];
      rhs = Expr.Const 1.0;
      update;
      max_unroll;
    }

let lint_prog ?(config = Analysis.default_config) items buffers inits =
  Analysis.lint config { Prog.items; buffers; inits }

let test_lint_nested_parallel () =
  let ds =
    lint_prog
      [
        loop ~ann:Step.Parallel "p"
          [ loop ~ann:Step.Parallel "q" [ simple_stmt "B" ] ];
      ]
      [ ("B", []) ] []
  in
  check_bool "nested-parallel" true (has_code "nested-parallel" ds)

let test_lint_parallel_width () =
  let ds =
    lint_prog
      [ loop ~ann:Step.Parallel ~extent:2 "p" [ simple_stmt "B" ] ]
      [ ("B", []) ] []
  in
  check_bool "parallel-width info" true (has_code "parallel-width" ds)

let test_lint_vectorize_non_innermost () =
  let ds =
    lint_prog
      [ loop ~ann:Step.Vectorize "v" [ loop "i" [ simple_stmt "B" ] ] ]
      [ ("B", []) ] []
  in
  check_bool "vectorize-non-innermost" true
    (has_code "vectorize-non-innermost" ds)

let test_lint_unroll_explosion () =
  let ds =
    lint_prog
      [
        loop ~ann:Step.Unroll ~extent:32 "u"
          [
            loop ~ann:Step.Unroll ~extent:8 "u2"
              [ simple_stmt ~max_unroll:64 "B" ];
          ];
      ]
      [ ("B", []) ] []
  in
  check_bool "unroll-explosion" true (has_code "unroll-explosion" ds)

let test_lint_vector_stride () =
  let ds =
    lint_prog
      [
        loop ~ann:Step.Vectorize ~extent:8 "v"
          [
            Prog.Stmt
              {
                stage = "B";
                tensor = "B";
                indices = [ Expr.Imul (Expr.Axis "v", Expr.Int 2) ];
                rhs = Expr.Const 0.0;
                update = None;
                max_unroll = None;
              };
          ];
      ]
      [ ("B", [ 16 ]) ] []
  in
  check_bool "vector-stride" true (has_code "vector-stride" ds)

let test_lint_redundant_init () =
  let ds =
    lint_prog
      [ loop "i" [ simple_stmt "B" ] ]
      [ ("B", []) ]
      [ ("B", 0.0) ]
  in
  check_bool "redundant-init" true (has_code "redundant-init" ds)

let test_lint_dead_store () =
  let config = { Analysis.default_config with outputs = [ "C" ] } in
  let ds =
    lint_prog ~config
      [ loop "i" [ simple_stmt "B"; simple_stmt "C" ] ]
      [ ("B", []); ("C", []) ]
      []
  in
  check_bool "dead-store on B" true
    (List.exists
       (fun d -> d.D.code = "dead-store" && d.D.loc = D.Buffer "B")
       ds);
  check_bool "no dead-store on output C" false
    (List.exists
       (fun d -> d.D.code = "dead-store" && d.D.loc = D.Buffer "C")
       ds)

(* ---- sampler / evolution cleanliness -------------------------------------- *)

let clean_dags =
  lazy
    [
      ("matmul_relu", small_matmul_relu ());
      ("matmul", Ansor.Nn.matmul ~m:12 ~n:8 ~k:6 ());
      ("conv2d",
       Ansor.Nn.conv2d ~n:1 ~c:2 ~h:6 ~w:6 ~f:2 ~kh:3 ~kw:3 ~stride:1 ~pad:1 ());
      ("softmax", Ansor.Nn.softmax ~m:4 ~n:6 ());
    ]

(* zero false positives: the sampler only emits legal annotations, so no
   sampled program may carry an Error — and the oracle confirms each one
   really is order-independent *)
let prop_sampler_programs_race_free =
  qcheck ~count:40 "sampled programs carry no static Error"
    QCheck2.Gen.(pair (int_range 0 3) (int_range 0 1_000_000))
    (fun (which, seed) ->
      let _, dag = List.nth (Lazy.force clean_dags) which in
      List.for_all
        (fun st ->
          let prog = Lower.lower st in
          Analysis.static_errors prog = []
          && Interp.order_sensitive prog
               ~inputs:(Interp.random_inputs (Rng.create seed) dag)
             = None)
        (sample_programs ~seed ~n:3 dag))

(* the evolution filter: annotation mutation now proposes [Parallel] on
   any iterator (including reduction axes); verify must reject those
   statically (firing on_reject) and every surviving mutant must be
   race-free *)
let test_evolution_static_filter () =
  let dag = small_matmul_relu () in
  let rng = Rng.create 42 in
  let rejected = ref 0 in
  let on_reject () = incr rejected in
  let seeds = Array.of_list (sample_programs ~seed:3 ~n:6 dag) in
  let survivors = ref 0 in
  for round = 1 to 200 do
    let st = seeds.(Rng.int rng (Array.length seeds)) in
    match Evolution.mutate_annotation ~on_reject rng dag st with
    | None -> ()
    | Some c ->
      incr survivors;
      let prog = c.Ansor.Candidate.prog in
      check_bool "survivor is race-free" true (Analysis.static_errors prog = []);
      (* spot-check survivors against the differential oracle *)
      if round mod 20 = 0 then
        check_bool "survivor is order-independent" false
          (diverges ~seed:round dag prog)
  done;
  check_bool "filter was exercised (statically_rejected)" true (!rejected > 0);
  check_bool "mutation still produces offspring" true (!survivors > 0)

let test_evolve_rejects_and_survives () =
  (* the full evolve loop with the annotation mutation enabled: rejections
     happen (counted via on_reject, i.e. telemetry's statically_rejected)
     and every returned program is race-free *)
  let dag = small_matmul_relu () in
  let rng = Rng.create 7 in
  let rejected = ref 0 in
  let config =
    { Evolution.default_config with population = 24; generations = 3 }
  in
  let out =
    Evolution.evolve
      ~on_reject:(fun () -> incr rejected)
      ~scorer:(scorer ()) rng config (Policy.cpu ~workers:20) dag
      ~init:(candidates (sample_programs ~seed:11 ~n:8 dag))
      ~out:8
  in
  check_bool "evolve returns programs" true (out <> []);
  List.iter
    (fun (s : Evolution.scored) ->
      check_bool "returned program race-free" true
        (Analysis.static_errors s.cand.prog = []))
    out;
  check_bool "static rejections counted" true (!rejected > 0)

(* Captured before [evolve] remembered the verdicts it had reached: the
   rejection count is telemetry's [statically_rejected] for this run, so
   a proposal rejected again must count again, and the output must keep
   its histories and fitness bits.  The output digest was re-captured
   when [evolve] began telling programs apart by [Candidate.key] (which
   program's history is kept, and which programs are distinct, moved);
   the count did not move. *)
let test_evolve_rejection_golden () =
  (* a full reduction: [Parallel] on its reduction axis is a race, so
     annotation mutants are often rejected, some more than once *)
  let dag = Ansor.Nn.matrix_norm ~m:64 ~n:64 () in
  let rng = Rng.create 7 in
  let rejected = ref 0 in
  let config =
    { Evolution.default_config with population = 64; generations = 4 }
  in
  let out =
    Evolution.evolve
      ~on_reject:(fun () -> incr rejected)
      ~scorer:(scorer ()) rng config (Policy.cpu ~workers:20) dag
      ~init:(candidates (sample_programs ~seed:11 ~n:8 dag))
      ~out:8
  in
  let digest =
    List.map
      (fun (s : Evolution.scored) ->
        Printf.sprintf "%s %Lx"
          (Digest.to_hex (Step.history_key s.cand.state.history))
          (Int64.bits_of_float s.fitness))
      out
    |> String.concat "\n" |> Digest.string |> Digest.to_hex
  in
  check_int "rejected proposals" 17 !rejected;
  check_string "output" "b166c84470938cb42af7543dce03c51e" digest

(* ---- the error-only race check --------------------------------------------- *)

module Races = Ansor_analysis.Races

(* Every program that one more [Parallel] or [Vectorize] annotation on a
   bare iterator of [st] lowers to, reduction axes included: most
   [Parallel] ones on a reduction race, as evolution's annotation
   mutation proposes them before its filter. *)
let annotated_variants (st : State.t) =
  List.concat_map
    (fun name ->
      let s = State.find_stage st name in
      List.concat_map
        (fun iv ->
          if (State.ivar s iv).State.ann <> Step.No_ann then []
          else
            List.filter_map
              (fun ann ->
                let step = Step.Annotate { stage = name; iv; ann } in
                match State.apply_checked st step with
                | Error _ -> None
                | Ok st' ->
                  Option.map
                    (fun (c : Ansor.Candidate.t) -> c.prog)
                    (Ansor.Candidate.of_state st'))
              [ Step.Parallel; Step.Vectorize ])
        s.State.leaves)
    (State.stage_names st)

let race_dags =
  lazy
    (Ansor.Nn.matrix_norm ~m:16 ~n:16 ()
    :: List.map snd (Lazy.force clean_dags))

(* Sampled programs of [dag] and their annotated variants. *)
let race_programs ~seed dag =
  List.concat_map
    (fun st -> Lower.lower st :: annotated_variants st)
    (sample_programs ~seed ~n:2 dag)

let errors_match p = Races.errors p = D.errors (Races.check p)

let test_race_errors_on_corpora () =
  let corpus = Lazy.force analysis_corpus in
  List.iter
    (fun (name, p) ->
      check_bool (name ^ ": errors = errors of check") true (errors_match p))
    corpus;
  check_bool "the OOB corpus is in it" true
    (List.for_all
       (fun (name, _, _) -> List.mem_assoc name corpus)
       (oob_corpus ()))

let prop_race_errors_are_check_errors =
  qcheck ~count:40 ~seed:26 "Races.errors = errors of Races.check"
    ~print:(fun (which, seed) -> Printf.sprintf "dag %d, seed %d" which seed)
    QCheck2.Gen.(pair (int_range 0 4) (int_range 0 1_000_000))
    (fun (which, seed) ->
      let dag = List.nth (Lazy.force race_dags) which in
      List.for_all errors_match (race_programs ~seed dag))

(* Captured at the parent of [Races.errors], before [Races.check] was
   split into its loop walk and per-statement findings: every diagnostic
   of the analysis corpus and of the annotated variants. *)
let test_races_golden () =
  let racy =
    List.concat_map
      (fun dag ->
        List.map (fun p -> ("variant", p)) (race_programs ~seed:5 dag))
      (Lazy.force race_dags)
  in
  let lines =
    List.map
      (fun (name, p) ->
        String.concat " | " (name :: List.map D.to_string (Races.check p)))
      (Lazy.force analysis_corpus @ racy)
  in
  check_bool "the variants race" true
    (List.exists (fun (_, p) -> Races.errors p <> []) racy);
  check_string "diagnostics" "b4308f2f59c4c6ef370166b800740843"
    (Digest.to_hex (Digest.string (String.concat "\n" lines)))

(* registry serving bar: an entry whose replayed schedule carries a race
   must not resolve *)
let test_registry_rejects_racy_entry () =
  let dag = Ansor.Nn.matmul ~m:8 ~n:8 ~k:8 () in
  let st = State.init dag in
  let iv = reduce_iv st "C" in
  let racy =
    State.apply st (Step.Annotate { stage = "C"; iv; ann = Step.Parallel })
  in
  let machine = Ansor.Machine.by_name "intel-cpu" in
  let task = Ansor.Task.create ~name:"gmm" ~machine dag in
  let key = Ansor.Task.key task in
  let reg = Ansor.Registry.create () in
  let entry =
    { Ansor.Record.task_key = key; latency = 1e-3; steps = racy.State.history }
  in
  ignore (Ansor.Registry.add reg entry);
  let _, outcome = Ansor.Registry.resolve reg task in
  (match outcome with
  | Ansor.Registry.Defaulted _ -> ()
  | o ->
    Alcotest.failf "racy entry served as %s" (Ansor.Registry.outcome_to_string o));
  (* sanity: the same entry without the racy annotation resolves exactly *)
  let reg2 = Ansor.Registry.create () in
  ignore
    (Ansor.Registry.add reg2
       { Ansor.Record.task_key = key; latency = 1e-3; steps = st.State.history });
  match Ansor.Registry.resolve reg2 task with
  | _, Ansor.Registry.Exact -> ()
  | _, o ->
    Alcotest.failf "clean entry served as %s" (Ansor.Registry.outcome_to_string o)

(* facade: verify_state catches the race statically *)
let test_verify_state_catches_race () =
  let dag = Ansor.Nn.matmul ~m:6 ~n:6 ~k:6 () in
  let st = State.init dag in
  let iv = reduce_iv st "C" in
  let racy =
    State.apply st (Step.Annotate { stage = "C"; iv; ann = Step.Parallel })
  in
  let contains ~sub s =
    let n = String.length sub and m = String.length s in
    let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
    go 0
  in
  (match Ansor.verify_state racy with
  | Error msg ->
    check_bool "mentions the race" true
      (contains ~sub:"parallel-reduction-race" msg)
  | Ok () -> Alcotest.fail "racy state verified");
  match Ansor.verify_state st with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "clean state rejected: %s" msg

let () =
  Alcotest.run "analysis"
    [
      ( "race detector",
        [
          case "parallel reduction race" test_parallel_reduction_race;
          case "vectorized reduction is warn" test_vectorized_reduction_is_warn;
          case "modular write race" test_modular_write_race;
          case "split aliasing write race" test_split_aliasing_write_race;
          case "idempotent collision benign" test_idempotent_collision_is_benign;
          case "disjoint writes clean" test_disjoint_writes_are_clean;
          case "vector write race is warn" test_vector_write_race_is_warn;
          case "cross-iteration read" test_cross_iteration_read;
          case "rank mismatch is no claim" test_rank_mismatch_is_no_claim;
          case "unbound variable is no claim" test_unbound_variable_is_no_claim;
          case "uninit reduction reported once" test_uninit_reduction_reported_once;
        ] );
      ( "linter",
        [
          case "nested parallel" test_lint_nested_parallel;
          case "parallel width" test_lint_parallel_width;
          case "vectorize non-innermost" test_lint_vectorize_non_innermost;
          case "unroll explosion" test_lint_unroll_explosion;
          case "vector stride" test_lint_vector_stride;
          case "redundant init" test_lint_redundant_init;
          case "dead store" test_lint_dead_store;
        ] );
      ( "wiring",
        [
          prop_sampler_programs_race_free;
          case "evolution static filter" test_evolution_static_filter;
          case "evolve rejects and survives" test_evolve_rejects_and_survives;
          case "evolve rejection count golden" test_evolve_rejection_golden;
          case "registry rejects racy entry" test_registry_rejects_racy_entry;
          case "verify_state catches race" test_verify_state_catches_race;
        ] );
      ( "race errors",
        [
          case "analysis and OOB corpora" test_race_errors_on_corpora;
          prop_race_errors_are_check_errors;
          case "races golden" test_races_golden;
        ] );
    ]
