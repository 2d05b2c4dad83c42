(* Shared helpers for the test suites. *)

let check_float = Alcotest.(check (float 1e-9))
let check_floatish msg = Alcotest.(check (float 1e-6)) msg
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let case name f = Alcotest.test_case name `Quick f

(* With [seed] the generator is pinned, and the seed is part of the test
   name, so a failure report names it. *)
let qcheck ?(count = 100) ?seed ?print name gen prop =
  let name, rand =
    match seed with
    | None -> (name, None)
    | Some s ->
      (Printf.sprintf "%s (qcheck seed %d)" name s, Some (Random.State.make [| s |]))
  in
  QCheck_alcotest.to_alcotest ?rand (QCheck2.Test.make ~count ?print ~name gen prop)

(* Equivalence of a schedule state against the naive evaluation of its
   (possibly surgery-extended) DAG. *)
let assert_state_correct ?(seed = 2024) (st : Ansor.State.t) =
  let dag = st.Ansor.State.dag in
  let inputs = Ansor.Interp.random_inputs (Ansor.Rng.create seed) dag in
  let prog = Ansor.Lower.lower st in
  match Ansor.Interp.check_equivalent dag prog ~inputs with
  | Ok () -> ()
  | Error e -> Alcotest.failf "schedule not equivalent to naive program: %s" e

(* A small matmul + relu DAG used across suites. *)
let small_matmul_relu () = Ansor.Nn.matmul_relu ~m:16 ~n:16 ~k:16 ()

(* [small_matmul_relu] with C computed inside D's outer tile loops. *)
let fused_steps =
  Ansor.Step.
    [
      Split { stage = "D"; iv = 0; lengths = [ 4; 4 ]; tbd = false };
      Split { stage = "D"; iv = 1; lengths = [ 4; 4 ]; tbd = false };
      Reorder { stage = "D"; order = [ 2; 4; 3; 5 ] };
      Split { stage = "C"; iv = 0; lengths = [ 4; 4 ]; tbd = false };
      Split { stage = "C"; iv = 1; lengths = [ 4; 4 ]; tbd = false };
      Reorder { stage = "C"; order = [ 3; 5; 2; 4; 6 ] };
      Compute_at
        { stage = "C"; target = "D"; target_iv = 4; bindings = [ (3, 2); (5, 4) ] };
    ]

(* [fused_steps] with D's loops fused beyond C's attach point: the history
   replays, but [Lower.lower] raises [State.Illegal] (the fused loop would
   re-invoke the reduction producer). *)
let recomputation_guard_state () =
  Ansor.State.replay (small_matmul_relu ())
    (fused_steps @ Ansor.Step.[ Fuse { stage = "D"; ivs = [ 2; 4; 3; 5 ] } ])

(* A batch scorer holding [model] (default: untrained). *)
let scorer ?(workers = 1) ?(model = Ansor.Cost_model.empty) () =
  let sc = Ansor.Score_service.create ~num_workers:workers Ansor.Machine.intel_cpu in
  Ansor.Score_service.set_model sc model;
  sc

let candidates states = List.filter_map Ansor.Candidate.of_state states

let sample_programs ?(seed = 1) ?(n = 10) dag =
  let rng = Ansor.Rng.create seed in
  let policy = Ansor.Policy.cpu ~workers:20 in
  let sketches = Ansor.Sketch_gen.generate dag in
  Ansor.Sampler.sample rng policy dag ~sketches ~n

(* The best program of a short [Ansor.tune] session as a record entry. *)
let tuned_entry ~seed ~trials machine dag =
  let r = Ansor.tune ~seed ~trials machine dag in
  Option.map
    (fun (st : Ansor.State.t) ->
      {
        Ansor.Record.task_key =
          Ansor.Task.key (Ansor.Task.create ~name:"tuned" ~machine dag);
        latency = r.Ansor.best_latency;
        steps = st.Ansor.State.history;
      })
    r.Ansor.best_state

(* ---- the deliberately-broken OOB corpus ---------------------------------- *)

(* Each entry is (name, program, inputs): a lowering with a reachable
   out-of-bounds access of the kind a buggy split/fuse/unroll or a
   registry tile refit would produce.  The interpreter must trap every
   one of them. *)
let oob_corpus () =
  let open Ansor in
  let loop lvar extent body =
    Prog.Loop { lvar; extent; kind = State.Space; ann = Step.No_ann; body }
  in
  let stmt stage tensor indices rhs =
    Prog.Stmt { stage; tensor; indices; rhs; update = None; max_unroll = None }
  in
  let prog items buffers inits = { Prog.items; buffers; inits } in
  let a8 = [ ("A", Array.init 8 (fun i -> float_of_int i)) ] in
  [
    ( "split overrun (loop extent 10 over an 8-buffer)",
      prog
        [ loop "p" 10 [ stmt "B" "B" [ Expr.Axis "p" ] (Expr.Const 1.0) ] ]
        [ ("B", [ 8 ]) ] [],
      [] );
    ( "unroll off-by-one (p+1 write)",
      prog
        [
          loop "p" 8
            [
              stmt "B" "B"
                [ Expr.Iadd (Expr.Axis "p", Expr.Int 1) ]
                (Expr.Const 2.0);
            ];
        ]
        [ ("B", [ 8 ]) ] [],
      [] );
    ( "strided over-read (A[2p] past the end)",
      prog
        [
          loop "p" 8
            [
              stmt "B" "B" [ Expr.Axis "p" ]
                (Expr.Access ("A", [ Expr.Imul (Expr.Axis "p", Expr.Int 2) ]));
            ];
        ]
        [ ("A", [ 8 ]); ("B", [ 8 ]) ] [],
      a8 );
    ( "unguarded padding read (A[p-1] at p=0)",
      prog
        [
          loop "p" 8
            [
              stmt "B" "B" [ Expr.Axis "p" ]
                (Expr.Access ("A", [ Expr.Isub (Expr.Axis "p", Expr.Int 1) ]));
            ];
        ]
        [ ("A", [ 8 ]); ("B", [ 8 ]) ] [],
      a8 );
    ( "tile refit shrink (registry adaptation writing past a 6-buffer)",
      prog
        [
          loop "po" 2
            [
              loop "pi" 4
                [
                  stmt "B" "B"
                    [
                      Expr.Iadd
                        ( Expr.Imul (Expr.Axis "po", Expr.Int 4),
                          Expr.Axis "pi" );
                    ]
                    (Expr.Const 3.0);
                ];
            ];
        ]
        [ ("B", [ 6 ]) ] [],
      [] );
  ]

(* ---- the analysis corpus ------------------------------------------------- *)

(* The programs whose analysis results the golden digests of
   [test_access_features] and [test_bounds] pin: sampled programs and
   evolution mutants of every MobileNet-V2 task (padded depthwise convs,
   fused loops far above 256 iterations), sampled convs (padded, strided,
   transposed, strided depthwise), and the OOB corpus. *)
let analysis_corpus =
  lazy
    (let open Ansor in
     let policy = Policy.cpu ~workers:20 in
     let mutants rng dag states =
       List.concat_map
         (fun st ->
           List.filter_map
             (fun mutate -> Option.map (fun (c : Candidate.t) -> c.prog) (mutate st))
             [
               Evolution.mutate_tile_sizes rng dag;
               Evolution.mutate_annotation rng dag;
               Evolution.mutate_pragma rng policy dag;
               Evolution.mutate_location rng dag;
             ])
         states
     in
     let of_dag ~seed name dag =
       let states = sample_programs ~seed ~n:3 dag in
       List.map (fun p -> (name, p))
         (List.map Lower.lower (State.init dag :: states)
         @ mutants (Rng.create seed) dag states)
     in
     let mobilenet =
       List.concat_map
         (fun ((c : Workloads.case), _) -> of_dag ~seed:7 c.case_name c.dag)
         (Workloads.mobilenet_v2 ~batch:1).layers
     in
     let convs =
       [
         ("conv padded", Nn.conv2d ~n:1 ~c:4 ~h:14 ~w:14 ~f:8 ~kh:3 ~kw:3 ~stride:1 ~pad:1 ());
         ("conv strided", Nn.conv2d ~n:1 ~c:8 ~h:28 ~w:28 ~f:16 ~kh:3 ~kw:3 ~stride:2 ~pad:1 ());
         ("T2D", Nn.conv2d_transposed ~n:1 ~c:4 ~h:8 ~w:8 ~f:4 ~kh:4 ~kw:4 ~stride:2 ~pad:1 ());
         ("depthwise strided", Nn.depthwise_conv2d ~n:1 ~c:16 ~h:28 ~w:28 ~kh:3 ~kw:3 ~stride:2 ~pad:1 ());
       ]
     in
     mobilenet
     @ List.concat_map (fun (name, dag) -> of_dag ~seed:3 name dag) convs
     @ List.map (fun (name, p, _) -> (name, p)) (oob_corpus ()))
