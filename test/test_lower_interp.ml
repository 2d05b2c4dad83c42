(* Lowering + interpretation: scheduled programs must compute exactly the
   tensors of the naive program. These tests exercise each lowering
   mechanism (splits with index reconstruction, fusion via compute_at,
   fused-loop div/mod recovery, inlining, cache stages, rfactor) on small
   shapes where both sides can be executed. *)

open Helpers
module Step = Ansor.Step
module State = Ansor.State
module Prog = Ansor.Prog
module Lower = Ansor.Lower
module Interp = Ansor.Interp
module Nn = Ansor.Nn

let lower_replay dag steps = Lower.lower (State.replay dag steps)

(* ---------- naive lowering ---------- *)

let test_naive_matmul () =
  let dag = Nn.matmul ~m:4 ~n:4 ~k:4 () in
  let st = State.init dag in
  assert_state_correct st;
  let prog = Lower.lower st in
  check_int "one statement" 1 (Prog.num_stmts prog);
  Alcotest.(check (list (pair string (float 0.0)))) "reduction init"
    [ ("C", 0.0) ] prog.inits;
  check_int "buffers: A B C" 3 (List.length prog.buffers)

let test_naive_every_builtin () =
  List.iter
    (fun (name, dag) ->
      let st = Ansor.State.init dag in
      match Ansor.Interp.check_equivalent dag (Lower.lower st)
              ~inputs:(Interp.random_inputs (Ansor.Rng.create 3) dag)
      with
      | Ok () -> ()
      | Error e -> Alcotest.failf "%s: %s" name e)
    [
      ("matmul_bias_relu", Nn.matmul_bias_relu ~m:4 ~n:4 ~k:4 ());
      ("conv2d", Nn.conv2d ~n:1 ~c:2 ~h:5 ~w:5 ~f:2 ~kh:3 ~kw:3 ~stride:1 ~pad:1 ());
      ("softmax", Nn.softmax ~m:3 ~n:4 ());
      ("tbg", Nn.tbg ~b:2 ~m:3 ~n:3 ~k:4 ());
      ("norm", Nn.matrix_norm ~m:4 ~n:8 ());
    ]

(* ---------- split index reconstruction ---------- *)

let test_split_reconstruction () =
  let dag = Nn.matmul ~m:8 ~n:8 ~k:8 () in
  assert_state_correct
    (State.replay dag
       Step.
         [
           Split { stage = "C"; iv = 0; lengths = [ 2; 2; 2 ]; tbd = false };
           Split { stage = "C"; iv = 2; lengths = [ 4; 2 ]; tbd = false };
           Reorder { stage = "C"; order = [ 3; 6; 4; 7; 5; 1 ] };
         ])

let test_fuse_reconstruction () =
  (* fused loops need div/mod to recover the original axes *)
  let dag = Nn.matmul ~m:4 ~n:6 ~k:2 () in
  assert_state_correct
    (State.replay dag [ Step.Fuse { stage = "C"; ivs = [ 0; 1 ] } ])

let test_fuse_of_split_parts () =
  let dag = Nn.matmul ~m:8 ~n:8 ~k:4 () in
  assert_state_correct
    (State.replay dag
       Step.
         [
           Split { stage = "C"; iv = 0; lengths = [ 2; 4 ]; tbd = false };
           Split { stage = "C"; iv = 1; lengths = [ 4; 2 ]; tbd = false };
           Reorder { stage = "C"; order = [ 3; 5; 4; 6; 2 ] };
           Fuse { stage = "C"; ivs = [ 3; 5 ] };
         ])

(* ---------- annotations are semantically transparent ---------- *)

let test_annotations_transparent () =
  let dag = Nn.matmul ~m:8 ~n:8 ~k:8 () in
  assert_state_correct
    (State.replay dag
       Step.
         [
           Split { stage = "C"; iv = 0; lengths = [ 2; 4 ]; tbd = false };
           Annotate { stage = "C"; iv = 3; ann = Parallel };
           Annotate { stage = "C"; iv = 4; ann = Unroll };
           Annotate { stage = "C"; iv = 1; ann = Vectorize };
           Pragma_unroll { stage = "C"; max_step = 64 };
         ])

(* ---------- inline ---------- *)

let test_inline_chain () =
  (* bias_add inlined into relu: the lowered program has two statements
     (matmul + fused elementwise) and no buffer for D *)
  let dag = Nn.matmul_bias_relu ~m:4 ~n:4 ~k:4 () in
  let st = State.replay dag [ Step.Compute_inline { stage = "D" } ] in
  assert_state_correct st;
  let prog = Lower.lower st in
  check_int "two statements" 2 (Prog.num_stmts prog);
  check_bool "no buffer for inlined stage" false
    (List.mem_assoc "D" prog.buffers)

let test_inline_padding () =
  let dag = Nn.conv2d ~n:1 ~c:2 ~h:5 ~w:5 ~f:2 ~kh:3 ~kw:3 ~stride:1 ~pad:1 () in
  let st = State.replay dag [ Step.Compute_inline { stage = "Xpad" } ] in
  assert_state_correct st;
  let prog = Lower.lower st in
  check_bool "pad buffer gone" false (List.mem_assoc "Xpad" prog.buffers)

(* ---------- compute_at / fusion ---------- *)

let test_fusion_structure () =
  let dag = Nn.matmul_relu ~m:16 ~n:16 ~k:16 () in
  let st = State.replay dag fused_steps in
  assert_state_correct st;
  let prog = Lower.lower st in
  (* bound loops are not emitted: C contributes i.1, j.1, k = 3 loops
     nested inside D's two outer tile loops *)
  let depths = ref [] in
  Prog.iter_stmts prog (fun loops stmt ->
      depths := (stmt.Prog.stage, List.length loops) :: !depths);
  Alcotest.(check (list (pair string int))) "loop depths"
    [ ("C", 5); ("D", 4) ]
    (List.rev !depths)

let test_fusion_partial_bindings () =
  (* binding only the first tile level: the producer computes a bigger
     tile, correctness must hold *)
  let dag = Nn.matmul_relu ~m:16 ~n:16 ~k:16 () in
  let steps =
    Step.
      [
        Split { stage = "D"; iv = 0; lengths = [ 4; 4 ]; tbd = false };
        Split { stage = "D"; iv = 1; lengths = [ 4; 4 ]; tbd = false };
        Reorder { stage = "D"; order = [ 2; 4; 3; 5 ] };
        Split { stage = "C"; iv = 0; lengths = [ 4; 4 ]; tbd = false };
        Split { stage = "C"; iv = 1; lengths = [ 4; 4 ]; tbd = false };
        Reorder { stage = "C"; order = [ 3; 5; 2; 4; 6 ] };
        Compute_at
          { stage = "C"; target = "D"; target_iv = 2; bindings = [ (3, 2) ] };
      ]
  in
  assert_state_correct (State.replay dag steps)

let test_fusion_detached () =
  (* no bindings: the producer runs completely at the top of the target *)
  let dag = Nn.matmul_relu ~m:8 ~n:8 ~k:8 () in
  let steps =
    Step.
      [
        Compute_at { stage = "C"; target = "D"; target_iv = 0; bindings = [] };
      ]
  in
  assert_state_correct (State.replay dag steps)

let test_recomputation_guard () =
  (* fusing the target's loops beyond the attach point would re-invoke the
     reduction producer; lowering must reject it *)
  match Lower.lower (recomputation_guard_state ()) with
  | _ -> Alcotest.fail "expected the recomputation guard to fire"
  | exception State.Illegal _ -> ()

let test_fusion_with_fused_parallel () =
  (* fusing exactly the bound tile loops is legal and common *)
  let dag = Nn.matmul_relu ~m:16 ~n:16 ~k:16 () in
  let steps =
    fused_steps
    @ Step.
        [
          Fuse { stage = "D"; ivs = [ 2; 4 ] };
          Annotate { stage = "D"; iv = 6; ann = Parallel };
        ]
  in
  assert_state_correct (State.replay dag steps)

(* ---------- cache write ---------- *)

let test_cache_write_numeric () =
  let dag = Nn.matmul ~m:8 ~n:8 ~k:8 () in
  let st = State.replay dag [ Step.Cache_write { stage = "C" } ] in
  (* verify against the ORIGINAL dag's semantics via output C *)
  assert_state_correct st

let test_cache_write_fused () =
  let dag = Nn.matmul ~m:16 ~n:16 ~k:16 () in
  let steps =
    Step.
      [
        Cache_write { stage = "C" };
        Split { stage = "C"; iv = 0; lengths = [ 4; 4 ]; tbd = false };
        Split { stage = "C"; iv = 1; lengths = [ 4; 4 ]; tbd = false };
        Reorder { stage = "C"; order = [ 2; 4; 3; 5 ] };
        Split { stage = "C.local"; iv = 0; lengths = [ 4; 4 ]; tbd = false };
        Split { stage = "C.local"; iv = 1; lengths = [ 4; 4 ]; tbd = false };
        Reorder { stage = "C.local"; order = [ 3; 5; 2; 4; 6 ] };
        Compute_at
          {
            stage = "C.local";
            target = "C";
            target_iv = 4;
            bindings = [ (3, 2); (5, 4) ];
          };
      ]
  in
  assert_state_correct (State.replay dag steps)

(* ---------- rfactor ---------- *)

let test_rfactor_numeric () =
  let dag = Nn.matrix_norm ~m:8 ~n:32 () in
  let st =
    State.replay dag
      [ Step.Rfactor { stage = "Sq"; iv = 1; lengths = [ 8; 4 ]; tbd = false } ]
  in
  assert_state_correct st

let test_rfactor_parallel_numeric () =
  (* the point of rfactor: the inner part becomes a parallelizable space
     axis of the partial-reduction stage *)
  let dag = Nn.matrix_norm ~m:8 ~n:32 () in
  let st =
    State.replay dag
      Step.
        [
          Rfactor { stage = "Sq"; iv = 1; lengths = [ 4; 8 ] ; tbd = false };
          (* the inner reduction part became space axis 0 of the rf stage *)
          Annotate { stage = "Sq.rf"; iv = 0; ann = Parallel };
        ]
  in
  assert_state_correct st

let test_rfactor_max_reduction () =
  (* rfactor distributes over max as well *)
  let dag = Nn.softmax ~m:4 ~n:32 () in
  let st =
    State.replay dag
      [ Step.Rfactor { stage = "Rowmax"; iv = 1; lengths = [ 8; 4 ]; tbd = false } ]
  in
  assert_state_correct st

(* ---------- interpreter details ---------- *)

let test_interp_bounds_check () =
  let dag = Nn.matmul ~m:4 ~n:4 ~k:4 () in
  let inputs = Interp.random_inputs (Ansor.Rng.create 1) dag in
  let bad = ("A", Array.make 3 0.0) :: List.remove_assoc "A" inputs in
  (match Interp.run_dag dag ~inputs:bad with
  | _ -> Alcotest.fail "expected size mismatch"
  | exception Interp.Runtime_error _ -> ());
  match Interp.run_dag dag ~inputs:(List.remove_assoc "A" inputs) with
  | _ -> Alcotest.fail "expected missing input"
  | exception Interp.Runtime_error _ -> ()

let test_max_abs_diff () =
  check_float "diff" 2.0 (Interp.max_abs_diff [| 1.0; 3.0 |] [| 1.0; 5.0 |]);
  match Interp.max_abs_diff [| 1.0 |] [| 1.0; 2.0 |] with
  | _ -> Alcotest.fail "expected length mismatch"
  | exception Interp.Runtime_error _ -> ()

let contains_substring hay needle =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

let test_prog_pp () =
  let dag = Nn.matmul ~m:4 ~n:4 ~k:4 () in
  let s = Prog.to_string (lower_replay dag []) in
  check_bool "mentions loops" true (contains_substring s "for C.i in range(4)");
  check_bool "mentions accumulate" true (contains_substring s "+=")

let () =
  Alcotest.run "lower_interp"
    [
      ( "naive",
        [
          case "matmul structure" test_naive_matmul;
          case "all builtin dags" test_naive_every_builtin;
        ] );
      ( "splits",
        [
          case "multi-way split" test_split_reconstruction;
          case "fused axes" test_fuse_reconstruction;
          case "fuse of split parts" test_fuse_of_split_parts;
          case "annotations transparent" test_annotations_transparent;
        ] );
      ( "inline",
        [ case "elementwise chain" test_inline_chain; case "padding" test_inline_padding ] );
      ( "fusion",
        [
          case "structure" test_fusion_structure;
          case "partial bindings" test_fusion_partial_bindings;
          case "detached producer" test_fusion_detached;
          case "recomputation guard" test_recomputation_guard;
          case "fused parallel consumer" test_fusion_with_fused_parallel;
        ] );
      ( "surgery",
        [
          case "cache write" test_cache_write_numeric;
          case "cache write fused" test_cache_write_fused;
          case "rfactor" test_rfactor_numeric;
          case "rfactor parallel" test_rfactor_parallel_numeric;
          case "rfactor over max" test_rfactor_max_reduction;
        ] );
      ( "interpreter",
        [
          case "bounds and input checks" test_interp_bounds_check;
          case "max_abs_diff" test_max_abs_diff;
          case "program pretty-printer" test_prog_pp;
        ] );
    ]
