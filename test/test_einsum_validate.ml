(* The einsum front-end and the static validator. *)

open Helpers
module E = Ansor.Einsum
module V = Ansor.Validate
module D = Ansor.Diagnostic
module State = Ansor.State
module Lower = Ansor.Lower
module Step = Ansor.Step

(* ---------- einsum ---------- *)

let run_einsum spec shapes inputs out_name =
  let dag = E.build spec ~shapes in
  List.assoc out_name (Ansor.Interp.run_dag dag ~inputs)

let test_einsum_matmul () =
  let a = [| 1.; 2.; 3.; 4. |] (* 2x2 *) in
  let b = [| 5.; 6.; 7.; 8. |] in
  let got = run_einsum "ij,jk->ik" [ [ 2; 2 ]; [ 2; 2 ] ]
      [ ("in0", a); ("in1", b) ] "Out"
  in
  Alcotest.(check (array (float 1e-6))) "matmul"
    [| 19.; 22.; 43.; 50. |] got

let test_einsum_matches_nn_matmul () =
  let m, n, k = (4, 5, 6) in
  let rng = Ansor.Rng.create 3 in
  let a = Array.init (m * k) (fun _ -> Ansor.Rng.float rng 1.0) in
  let b = Array.init (k * n) (fun _ -> Ansor.Rng.float rng 1.0) in
  let via_einsum =
    run_einsum "ij,jk->ik" [ [ m; k ]; [ k; n ] ] [ ("in0", a); ("in1", b) ] "Out"
  in
  let via_nn =
    List.assoc "C"
      (Ansor.Interp.run_dag (Ansor.Nn.matmul ~m ~n ~k ()) ~inputs:[ ("A", a); ("B", b) ])
  in
  check_bool "agree" true (Ansor.Interp.max_abs_diff via_einsum via_nn < 1e-5)

let test_einsum_transpose () =
  let a = [| 1.; 2.; 3.; 4.; 5.; 6. |] (* 2x3 *) in
  let got = run_einsum "ij->ji" [ [ 2; 3 ] ] [ ("in0", a) ] "Out" in
  Alcotest.(check (array (float 1e-6))) "transpose"
    [| 1.; 4.; 2.; 5.; 3.; 6. |] got

let test_einsum_trace_sum () =
  (* full contraction to a scalar *)
  let a = [| 1.; 2.; 3.; 4. |] in
  let got = run_einsum "ij->" [ [ 2; 2 ] ] [ ("in0", a) ] "Out" in
  Alcotest.(check (array (float 1e-6))) "sum" [| 10. |] got

let test_einsum_attention_shape () =
  Alcotest.(check (list int)) "attention scores shape" [ 2; 4; 8; 8 ]
    (E.output_shape "bhqd,bhkd->bhqk" ~shapes:[ [ 2; 4; 8; 16 ]; [ 2; 4; 8; 16 ] ])

let test_einsum_schedulable () =
  (* an einsum DAG flows through the whole pipeline *)
  let dag = E.build "bij,bjk->bik" ~shapes:[ [ 2; 8; 8 ]; [ 2; 8; 8 ] ] in
  List.iter assert_state_correct (sample_programs ~seed:6 ~n:4 dag)

let test_einsum_errors () =
  let expect_invalid f =
    match f () with
    | _ -> Alcotest.fail "expected Invalid_argument"
    | exception Invalid_argument _ -> ()
  in
  expect_invalid (fun () -> E.build "ij,jk" ~shapes:[ [ 2; 2 ]; [ 2; 2 ] ]);
  expect_invalid (fun () -> E.build "ij,jk->ik" ~shapes:[ [ 2; 2 ] ]);
  expect_invalid (fun () -> E.build "ij->ijj" ~shapes:[ [ 2; 2 ] ]);
  expect_invalid (fun () -> E.build "ij->iz" ~shapes:[ [ 2; 2 ] ]);
  expect_invalid (fun () -> E.build "ij,jk->ik" ~shapes:[ [ 2; 3 ]; [ 4; 2 ] ]);
  expect_invalid (fun () -> E.build "iJ->i" ~shapes:[ [ 2; 2 ] ])

(* ---------- validator ---------- *)

let test_interval_arithmetic () =
  let env v =
    if String.equal v "i" then Some { V.Interval.lo = 0; hi = 7 } else None
  in
  let ivl e = V.Interval.of_iexpr env e in
  (match ivl Ansor.Expr.(Iadd (Imul (Axis "i", Int 3), Int 2)) with
  | Some { lo; hi } ->
    check_int "lo" 2 lo;
    check_int "hi" 23 hi
  | None -> Alcotest.fail "interval expected");
  (match ivl Ansor.Expr.(Idiv (Axis "i", Int 2)) with
  | Some { lo; hi } ->
    check_int "div lo" 0 lo;
    check_int "div hi" 3 hi
  | None -> Alcotest.fail "interval expected");
  (match ivl Ansor.Expr.(Imod (Axis "i", Int 3)) with
  | Some { lo; hi } ->
    check_int "mod lo" 0 lo;
    check_int "mod hi" 2 hi
  | None -> Alcotest.fail "interval expected");
  (* negative ranges through subtraction *)
  match ivl Ansor.Expr.(Isub (Axis "i", Int 10)) with
  | Some { lo; hi } ->
    check_int "sub lo" (-10) lo;
    check_int "sub hi" (-3) hi
  | None -> Alcotest.fail "interval expected"

let test_interval_tightening () =
  (* the cases Interval.of_iexpr used to lose or over-approximate *)
  let env v =
    match v with
    | "i" -> Some { V.Interval.lo = 0; hi = 7 }
    | "j" -> Some { V.Interval.lo = 3; hi = 5 }
    | "d" -> Some { V.Interval.lo = 2; hi = 4 }
    | _ -> None
  in
  let expect name e lo hi =
    match V.Interval.of_iexpr env e with
    | Some iv ->
      check_int (name ^ " lo") lo iv.V.Interval.lo;
      check_int (name ^ " hi") hi iv.V.Interval.hi
    | None -> Alcotest.failf "%s: interval expected" name
  in
  (* mod passthrough: i in [0,8) already fits mod 16 *)
  expect "mod passthrough" Ansor.Expr.(Imod (Axis "i", Int 16)) 0 7;
  (* mod same-block: i+16 in [16,23] lies inside block [16,32) of mod 16 *)
  expect "mod same-block"
    Ansor.Expr.(Imod (Iadd (Axis "i", Int 16), Int 16))
    0 7;
  (* mod same-block, negative: i-8 in [-8,-1] is block [-16,0) of mod 16 *)
  expect "mod negative block"
    Ansor.Expr.(Imod (Isub (Axis "i", Int 8), Int 16))
    8 15;
  (* straddling blocks still falls back to [0, d) *)
  expect "mod straddle" Ansor.Expr.(Imod (Iadd (Axis "i", Int 12), Int 16)) 0 15;
  (* division by a positive non-constant interval *)
  expect "div by interval" Ansor.Expr.(Idiv (Axis "i", Axis "d")) 0 3;
  expect "div negative by interval"
    Ansor.Expr.(Idiv (Isub (Axis "i", Int 7), Axis "d"))
    (-4) 0;
  (* min / max of known intervals *)
  expect "min" Ansor.Expr.(Imin (Axis "i", Axis "j")) 0 5;
  expect "max" Ansor.Expr.(Imax (Axis "i", Axis "j")) 3 7;
  expect "min const" Ansor.Expr.(Imin (Axis "i", Int 4)) 0 4;
  (* still None when a divisor may be zero or negative *)
  (match
     V.Interval.of_iexpr env Ansor.Expr.(Idiv (Axis "i", Isub (Axis "d", Int 2)))
   with
  | None -> ()
  | Some _ -> Alcotest.fail "division by possibly-zero interval must be None")

let test_valid_programs_pass () =
  List.iter
    (fun dag ->
      List.iter
        (fun st ->
          let prog = Lower.lower st in
          match V.check prog with
          | [] -> ()
          | issues ->
            Alcotest.failf "unexpected issues: %s"
              (String.concat "; " (List.map D.to_string issues)))
        (sample_programs ~seed:9 ~n:6 dag))
    [
      Ansor.Nn.matmul_relu ~m:16 ~n:16 ~k:16 ();
      Ansor.Nn.conv2d ~n:1 ~c:4 ~h:8 ~w:8 ~f:4 ~kh:3 ~kw:3 ~stride:1 ~pad:1 ();
      Ansor.Nn.conv2d_transposed ~n:1 ~c:2 ~h:6 ~w:6 ~f:2 ~kh:4 ~kw:4 ~stride:2 ~pad:1 ();
      Ansor.Nn.matrix_norm ~m:8 ~n:32 ();
    ]

let test_validator_works_at_scale () =
  (* shapes far too big to interpret: static validation still runs *)
  let dag = Ansor.Nn.conv2d ~n:16 ~c:256 ~h:56 ~w:56 ~f:256 ~kh:3 ~kw:3 ~stride:1 ~pad:1 () in
  match sample_programs ~seed:10 ~n:2 dag with
  | [] -> Alcotest.fail "sampling failed"
  | states ->
    List.iter
      (fun st ->
        Alcotest.(check (list string)) "no issues" []
          (List.map D.to_string (V.check (Lower.lower st))))
      states

let test_detects_out_of_bounds_write () =
  (* hand-build a broken program: write at a shifted offset *)
  let open Ansor.Prog in
  let stmt =
    {
      stage = "X";
      tensor = "X";
      indices = [ Ansor.Expr.(Iadd (Axis "i", Int 1)) ];
      rhs = Ansor.Expr.const 1.0;
      update = None;
      max_unroll = None;
    }
  in
  let prog =
    {
      items =
        [
          Loop
            {
              lvar = "i";
              extent = 4;
              kind = State.Space;
              ann = Step.No_ann;
              body = [ Stmt stmt ];
            };
        ];
      buffers = [ ("X", [ 4 ]) ];
      inits = [];
    }
  in
  (* out of bounds is the bounds certifier's call: a witness-backed
     Error *)
  let verdict, issues = Ansor.Bounds.check prog in
  check_bool "flags OOB write" true
    ((match verdict with
     | Ansor.Bounds.Unsafe w -> w.Ansor.Bounds.w_kind = Ansor.Bounds.Write
     | _ -> false)
    && List.exists
         (fun (d : D.t) ->
           d.D.code = "out-of-bounds-witness" && d.D.severity = D.Error
           && d.D.loc = D.Stage "X")
         issues)

let test_detects_uncovered_buffer () =
  (* writes touch only half the buffer *)
  let open Ansor.Prog in
  let stmt =
    {
      stage = "X";
      tensor = "X";
      indices = [ Ansor.Expr.axis "i" ];
      rhs = Ansor.Expr.const 0.0;
      update = None;
      max_unroll = None;
    }
  in
  let prog =
    {
      items =
        [
          Loop
            {
              lvar = "i";
              extent = 2;
              kind = State.Space;
              ann = Step.No_ann;
              body = [ Stmt stmt ];
            };
        ];
      buffers = [ ("X", [ 4 ]) ];
      inits = [];
    }
  in
  check_bool "flags partial coverage" true
    (List.exists
       (fun (d : D.t) -> d.D.code = "write-coverage" && d.D.loc = D.Buffer "X")
       (V.check prog))

let test_detects_missing_init () =
  let open Ansor.Prog in
  let stmt =
    {
      stage = "X";
      tensor = "X";
      indices = [ Ansor.Expr.axis "i" ];
      rhs = Ansor.Expr.const 1.0;
      update = Some Ansor.Op.Sum;
      max_unroll = None;
    }
  in
  let prog =
    {
      items =
        [
          Loop
            {
              lvar = "i";
              extent = 4;
              kind = State.Space;
              ann = Step.No_ann;
              body = [ Stmt stmt ];
            };
        ];
      buffers = [ ("X", [ 4 ]) ];
      inits = [];
    }
  in
  check_bool "flags missing init" true
    (List.exists
       (fun (d : D.t) ->
         d.D.code = "uninit-reduction" && d.D.loc = D.Stage "X")
       (V.check prog))

let () =
  Alcotest.run "einsum_validate"
    [
      ( "einsum",
        [
          case "matmul values" test_einsum_matmul;
          case "agrees with Nn.matmul" test_einsum_matches_nn_matmul;
          case "transpose" test_einsum_transpose;
          case "full contraction" test_einsum_trace_sum;
          case "attention shape" test_einsum_attention_shape;
          case "schedulable" test_einsum_schedulable;
          case "errors" test_einsum_errors;
        ] );
      ( "validator",
        [
          case "interval arithmetic" test_interval_arithmetic;
          case "interval tightening" test_interval_tightening;
          case "valid programs pass" test_valid_programs_pass;
          case "works at scale" test_validator_works_at_scale;
          case "detects OOB write" test_detects_out_of_bounds_write;
          case "detects uncovered buffer" test_detects_uncovered_buffer;
          case "detects missing init" test_detects_missing_init;
        ] );
    ]
