(* The gradient-boosted decision trees backing the cost model. *)

open Helpers
module Gbdt = Ansor.Gbdt
module Rng = Ansor.Rng
module Stats = Ansor.Stats

let make_data rng n dims f =
  let x = Array.init n (fun _ -> Array.init dims (fun _ -> Rng.float rng 1.0)) in
  (x, Array.map f x)

let mae model x y lo hi =
  let errs = ref [] in
  for i = lo to hi - 1 do
    errs := Float.abs (Gbdt.predict model x.(i) -. y.(i)) :: !errs
  done;
  Stats.mean !errs

let test_fits_constant () =
  let x = Array.make 20 [| 0.0 |] in
  let y = Array.make 20 7.5 in
  let model = Gbdt.train ~x ~y () in
  check_floatish "constant" 7.5 (Gbdt.predict model [| 0.0 |])

let test_fits_step_function () =
  let rng = Rng.create 1 in
  let x, y = make_data rng 600 3 (fun r -> if r.(1) > 0.5 then 10.0 else -10.0) in
  let model = Gbdt.train ~x ~y () in
  check_bool "low side" true (Gbdt.predict model [| 0.3; 0.1; 0.9 |] < -5.0);
  check_bool "high side" true (Gbdt.predict model [| 0.3; 0.9; 0.9 |] > 5.0)

let test_fits_nonlinear () =
  let rng = Rng.create 2 in
  let f (r : float array) = (3.0 *. r.(0)) +. (5.0 *. r.(1) *. r.(2)) in
  let x, y = make_data rng 2000 8 f in
  let model =
    Gbdt.train ~x:(Array.sub x 0 1500) ~y:(Array.sub y 0 1500) ()
  in
  let err = mae model x y 1500 2000 in
  let spread = Stats.stddev (Array.to_list (Array.sub y 1500 500)) in
  check_bool
    (Printf.sprintf "test MAE %.3f well below stddev %.3f" err spread)
    true
    (err < spread /. 3.0)

let test_weights_matter () =
  (* two clusters with conflicting labels at the same x; weights decide *)
  let x = Array.init 40 (fun _ -> [| 0.5 |]) in
  let y = Array.init 40 (fun i -> if i < 20 then 0.0 else 10.0) in
  let w = Array.init 40 (fun i -> if i < 20 then 0.01 else 1.0) in
  let model = Gbdt.train ~x ~y ~w () in
  check_bool "prediction pulled to heavy cluster" true
    (Gbdt.predict model [| 0.5 |] > 9.0)

let test_ranking_quality () =
  (* what the cost model actually needs: ranking fidelity *)
  let rng = Rng.create 3 in
  let f (r : float array) = r.(0) -. (2.0 *. r.(1)) in
  let x, y = make_data rng 1200 4 f in
  let model = Gbdt.train ~x:(Array.sub x 0 1000) ~y:(Array.sub y 0 1000) () in
  let correct = ref 0 and total = ref 0 in
  for i = 1000 to 1198 do
    incr total;
    let p = Gbdt.predict model x.(i) > Gbdt.predict model x.(i + 1) in
    let a = y.(i) > y.(i + 1) in
    if p = a then incr correct
  done;
  let acc = float_of_int !correct /. float_of_int !total in
  check_bool (Printf.sprintf "pairwise accuracy %.2f > 0.85" acc) true (acc > 0.85)

let test_validation_errors () =
  (match Gbdt.train ~x:[||] ~y:[||] () with
  | _ -> Alcotest.fail "expected error on empty data"
  | exception Invalid_argument _ -> ());
  (match Gbdt.train ~x:[| [| 1.0 |]; [| 1.0; 2.0 |] |] ~y:[| 0.0; 0.0 |] () with
  | _ -> Alcotest.fail "expected error on ragged rows"
  | exception Invalid_argument _ -> ());
  (match Gbdt.train ~x:[| [| 1.0 |] |] ~y:[| 0.0; 1.0 |] () with
  | _ -> Alcotest.fail "expected error on size mismatch"
  | exception Invalid_argument _ -> ());
  match Gbdt.train ~x:[| [| 1.0 |] |] ~y:[| 1.0 |] ~w:[| 0.0 |] () with
  | _ -> Alcotest.fail "expected error on zero weights"
  | exception Invalid_argument _ -> ()

let test_num_trees_and_params () =
  let rng = Rng.create 4 in
  let x, y = make_data rng 100 2 (fun r -> r.(0)) in
  let params = { Gbdt.default_params with n_trees = 7 } in
  let model = Gbdt.train ~params ~x ~y () in
  check_int "trees built" 7 (Gbdt.num_trees model)

let test_feature_importance () =
  let rng = Rng.create 5 in
  (* only feature 2 matters *)
  let x, y = make_data rng 800 5 (fun r -> 10.0 *. r.(2)) in
  let model = Gbdt.train ~x ~y () in
  let imp = Gbdt.feature_importance model in
  check_int "length" 5 (Array.length imp);
  check_floatish "normalized" 1.0 (Array.fold_left ( +. ) 0.0 imp);
  check_bool "informative feature dominates" true
    (imp.(2) > 0.8)

let test_predict_many () =
  let rng = Rng.create 6 in
  let x, y = make_data rng 50 2 (fun r -> r.(0) +. r.(1)) in
  let model = Gbdt.train ~x ~y () in
  let preds = Gbdt.predict_many model x in
  check_int "count" 50 (Array.length preds);
  Array.iteri
    (fun i p -> check_float "matches single" (Gbdt.predict model x.(i)) p)
    preds

let test_extrapolation_is_finite () =
  let rng = Rng.create 7 in
  let x, y = make_data rng 100 2 (fun r -> r.(0)) in
  let model = Gbdt.train ~x ~y () in
  let p = Gbdt.predict model [| 1e9; -1e9 |] in
  check_bool "finite outside training range" true (Float.is_finite p)

(* ---- golden bit-identity ------------------------------------------------
   MD5 digests of [Marshal.to_string model [No_sharing]] for seeded
   [train] calls, captured before the trainer moved to flat arrays.  Any
   change to split choice, leaf values, float accumulation order or the
   order in which [importance] sums gains changes a digest; a change that
   keeps every digest keeps every model bit for bit. *)

let digest model =
  Digest.to_hex (Digest.string (Marshal.to_string model [ Marshal.No_sharing ]))

(* [n] rows of [dims] columns; [col f rng] draws column [f]'s value *)
let golden_data seed n dims col target =
  let rng = Rng.create seed in
  let x = Array.init n (fun _ -> Array.init dims (fun f -> col f rng)) in
  (x, Array.map (target rng) x)

let uniform _ rng = Rng.float rng 1.0

let linear rng (r : float array) =
  r.(0) -. (2.0 *. r.(1) *. r.(Array.length r - 1)) +. Rng.float rng 0.1

let small = { Gbdt.default_params with n_trees = 12 }

(* A small tuning corpus built the way the search builds one: sampled
   schedules of a conv layer, featurized per statement, labelled by the
   simulator, trained through the cost model (throughput targets and
   weights). *)
let corpus_model () =
  let dag =
    Ansor.Nn.conv2d ~n:1 ~c:16 ~h:14 ~w:14 ~f:32 ~kh:3 ~kw:3 ~stride:1 ~pad:1
      ()
  in
  let records =
    List.map
      (fun st ->
        let prog = Ansor.Lower.lower st in
        Ansor.Cost_model.record_of_prog ~task_key:"conv"
          ~latency:(Ansor.Simulator.estimate Ansor.Machine.intel_cpu prog)
          prog)
      (sample_programs ~seed:22 ~n:48 dag)
  in
  match Ansor.Cost_model.gbdt (Ansor.Cost_model.train records) with
  | Some m -> m
  | None -> Alcotest.fail "corpus model untrained"

(* (name, digest, model) *)
let golden_cases =
  let plain = golden_data 11 300 6 uniform linear in
  let init () =
    let x, y = plain in
    Gbdt.train ~params:small ~x ~y ()
  in
  [
    ( "plain",
      "91f468130a20bf8b1dcd324665ed0134",
      fun () ->
        let x, y = plain in
        Gbdt.train ~x ~y () );
    ( "weights, some zero",
      "3b099fe5b2031951ca9819c6c2432049",
      fun () ->
        let x, y = golden_data 12 250 5 uniform linear in
        let rng = Rng.create 13 in
        let w =
          Array.init 250 (fun i -> if i mod 7 = 0 then 0.0 else Rng.float rng 2.0)
        in
        Gbdt.train ~params:small ~x ~y ~w () );
    ( "warm start",
      "0f64bcc445e147f9a17223caad76c899",
      fun () ->
        let x, y = golden_data 14 200 6 uniform linear in
        Gbdt.train ~params:small ~init:(init ()) ~x ~y () );
    ( "warm start, weights, fewer features",
      "01c9ca3ec38c4e1922bbf741bc0abb4b",
      fun () ->
        let x, y = golden_data 15 180 4 uniform linear in
        let w = Array.init 180 (fun i -> 0.5 +. float_of_int (i mod 3)) in
        Gbdt.train ~params:small ~init:(init ()) ~x ~y ~w () );
    ( "discrete columns",
      "bb530ba6666fd2716866d23ec831238e",
      fun () ->
        let x, y =
          golden_data 16 240 5
            (fun f rng -> float_of_int (Rng.int rng (2 + f)))
            linear
        in
        Gbdt.train ~params:small ~x ~y () );
    ( "constant columns",
      "b139cda75110a6aa537e2abc92656efd",
      fun () ->
        let x, y =
          golden_data 17 200 6
            (fun f rng -> if f mod 2 = 1 then 3.0 else Rng.float rng 1.0)
            (fun rng r -> r.(0) +. r.(2) +. Rng.float rng 0.1)
        in
        Gbdt.train ~params:small ~x ~y () );
    ( "ragged bins",
      "83a75785e64431fa37c1718a97fd5a3a",
      fun () ->
        (* column f takes 1 + 4f distinct values: edge counts 0, 4, 8, ...
           and one column with more distinct values than bins *)
        let x, y =
          golden_data 18 260 5
            (fun f rng ->
              if f = 4 then Rng.float rng 1.0
              else float_of_int (Rng.int rng (1 + (4 * f))))
            (fun rng r -> r.(1) -. r.(3) +. r.(4) +. Rng.float rng 0.5)
        in
        Gbdt.train ~params:small ~x ~y () );
    ( "ties in rows and targets",
      "45db03c2d794d94227e1b1445cf8696f",
      fun () ->
        let x, y =
          golden_data 19 200 3
            (fun _ rng -> float_of_int (Rng.int rng 3))
            (fun _ r -> if r.(0) +. r.(1) > 2.0 then 1.0 else 0.0)
        in
        let x = Array.append x x and y = Array.append y y in
        Gbdt.train ~params:small ~x ~y () );
    ( "max_depth 1",
      "4598d454e16e802151abf0b0a60ba5ca",
      fun () ->
        let x, y = plain in
        Gbdt.train ~params:{ small with max_depth = 1 } ~x ~y () );
    ( "max_depth 7",
      "76a0f97e319d4e8536e1da17c630384b",
      fun () ->
        let x, y = plain in
        Gbdt.train ~params:{ small with max_depth = 7 } ~x ~y () );
    ( "min_samples_leaf 1",
      "4afda13bd7fc57406d2d2c01e1ec98be",
      fun () ->
        let x, y = golden_data 20 120 4 uniform linear in
        Gbdt.train ~params:{ small with min_samples_leaf = 1 } ~x ~y () );
    ( "min_samples_leaf 5, tiny set",
      "9172fac31bf244929bd4d440a287bebe",
      fun () ->
        let x, y = golden_data 21 40 3 uniform linear in
        Gbdt.train ~params:{ small with min_samples_leaf = 5 } ~x ~y () );
    ("tuning corpus", "71140cb39ccedcd1524c2904bd042327", corpus_model);
  ]

let () =
  Alcotest.run "gbdt"
    [
      ( "fitting",
        [
          case "constant" test_fits_constant;
          case "step function" test_fits_step_function;
          case "nonlinear interaction" test_fits_nonlinear;
          case "sample weights" test_weights_matter;
          case "ranking quality" test_ranking_quality;
        ] );
      ( "mechanics",
        [
          case "validation errors" test_validation_errors;
          case "tree count" test_num_trees_and_params;
          case "feature importance" test_feature_importance;
          case "predict_many" test_predict_many;
          case "extrapolation finite" test_extrapolation_is_finite;
        ] );
      ( "golden",
        List.map
          (fun (name, expected, model) ->
            case name (fun () -> check_string name expected (digest (model ()))))
          golden_cases );
    ]
