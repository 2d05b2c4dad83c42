open Helpers
module Rng = Ansor.Rng
module Factorize = Ansor.Factorize
module Stats = Ansor.Stats

(* ---------- Rng ---------- *)

let test_determinism () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    check_int "same stream" (Rng.int a 1000) (Rng.int b 1000)
  done

let test_seed_sensitivity () =
  let a = Rng.create 1 and b = Rng.create 2 in
  let xs = List.init 20 (fun _ -> Rng.int a 1_000_000) in
  let ys = List.init 20 (fun _ -> Rng.int b 1_000_000) in
  check_bool "different seeds differ" true (xs <> ys)

let test_split_independence () =
  let a = Rng.create 7 in
  let child = Rng.split a in
  let xs = List.init 20 (fun _ -> Rng.int a 1_000_000) in
  let ys = List.init 20 (fun _ -> Rng.int child 1_000_000) in
  check_bool "split streams differ" true (xs <> ys)

let test_copy () =
  let a = Rng.create 9 in
  let _ = Rng.int a 10 in
  let b = Rng.copy a in
  check_int "copy resumes identically" (Rng.int a 1000) (Rng.int b 1000)

let test_int_bounds () =
  let rng = Rng.create 3 in
  for _ = 1 to 1000 do
    let x = Rng.int rng 7 in
    check_bool "in [0,7)" true (x >= 0 && x < 7)
  done;
  Alcotest.check_raises "bound 0 rejected"
    (Invalid_argument "Rng.int: bound must be positive") (fun () ->
      ignore (Rng.int rng 0))

let test_int_in () =
  let rng = Rng.create 4 in
  for _ = 1 to 500 do
    let x = Rng.int_in rng (-3) 5 in
    check_bool "in [-3,5]" true (x >= -3 && x <= 5)
  done

let test_int_coverage () =
  let rng = Rng.create 5 in
  let seen = Array.make 5 false in
  for _ = 1 to 500 do
    seen.(Rng.int rng 5) <- true
  done;
  Array.iteri (fun i s -> check_bool (Printf.sprintf "value %d seen" i) true s) seen

let test_float_bounds () =
  let rng = Rng.create 6 in
  for _ = 1 to 1000 do
    let x = Rng.float rng 2.5 in
    check_bool "in [0,2.5)" true (x >= 0.0 && x < 2.5)
  done

let test_gaussian_moments () =
  let rng = Rng.create 12 in
  let xs = List.init 5000 (fun _ -> Rng.gaussian rng) in
  check_bool "mean near 0" true (Float.abs (Stats.mean xs) < 0.1);
  check_bool "stddev near 1" true (Float.abs (Stats.stddev xs -. 1.0) < 0.1)

let test_choice () =
  let rng = Rng.create 8 in
  let arr = [| "a"; "b"; "c" |] in
  for _ = 1 to 50 do
    check_bool "choice member" true (Array.mem (Rng.choice rng arr) arr)
  done;
  Alcotest.check_raises "empty array"
    (Invalid_argument "Rng.choice: empty array") (fun () ->
      ignore (Rng.choice rng [||]))

let test_weighted_index () =
  let rng = Rng.create 10 in
  let counts = Array.make 3 0 in
  for _ = 1 to 3000 do
    let i = Rng.weighted_index rng [| 1.0; 0.0; 3.0 |] in
    counts.(i) <- counts.(i) + 1
  done;
  check_int "zero-weight never chosen" 0 counts.(1);
  check_bool "heavier chosen more" true (counts.(2) > counts.(0));
  (* all non-positive weights fall back to uniform *)
  let i = Rng.weighted_index rng [| 0.0; 0.0 |] in
  check_bool "fallback in range" true (i = 0 || i = 1)

let test_shuffle_permutes () =
  let rng = Rng.create 11 in
  let a = Array.init 50 Fun.id in
  Rng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "permutation" (Array.init 50 Fun.id) sorted

let test_sample_distinct () =
  let rng = Rng.create 13 in
  let xs = Rng.sample_distinct rng 5 10 in
  check_int "five drawn" 5 (List.length xs);
  check_int "distinct" 5 (List.length (List.sort_uniq compare xs));
  List.iter (fun x -> check_bool "in range" true (x >= 0 && x < 10)) xs;
  check_int "clamped to n" 3 (List.length (Rng.sample_distinct rng 7 3))

(* ---------- Factorize ---------- *)

let test_divisors () =
  Alcotest.(check (list int)) "divisors 12" [ 1; 2; 3; 4; 6; 12 ]
    (Factorize.divisors 12);
  Alcotest.(check (list int)) "divisors 1" [ 1 ] (Factorize.divisors 1);
  Alcotest.(check (list int)) "divisors 7" [ 1; 7 ] (Factorize.divisors 7);
  Alcotest.(check (list int)) "divisors 16" [ 1; 2; 4; 8; 16 ]
    (Factorize.divisors 16)

let test_prime_factors () =
  Alcotest.(check (list int)) "12" [ 2; 2; 3 ] (Factorize.prime_factors 12);
  Alcotest.(check (list int)) "1" [] (Factorize.prime_factors 1);
  Alcotest.(check (list int)) "97" [ 97 ] (Factorize.prime_factors 97);
  Alcotest.(check (list int)) "360" [ 2; 2; 2; 3; 3; 5 ]
    (Factorize.prime_factors 360)

let test_factorizations () =
  let fs = Factorize.factorizations 12 2 in
  check_int "count 12 into 2" 6 (List.length fs);
  List.iter
    (fun f -> check_int "product" 12 (List.fold_left ( * ) 1 f))
    fs;
  check_int "count matches enumeration"
    (List.length (Factorize.factorizations 24 3))
    (Factorize.count_factorizations 24 3);
  Alcotest.(check (list (list int))) "n=1 k=3" [ [ 1; 1; 1 ] ]
    (Factorize.factorizations 1 3)

let test_factorizations_memo () =
  (* the memoized entry point and a fresh uncached enumeration agree,
     including on repeated queries that hit the cache *)
  List.iter
    (fun (n, k) ->
      let uncached = Factorize.factorizations_uncached n k in
      Alcotest.(check (list (list int)))
        (Printf.sprintf "first query (%d,%d)" n k)
        uncached (Factorize.factorizations n k);
      Alcotest.(check (list (list int)))
        (Printf.sprintf "cached query (%d,%d)" n k)
        uncached (Factorize.factorizations n k))
    [ (12, 3); (36, 2); (64, 4); (1, 3); (97, 2); (360, 3) ]

let prop_random_factorization =
  qcheck "random_factorization product == n"
    QCheck2.Gen.(pair (int_range 1 512) (int_range 1 5))
    (fun (n, k) ->
      let rng = Rng.create (n + (k * 1000)) in
      let f = Factorize.random_factorization rng n k in
      List.length f = k && List.fold_left ( * ) 1 f = n)

let prop_weighted_factorization =
  qcheck "weighted_factorization product == n"
    QCheck2.Gen.(pair (int_range 1 512) (int_range 1 5))
    (fun (n, k) ->
      let rng = Rng.create (n + (k * 77)) in
      let weights = Array.init k (fun i -> float_of_int (i + 1)) in
      let f = Factorize.weighted_factorization rng n ~weights in
      List.length f = k && List.fold_left ( * ) 1 f = n)

let test_weighted_factorization_bias () =
  (* a crushing weight on position 0 sends all prime factors there *)
  let rng = Rng.create 5 in
  for _ = 1 to 50 do
    match Factorize.weighted_factorization rng 64 ~weights:[| 1.0; 0.0 |] with
    | [ 64; 1 ] -> ()
    | f ->
      Alcotest.failf "expected [64;1], got [%s]"
        (String.concat ";" (List.map string_of_int f))
  done

let prop_divisors_divide =
  qcheck "divisors all divide"
    QCheck2.Gen.(int_range 1 2000)
    (fun n -> List.for_all (fun d -> n mod d = 0) (Factorize.divisors n))

let prop_prime_factors_multiply =
  qcheck "prime factors multiply back"
    QCheck2.Gen.(int_range 1 10000)
    (fun n -> List.fold_left ( * ) 1 (Factorize.prime_factors n) = n)

(* ---------- Stats ---------- *)

let test_mean_median () =
  check_float "mean" 2.0 (Stats.mean [ 1.0; 2.0; 3.0 ]);
  check_float "mean empty" 0.0 (Stats.mean []);
  check_float "median odd" 2.0 (Stats.median [ 3.0; 1.0; 2.0 ]);
  check_float "median even" 2.5 (Stats.median [ 1.0; 2.0; 3.0; 4.0 ])

let test_geomean () =
  check_floatish "geomean" 2.0 (Stats.geomean [ 1.0; 2.0; 4.0 ]);
  check_float "geomean empty" 0.0 (Stats.geomean [])

let test_quantile () =
  let xs = [ 1.0; 2.0; 3.0; 4.0; 5.0 ] in
  check_float "q0" 1.0 (Stats.quantile 0.0 xs);
  check_float "q1" 5.0 (Stats.quantile 1.0 xs);
  check_float "q50" 3.0 (Stats.quantile 0.5 xs);
  check_float "q25" 2.0 (Stats.quantile 0.25 xs)

let test_stddev () =
  check_float "constant" 0.0 (Stats.stddev [ 5.0; 5.0; 5.0 ]);
  check_floatish "known" (sqrt 2.0) (Stats.stddev [ 1.0; 3.0; 1.0; 3.0 ] *. sqrt 2.0)

let test_argmax_argmin () =
  Alcotest.(check (option int)) "argmax" (Some 3)
    (Stats.argmax float_of_int [ 1; 3; 2 ]);
  Alcotest.(check (option int)) "argmin" (Some 1)
    (Stats.argmin float_of_int [ 2; 1; 3 ]);
  Alcotest.(check (option int)) "empty" None (Stats.argmax float_of_int [])

let test_clamp () =
  check_float "below" 0.0 (Stats.clamp ~lo:0.0 ~hi:1.0 (-5.0));
  check_float "above" 1.0 (Stats.clamp ~lo:0.0 ~hi:1.0 5.0);
  check_float "inside" 0.5 (Stats.clamp ~lo:0.0 ~hi:1.0 0.5)

let test_pearson () =
  check_floatish "perfect" 1.0 (Stats.pearson [ 1.; 2.; 3. ] [ 2.; 4.; 6. ]);
  check_floatish "anti" (-1.0) (Stats.pearson [ 1.; 2.; 3. ] [ 3.; 2.; 1. ]);
  check_float "degenerate" 0.0 (Stats.pearson [ 1.; 1. ] [ 1.; 2. ])

let test_ranks () =
  Alcotest.(check (list (float 1e-9)))
    "distinct" [ 2.0; 1.0; 3.0 ]
    (Stats.ranks [ 5.0; 1.0; 9.0 ]);
  Alcotest.(check (list (float 1e-9)))
    "ties average" [ 1.5; 1.5; 3.0 ]
    (Stats.ranks [ 4.0; 4.0; 7.0 ]);
  Alcotest.(check (list (float 1e-9))) "empty" [] (Stats.ranks [])

let test_spearman () =
  (* monotone but non-linear: rank correlation is exactly 1 *)
  check_floatish "monotone" 1.0
    (Stats.spearman [ 1.; 2.; 3.; 4. ] [ 1.; 10.; 100.; 1000. ]);
  check_floatish "reversed" (-1.0)
    (Stats.spearman [ 1.; 2.; 3. ] [ 9.; 5.; 1. ]);
  check_float "too short" 0.0 (Stats.spearman [ 1.0 ] [ 2.0 ]);
  check_float "length mismatch" 0.0 (Stats.spearman [ 1.0; 2.0 ] [ 1.0 ]);
  (* a known worked example: d^2 = 4 over n=5 -> rho = 1 - 24/120 = 0.8 *)
  check_floatish "textbook" 0.8
    (Stats.spearman [ 1.; 2.; 3.; 4.; 5. ] [ 2.; 1.; 3.; 5.; 4. ])

(* ---------- Framed ---------- *)

let test_framed_failures () =
  let module Framed = Ansor_util.Framed in
  let path = Filename.temp_file "ansor-framed" ".bin" in
  let magic = "ansor-test-v1" and payload = "pay\nload\000bytes" in
  Framed.write ~path ~magic payload;
  (match Framed.read ~path ~magic with
  | Ok p -> check_string "round trip" payload p
  | Error e -> Alcotest.fail e);
  let good = In_channel.with_open_bin path In_channel.input_all in
  let n = String.length good in
  let header = Printf.sprintf "%s\n%d\n" magic (String.length payload) in
  let body = String.sub good (String.length header) (n - String.length header) in
  let rejects what contents =
    Out_channel.with_open_bin path (fun oc -> output_string oc contents);
    match Framed.read ~path ~magic with
    | Ok _ -> Alcotest.failf "%s accepted" what
    | Error e -> check_bool (what ^ " names the file") true (String.starts_with ~prefix:path e)
  in
  rejects "bad magic" ("ansor-test-v0" ^ String.sub good (String.length magic) (n - String.length magic));
  rejects "bad length" (magic ^ "\nforty\n" ^ body);
  rejects "negative length" (magic ^ "\n-1\n" ^ body);
  rejects "truncated payload" (String.sub good 0 (String.length header + 5));
  rejects "missing footer" (String.sub good 0 (n - 37));
  let flipped = Bytes.of_string good in
  Bytes.set flipped (String.length header) 'P';
  rejects "digest mismatch" (Bytes.to_string flipped);
  Sys.remove path;
  match Framed.read ~path ~magic with
  | Ok _ -> Alcotest.fail "missing file accepted"
  | Error _ -> ()

let () =
  Alcotest.run "util"
    [
      ( "rng",
        [
          case "determinism" test_determinism;
          case "seed sensitivity" test_seed_sensitivity;
          case "split independence" test_split_independence;
          case "copy" test_copy;
          case "int bounds" test_int_bounds;
          case "int_in bounds" test_int_in;
          case "int coverage" test_int_coverage;
          case "float bounds" test_float_bounds;
          case "gaussian moments" test_gaussian_moments;
          case "choice" test_choice;
          case "weighted_index" test_weighted_index;
          case "shuffle permutes" test_shuffle_permutes;
          case "sample_distinct" test_sample_distinct;
        ] );
      ( "factorize",
        [
          case "divisors" test_divisors;
          case "prime factors" test_prime_factors;
          case "factorizations" test_factorizations;
          case "factorization memo agrees" test_factorizations_memo;
          prop_random_factorization;
          prop_weighted_factorization;
          case "weighted factorization bias" test_weighted_factorization_bias;
          prop_divisors_divide;
          prop_prime_factors_multiply;
        ] );
      ( "stats",
        [
          case "mean/median" test_mean_median;
          case "geomean" test_geomean;
          case "quantile" test_quantile;
          case "stddev" test_stddev;
          case "argmax/argmin" test_argmax_argmin;
          case "clamp" test_clamp;
          case "pearson" test_pearson;
          case "ranks" test_ranks;
          case "spearman" test_spearman;
        ] );
      ("framed", [ case "every defect is an Error" test_framed_failures ]);
    ]
