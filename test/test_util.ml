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
    (Factorize.factorizations 1 3);
  List.iter
    (fun (n, k) ->
      let fs = Factorize.factorizations n k in
      List.iter
        (fun f ->
          check_int (Printf.sprintf "(%d,%d) arity" n k) k (List.length f);
          check_int (Printf.sprintf "(%d,%d) product" n k) n
            (List.fold_left ( * ) 1 f))
        fs;
      check_int (Printf.sprintf "(%d,%d) count" n k)
        (Factorize.count_factorizations n k) (List.length fs))
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

(* ---------- No process-global tables ---------- *)

(* A module-level [let] in [lib/**/*.ml] that binds a name, with no
   parameters, to a value that makes a new table, lock or cell anywhere
   in its right-hand side (a record of tables, or a closure over one):
   such a value lives as long as the process and is shared by every
   session and domain in it. *)
let parameterless =
  Str.regexp "let +\\([a-z_][A-Za-z0-9_']*\\)[ \n]*\\(:[^=]*\\)?="

let maker =
  Str.regexp
    "\\b\\(Hashtbl\\.create\\|Lru\\.create\\|Mutex\\.create\\|Atomic\\.make\\|ref\\)\\b"

let nested_module = Str.regexp " *module \\([A-Z][A-Za-z0-9_']*\\) *=.* struct *$"

(* Process-wide by design, named in full: the signal handler's flag. *)
let allowed_globals = [ "Checkpoint.Shutdown.flag" ]

let indent line =
  let n = String.length line in
  let rec go i = if i < n && line.[i] = ' ' then go (i + 1) else i in
  go 0

(* The lines of the item starting at line [l], column [col]: up to the
   next non-blank line at that column or left of it. *)
let binding_text lines l col =
  let stop = ref (l + 1) in
  while
    !stop < Array.length lines
    && (String.trim lines.(!stop) = "" || indent lines.(!stop) > col)
  do
    incr stop
  done;
  String.concat "\n" (Array.to_list (Array.sub lines l (!stop - l)))

(* The module-level bindings of one file's [lines], as (line number,
   qualified name, maker).  A module's body is indented two columns past
   its [module M = struct] line (ocamlformat's layout) and closes with an
   [end] at the module's own column, so a [let] is module-level when it
   sits at its innermost module's body column: column 0 outside any
   nested module, deeper for a [let ... in] inside a function. *)
let module_bindings ~file_module lines =
  let lines = Array.of_list lines in
  let stack = ref [] in
  List.init (Array.length lines) Fun.id
  |> List.filter_map (fun l ->
         let line = lines.(l) in
         let col = indent line in
         let body = match !stack with [] -> 0 | (c, _) :: _ -> c + 2 in
         let found =
           if col <> body then None
           else
             let text = binding_text lines l col in
             if not (Str.string_match parameterless text col) then None
             else
               let name = Str.matched_group 1 text in
               match Str.search_forward maker text (Str.match_end ()) with
               | exception Not_found -> None
               | _ ->
                 let path = file_module :: List.rev_map snd !stack in
                 Some
                   ( l + 1,
                     String.concat "." (path @ [ name ]),
                     Str.matched_group 1 text )
         in
         (match !stack with
         | (c, _) :: rest when col = c && String.trim line = "end" ->
           stack := rest
         | _ ->
           if Str.string_match nested_module line 0 then
             stack := (col, Str.matched_group 1 line) :: !stack);
         found)

let rec ml_files dir =
  Sys.readdir dir |> Array.to_list |> List.sort compare
  |> List.concat_map (fun f ->
         let p = Filename.concat dir f in
         if f.[0] = '.' then []
         else if Sys.is_directory p then ml_files p
         else if Filename.check_suffix f ".ml" then [ p ]
         else [])

let global_state_sites root =
  List.concat_map
    (fun path ->
      let lines =
        In_channel.with_open_bin path In_channel.input_all
        |> String.split_on_char '\n'
      in
      let shown =
        let r = String.length root in
        "lib" ^ String.sub path r (String.length path - r)
      in
      let file_module =
        String.capitalize_ascii (Filename.remove_extension (Filename.basename path))
      in
      module_bindings ~file_module lines
      |> List.filter_map (fun (l, name, maker) ->
             if List.mem name allowed_globals then None
             else Some (Printf.sprintf "%s:%d: %s = %s" shown l name maker)))
    (ml_files root)

let test_no_global_state () =
  let names text =
    List.map
      (fun (_, name, _) -> name)
      (module_bindings ~file_module:"M" (String.split_on_char '\n' text))
  in
  let flags text = names text <> [] in
  check_bool "qualified maker on the next line" true
    (flags "let memo : (string, int) Lru.t =\n  Ansor_util.Lru.create 8");
  check_bool "a cell" true (flags "let flag = ref None");
  check_bool "a record of tables" true
    (flags "let session = {\n  h = Hashtbl.create 8;\n  n = 0;\n}");
  check_bool "a closure over a table made once" true
    (flags "let f =\n  let t = Hashtbl.create 8 in\n  fun k -> Hashtbl.find_opt t k");
  check_bool "a function makes a fresh table per call" false
    (flags "let fresh () = Hashtbl.create 8");
  check_bool "a longer name is not ref" false (flags "let x = refresh ()");
  check_bool "a table local to a function" false
    (flags "let f x =\n  let t = Hashtbl.create 8 in\n  t");
  Alcotest.(check (list string))
    "tables in nested modules, qualified"
    [ "M.A.t"; "M.A.B.lock"; "M.A.c"; "M.d" ]
    (names
       (String.concat "\n"
          [
            "module A = struct"; "  let t = Hashtbl.create 8";
            "  let f () =";  "    let local = ref 0 in"; "    !local";
            "  module B = struct"; "    let lock = Mutex.create ()"; "  end";
            "  let c = ref 0"; "end"; "let d = Atomic.make 0";
          ]));
  check_bool "the scan sees the library" true
    (Sys.file_exists "../lib/util/factorize.ml");
  check_bool "the allowed flag is still there" true
    (List.exists
       (fun (_, name, _) -> List.mem name allowed_globals)
       (module_bindings ~file_module:"Checkpoint"
          (In_channel.with_open_bin "../lib/checkpoint/checkpoint.ml"
             In_channel.input_all
          |> String.split_on_char '\n')));
  match global_state_sites "../lib" with
  | [] -> ()
  | sites ->
    Alcotest.failf "process-global mutable state in lib/:\n%s"
      (String.concat "\n" sites)

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
      ( "globals",
        [ case "no top-level table, lock or ref in lib" test_no_global_state ] );
    ]
