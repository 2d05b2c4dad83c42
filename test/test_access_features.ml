(* Access-pattern analysis and Appendix-B feature extraction. *)

open Helpers
module Step = Ansor.Step
module State = Ansor.State
module Prog = Ansor.Prog
module Lower = Ansor.Lower
module Access = Ansor.Access
module Features = Ansor.Features
module Nn = Ansor.Nn

let analyze dag steps = Access.analyze (Lower.lower (State.replay dag steps))

let matmul_info () =
  match analyze (Nn.matmul ~m:8 ~n:16 ~k:4 ()) [] with
  | [ info ] -> info
  | _ -> Alcotest.fail "expected one statement"

let find_access (info : Access.stmt_info) tensor =
  List.find (fun (a : Access.access) -> String.equal a.tensor tensor)
    info.accesses

let test_stmt_info_basics () =
  let info = matmul_info () in
  check_int "loops" 3 (List.length info.loops);
  check_floatish "iters" (8.0 *. 16.0 *. 4.0) info.iters;
  (* output + A + B *)
  check_int "accesses" 3 (List.length info.accesses);
  check_bool "output first" true (List.hd info.accesses).is_write;
  (* matmul body: one mul, plus the reduction accumulate *)
  check_int "muls" 1 info.counts.float_mul;
  check_int "adds" 1 info.counts.float_add_sub

let test_strides () =
  (* loops are C.i (8), C.j (16), C.k (4); row-major tensors *)
  let info = matmul_info () in
  let a = find_access info "A" in
  (* A[i,k]: stride 4 along i, 0 along j, 1 along k *)
  Alcotest.(check (array int)) "A strides" [| 4; 0; 1 |] a.strides;
  let b = find_access info "B" in
  Alcotest.(check (array int)) "B strides" [| 0; 1; 16 |] b.strides;
  let c = find_access info "C" in
  Alcotest.(check (array int)) "C strides" [| 16; 1; 0 |] c.strides

let test_touched () =
  let info = matmul_info () in
  let a = find_access info "A" in
  (* whole statement: A touches 8*4 elements; inside j: still 4 per i *)
  check_floatish "A touched all" 32.0 a.touched.(0);
  check_floatish "A touched inside i" 4.0 a.touched.(1);
  check_floatish "A touched inside j" 4.0 a.touched.(2);
  check_floatish "A touched innermost" 1.0 a.touched.(3);
  let c = find_access info "C" in
  check_floatish "C untouched by k" 1.0 c.touched.(2)

let test_reuse_loop () =
  let info = matmul_info () in
  Alcotest.(check (option int)) "A reused across j" (Some 1)
    (find_access info "A").reuse_loop;
  Alcotest.(check (option int)) "B reused across i" (Some 0)
    (find_access info "B").reuse_loop;
  Alcotest.(check (option int)) "C reused across k" (Some 2)
    (find_access info "C").reuse_loop

let test_inner_stride_and_lines () =
  let info = matmul_info () in
  let a = find_access info "A" in
  check_int "A inner stride (k)" 1 a.inner_stride;
  let b = find_access info "B" in
  (* deepest moving loop of B is k with stride 16: poor locality *)
  check_int "B inner stride" 16 b.inner_stride;
  (* B touches 64 elements; with the j loop at stride 1 the whole region
     is contiguous: 64/16 lines *)
  check_floatish "B unique lines" 4.0 b.lines.(0)

let test_duplicate_access_count () =
  (* NRM squares A: A appears twice with identical indices *)
  let dag = Nn.matrix_norm ~m:4 ~n:8 () in
  let infos = analyze dag [] in
  let sq = List.hd infos in
  let a = find_access sq "A" in
  check_int "deduplicated with count" 2 a.count

let test_fused_loop_distinct_counting () =
  (* after fusing i and j, the fused loop moves A at coarse granularity:
     distinct-value sampling must see 8 rows, not 128 elements *)
  let dag = Nn.matmul ~m:8 ~n:16 ~k:4 () in
  let infos = analyze dag [ Step.Fuse { stage = "C"; ivs = [ 0; 1 ] } ] in
  let info = List.hd infos in
  let a = find_access info "A" in
  check_floatish "A whole-statement touched" 32.0 a.touched.(0)

let test_working_set () =
  let info = matmul_info () in
  (* at depth 0: A(32) + B(64) + C(128) elements * 4 bytes *)
  check_floatish "working set bytes" (4.0 *. (32.0 +. 64.0 +. 128.0))
    (Access.working_set info 0)

let test_select_zero_fraction_t2d () =
  let dag =
    Nn.conv2d_transposed ~n:1 ~c:2 ~h:4 ~w:4 ~f:2 ~kh:4 ~kw:4 ~stride:2 ~pad:1 ()
  in
  let infos = analyze dag [] in
  let y = List.find (fun (i : Access.stmt_info) -> i.stmt.stage = "Y") infos in
  match Access.select_zero_fraction y with
  | None -> Alcotest.fail "T2D statement should expose a zero-guard"
  | Some (vars, frac) ->
    (* stride-2 divisibility in two dimensions: roughly a quarter of the
       points contribute *)
    check_bool "fraction near 1/4" true (frac > 0.1 && frac < 0.45);
    check_bool "condition depends on some loops" true (vars <> [])

let test_select_fraction_absent () =
  let info = matmul_info () in
  check_bool "no guard on matmul" true
    (Access.select_zero_fraction info = None)

(* Random index expressions over the swept variable [v] and a second
   variable [u]; a leaf may be a constant division by zero. *)
let gen_iexpr =
  let open QCheck2.Gen in
  let leaf =
    frequency
      [
        (4, map (fun n -> Ansor.Expr.Int n) (int_range (-3) 24));
        (4, return (Ansor.Expr.Axis "v"));
        (2, return (Ansor.Expr.Axis "u"));
        (1, map (fun n -> Ansor.Expr.Idiv (Ansor.Expr.Int n, Ansor.Expr.Int 0)) small_nat);
      ]
  in
  sized_size (int_range 0 5)
  @@ fix (fun self n ->
         if n = 0 then leaf
         else
           let sub = self (n / 2) in
           frequency
             [
               (1, leaf);
               ( 4,
                 map3
                   (fun op a b -> op a b)
                   (oneofl
                      Ansor.Expr.
                        [
                          (fun a b -> Iadd (a, b));
                          (fun a b -> Isub (a, b));
                          (fun a b -> Imul (a, b));
                          (fun a b -> Idiv (a, b));
                          (fun a b -> Imod (a, b));
                          (fun a b -> Imin (a, b));
                          (fun a b -> Imax (a, b));
                        ])
                   sub sub );
             ])

(* The specification of [Access.distinct_values], as a plain sweep. *)
let plain_distinct e extent =
  let eval i =
    try Ansor.Expr.eval_iexpr (fun x -> if x = "v" then i else 0) e
    with Division_by_zero -> 0
  in
  let points =
    if extent <= 256 then List.init extent Fun.id
    else List.init 256 (fun s -> s * (extent / 256))
  in
  let d = List.length (List.sort_uniq compare (List.map eval points)) in
  if extent <= 256 || d < 128 then d
  else int_of_float (float_of_int extent *. float_of_int d /. 256.0)

let prop_distinct_values =
  qcheck ~count:500 ~seed:19
    ~print:(fun (e, extent) ->
      Printf.sprintf "%s over extent %d" (Ansor.Expr.to_string (Ansor.Expr.Cast_int e)) extent)
    "distinct count equals a plain sweep"
    QCheck2.Gen.(pair gen_iexpr (oneof [ int_range 1 256; int_range 257 2000 ]))
    (fun (e, extent) -> Access.distinct_values e "v" extent = plain_distinct e extent)

(* Index expressions shaped like the ones lowering produces, over [vars]:
   affine forms with zero and negative coefficients, digits
   [b * ((x / s) mod l) + c] with zero, negative and positive divisors,
   divisors that vary with the variables, nested min/max, constant
   divisions by zero, sums of these, and the unstructured trees of
   [gen_iexpr]. *)
let gen_index vars =
  let open QCheck2.Gen in
  let module E = Ansor.Expr in
  let coef = int_range (-3) 4 in
  let var = oneofl (List.map (fun x -> E.Axis x) vars) in
  let term = map2 (fun x a -> if a = 1 then x else E.Imul (x, E.Int a)) var coef in
  let affine =
    map3
      (fun ts c sub ->
        let sum = List.fold_left (fun acc t -> E.Iadd (acc, t)) (List.hd ts) (List.tl ts) in
        if c = 0 then sum else if sub then E.Isub (sum, E.Int c) else E.Iadd (sum, E.Int c))
      (list_size (int_range 1 3) term)
      (int_range (-2) 40) bool
  in
  let divisor =
    frequency
      [ (6, int_range 1 16); (1, int_range (-3) 0); (1, oneofl [ 32; 64; 100; 256 ]) ]
  in
  let digit =
    map3
      (fun inner (s, l) (b, c) ->
        let q = match s with None -> inner | Some s -> E.Idiv (inner, E.Int s) in
        let r = match l with None -> q | Some l -> E.Imod (q, E.Int l) in
        let r = if b = 1 then r else E.Imul (E.Int b, r) in
        if c = 0 then r else E.Iadd (r, E.Int c))
      affine
      (pair (opt divisor) (opt divisor))
      (pair coef (int_range (-4) 8))
  in
  let varying =
    map3
      (fun a b div -> if div then E.Idiv (a, b) else E.Imod (a, b))
      affine affine bool
  in
  let raising =
    map2 (fun e k -> E.Iadd (e, E.Imul (E.Idiv (E.Int k, E.Int 0), E.Int 0))) affine small_nat
  in
  let base =
    frequency
      [ (3, affine); (4, digit); (1, varying); (1, raising); (1, gen_iexpr) ]
  in
  let minmax =
    map3
      (fun a b mn -> if mn then E.Imin (a, b) else E.Imax (a, b))
      base base bool
  in
  frequency
    [
      (6, base);
      (1, minmax);
      (1, map2 (fun a b -> E.Iadd (a, b)) base base);
      (1, map3 (fun a b c -> E.Imin (E.Imax (a, b), c)) base base base);
    ]

(* Extents on both sides of 256 and at its edges, at multiples of 256
   and off them. *)
let gen_extent =
  QCheck2.Gen.(
    frequency
      [
        (3, int_range 1 300);
        (2, oneofl [ 255; 256; 257; 511; 512; 513; 768; 1000; 1024; 1025; 2048; 4096; 4097 ]);
        (2, int_range 257 5000);
      ])

let prop_distinct_index_forms =
  qcheck ~count:2000 ~seed:22
    ~print:(fun (e, extent) ->
      Printf.sprintf "%s over extent %d" (Ansor.Expr.to_string (Ansor.Expr.Cast_int e)) extent)
    "distinct count of index forms equals a plain sweep"
    QCheck2.Gen.(pair (gen_index [ "v"; "u" ]) gen_extent)
    (fun (e, extent) -> Access.distinct_values e "v" extent = plain_distinct e extent)

(* ---- the analyses' view ----------------------------------------------- *)

(* Index expressions of lowering's grammar over [v] and [u], and the edge
   shapes the analyses must read exactly: a literal-only subterm, a
   product with a literal side, a variable [w] of no enclosing loop, an
   atom repeated with opposite signs, and quotients of several
   variables. *)
let gen_linear =
  let open QCheck2.Gen in
  let module E = Ansor.Expr in
  let base = gen_index [ "v"; "u" ] in
  let v = E.Axis "v" in
  let edge =
    oneof
      [
        map (fun e -> E.Iadd (e, E.Imin (E.Int 3, E.Int 5))) base;
        map2 (fun e k -> E.Imul (E.Imin (E.Int k, E.Int 5), e)) base (int_range (-3) 6);
        map2 (fun e k -> E.Imul (e, E.Int k)) base (int_range (-3) 6);
        map (fun e -> E.Iadd (e, E.Axis "w")) base;
        map2 (fun e s -> E.Iadd (e, E.Idiv (E.Iadd (v, E.Axis "w"), E.Int s))) base (int_range 1 8);
        map2
          (fun e s -> E.Isub (E.Iadd (E.Idiv (v, E.Int s), e), E.Idiv (v, E.Int s)))
          base (int_range 1 8);
        map2
          (fun e (s, l) ->
            E.Iadd (e, E.Imod (E.Idiv (E.Iadd (v, E.Axis "u"), E.Int s), E.Int l)))
          base
          (pair (int_range 1 8) (int_range 1 8));
      ]
  in
  frequency [ (3, base); (2, edge); (1, map2 (fun a b -> E.Iadd (a, b)) edge edge) ]

let lin_eval (vars, (d : Access.dim)) env =
  if d.raises then raise Division_by_zero;
  let acc = ref d.const in
  Array.iteri (fun l c -> acc := !acc + (c * env vars.(l))) d.coefs;
  List.fold_left
    (fun acc (t : Access.atom) -> acc + (t.coef * Ansor.Expr.eval_iexpr env t.term))
    !acc d.atoms

let print_linear (e, extent, (u, w)) =
  Printf.sprintf "%s over extent %d at u=%d w=%d"
    (Ansor.Expr.to_string (Ansor.Expr.Cast_int e)) extent u w

let gen_linear_case =
  QCheck2.Gen.(triple gen_linear (int_range 1 64) (pair (int_range 0 20) (int_range 0 20)))

(* [const + sum coef * atom] is the plain evaluation at every point where
   that does not divide by zero (a term with coefficient 0 is dropped,
   its division by zero with it). *)
let prop_linear_exact =
  qcheck ~count:1000 ~seed:32 ~print:print_linear
    "linear view equals evaluation" gen_linear_case
    (fun (e, extent, (u, w)) ->
      let lin = Access.linear e in
      List.for_all
        (fun x ->
          let env = function "v" -> x | "u" -> u | _ -> w in
          match Ansor.Expr.eval_iexpr env e with
          | x -> lin_eval lin env = x
          | exception Division_by_zero -> true)
        (List.init extent Fun.id))

(* Every atom recognized as a digit of [v] is [(v / stride) mod len] on
   [[0, extent)], whatever the other variables; so are the merged digits
   of the whole expression, against its terms that mention [v]. *)
let prop_digits_exact =
  qcheck ~count:1000 ~seed:33 ~print:print_linear
    "digit view equals evaluation" gen_linear_case
    (fun (e, extent, (u, w)) ->
      let ((vars, (d : Access.dim)) as lin) = Access.linear e in
      let env x = function "v" -> x | "u" -> u | _ -> w in
      let digit_sum ds x =
        List.fold_left
          (fun acc ((g : Access.digit), c) -> acc + (c * (x / g.stride mod g.len)))
          0 ds
      in
      let holds part ds =
        List.for_all (fun x -> part x = digit_sum ds x) (List.init extent Fun.id)
      in
      let l = Option.value (Array.find_index (String.equal "v") vars) ~default:(-1) in
      let on_v = List.filter (fun (t : Access.atom) -> List.mem l t.vars) d.atoms in
      List.for_all
        (fun (t : Access.atom) ->
          match Access.digits (Access.linear t.term) "v" ~extent with
          | None -> true
          | Some ds -> holds (fun x -> Ansor.Expr.eval_iexpr (env x) t.term) ds)
        on_v
      &&
      match Access.digits lin "v" ~extent with
      | None -> true
      | Some ds ->
        holds
          (fun x ->
            List.fold_left
              (fun acc (t : Access.atom) ->
                acc + (t.coef * Ansor.Expr.eval_iexpr (env x) t.term))
              (if l < 0 then 0 else d.coefs.(l) * x)
              on_v)
          ds)

let test_quotient_of_several_variables () =
  let module E = Ansor.Expr in
  let not_digit e =
    check_bool (E.to_string (E.Cast_int e)) true
      (Access.digits (Access.linear e) "v" ~extent:16 = None)
  in
  not_digit (E.Idiv (E.Iadd (E.Axis "v", E.Axis "u"), E.Int 4));
  not_digit (E.Imod (E.Idiv (E.Iadd (E.Axis "v", E.Axis "w"), E.Int 2), E.Int 4));
  check_bool "v / 4 is the digit (4, 4)" true
    (Access.digits (Access.linear (E.Idiv (E.Axis "v", E.Int 4))) "v" ~extent:16
    = Some [ ({ Access.stride = 4; len = 4 }, 1) ])

(* The specification of [Access.analyze] on one access, read point by
   point: the element-offset difference of a unit step of each loop, and
   per (loop, dim) the distinct count (a plain sweep when the dim divides
   somewhere, else [extent] or 1 by the unit step), multiplied into the
   touched regions. *)
let plain_access shape (loops : (string * int) list) idx =
  let module E = Ansor.Expr in
  let rec offset shape idx acc =
    match (shape, idx) with
    | d :: shape', i :: idx' -> offset shape' idx' ((acc * d) + i)
    | _ -> acc
  in
  let offset_at env =
    match List.map (E.eval_iexpr env) idx with
    | values -> Some (offset shape values 0)
    | exception Division_by_zero -> None
  in
  let unit v u = if u = v then 1 else 0 in
  let base = Option.value (offset_at (fun _ -> 0)) ~default:0 in
  let strides =
    Array.of_list
      (List.map
         (fun (v, _) -> match offset_at (unit v) with Some o -> o - base | None -> 0)
         loops)
  in
  let rec divides = function
    | E.Int _ | E.Axis _ -> false
    | E.Idiv _ | E.Imod _ -> true
    | E.Iadd (a, b) | E.Isub (a, b) | E.Imul (a, b) | E.Imin (a, b) | E.Imax (a, b) ->
      divides a || divides b
  in
  let distinct (v, extent) d =
    let rename e =
      (* the sweep holds every variable but [v] at 0 *)
      let rec go = function
        | E.Axis u -> if u = v then E.Axis "v" else E.Int 0
        | E.Int k -> E.Int k
        | E.Iadd (a, b) -> E.Iadd (go a, go b)
        | E.Isub (a, b) -> E.Isub (go a, go b)
        | E.Imul (a, b) -> E.Imul (go a, go b)
        | E.Idiv (a, b) -> E.Idiv (go a, go b)
        | E.Imod (a, b) -> E.Imod (go a, go b)
        | E.Imin (a, b) -> E.Imin (go a, go b)
        | E.Imax (a, b) -> E.Imax (go a, go b)
      in
      go e
    in
    if not (List.mem v (E.iexpr_axes d)) then 1
    else if divides d then plain_distinct (rename d) extent
    else if E.eval_iexpr (unit v) d - E.eval_iexpr (fun _ -> 0) d = 0 then 1
    else extent
  in
  let n = List.length loops in
  let dims = Array.of_list idx in
  let counts = Array.of_list (List.map (fun l -> Array.map (distinct l) dims) loops) in
  let dim_extent d = match List.nth_opt shape d with Some e -> float_of_int e | None -> 1.0 in
  let touched =
    Array.init (n + 1) (fun dep ->
        let total = ref 1.0 in
        Array.iteri
          (fun d _ ->
            let prod = ref 1.0 in
            for l = dep to n - 1 do
              prod := !prod *. float_of_int counts.(l).(d)
            done;
            total := !total *. Float.min !prod (dim_extent d))
          dims;
        !total)
  in
  (strides, touched)

(* One statement [O[out] = A[a] + B[b]] under loops [v0, v1, ...] of the
   given extents; a tensor missing from [shapes] has no buffer. *)
let gen_access_prog =
  let open QCheck2.Gen in
  let* extents = list_size (int_range 1 4) (frequency [ (3, int_range 1 40); (1, gen_extent) ]) in
  let vars = List.mapi (fun i _ -> Printf.sprintf "v%d" i) extents in
  let idx = list_size (int_range 0 3) (gen_index ("w" :: vars)) in
  let shape = list_size (int_range 0 3) (int_range 1 64) in
  let* out = idx and* a = idx and* b = idx in
  let* shapes = list_size (return 3) (opt shape) in
  let buffers =
    List.filter_map
      (fun (t, s) -> Option.map (fun s -> (t, s)) s)
      (List.combine [ "O"; "A"; "B" ] shapes)
  in
  return (List.combine vars extents, buffers, out, a, b)

let prog_of (loops, buffers, out, a, b) =
  let stmt =
    {
      Prog.stage = "O";
      tensor = "O";
      indices = out;
      rhs = Ansor.Expr.(access "A" a +: access "B" b);
      update = None;
      max_unroll = None;
    }
  in
  let items =
    List.fold_right
      (fun (lvar, extent) body ->
        [ Prog.Loop { lvar; extent; kind = Ansor.State.Space; ann = Step.No_ann; body } ])
      loops [ Prog.Stmt stmt ]
  in
  { Prog.items; buffers; inits = [] }

let matches_reference ((loops, buffers, out, a, b) as p) =
  match Access.analyze (prog_of p) with
  | [ info ] ->
    List.for_all
      (fun (acc : Access.access) ->
        let idx = match acc.tensor with "O" -> out | "A" -> a | _ -> b in
        let shape = Option.value (List.assoc_opt acc.tensor buffers) ~default:[] in
        let strides, touched = plain_access shape loops idx in
        strides = acc.strides && touched = acc.touched)
      info.accesses
  | _ -> false

let prop_access_reference =
  qcheck ~count:500 ~seed:22
    ~print:(fun p -> Prog.to_string (prog_of p))
    "strides and touched regions equal the point-by-point reading"
    gen_access_prog
    matches_reference

(* One form swept under two loops whose extents sample it at different
   steps: the counts are kept apart. *)
let test_same_form_two_extents () =
  let module E = Ansor.Expr in
  let form v = E.(Iadd (Imul (Idiv (Axis v, Int 64), Int 2), Imod (Axis v, Int 2))) in
  let loops = [ ("v0", 300); ("v1", 2000) ] in
  let p = (loops, [ ("A", [ 4096 ]); ("B", [ 4096 ]) ], [], [ form "v0" ], [ form "v1" ]) in
  check_bool "A and B each match the reference" true (matches_reference p)


(* Which path [Access.distinct_values] takes, on the exact or the sampled
   side of 256. *)
let path_key dim v extent =
  Access.sweep_path dim v extent ^ if extent <= 256 then " exact" else " sampled"

let tally keys =
  let paths = Hashtbl.create 8 in
  List.iter
    (fun key ->
      Hashtbl.replace paths key (1 + Option.value (Hashtbl.find_opt paths key) ~default:0))
    keys;
  fun key -> Option.value (Hashtbl.find_opt paths key) ~default:0

let all_paths =
  List.concat_map
    (fun p -> [ p ^ " exact"; p ^ " sampled" ])
    [ "affine"; "digit"; "zero"; "sweep" ]

(* The closed forms carry the analysis corpus: each (loop, dim) pair that
   [Access.analyze] sweeps (the dim divides somewhere and mentions the
   loop) is counted by its path.  No divided dim there is affine in a
   loop past 256, so "affine sampled" is left to the properties, whose
   generator takes every path. *)
let test_sweep_paths_fire () =
  let module E = Ansor.Expr in
  let rec divides = function
    | E.Int _ | E.Axis _ -> false
    | E.Idiv _ | E.Imod _ -> true
    | E.Iadd (a, b) | E.Isub (a, b) | E.Imul (a, b) | E.Imin (a, b) | E.Imax (a, b) ->
      divides a || divides b
  in
  let keys = ref [] in
  List.iter
    (fun (_, p) ->
      Prog.iter_stmts p (fun loops (stmt : Prog.stmt) ->
          List.iter
            (fun dim ->
              List.iter
                (fun (l : Prog.loop) ->
                  if divides dim && List.mem l.lvar (E.iexpr_axes dim) then
                    keys := path_key dim l.lvar l.extent :: !keys)
                loops)
            (stmt.indices @ List.concat_map snd (E.accesses stmt.rhs))))
    (Lazy.force analysis_corpus);
  let corpus = tally !keys in
  let generated =
    tally
      (List.map
         (fun (e, extent) -> path_key e "v" extent)
         (QCheck2.Gen.generate ~rand:(Random.State.make [| 22 |]) ~n:2000
            QCheck2.Gen.(pair (gen_index [ "v"; "u" ]) gen_extent)))
  in
  List.iter
    (fun key -> Printf.printf "%s: corpus %d, generated %d\n" key (corpus key) (generated key))
    all_paths;
  List.iter
    (fun key -> check_bool (key ^ " on the corpus") true (corpus key > 0))
    [ "affine exact"; "digit exact"; "digit sampled"; "sweep exact"; "sweep sampled" ];
  List.iter (fun key -> check_bool (key ^ " generated") true (generated key > 0)) all_paths

(* ---------- features ---------- *)

let test_feature_dimensions () =
  check_int "names match dim" Features.dim (Array.length Features.names);
  let dag = Nn.matmul_relu ~m:8 ~n:8 ~k:8 () in
  let vecs = Features.of_prog (Lower.lower (State.init dag)) in
  check_int "one vector per statement" 2 (List.length vecs);
  List.iter (fun v -> check_int "vector length" Features.dim (Array.length v)) vecs

let test_features_deterministic () =
  let dag = Nn.conv2d ~n:1 ~c:4 ~h:8 ~w:8 ~f:4 ~kh:3 ~kw:3 ~stride:1 ~pad:1 () in
  let v1 = Features.of_prog (Lower.lower (State.init dag)) in
  let v2 = Features.of_prog (Lower.lower (State.init dag)) in
  List.iter2
    (fun a b -> Alcotest.(check (array (float 0.0))) "deterministic" a b)
    v1 v2

let feature idx v = v.(idx)

let index_of name =
  let rec go i =
    if i >= Features.dim then Alcotest.failf "no feature %s" name
    else if String.equal Features.names.(i) name then i
    else go (i + 1)
  in
  go 0

let test_vectorize_features () =
  let dag = Nn.matmul ~m:8 ~n:8 ~k:8 () in
  let steps = [ Step.Annotate { stage = "C"; iv = 1; ann = Step.Vectorize } ] in
  let v = List.hd (Features.of_prog (Lower.lower (State.replay dag steps))) in
  let len = feature (index_of "vec.innermost_len") v in
  (* log2(1+8) *)
  check_floatish "vectorized length" (Float.log 9.0 /. Float.log 2.0) len;
  check_float "count" 1.0 (feature (index_of "vec.count") v);
  (* un-annotated groups show the "none" slot *)
  check_float "unroll none" 1.0 (feature (index_of "unroll.pos_none") v)

let test_parallel_features () =
  let dag = Nn.matmul ~m:8 ~n:8 ~k:8 () in
  let steps = [ Step.Annotate { stage = "C"; iv = 0; ann = Step.Parallel } ] in
  let v = List.hd (Features.of_prog (Lower.lower (State.replay dag steps))) in
  check_float "outer space position" 1.0
    (feature (index_of "parallel.pos_outer_space") v);
  check_bool "gpu slot carries parallel extent" true
    (feature (index_of "gpu.blockIdx_x") v > 0.0)

let test_buffer_features_present () =
  let info = matmul_info () in
  let v = Features.of_stmt_info info in
  (* three buffers used, two padded blocks of zeros *)
  check_float "buf0 is read+write or read" 1.0
    (feature (index_of "buf0.read") v +. feature (index_of "buf0.read_write") v);
  let base = index_of "buf3.read" in
  let block_zero =
    Array.for_all (fun i -> v.(i) = 0.0)
      (Array.init 18 (fun i -> base + i))
  in
  check_bool "fourth buffer block zero-padded" true block_zero

let test_output_buffer_is_read_write () =
  (* a reduction output is read-modify-write *)
  let info = matmul_info () in
  let v = Features.of_stmt_info info in
  (* C has the biggest touched region (128 elems) so it is buf0 *)
  check_float "buf0 read_write" 1.0 (feature (index_of "buf0.read_write") v)

let test_intensity_curve_monotonicity () =
  let info = matmul_info () in
  let v = Features.of_stmt_info info in
  let first = feature (index_of "intensity_curve.0") v in
  let last = feature (index_of "intensity_curve.9") v in
  (* matmul gets more intense with more loops included *)
  check_bool "curve grows" true (last >= first)

let test_pragma_feature () =
  let dag = Nn.matmul ~m:8 ~n:8 ~k:8 () in
  let steps = [ Step.Pragma_unroll { stage = "C"; max_step = 64 } ] in
  let v = List.hd (Features.of_prog (Lower.lower (State.replay dag steps))) in
  check_floatish "auto unroll recorded"
    (Float.log 65.0 /. Float.log 2.0)
    (feature (index_of "outer.auto_unroll") v)

(* ---------- golden ---------- *)

(* Captured before the analysis fast paths and never re-derived: the
   features and simulated latencies of the whole analysis corpus, bit for
   bit.  Search ranks candidates by these numbers, so a fast path that
   moved one bit would silently change every tuning trajectory. *)
let test_golden_features () =
  let corpus = Lazy.force analysis_corpus in
  let bits x = Printf.sprintf "%Lx" (Int64.bits_of_float x) in
  let lines =
    List.map
      (fun (name, p) ->
        String.concat " "
          (name
          :: bits (Ansor.Simulator.estimate Ansor.Machine.intel_cpu p)
          :: List.concat_map
               (fun v -> Array.to_list (Array.map bits v))
               (Features.of_prog p)))
      corpus
  in
  let max_extent =
    List.fold_left
      (fun acc (_, p) ->
        let m = ref acc in
        Prog.iter_stmts p (fun loops _ ->
            List.iter (fun (l : Prog.loop) -> m := max !m l.extent) loops);
        !m)
      0 corpus
  in
  check_bool "corpus sweeps loops past 256" true (max_extent > 256);
  check_string "features and estimates"
    "af4149ad1cd4ef3a8c6e7b927d0f574f"
    (Digest.to_hex (Digest.string (String.concat "\n" lines)))

let () =
  Alcotest.run "access_features"
    [
      ( "access",
        [
          case "statement info" test_stmt_info_basics;
          case "strides" test_strides;
          case "touched regions" test_touched;
          case "reuse loops" test_reuse_loop;
          case "inner stride and lines" test_inner_stride_and_lines;
          case "duplicate accesses" test_duplicate_access_count;
          case "fused-loop distinct counting" test_fused_loop_distinct_counting;
          case "working set" test_working_set;
          case "T2D zero-guard fraction" test_select_zero_fraction_t2d;
          case "no guard on matmul" test_select_fraction_absent;
          prop_distinct_values;
          prop_distinct_index_forms;
          prop_access_reference;
          prop_linear_exact;
          prop_digits_exact;
          case "quotient of several variables" test_quotient_of_several_variables;
          case "one form under two extents" test_same_form_two_extents;
          case "closed forms fire on the corpus" test_sweep_paths_fire;
        ] );
      ( "features",
        [
          case "dimensions" test_feature_dimensions;
          case "deterministic" test_features_deterministic;
          case "vectorization group" test_vectorize_features;
          case "parallel group" test_parallel_features;
          case "buffer blocks" test_buffer_features_present;
          case "reduction output read+write" test_output_buffer_is_read_write;
          case "intensity curve" test_intensity_curve_monotonicity;
          case "auto-unroll pragma" test_pragma_feature;
        ] );
      ("golden", [ case "golden features" test_golden_features ]);
    ]
