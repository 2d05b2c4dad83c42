open Ansor_te

let line_elems = 16

type access = {
  tensor : string;
  is_write : bool;
  count : int;
  strides : int array;
  touched : float array;
  lines : float array;
  inner_stride : int;
  reuse_loop : int option;
}

type stmt_info = {
  stmt : Prog.stmt;
  loops : Prog.loop list;
  extents : int array;
  iters : float;
  accesses : access list;
  counts : Expr.op_counts;
}

let max_sweep = 256

(* An index expression, decomposed once per access: [const] plus
   [coefs.(l)] times the variable at position [l] (loop [l] in
   [analyze]), plus each atom's [coef] times its subterm.  Atoms are the
   divisions, remainders, minima, maxima and products (of two variables,
   or by a constant that divides by zero) that mention a variable;
   subterms that mention none are folded into [const].  The sum is exact
   in the wrapping [int] ring, so it is the plain evaluation term by
   term. *)
type atom = {
  coef : int;
  term : Expr.iexpr;
  vars : int list;  (** positions of the variables [term] mentions *)
  at_zero : int option;  (** [term] with every variable at 0; [None]: divides by zero *)
}

type dim = {
  const : int;
  coefs : int array;
  atoms : atom list;
  mentions : bool array;  (** positions whose variable occurs *)
  raises : bool;  (** a subterm without variables divides by zero *)
  divides : bool;  (** a division or remainder occurs somewhere *)
}

let rec has_divmod = function
  | Expr.Int _ | Expr.Axis _ -> false
  | Expr.Idiv _ | Expr.Imod _ -> true
  | Expr.Iadd (a, b) | Expr.Isub (a, b) | Expr.Imul (a, b) | Expr.Imin (a, b)
  | Expr.Imax (a, b) ->
    has_divmod a || has_divmod b

let zero_env _ = 0

(* [pos u] is the loop of variable [u], or -1: a variable of no enclosing
   loop is held at 0. *)
let decompose pos n (e : Expr.iexpr) =
  let const = ref 0 and coefs = Array.make n 0 and atoms = ref [] in
  let mentions = Array.make n false and raises = ref false in
  let rec vars acc (e : Expr.iexpr) =
    match e with
    | Int _ -> acc
    | Axis u ->
      let p = pos u in
      if p < 0 || List.mem p acc then acc else p :: acc
    | Iadd (a, b) | Isub (a, b) | Imul (a, b) | Idiv (a, b) | Imod (a, b)
    | Imin (a, b) | Imax (a, b) ->
      vars (vars acc a) b
  in
  let rec add scale (e : Expr.iexpr) =
    match e with
    | Int k -> const := !const + (scale * k)
    | Axis u ->
      let p = pos u in
      if p >= 0 then begin
        mentions.(p) <- true;
        coefs.(p) <- coefs.(p) + scale
      end
    | Iadd (a, b) ->
      add scale a;
      add scale b
    | Isub (a, b) ->
      add scale a;
      add (-scale) b
    | Imul (a, b) when vars [] a = [] -> scaled scale e a b
    | Imul (a, b) when vars [] b = [] -> scaled scale e b a
    | Imul _ | Idiv _ | Imod _ | Imin _ | Imax _ -> opaque scale e
  (* [e] as one atom, or folded into [const] when free of loop variables *)
  and opaque scale e =
    match vars [] e with
    | [] -> (
      match Expr.eval_iexpr zero_env e with
      | x -> const := !const + (scale * x)
      | exception Division_by_zero -> raises := true)
    | vs ->
      List.iter (fun p -> mentions.(p) <- true) vs;
      let at_zero =
        try Some (Expr.eval_iexpr zero_env e) with Division_by_zero -> None
      in
      atoms := { coef = scale; term = e; vars = vs; at_zero } :: !atoms
  (* [e = k * x], [k] free of loop variables: [scale * k] times [x]; a [k]
     that divides by zero leaves [e] opaque *)
  and scaled scale e k x =
    match Expr.eval_iexpr zero_env k with
    | k -> add (scale * k) x
    | exception Division_by_zero -> opaque scale e
  in
  add 1 e;
  {
    const = !const;
    coefs;
    atoms = !atoms;
    mentions;
    raises = !raises;
    divides = has_divmod e;
  }

(* The value of [d] with the variable of loop [l] at 1 ([l < 0]: none)
   and every other at 0; raises [Division_by_zero] where the plain
   evaluation does. *)
let value loop_vars d l =
  if d.raises then raise Division_by_zero;
  List.fold_left
    (fun acc t ->
      let x =
        if List.mem l t.vars then
          let v = loop_vars.(l) in
          Expr.eval_iexpr (fun u -> if String.equal u v then 1 else 0) t.term
        else
          match t.at_zero with Some x -> x | None -> raise Division_by_zero
      in
      acc + (t.coef * x))
    (if l < 0 then d.const else d.const + d.coefs.(l))
    d.atoms

type op = Add | Sub | Mul | Div | Mod | Min | Max

(* A subterm with one variable [v] left, every other at 0: [Lin (c, a)]
   is [c + a*v]; constant operands are folded. *)
type proj = Lin of int * int | Op of op * proj * proj

(* [Division_by_zero] when a divisor is the constant 0, so every point
   divides by zero. *)
let rec project v (e : Expr.iexpr) =
  match e with
  | Int k -> Lin (k, 0)
  | Axis u -> if String.equal u v then Lin (0, 1) else Lin (0, 0)
  | Iadd (a, b) -> (
    match (project v a, project v b) with
    | Lin (c, x), Lin (d, y) -> Lin (c + d, x + y)
    | p, q -> Op (Add, p, q))
  | Isub (a, b) -> (
    match (project v a, project v b) with
    | Lin (c, x), Lin (d, y) -> Lin (c - d, x - y)
    | p, q -> Op (Sub, p, q))
  | Imul (a, b) -> (
    match (project v a, project v b) with
    | Lin (c, 0), Lin (d, y) -> Lin (c * d, c * y)
    | Lin (c, x), Lin (d, 0) -> Lin (c * d, x * d)
    | p, q -> Op (Mul, p, q))
  | Idiv (a, b) -> fold Div Expr.idiv (project v a) (project v b)
  | Imod (a, b) -> fold Mod Expr.imod (project v a) (project v b)
  | Imin (a, b) -> fold Min Int.min (project v a) (project v b)
  | Imax (a, b) -> fold Max Int.max (project v a) (project v b)

and fold op f p q =
  match (p, q) with
  | _, Lin (0, 0) when op = Div || op = Mod -> raise Division_by_zero
  | Lin (c, 0), Lin (d, 0) -> Lin (f c d, 0)
  | p, q -> Op (op, p, q)

(* ---- the analyses' view ----------------------------------------------- *)

(* Sum the coefficients of equal keys, in order of first occurrence, and
   drop the keys whose sum is 0. *)
let merge pairs =
  let rec add (k, c) = function
    | [] -> [ (k, c) ]
    | (k', c') :: rest when k' = k -> (k', c' + c) :: rest
    | x :: rest -> x :: add (k, c) rest
  in
  List.filter (fun (_, c) -> c <> 0)
    (List.fold_left (fun acc x -> add x acc) [] pairs)

let index vars v =
  let rec go l =
    if l >= Array.length vars then -1
    else if String.equal vars.(l) v then l
    else go (l + 1)
  in
  go 0

let linear e =
  let vars = Array.of_list (Expr.iexpr_axes e) in
  let d = decompose (index vars) (Array.length vars) e in
  let atoms =
    merge (List.rev_map (fun t -> ({ t with coef = 0 }, t.coef)) d.atoms)
  in
  (vars, { d with atoms = List.map (fun (t, coef) -> { t with coef }) atoms })

let offset shape indices =
  match List.combine shape indices with
  | exception Invalid_argument _ -> None
  | [] -> Some (Expr.Int 0)
  | (_, i) :: rest ->
    Some
      (List.fold_left
         (fun acc (d, i) -> Expr.Iadd (Expr.Imul (acc, Expr.Int d), i))
         i rest)

type digit = { stride : int; len : int }

(* A term of the one variable [v] is a digit when its projection divides
   [v] itself by a positive constant, takes it modulo one, or both (the
   modulus first only when the divisor divides it); [plan]'s closed forms
   accept any [c + a*v] in place of [v]. *)
let digit_of v ~extent term =
  match project v term with
  | Op (Mod, Lin (0, 1), Lin (m, 0)) when m > 0 -> Some { stride = 1; len = m }
  | Op (Div, Lin (0, 1), Lin (s, 0)) when s > 0 ->
    Some { stride = s; len = ((extent - 1) / s) + 1 }
  | Op (Mod, Op (Div, Lin (0, 1), Lin (s, 0)), Lin (l, 0))
    when s > 0 && l > 0 ->
    Some { stride = s; len = l }
  | Op (Div, Op (Mod, Lin (0, 1), Lin (m, 0)), Lin (s, 0))
    when s > 0 && m > 0 && m mod s = 0 ->
    Some { stride = s; len = m / s }
  | _ -> None
  | exception Division_by_zero -> None

let digits (vars, d) v ~extent =
  match index vars v with
  | -1 -> Some []
  | l ->
    let rec go acc = function
      | [] ->
        Some (merge (({ stride = 1; len = extent }, d.coefs.(l)) :: List.rev acc))
      | t :: rest when not (List.mem l t.vars) -> go acc rest
      | { vars = [ _ ]; term; coef; _ } :: rest -> (
        match digit_of v ~extent term with
        | Some g -> go ((g, coef) :: acc) rest
        | None -> None)
      | _ -> None
    in
    go [] d.atoms

(* A closure over the point; a zero divisor raises [Division_by_zero] as
   {!Expr.eval_iexpr} does.  A digit of an affine form is one closure. *)
let rec compile = function
  | Lin (c, 0) -> fun _ -> c
  | Lin (0, 1) -> Fun.id
  | Lin (c, a) -> fun p -> c + (a * p)
  | Op (Mod, Op (Div, Lin (c, a), Lin (s, 0)), Lin (l, 0)) ->
    fun p -> Expr.imod (Expr.idiv (c + (a * p)) s) l
  | Op (Div, Lin (c, a), Lin (s, 0)) -> fun p -> Expr.idiv (c + (a * p)) s
  | Op (Mod, Lin (c, a), Lin (l, 0)) -> fun p -> Expr.imod (c + (a * p)) l
  | Op (Mul, Lin (k, 0), q) | Op (Mul, q, Lin (k, 0)) ->
    let g = compile q in
    fun p -> k * g p
  | Op (op, q, r) -> (
    let f = compile q and g = compile r in
    match op with
    | Add -> fun p -> f p + g p
    | Sub -> fun p -> f p - g p
    | Mul -> fun p -> f p * g p
    | Div -> fun p -> Expr.idiv (f p) (g p)
    | Mod -> fun p -> Expr.imod (f p) (g p)
    | Min -> fun p -> Int.min (f p) (g p)
    | Max -> fun p -> Int.max (f p) (g p))

(* How the distinct values of one dim over the points [t * step],
   [t < n], are counted.  Each closed form is exact over those points:
   - [Zero]: every point divides by zero and counts as 0;
   - [Affine a], [c + a*v]: 1 value when [a = 0], else [n], as [a*step*t]
     cannot wrap;
   - [Digit k]: [k] values of [c + b * ((a*v + c') / s) mod l] (the
     division or the remainder may be absent) with [a, s, l >= 1], see
     {!digit_count};
   every other form, [c + a*v + sum b * p], is [Swept] point by point. *)
type plan =
  | Zero
  | Affine of int
  | Digit of int
  | Swept of (int * int * (int * proj) list)

(* Operands of a closed form stay below this, so no product wraps. *)
let closed_bound = 1 lsl 20

let rec gcd a b = if b = 0 then a else gcd b (a mod b)

let small x = x >= -closed_bound && x <= closed_bound

(* The quotients advance by [a*step/s] per point.  They form a run of
   consecutive integers when [a*step <= s], so [min l run] residues, and
   an arithmetic progression when [s] divides [a*step], whose residues
   repeat with period [l / gcd (a*step/s) l].  [b <> 0] maps the digits
   one to one.  [None] when neither holds or an operand is too large. *)
let digit_count ~n ~step ~b ~c ~a ~s ~l =
  let stride = a * step in
  if not (a >= 1 && s >= 1 && small a && small s && small b && small c && small step
          && small stride)
  then None
  else if b = 0 then Some 1
  else
    let run () = Expr.idiv ((stride * (n - 1)) + c) s - Expr.idiv c s + 1 in
    match l with
    | None -> Some (if stride >= s then n else run ())
    | Some l when l < 1 || not (small l) -> None
    | Some l when stride <= s -> Some (Int.min l (run ()))
    | Some l when stride mod s = 0 -> Some (Int.min n (l / gcd (stride / s) l))
    | Some _ -> None

let plan loop_vars d l ~n ~step =
  let v = loop_vars.(l) in
  match
    if d.raises then raise Division_by_zero;
    List.fold_left
      (fun (c, a, rest) t ->
        if List.mem l t.vars then
          match project v t.term with
          | Lin (c', a') -> (c + (t.coef * c'), a + (t.coef * a'), rest)
          | p -> (c, a, (t.coef, p) :: rest)
        else
          match t.at_zero with
          | Some z -> (c + (t.coef * z), a, rest)
          | None -> raise Division_by_zero)
      (d.const, d.coefs.(l), []) d.atoms
  with
  | exception Division_by_zero -> Zero
  | _, a, [] ->
    if small a && small step && small (a * step) then Affine a
    else (* [a*step*t] might wrap *) Swept (0, a, [])
  | c, a, rest -> (
    let closed =
      match (a, rest) with
      | 0, [ (b, Op (Mod, Op (Div, Lin (c, a), Lin (s, 0)), Lin (l, 0))) ] ->
        digit_count ~n ~step ~b ~c ~a ~s ~l:(Some l)
      | 0, [ (b, Op (Mod, Lin (c, a), Lin (l, 0))) ] ->
        digit_count ~n ~step ~b ~c ~a ~s:1 ~l:(Some l)
      | 0, [ (b, Op (Div, Lin (c, a), Lin (s, 0))) ] ->
        digit_count ~n ~step ~b ~c ~a ~s ~l:None
      | _ -> None
    in
    match closed with
    | Some k -> Digit k
    | None -> Swept (c, a, rest))

(* Number of distinct entries of [values]: a byte bitmap over their span
   when it is small, a sort otherwise. *)
let count_distinct values =
  let n = Array.length values in
  if n = 0 then 0
  else begin
    let lo = ref values.(0) and hi = ref values.(0) in
    for k = 1 to n - 1 do
      let x = values.(k) in
      if x < !lo then lo := x;
      if x > !hi then hi := x
    done;
    let span = !hi - !lo in
    let d = ref 0 in
    if span >= 0 && span < 8 * max_sweep then begin
      let seen = Bytes.make (span + 1) '\000' in
      for k = 0 to n - 1 do
        let i = values.(k) - !lo in
        if Bytes.get seen i = '\000' then begin
          Bytes.set seen i '\001';
          incr d
        end
      done
    end
    else begin
      Array.sort Int.compare values;
      for k = 0 to n - 1 do
        if k = 0 || values.(k) <> values.(k - 1) then incr d
      done
    end;
    !d
  end

(* The distinct values of [c + a*v + sum b * p] over the points, one
   allocation-free loop over closures compiled once; a point that divides
   by zero counts as 0. *)
let sweep (c, a, rest) ~n ~step =
  let coefs = Array.of_list (List.map fst rest) in
  let terms = Array.of_list (List.map (fun (_, p) -> compile p) rest) in
  let values = Array.make n 0 in
  for t = 0 to n - 1 do
    let p = t * step in
    values.(t) <-
      (try
         let x = ref (c + (a * p)) in
         for j = 0 to Array.length terms - 1 do
           x := !x + (coefs.(j) * terms.(j) p)
         done;
         !x
       with Division_by_zero -> 0)
  done;
  count_distinct values

(* The sweep points: [0, extent) up to [max_sweep] of them, else
   [max_sweep] points [t * (extent / max_sweep)]. *)
let points extent =
  if extent <= max_sweep then (max 0 extent, 1)
  else (max_sweep, extent / max_sweep)

(* Number of distinct values dim [d] takes as loop [l]'s variable sweeps
   [0, extent), every other variable held at zero and an evaluation that
   divides by zero counted as 0.  Exact up to [max_sweep] points, then
   scaled from the sampled count when that is at least half the
   samples.  [sweep] counts the forms without a closed one. *)
let distinct ~sweep loop_vars d l extent =
  let n, step = points extent in
  let sampled =
    if n = 0 then 0
    else
      match plan loop_vars d l ~n ~step with
      | Zero -> 1
      | Affine a -> if a = 0 then 1 else n
      | Digit k -> k
      | Swept form -> sweep form ~n ~step
  in
  if extent <= max_sweep || sampled < max_sweep / 2 then sampled
  else
    int_of_float
      (float_of_int extent *. float_of_int sampled /. float_of_int max_sweep)

(* [expr] as the one dim of an access under the one loop [v] *)
let single v expr =
  ([| v |], decompose (fun u -> if String.equal u v then 0 else -1) 1 expr)

let distinct_values expr v extent =
  let loop_vars, d = single v expr in
  distinct ~sweep loop_vars d 0 extent

let sweep_path expr v extent =
  let loop_vars, d = single v expr in
  let n, step = points extent in
  match plan loop_vars d 0 ~n ~step with
  | Zero -> "zero"
  | Affine _ -> "affine"
  | Digit _ -> "digit"
  | Swept _ -> "sweep"

let make_access ~sweep buffers loop_vars extents dims ~tensor ~is_write ~count =
  let sizes =
    match List.assoc_opt tensor buffers with
    | Some s -> Array.of_list s
    | None -> [||]
  in
  let n = Array.length loop_vars in
  let ndims = Array.length dims in
  (* row-major weight of each index: the offset reads the first [m]
     indices into the first [m] dims, probe points may fall outside the
     tensor and only differences matter *)
  let m = Int.min (Array.length sizes) ndims in
  let weights = Array.make ndims 0 in
  if m > 0 then begin
    weights.(m - 1) <- 1;
    for k = m - 2 downto 0 do
      weights.(k) <- weights.(k + 1) * sizes.(k + 1)
    done
  end;
  let offset l =
    let acc = ref 0 in
    for k = 0 to ndims - 1 do
      acc := !acc + (weights.(k) * value loop_vars dims.(k) l)
    done;
    !acc
  in
  let base = try offset (-1) with Division_by_zero -> 0 in
  (* fine-grained (unit-step) stride per loop *)
  let strides =
    Array.init n (fun l -> try offset l - base with Division_by_zero -> 0)
  in
  (* distinct index values per (loop, dim) *)
  let distinct =
    Array.init n (fun l ->
        Array.map
          (fun d ->
            if not d.mentions.(l) then 1
            else if d.divides then distinct ~sweep loop_vars d l extents.(l)
            else if value loop_vars d l - value loop_vars d (-1) = 0 then 1
            else (* affine in v: extent distinct values *) extents.(l))
          dims)
  in
  let dim_extent d =
    if d < Array.length sizes then float_of_int sizes.(d) else 1.0
  in
  (* per dim, the loops whose distinct count is not 1, outermost first,
     with that count: multiplying by 1.0 leaves a product's bits as they
     are, so the products below skip those factors *)
  let factors =
    Array.init ndims (fun d ->
        let acc = ref [] in
        for l = n - 1 downto 0 do
          if distinct.(l).(d) <> 1 then
            acc := (l, float_of_int distinct.(l).(d)) :: !acc
        done;
        !acc)
  in
  (* touched.(dep): distinct elements accessed by loops at depth >= dep *)
  let touched = Array.make (n + 1) 1.0 in
  for dep = n downto 0 do
    let rec prod acc = function
      | [] -> acc
      | (l, k) :: rest -> prod (if l >= dep then acc *. k else acc) rest
    in
    let total = ref 1.0 in
    for d = 0 to ndims - 1 do
      total := !total *. Float.min (prod 1.0 factors.(d)) (dim_extent d)
    done;
    touched.(dep) <- !total
  done;
  (* does loop l move the access at all? *)
  let moves l =
    let rec go d = d < ndims && (distinct.(l).(d) > 1 || go (d + 1)) in
    go 0
  in
  let inner_stride =
    let rec go l =
      if l < 0 then 0 else if strides.(l) <> 0 then abs strides.(l) else go (l - 1)
    in
    go (n - 1)
  in
  (* smallest unit-step stride among moving loops at depth >= dep: the
     fraction of touched elements that start a new cache line *)
  let min_stride = Array.make (n + 1) max_int in
  for l = n - 1 downto 0 do
    min_stride.(l) <-
      (if strides.(l) <> 0 then min min_stride.(l + 1) (abs strides.(l))
       else min_stride.(l + 1))
  done;
  let lines =
    Array.mapi
      (fun dep t ->
        let s = min_stride.(dep) in
        let spatial =
          if s = max_int then 1.0
          else float_of_int (min s line_elems) /. float_of_int line_elems
        in
        Float.max 1.0 (t *. spatial))
      touched
  in
  let reuse_loop =
    let rec go l = if l < 0 then None else if not (moves l) then Some l else go (l - 1) in
    go (n - 1)
  in
  { tensor; is_write; count; strides; touched; lines; inner_stride; reuse_loop }

let analyze (prog : Prog.t) =
  (* statements of one program share most swept forms; a table local to
     the call keeps [analyze] safe on any domain *)
  let memo = Hashtbl.create 16 in
  let sweep form ~n ~step =
    let key = (form, n, step) in
    match Hashtbl.find_opt memo key with
    | Some d -> d
    | None ->
      let d = sweep form ~n ~step in
      Hashtbl.add memo key d;
      d
  in
  let infos = ref [] in
  Prog.iter_stmts prog (fun loops stmt ->
      let loop_vars = Array.of_list (List.map (fun l -> l.Prog.lvar) loops) in
      let extents = Array.of_list (List.map (fun l -> l.Prog.extent) loops) in
      let n = Array.length loop_vars in
      let iters =
        Array.fold_left (fun acc e -> acc *. float_of_int e) 1.0 extents
      in
      (* the loop of each variable, resolved once per statement *)
      let pos u =
        let rec go l =
          if l >= n then -1 else if String.equal loop_vars.(l) u then l else go (l + 1)
        in
        go 0
      in
      let access ~tensor ~idx ~is_write ~count =
        let dims = Array.of_list (List.map (decompose pos n) idx) in
        make_access ~sweep prog.buffers loop_vars extents dims ~tensor ~is_write ~count
      in
      let reads = Expr.accesses stmt.rhs in
      let dedup =
        List.fold_left
          (fun acc (t, idx) ->
            match List.assoc_opt (t, idx) acc with
            | Some n -> ((t, idx), n + 1) :: List.remove_assoc (t, idx) acc
            | None -> ((t, idx), 1) :: acc)
          [] reads
        |> List.rev
      in
      let out =
        access ~tensor:stmt.tensor ~idx:stmt.indices ~is_write:true ~count:1
      in
      let read_accesses =
        List.map
          (fun ((t, idx), count) ->
            access ~tensor:t ~idx ~is_write:false ~count)
          dedup
      in
      let counts =
        let c = Expr.count_ops stmt.rhs in
        match stmt.update with
        | Some _ -> Expr.add_counts c { Expr.zero_counts with float_add_sub = 1 }
        | None -> c
      in
      infos :=
        { stmt; loops; extents; iters; accesses = out :: read_accesses; counts }
        :: !infos);
  List.rev !infos

let working_set info d =
  List.fold_left
    (fun acc a ->
      let d = min d (Array.length a.touched - 1) in
      acc +. (4.0 *. a.touched.(d)))
    0.0 info.accesses

let select_zero_fraction info =
  match info.stmt.rhs with
  | Expr.Select (cond, _, Expr.Const 0.0) | Expr.Select (cond, Expr.Const 0.0, _)
    ->
    let syntactic_vars =
      let all = ref [] in
      let add v = if not (List.mem v !all) then all := v :: !all in
      let rec goi = function
        | Expr.Int _ -> ()
        | Expr.Axis v -> add v
        | Expr.Iadd (a, b) | Expr.Isub (a, b) | Expr.Imul (a, b)
        | Expr.Idiv (a, b) | Expr.Imod (a, b)
        | Expr.Imin (a, b) | Expr.Imax (a, b) ->
          goi a;
          goi b
      in
      let rec gob = function
        | Expr.Blt (a, b) | Expr.Ble (a, b) | Expr.Beq (a, b) ->
          goi a;
          goi b
        | Expr.Band (a, b) | Expr.Bor (a, b) ->
          gob a;
          gob b
        | Expr.Bnot a -> gob a
      in
      gob cond;
      List.rev !all
    in
    (* Relevance is judged on the equality (divisibility) atoms of the
       condition only: bounds atoms (x < N) concern the borders, which a
       real code generator peels off with loop partitioning.  A variable
       is relevant iff changing it can flip some equality atom — e.g. in
       ((y0*128 + y1) mod 2 == 0) the outer tile y0 is irrelevant because
       its coefficient is even.  Tested by sampling, so the result rewards
       tile structures whose strides make the guard independent of the
       outer loops — the T2D observation of §7.1. *)
    let equality_atoms cond =
      let acc = ref [] in
      let rec go = function
        | Expr.Beq _ as atom -> acc := atom :: !acc
        | Expr.Blt _ | Expr.Ble _ -> ()
        | Expr.Band (a, b) | Expr.Bor (a, b) ->
          go a;
          go b
        | Expr.Bnot a -> go a
      in
      go cond;
      !acc
    in
    let relevant_vars cond =
      let atoms = equality_atoms cond in
      let state = ref 2463534242 in
      let next_int bound =
        let x = !state in
        let x = x lxor (x lsl 13) in
        let x = x lxor (x lsr 7) in
        let x = x lxor (x lsl 17) in
        state := x;
        abs x mod bound
      in
      let extent_of v =
        match
          List.find_opt (fun l -> String.equal l.Prog.lvar v) info.loops
        with
        | Some l -> l.Prog.extent
        | None -> 1
      in
      List.filter
        (fun v ->
          let e = extent_of v in
          e > 1
          &&
          let depends = ref false in
          for _ = 1 to 16 do
            if not !depends then begin
              let ctx = Hashtbl.create 8 in
              List.iter
                (fun l ->
                  Hashtbl.replace ctx l.Prog.lvar (next_int l.Prog.extent))
                info.loops;
              let env_with value u =
                if String.equal u v then value
                else
                  match Hashtbl.find_opt ctx u with Some i -> i | None -> 0
              in
              let a = next_int e and b = next_int e in
              List.iter
                (fun atom ->
                  let r1 =
                    try Expr.eval_bexpr (env_with a) atom
                    with Division_by_zero -> false
                  and r2 =
                    try Expr.eval_bexpr (env_with b) atom
                    with Division_by_zero -> false
                  in
                  if r1 <> r2 then depends := true)
                atoms
            end
          done;
          !depends)
        syntactic_vars
    in
    let vars = relevant_vars cond in
    let taken_is_true =
      match info.stmt.rhs with
      | Expr.Select (_, _, Expr.Const 0.0) -> true
      | _ -> false
    in
    let samples = 128 in
    let state = ref 88172645463325252 in
    let next_int bound =
      let x = !state in
      let x = x lxor (x lsl 13) in
      let x = x lxor (x lsr 7) in
      let x = x lxor (x lsl 17) in
      state := x;
      abs x mod bound
    in
    let hits = ref 0 in
    for _ = 1 to samples do
      let env_tbl = Hashtbl.create 8 in
      List.iter
        (fun l -> Hashtbl.replace env_tbl l.Prog.lvar (next_int l.Prog.extent))
        info.loops;
      let env v =
        match Hashtbl.find_opt env_tbl v with Some i -> i | None -> 0
      in
      let holds = try Expr.eval_bexpr env cond with Division_by_zero -> false in
      if holds = taken_is_true then incr hits
    done;
    Some (vars, float_of_int !hits /. float_of_int samples)
  | _ -> None
