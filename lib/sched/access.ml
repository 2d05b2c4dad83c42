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

(* Row-major element offset; probe points may fall outside the tensor,
   only differences matter. *)
let offset shape indices =
  let rec go shape indices acc =
    match (shape, indices) with
    | [], [] -> acc
    | d :: shape', i :: indices' -> go shape' indices' ((acc * d) + i)
    | _ -> acc
  in
  go shape indices 0

let max_sweep = 256

type op = Add | Sub | Mul | Div | Mod | Min | Max

(* The arithmetic of {!Expr.eval_iexpr}. *)
let apply op x y =
  match op with
  | Add -> x + y
  | Sub -> x - y
  | Mul -> x * y
  | Div -> Expr.idiv x y
  | Mod -> Expr.imod x y
  | Min -> Int.min x y
  | Max -> Int.max x y

(* Values of an index expression over the sweep points: one for all of
   them, or one per point. *)
type column = Fixed of int | Column of int array

(* [expr] at every point of [points] for [v], every other variable held
   at 0: evaluated a node at a time over the whole column, in plain loops
   over [int array]s, instead of a point at a time through name lookups.
   A point whose evaluation divides by zero yields 0; a constant subterm
   that divides by zero makes every point 0. *)
let sweep_values v expr points =
  let n = Array.length points in
  let failed = Array.make n false in
  let column = function Fixed x -> Array.make n x | Column xs -> xs in
  let rec go (e : Expr.iexpr) =
    match e with
    | Int k -> Fixed k
    | Axis u -> if String.equal u v then Column points else Fixed 0
    | Iadd (a, b) -> node Add a b
    | Isub (a, b) -> node Sub a b
    | Imul (a, b) -> node Mul a b
    | Idiv (a, b) -> node Div a b
    | Imod (a, b) -> node Mod a b
    | Imin (a, b) -> node Min a b
    | Imax (a, b) -> node Max a b
  and node op a b =
    match (op, go a, go b) with
    | _, Fixed x, Fixed y -> Fixed (apply op x y)
    (* identities: a column's failed points are already recorded *)
    | (Add | Sub), c, Fixed 0 | Add, Fixed 0, c | Mul, c, Fixed 1 | Mul, Fixed 1, c
      ->
      c
    | _, a, b ->
      let xs = column a and ys = column b in
      let r = Array.make n 0 in
      for k = 0 to n - 1 do
        let y = ys.(k) in
        if y = 0 && (op = Div || op = Mod) then failed.(k) <- true
        else r.(k) <- apply op xs.(k) y
      done;
      Column r
  in
  let values =
    match go expr with
    | exception Division_by_zero -> Array.make n 0
    | Fixed x -> Array.make n x
    | Column xs -> Array.copy xs
  in
  for k = 0 to n - 1 do
    if failed.(k) then values.(k) <- 0
  done;
  values

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
      let sorted = Array.copy values in
      Array.sort Int.compare sorted;
      for k = 0 to n - 1 do
        if k = 0 || sorted.(k) <> sorted.(k - 1) then incr d
      done
    end;
    !d
  end

(* Number of distinct values [expr] takes as [v] sweeps [0, extent); other
   variables are held at zero and an evaluation that divides by zero
   counts as 0.  Exact up to [max_sweep] evaluations, then estimated from
   a uniformly-spaced sample. *)
let distinct_values expr v extent =
  let points =
    if extent <= max_sweep then Array.init (max 0 extent) Fun.id
    else Array.init max_sweep (fun s -> s * (extent / max_sweep))
  in
  let d = count_distinct (sweep_values v expr points) in
  if extent <= max_sweep || d < max_sweep / 2 then d
  else
    int_of_float
      (float_of_int extent *. float_of_int d /. float_of_int max_sweep)

let make_access ~sweep buffers loop_vars extents ~tensor ~idx ~is_write ~count =
  let shape =
    match List.assoc_opt tensor buffers with Some s -> s | None -> []
  in
  let n = Array.length loop_vars in
  let dims = Array.of_list idx in
  let ndims = Array.length dims in
  let eval_at env = List.map (Expr.eval_iexpr env) idx in
  let zero _ = 0 in
  let base = try offset shape (eval_at zero) with Division_by_zero -> 0 in
  (* fine-grained (unit-step) stride per loop *)
  let strides =
    Array.map
      (fun v ->
        let env u = if String.equal u v then 1 else 0 in
        match offset shape (eval_at env) - base with
        | d -> d
        | exception Division_by_zero -> 0)
      loop_vars
  in
  (* distinct index values per (loop, dim); cheap path: an expression that
     is plainly swept (unit stride in that dim) or untouched *)
  let var_in_dim =
    Array.map (fun d -> Expr.iexpr_axes d) dims
  in
  let distinct = Array.make_matrix n ndims 1 in
  for l = 0 to n - 1 do
    let v = loop_vars.(l) in
    for d = 0 to ndims - 1 do
      if List.mem v var_in_dim.(d) then begin
        let has_divmod =
          let rec go = function
            | Expr.Int _ | Expr.Axis _ -> false
            | Expr.Iadd (a, b) | Expr.Isub (a, b) | Expr.Imul (a, b)
            | Expr.Imin (a, b) | Expr.Imax (a, b) ->
              go a || go b
            | Expr.Idiv _ | Expr.Imod _ -> true
          in
          go dims.(d)
        in
        distinct.(l).(d) <-
          (if has_divmod then sweep dims.(d) v extents.(l)
           else (* affine in v: extent distinct values iff coefficient <> 0 *)
             let env u = if String.equal u v then 1 else 0 in
             let step =
               try Expr.eval_iexpr env dims.(d) - Expr.eval_iexpr zero dims.(d)
               with Division_by_zero -> 0
             in
             if step = 0 then 1 else extents.(l))
      end
    done
  done;
  let dim_extent d =
    match List.nth_opt shape d with Some e -> float_of_int e | None -> 1.0
  in
  (* touched.(dep): distinct elements accessed by loops at depth >= dep *)
  let touched = Array.make (n + 1) 1.0 in
  for dep = n downto 0 do
    let total = ref 1.0 in
    for d = 0 to ndims - 1 do
      let prod = ref 1.0 in
      for l = dep to n - 1 do
        prod := !prod *. float_of_int distinct.(l).(d)
      done;
      total := !total *. Float.min !prod (dim_extent d)
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
  let spatial dep =
    (* smallest unit-step stride among moving loops at depth >= dep: the
       fraction of touched elements that start a new cache line *)
    let s = ref max_int in
    for l = dep to n - 1 do
      if strides.(l) <> 0 then s := min !s (abs strides.(l))
    done;
    if !s = max_int then 1.0
    else float_of_int (min !s line_elems) /. float_of_int line_elems
  in
  let lines =
    Array.mapi (fun dep t -> Float.max 1.0 (t *. spatial dep)) touched
  in
  let reuse_loop =
    let rec go l = if l < 0 then None else if not (moves l) then Some l else go (l - 1) in
    go (n - 1)
  in
  { tensor; is_write; count; strides; touched; lines; inner_stride; reuse_loop }

let analyze (prog : Prog.t) =
  (* statements of one program share most index expressions and loops;
     a table local to the call keeps [analyze] safe on any domain *)
  let memo = Hashtbl.create 64 in
  let sweep expr v extent =
    let key = (expr, v, extent) in
    match Hashtbl.find_opt memo key with
    | Some d -> d
    | None ->
      let d = distinct_values expr v extent in
      Hashtbl.add memo key d;
      d
  in
  let infos = ref [] in
  Prog.iter_stmts prog (fun loops stmt ->
      let loop_vars = Array.of_list (List.map (fun l -> l.Prog.lvar) loops) in
      let extents = Array.of_list (List.map (fun l -> l.Prog.extent) loops) in
      let iters =
        Array.fold_left (fun acc e -> acc *. float_of_int e) 1.0 extents
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
        make_access ~sweep prog.buffers loop_vars extents ~tensor:stmt.tensor
          ~idx:stmt.indices ~is_write:true ~count:1
      in
      let read_accesses =
        List.map
          (fun ((t, idx), count) ->
            make_access ~sweep prog.buffers loop_vars extents ~tensor:t ~idx
              ~is_write:false ~count)
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
