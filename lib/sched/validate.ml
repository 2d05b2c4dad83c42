open Ansor_te

module Interval = struct
  type t = { lo : int; hi : int }

  let point n = { lo = n; hi = n }

  let add a b = { lo = a.lo + b.lo; hi = a.hi + b.hi }

  let sub a b = { lo = a.lo - b.hi; hi = a.hi - b.lo }

  let mul a b =
    let products = [ a.lo * b.lo; a.lo * b.hi; a.hi * b.lo; a.hi * b.hi ] in
    {
      lo = List.fold_left min max_int products;
      hi = List.fold_left max min_int products;
    }

  let fdiv x d = if x >= 0 || x mod d = 0 then x / d else (x / d) - 1

  let floordiv_const a d =
    (* d > 0; floor division is monotone *)
    { lo = fdiv a.lo d; hi = fdiv a.hi d }

  let imin a b = { lo = min a.lo b.lo; hi = min a.hi b.hi }
  let imax a b = { lo = max a.lo b.lo; hi = max a.hi b.hi }

  let rec of_iexpr env (e : Expr.iexpr) =
    match e with
    | Expr.Int n -> Some (point n)
    | Expr.Axis v -> env v
    | Expr.Iadd (a, b) -> map2 add (of_iexpr env a) (of_iexpr env b)
    | Expr.Isub (a, b) -> map2 sub (of_iexpr env a) (of_iexpr env b)
    | Expr.Imul (a, b) -> map2 mul (of_iexpr env a) (of_iexpr env b)
    | Expr.Imin (a, b) -> map2 imin (of_iexpr env a) (of_iexpr env b)
    | Expr.Imax (a, b) -> map2 imax (of_iexpr env a) (of_iexpr env b)
    | Expr.Idiv (a, b) -> (
      match (of_iexpr env a, of_iexpr env b) with
      | Some a, Some { lo = d; hi = d' } when d = d' && d > 0 ->
        Some (floordiv_const a d)
      | Some a, Some ({ lo; hi = _ } as b) when lo > 0 ->
        (* floor(x/d) is monotone in x and, for fixed x, monotone in d
           (toward 0 as d grows), so the extremes sit at endpoint pairs. *)
        let cands =
          [ fdiv a.lo b.lo; fdiv a.lo b.hi; fdiv a.hi b.lo; fdiv a.hi b.hi ]
        in
        Some
          {
            lo = List.fold_left min max_int cands;
            hi = List.fold_left max min_int cands;
          }
      | _ -> None)
    | Expr.Imod (a, b) -> (
      match of_iexpr env b with
      | Some { lo = d; hi = d' } when d = d' && d > 0 -> (
        match of_iexpr env a with
        | Some a when a.lo >= 0 && a.hi < d ->
          (* already within [0, d): mod is the identity *)
          Some a
        | Some a when fdiv a.lo d = fdiv a.hi d ->
          (* whole interval inside one block of d: mod just shifts it *)
          let k = fdiv a.lo d in
          Some { lo = a.lo - (k * d); hi = a.hi - (k * d) }
        | _ -> Some { lo = 0; hi = d - 1 })
      | _ -> None)

  and map2 f a b =
    match (a, b) with Some a, Some b -> Some (f a b) | _ -> None
end

(* interval of the flattened row-major offset *)
let offset_interval env shape indices =
  let rec go dims idx acc =
    match (dims, idx) with
    | [], [] -> Some acc
    | d :: dims', i :: idx' -> (
      match Interval.of_iexpr env i with
      | None -> None
      | Some iv ->
        go dims' idx'
          (Interval.add (Interval.mul acc (Interval.point d)) iv))
    | _ -> None
  in
  match (shape, indices) with
  | [], [] -> Some (Interval.point 0)
  | d :: dims, i :: idx -> (
    ignore d;
    match Interval.of_iexpr env i with
    | None -> None
    | Some iv -> go dims idx iv)
  | _ -> None

(* reads of an expression, tagged with whether a select guards them *)
let reads_with_guard e =
  let acc = ref [] in
  let rec go guarded (e : Expr.t) =
    match e with
    | Expr.Const _ | Expr.Cast_int _ -> ()
    | Expr.Access (t, idx) -> acc := (t, idx, guarded) :: !acc
    | Expr.Unop (_, a) -> go guarded a
    | Expr.Binop (_, a, b) ->
      go guarded a;
      go guarded b
    | Expr.Select (_, a, b) ->
      go true a;
      go true b
  in
  go false e;
  List.rev !acc

let check (prog : Prog.t) =
  let issues = ref [] in
  let report ~code ~loc fmt =
    Format.kasprintf
      (fun message ->
        issues :=
          Diagnostic.make ~severity:Diagnostic.Error ~code ~loc message
          :: !issues)
      fmt
  in
  let shapes = prog.buffers in
  (* per-buffer write hull, for the coverage check *)
  let write_hull : (string, Interval.t) Hashtbl.t = Hashtbl.create 16 in
  let visit enclosing (stmt : Prog.stmt) =
    let loc = Diagnostic.Stage stmt.stage in
    (* loop scoping *)
    let seen = Hashtbl.create 16 in
    List.iter
      (fun (l : Prog.loop) ->
        if l.extent < 1 then
          report ~code:"loop-extent" ~loc:(Diagnostic.Loop l.lvar)
            "loop %s of stage %s has extent %d" l.lvar stmt.stage l.extent;
        if Hashtbl.mem seen l.lvar then
          report ~code:"shadowed-loop-var" ~loc
            "loop variable %s shadows an outer loop" l.lvar;
        Hashtbl.replace seen l.lvar ())
      enclosing;
    let env v =
      match
        List.find_opt (fun (l : Prog.loop) -> String.equal l.lvar v) enclosing
      with
      | Some l -> Some { Interval.lo = 0; hi = l.extent - 1 }
      | None -> None
    in
    let shape_of t = List.assoc_opt t shapes in
    let unknown what t =
      report ~code:"unknown-buffer" ~loc "%s unknown buffer %s" what t
    in
    (match shape_of stmt.tensor with
    | None -> unknown "write" stmt.tensor
    | Some shape -> (
      match offset_interval env shape stmt.indices with
      | None -> () (* non-affine beyond the analysis: no claim *)
      | Some iv ->
        let cur =
          Option.value
            (Hashtbl.find_opt write_hull stmt.tensor)
            ~default:{ Interval.lo = max_int; hi = min_int }
        in
        Hashtbl.replace write_hull stmt.tensor
          { Interval.lo = min cur.lo iv.lo; hi = max cur.hi iv.hi }));
    List.iter
      (fun (t, _, guarded) ->
        if (not guarded) && shape_of t = None then unknown "read" t)
      (reads_with_guard stmt.rhs);
    (* reduction discipline *)
    if stmt.update <> None && not (List.mem_assoc stmt.tensor prog.inits) then
      report ~code:"uninit-reduction" ~loc
        "reduction into %s without initialization" stmt.tensor
  in
  Prog.iter_stmts prog visit;
  (* write coverage: the hull of every written buffer reaches both ends *)
  Hashtbl.iter
    (fun t (hull : Interval.t) ->
      match List.assoc_opt t shapes with
      | None -> ()
      | Some shape ->
        let size = Prog.buffer_size shape in
        if hull.lo > 0 || hull.hi < size - 1 then
          report ~code:"write-coverage" ~loc:(Diagnostic.Buffer t)
            "writes only span offsets [%d, %d] of size %d" hull.lo hull.hi
            size)
    write_hull;
  List.rev !issues
