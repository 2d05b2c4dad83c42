open Ansor_te
open Ansor_sched
module I = Validate.Interval

(* Cross-iteration dependence analysis of [Parallel]/[Vectorize] loops.

   For every annotated loop the detector looks for two distinct
   iterations that touch the same buffer element with at least one
   write.  Each access offset is read through {!Access.linear}: its terms
   that mention the annotated loop variable must be mixed-radix "digits"
   of it ({!Access.digits}: the [(p / stride) mod len] components lowering
   emits for split/fused iterators); every other term is the same in two
   iterations that run the inner loops alike.

   Soundness policy: an [Error] is only emitted for a {e constructive}
   race — a concrete pair of iterations provably hitting the same
   element (a shared reduction accumulator, or a write collision with an
   iteration-dependent value).  When nothing can be proved either way the
   detector stays silent, so legal-but-opaque schedules are never
   rejected.  [Vectorize] findings are capped at [Warn]: the execution
   model for vector lanes is lockstep, a vectorized reduction is a
   performance hazard rather than a miscompile under this backend. *)

exception Unknown

type ctx = {
  p : string;  (** annotated loop variable *)
  extent : int;
  ann : Step.annotation;
  env : string -> I.t option;  (** ranges of every loop var in scope *)
  shapes : (string * int list) list;
}

(* The digits of [p] in [e]; [Unknown] when a term mentioning [p] is
   beyond the digit grammar. *)
let p_digits ctx e =
  match Access.digits (Access.linear e) ctx.p ~extent:ctx.extent with
  | Some ds -> ds
  | None -> raise Unknown

(* The digits of [p] in an access's row-major offset. *)
let offset_digits ctx tensor indices =
  match List.assoc_opt tensor ctx.shapes with
  | None -> raise Unknown
  | Some shape -> (
    match Access.offset shape indices with
    | Some e -> p_digits ctx e
    | None -> raise Unknown)

(* Do the digits jointly determine p over [0, extent)?  Walk strides in
   ascending order, growing the determined prefix [0, upto). *)
let covers ~extent digits =
  let sorted =
    List.sort
      (fun ((a : Access.digit), _) ((b : Access.digit), _) ->
        compare a.stride b.stride)
      digits
  in
  let upto =
    List.fold_left
      (fun upto ((d : Access.digit), _) ->
        if d.stride <= upto then max upto (d.stride * d.len) else upto)
      1 sorted
  in
  upto >= extent

(* Two iterations writing the same element: when the digits do not
   determine p, iteration 0 and the first q in [1, extent) (capped) that
   agrees with it on every digit.  Iterations that run the inner loops
   alike then reach the same offset.  [None] makes no claim; when the
   digits do determine p, telling the offsets apart would need the other
   terms too, and no finding rests on that proof. *)
let collision ~extent digits =
  if covers ~extent digits then None
  else
    let cap = min (extent - 1) 65535 in
    let agree q =
      List.for_all
        (fun ((d : Access.digit), _) -> q / d.stride mod d.len = 0)
        digits
    in
    let rec go q =
      if q > cap then None else if agree q then Some (0, q) else go (q + 1)
    in
    go 1

(* Every index expression the rhs value can depend on: read indices
   (guarded ones included — a select may still take that branch), select
   conditions, and integer casts. *)
let iexprs_of_expr e =
  let acc = ref [] in
  let goi i = acc := i :: !acc in
  let rec gob = function
    | Expr.Blt (a, b) | Expr.Ble (a, b) | Expr.Beq (a, b) ->
      goi a;
      goi b
    | Expr.Band (a, b) | Expr.Bor (a, b) ->
      gob a;
      gob b
    | Expr.Bnot a -> gob a
  in
  let rec go = function
    | Expr.Const _ -> ()
    | Expr.Cast_int i -> goi i
    | Expr.Access (_, idx) -> List.iter goi idx
    | Expr.Unop (_, a) -> go a
    | Expr.Binop (_, a, b) ->
      go a;
      go b
    | Expr.Select (c, a, b) ->
      gob c;
      go a;
      go b
  in
  go e;
  List.rev !acc

(* How the rhs value depends on the annotated loop variable, relative to
   the write offset's digits.  [`Independent]: provably the same value in
   colliding iterations.  [`Determined]: every p-component of the value
   is one of the write digits, so iterations that agree on the write
   digits agree on the value — the redundant-write (idempotent) case.
   [`Differs]: the value has a p-component outside the write digits.
   [`Opaque]: beyond the digit grammar. *)
let value_dependence ctx write_digits rhs =
  if not (List.mem ctx.p (Expr.axes_of rhs)) then `Independent
  else
    let classify acc e =
      if not (List.mem ctx.p (Expr.iexpr_axes e)) then acc
      else
        match acc with
        | `Opaque | `Differs -> acc
        | _ -> (
          match p_digits ctx e with
          | exception Unknown -> `Opaque
          | ds ->
            if List.for_all (fun (d, _) -> List.mem_assoc d write_digits) ds
            then acc
            else `Differs)
    in
    List.fold_left classify `Determined (iexprs_of_expr rhs)

(* ---- diagnostics ---------------------------------------------------------- *)

let reduction_race ctx (s : Prog.stmt) pair =
  let q = snd pair in
  match ctx.ann with
  | Step.Parallel ->
    Diagnostic.makef ~severity:Diagnostic.Error ~code:"parallel-reduction-race"
      ~loc:(Diagnostic.Loop ctx.p)
      "parallel loop %s (extent %d): iterations 0 and %d update the same \
       accumulator of %s (stage %s) — reduction carried across parallel \
       iterations"
      ctx.p ctx.extent q s.tensor s.stage
  | _ ->
    Diagnostic.makef ~severity:Diagnostic.Warn ~code:"vectorized-reduction"
      ~loc:(Diagnostic.Loop ctx.p)
      "vectorized loop %s: lanes 0 and %d update the same accumulator of %s \
       (stage %s)"
      ctx.p q s.tensor s.stage

let write_race ctx (s : Prog.stmt) pair =
  let q = snd pair in
  match ctx.ann with
  | Step.Parallel ->
    Diagnostic.makef ~severity:Diagnostic.Error ~code:"write-race"
      ~loc:(Diagnostic.Loop ctx.p)
      "parallel loop %s: iterations 0 and %d write the same element of %s \
       (stage %s) with iteration-dependent values"
      ctx.p q s.tensor s.stage
  | _ ->
    Diagnostic.makef ~severity:Diagnostic.Warn ~code:"vector-write-race"
      ~loc:(Diagnostic.Loop ctx.p)
      "vectorized loop %s: lanes 0 and %d write the same element of %s \
       (stage %s) with lane-dependent values"
      ctx.p q s.tensor s.stage

let possible_write_race ctx (s : Prog.stmt) =
  let severity =
    match ctx.ann with
    | Step.Parallel -> Diagnostic.Warn
    | _ -> Diagnostic.Info
  in
  Diagnostic.makef ~severity ~code:"possible-write-race"
    ~loc:(Diagnostic.Loop ctx.p)
    "loop %s: iterations write the same elements of %s (stage %s) and the \
     written value could not be proved iteration-independent"
    ctx.p s.tensor s.stage

let redundant_writes ctx (s : Prog.stmt) =
  let severity =
    match ctx.ann with
    | Step.Parallel -> Diagnostic.Warn
    | _ -> Diagnostic.Info
  in
  Diagnostic.makef ~severity ~code:"redundant-writes"
    ~loc:(Diagnostic.Loop ctx.p)
    "iterations of loop %s write identical values to the same elements of %s \
     (stage %s): benign, but the loop repeats work"
    ctx.p s.tensor s.stage

let possible_read_race ctx ~reader ~writer buffer =
  Diagnostic.makef ~severity:Diagnostic.Warn ~code:"possible-read-race"
    ~loc:(Diagnostic.Loop ctx.p)
    "parallel loop %s: stage %s reads %s which stage %s writes in other \
     iterations"
    ctx.p reader buffer writer

(* ---- per-loop check ------------------------------------------------------- *)

(* The write of one statement, checked against its own other
   iterations: [None] when no collision is proved, else the finding. *)
let check_self ctx (s : Prog.stmt) =
  match offset_digits ctx s.tensor s.indices with
  | exception Unknown -> None
  | digits -> (
    match collision ~extent:ctx.extent digits with
    | None -> None
    | Some pair ->
      if s.update <> None then Some (`Reduction pair)
      else (
        match value_dependence ctx digits s.rhs with
        | `Independent | `Determined -> Some `Redundant
        | `Differs -> Some (`Write pair)
        | `Opaque -> Some `Possible))

let self_diagnostic ctx s = function
  | `Reduction pair -> reduction_race ctx s pair
  | `Write pair -> write_race ctx s pair
  | `Redundant -> redundant_writes ctx s
  | `Possible -> possible_write_race ctx s

(* Reads of buffers that other iterations write.  Only the clear-cut
   shape is reported (reader offset independent of p, writer dependent),
   and only when the hulls provably overlap; matching producer/consumer
   access patterns prove safe via the same digit machinery and stay
   silent otherwise. *)
let check_reads ctx stmts writes =
  let hull tensor indices =
    match List.assoc_opt tensor ctx.shapes with
    | None -> raise Unknown
    | Some shape -> (
      match Validate.offset_interval ctx.env shape indices with
      | Some iv -> iv
      | None -> raise Unknown)
  in
  List.concat_map
    (fun (s : Prog.stmt) ->
      List.filter_map
        (fun (tensor, indices, _guarded) ->
          match List.assoc_opt tensor writes with
          | None -> None
          | Some (w : Prog.stmt) ->
            if w.stage = s.stage && s.update <> None then None
            else if ctx.ann <> Step.Parallel then None
            else (
              try
                let rdigits = offset_digits ctx tensor indices in
                let wdigits = offset_digits ctx w.tensor w.indices in
                if rdigits = [] && wdigits <> [] then (
                  let rh = hull tensor indices
                  and wh = hull w.tensor w.indices in
                  if rh.I.lo <= wh.I.hi && wh.I.lo <= rh.I.hi then
                    Some
                      (possible_read_race ctx ~reader:s.stage ~writer:w.stage
                         tensor)
                  else None)
                else None
              with Unknown -> None))
        (Validate.reads_with_guard s.rhs))
    stmts

(* The statements of an annotated loop's body, each with the loops
   between the annotated loop and it, outermost first. *)
let body_stmts (l : Prog.loop) =
  let acc = ref [] in
  let rec go inner = function
    | Prog.Stmt s -> acc := (List.rev inner, s) :: !acc
    | Prog.Loop l' -> List.iter (go (l' :: inner)) l'.body
  in
  List.iter (go []) l.body;
  List.rev !acc

(* The context of annotated loop [l], ranging every variable of
   [loops]. *)
let loop_ctx ~shapes (l : Prog.loop) loops =
  {
    p = l.lvar;
    extent = l.extent;
    ann = l.ann;
    env =
      (fun v ->
        List.find_map
          (fun (lp : Prog.loop) ->
            if String.equal lp.lvar v then Some { I.lo = 0; hi = lp.extent - 1 }
            else None)
          loops);
    shapes;
  }

(* Each statement's own write, in a context ranging the loops down to
   it. *)
let self_findings ~outer ~shapes (l : Prog.loop) stmts =
  List.filter_map
    (fun (inner, s) ->
      let ctx = loop_ctx ~shapes l (outer @ (l :: inner)) in
      Option.map (fun f -> (ctx, s, f)) (check_self ctx s))
    stmts

let check_loop ~outer ~shapes (l : Prog.loop) =
  let inner_stmts = body_stmts l in
  let self =
    List.map
      (fun (ctx, s, f) -> self_diagnostic ctx s f)
      (self_findings ~outer ~shapes l inner_stmts)
  in
  (* read/write pairs share one env conservatively covering every inner
     loop of the annotated loop's body; the first write of each buffer
     stands for it *)
  match inner_stmts with
  | [] -> self
  | _ ->
    let every_loop =
      outer @ (l :: List.concat_map (fun (inner, _) -> inner) inner_stmts)
    in
    let writes =
      List.fold_left
        (fun acc (_, (s : Prog.stmt)) ->
          if List.mem_assoc s.tensor acc then acc else (s.tensor, s) :: acc)
        [] inner_stmts
    in
    self
    @ check_reads
        (loop_ctx ~shapes l every_loop)
        (List.map snd inner_stmts) writes

(* Annotated loops of extent >= 2 whose annotation satisfies [wanted], in
   pre-order, each with its enclosing loops outermost first. *)
let annotated_loops wanted (prog : Prog.t) =
  let acc = ref [] in
  let rec go outer = function
    | Prog.Stmt _ -> ()
    | Prog.Loop l ->
      if l.extent >= 2 && wanted l.ann then acc := (List.rev outer, l) :: !acc;
      List.iter (go (l :: outer)) l.body
  in
  List.iter (go []) prog.items;
  List.rev !acc

let check (prog : Prog.t) =
  List.concat_map
    (fun (outer, l) -> check_loop ~outer ~shapes:prog.buffers l)
    (annotated_loops
       (function Step.Parallel | Step.Vectorize -> true | _ -> false)
       prog)

(* [Diagnostic.errors (check prog)], in the same order, for gates that
   keep nothing else.  Only a constructive race on a [Parallel] loop's
   own writes is an [Error]: [Vectorize] findings and read/write pairs
   are capped at [Warn].  So this walks the [Parallel] loops only, skips
   [check_reads], and renders no warning. *)
let errors (prog : Prog.t) =
  List.concat_map
    (fun (outer, l) ->
      List.filter_map
        (fun (ctx, s, f) ->
          match f with
          | `Reduction _ | `Write _ -> Some (self_diagnostic ctx s f)
          | `Redundant | `Possible -> None)
        (self_findings ~outer ~shapes:prog.buffers l (body_stmts l)))
    (annotated_loops (( = ) Step.Parallel) prog)
