open Ansor_te
open Ansor_sched
module I = Validate.Interval

(* Cross-iteration dependence analysis of [Parallel]/[Vectorize] loops.

   For every annotated loop the detector tries to prove that two distinct
   iterations never touch the same buffer element with at least one write.
   The proof machinery is affine-over-atoms ({!Linform}): each access
   offset decomposes into mixed-radix "digits" of the annotated loop
   variable (the [(p / stride) mod len] components lowering emits for
   split/fused iterators), inner-loop terms, and outer-loop terms that
   are fixed across iterations.

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
  outer : string list;  (** loop vars enclosing the annotated loop *)
  env : string -> I.t option;  (** ranges of every loop var in scope *)
  shapes : (string * int list) list;
}

let interval ctx atom =
  match I.of_iexpr ctx.env atom with Some iv -> iv | None -> raise Unknown

let is_outer_only ctx atom =
  match Expr.iexpr_axes atom with
  | [] -> true
  | axes -> List.for_all (fun v -> List.mem v ctx.outer) axes

(* |coeff| * value-range of every term that can differ between two
   iterations of the annotated loop (outer-only terms are fixed). *)
let rest_width ctx (rest : Linform.t) =
  List.fold_left
    (fun acc (atom, c) ->
      if is_outer_only ctx atom then acc
      else
        let iv = interval ctx atom in
        acc + (abs c * (iv.I.hi - iv.I.lo)))
    0 rest.Linform.terms

(* Positional-system injectivity over digits and varying inner terms
   jointly: sorted by |coeff|, each coefficient must exceed the combined
   reach of all smaller terms.  When it holds, distinct digit vectors
   give distinct offsets no matter what the inner loops do. *)
let joint_injective ctx digits (rest : Linform.t) =
  let terms =
    List.map (fun (d, c) -> (abs c, d.Linform.len - 1)) digits
    @ List.filter_map
        (fun (atom, c) ->
          if is_outer_only ctx atom then None
          else
            let iv = interval ctx atom in
            Some (abs c, iv.I.hi - iv.I.lo))
        rest.Linform.terms
  in
  let sorted = List.sort (fun (a, _) (b, _) -> compare a b) terms in
  let rec go reach = function
    | [] -> true
    | (c, w) :: rest -> c > reach && go (reach + (c * w)) rest
  in
  go 0 sorted

(* Offset of an access as (digits of p, rest linear form). *)
let analyze_offset ctx tensor indices =
  let shape =
    match List.assoc_opt tensor ctx.shapes with
    | Some s -> s
    | None -> raise Unknown
  in
  let lf = Linform.of_access ~shape ~indices in
  let p_terms, rest = Linform.partition ctx.p lf in
  match Linform.digits_of ~p:ctx.p ~extent:ctx.extent p_terms with
  | None -> raise Unknown
  | Some ds -> (Linform.merge_digits ds, rest)

(* Can two distinct iterations reach the same offset?  [`Safe] is a
   proof they cannot; [`Collides (0, q)] is a constructive pair sharing
   every digit; [`Unknown] makes no claim. *)
let self_disjoint ctx digits rest =
  if digits = [] then `Collides (0, 1)
  else if not (Linform.covers ~extent:ctx.extent digits) then
    match Linform.collision ~extent:ctx.extent digits with
    | Some pair -> `Collides pair
    | None -> `Unknown
  else if joint_injective ctx digits rest then `Safe
  else
    match Linform.min_gap digits with
    | Some g when g > rest_width ctx rest -> `Safe
    | _ -> `Unknown

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
    let write_ds = List.map fst write_digits in
    let classify acc e =
      if not (List.mem ctx.p (Expr.iexpr_axes e)) then acc
      else
        match acc with
        | `Opaque | `Differs -> acc
        | _ -> (
          let p_terms, _ = Linform.partition ctx.p (Linform.of_iexpr e) in
          match Linform.digits_of ~p:ctx.p ~extent:ctx.extent p_terms with
          | None -> `Opaque
          | Some ds ->
            if
              List.for_all
                (fun (d, _) -> List.mem d write_ds)
                (Linform.merge_digits ds)
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
  match analyze_offset ctx s.tensor s.indices with
  | exception Unknown -> None
  | digits, rest -> (
    match self_disjoint ctx digits rest with
    | `Safe | `Unknown -> None
    | `Collides pair ->
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
                let rdigits, _ = analyze_offset ctx tensor indices in
                let wdigits, _ = analyze_offset ctx w.tensor w.indices in
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

(* The context of annotated loop [l] under its enclosing [outer] loops,
   ranging every variable of [loops]. *)
let loop_ctx ~outer ~shapes (l : Prog.loop) loops =
  {
    p = l.lvar;
    extent = l.extent;
    ann = l.ann;
    outer = List.map (fun (o : Prog.loop) -> o.lvar) outer;
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
      let ctx = loop_ctx ~outer ~shapes l (outer @ (l :: inner)) in
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
        (loop_ctx ~outer ~shapes l every_loop)
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
