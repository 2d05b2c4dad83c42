open Ansor_te
open Ansor_sched
module I = Validate.Interval
module Lru = Ansor_util.Lru

(* Static memory-safety certification of lowered programs.

   For every load and store the certifier tries to prove, per buffer
   dimension, that the index stays inside [0, extent).  The proof
   machinery is shared with the race detector ({!Linform}): each index
   expression decomposes into a constant plus per-loop-variable groups of
   [(p / stride) mod len] digits, whose exact value range (and the
   iterations attaining it) is computed by a bounded scan; guarded
   accesses (the padding [select] idiom — C ternaries evaluate only the
   taken branch) fall back to an exhaustive guard-aware enumeration of
   the mentioned loop variables.

   Soundness policy mirrors {!Races}: [Unsafe] is only ever claimed with
   a {e constructive witness} — a concrete iteration vector and the
   offending index value, re-validated by evaluation before the claim is
   made — so a gate keyed on [Unsafe] can never reject a legal program.
   [Certified] is a proof (hull containment or completed enumeration);
   anything in between is [Unknown] and the caller decides (the native
   measurement gate refuses it unless guarded codegen is on; search
   keeps it, since the interpreter and simulator trap bounds anyway). *)

type access_kind = Read | Write

let access_kind_name = function Read -> "read" | Write -> "write"

type witness = {
  w_stage : string;  (** statement whose access goes out of bounds *)
  w_kind : access_kind;
  w_tensor : string;
  w_dim : int;  (** 0-based buffer dimension *)
  w_extent : int;  (** extent of that dimension *)
  w_index : int;  (** offending index value, outside [0, extent) *)
  w_iter : (string * int) list;
      (** full enclosing-loop iteration vector, outermost first *)
}

type verdict = Certified | Unsafe of witness | Unknown

let verdict_name = function
  | Certified -> "certified"
  | Unsafe _ -> "unsafe"
  | Unknown -> "unknown"

let iter_to_string iter =
  String.concat ", " (List.map (fun (v, i) -> Printf.sprintf "%s=%d" v i) iter)

let witness_to_string w =
  Printf.sprintf
    "%s of %s by stage %s: dimension %d index %d outside [0, %d) at iteration %s"
    (access_kind_name w.w_kind)
    w.w_tensor w.w_stage w.w_dim w.w_index w.w_extent
    (iter_to_string w.w_iter)

let witness_to_json w =
  Printf.sprintf
    {|{"kind":"%s","tensor":"%s","stage":"%s","dim":%d,"index":%d,"extent":%d,"iteration":{%s}}|}
    (access_kind_name w.w_kind)
    (Diagnostic.json_escape w.w_tensor)
    (Diagnostic.json_escape w.w_stage)
    w.w_dim w.w_index w.w_extent
    (String.concat ","
       (List.map
          (fun (v, i) ->
            Printf.sprintf {|"%s":%d|} (Diagnostic.json_escape v) i)
          w.w_iter))

(* Per-variable scan and guard-aware enumeration budgets.  Both bound
   work, never soundness: past the cap the verdict degrades to [Unknown],
   it never guesses. *)
let scan_cap = 65536
let enum_cap = 65536

(* ---- per-dimension hull -------------------------------------------------- *)

(* Exact value range of one loop variable's digit group, with the
   iterations attaining the extremes (for direct witness construction). *)
type var_range = {
  vr_var : string;
  vr_min : int;
  vr_argmin : int;
  vr_max : int;
  vr_argmax : int;
}

let scan_digits ~extent digits =
  let value p =
    List.fold_left (fun acc (d, c) -> acc + (c * Linform.digit_value d p)) 0 digits
  in
  let r = ref { vr_var = ""; vr_min = value 0; vr_argmin = 0; vr_max = value 0; vr_argmax = 0 } in
  for p = 1 to extent - 1 do
    let v = value p in
    if v < !r.vr_min then r := { !r with vr_min = v; vr_argmin = p };
    if v > !r.vr_max then r := { !r with vr_max = v; vr_argmax = p }
  done;
  !r

exception Inexact

(* Exact hull of an index expression: constant plus independent per-var
   digit groups, each scanned over its full range.  Raises [Inexact] when
   a term is beyond the digit grammar, mixes variables, or a variable's
   extent is over the scan budget. *)
let exact_hull env e =
  let lf = Linform.of_iexpr e in
  (* group p-mentioning terms by their (single) variable *)
  let groups : (string, (Expr.iexpr * int) list) Hashtbl.t = Hashtbl.create 4 in
  let const = ref lf.Linform.const in
  List.iter
    (fun (atom, c) ->
      match Expr.iexpr_axes atom with
      | [] ->
        (* constant atom (e.g. Imin of literals): evaluate it outright *)
        let v =
          try Expr.eval_iexpr (fun _ -> raise Inexact) atom
          with Division_by_zero -> raise Inexact
        in
        const := !const + (c * v)
      | [ v ] ->
        Hashtbl.replace groups v
          ((atom, c) :: Option.value (Hashtbl.find_opt groups v) ~default:[])
      | _ -> raise Inexact)
    lf.Linform.terms;
  let ranges =
    Hashtbl.fold
      (fun v terms acc ->
        let extent =
          match env v with
          | Some { I.lo = 0; hi } -> hi + 1
          | _ -> raise Inexact
        in
        if extent > scan_cap then raise Inexact;
        match Linform.digits_of ~p:v ~extent terms with
        | None -> raise Inexact
        | Some ds -> (
          match Linform.merge_digits ds with
          | [] -> acc
          | digits -> { (scan_digits ~extent digits) with vr_var = v } :: acc))
      groups []
  in
  let lo = List.fold_left (fun acc r -> acc + r.vr_min) !const ranges in
  let hi = List.fold_left (fun acc r -> acc + r.vr_max) !const ranges in
  (lo, hi, ranges)

(* ---- guard-implied bounds ------------------------------------------------ *)

(* Atomic comparisons that must hold on a select-guard path: the [true]
   branch of a [Band] contributes both operands, the [false] branch of a
   [Bor] both negations; inequality negations flip ([not (a < b)] is
   [b <= a]).  Shapes we cannot decompose (the [false] branch of [Band],
   equalities) are dropped — losing a constraint only loses precision,
   never soundness. *)
let rec conjuncts acc (c, taken) =
  if taken then
    match c with
    | Expr.Band (x, y) -> conjuncts (conjuncts acc (x, true)) (y, true)
    | Expr.Bnot x -> conjuncts acc (x, false)
    | atom -> atom :: acc
  else
    match c with
    | Expr.Bor (x, y) -> conjuncts (conjuncts acc (x, false)) (y, false)
    | Expr.Bnot x -> conjuncts acc (x, true)
    | Expr.Blt (a, b) -> Expr.Ble (b, a) :: acc
    | Expr.Ble (a, b) -> Expr.Blt (b, a) :: acc
    | Expr.Band _ | Expr.Beq _ -> acc

let const_diff a b =
  let d = Linform.combine (-1) (Linform.of_iexpr a) (Linform.of_iexpr b) in
  if d.Linform.terms = [] then Some d.Linform.const else None

let opt_max a b =
  match (a, b) with Some x, Some y -> Some (max x y) | x, None | None, x -> x

let opt_min a b =
  match (a, b) with Some x, Some y -> Some (min x y) | x, None | None, x -> x

(* Bounds on [e] implied by the guard path, for conjuncts that pin [e]
   up to a constant: from [a <= b] with [e = a + k] follows
   [e <= hi(b) + k], with [e = b + k] follows [e >= lo(a) + k] (strict
   comparisons shift by one).  The padding-select idiom — guard
   [lo <= h && h < hi] around a read of [h - pad] — is exactly this
   shape, so guarded boundary reads certify without any enumeration. *)
let guard_refined env path e =
  List.fold_left
    (fun (lo, hi) c ->
      let strict, a, b =
        match c with
        | Expr.Ble (a, b) -> (false, Some a, Some b)
        | Expr.Blt (a, b) -> (true, Some a, Some b)
        | _ -> (false, None, None)
      in
      match (a, b) with
      | Some a, Some b ->
        let adj = if strict then 1 else 0 in
        let hi' =
          match const_diff e a with
          | None -> None
          | Some k -> (
            match I.of_iexpr env b with
            | Some ib -> Some (ib.I.hi + k - adj)
            | None -> None)
        in
        let lo' =
          match const_diff e b with
          | None -> None
          | Some k -> (
            match I.of_iexpr env a with
            | Some ia -> Some (ia.I.lo + k + adj)
            | None -> None)
        in
        (opt_max lo lo', opt_min hi hi')
      | _ -> (lo, hi))
    (None, None)
    (List.fold_left conjuncts [] path)

(* ---- witness search ------------------------------------------------------ *)

(* Every loop variable of the statement, outermost first, default 0. *)
let full_iter ~loops assign =
  List.map
    (fun (l : Prog.loop) ->
      (l.lvar, Option.value (List.assoc_opt l.lvar assign) ~default:0))
    loops

(* Exhaustive guard-aware enumeration over the loop variables mentioned
   by the index expression or its guard path.  Returns [`Unsafe] with a
   validated witness, [`Proved] when the full space was enumerated
   without a reachable violation, or [`Over_budget]. *)
let enumerate ~loops ~path ~extent_of e ~dim_extent =
  let vars =
    List.sort_uniq String.compare
      (Expr.iexpr_axes e
      @ List.concat_map
          (fun (cond, _) ->
            let acc = ref [] in
            let rec gob = function
              | Expr.Blt (a, b) | Expr.Ble (a, b) | Expr.Beq (a, b) ->
                acc := Expr.iexpr_axes a @ Expr.iexpr_axes b @ !acc
              | Expr.Band (a, b) | Expr.Bor (a, b) ->
                gob a;
                gob b
              | Expr.Bnot a -> gob a
            in
            gob cond;
            !acc)
          path)
  in
  match
    List.map
      (fun v ->
        match extent_of v with Some e -> (v, e) | None -> raise Exit)
      vars
  with
  | exception Exit -> `Over_budget
  | extents ->
    let product =
      List.fold_left
        (fun acc (_, e) ->
          if acc > enum_cap then acc else acc * max 1 e)
        1 extents
    in
    if product > enum_cap then `Over_budget
    else begin
      let assign = Array.of_list (List.map (fun (v, _) -> (v, 0)) extents) in
      let exts = Array.of_list (List.map snd extents) in
      let lookup v =
        let rec go i =
          if i >= Array.length assign then raise Not_found
          else if String.equal (fst assign.(i)) v then snd assign.(i)
          else go (i + 1)
        in
        go 0
      in
      let result = ref `Proved in
      (try
         let rec walk i =
           if i = Array.length assign then begin
             let reachable =
               List.for_all
                 (fun (cond, b) ->
                   try Expr.eval_bexpr lookup cond = b
                   with Not_found | Division_by_zero -> false)
                 path
             in
             if reachable then
               match Expr.eval_iexpr lookup e with
               | exception (Not_found | Division_by_zero) -> ()
               | v ->
                 if v < 0 || v >= dim_extent then begin
                   result :=
                     `Unsafe (full_iter ~loops (Array.to_list assign), v);
                   raise Exit
                 end
           end
           else
             for x = 0 to exts.(i) - 1 do
               assign.(i) <- (fst assign.(i), x);
               walk (i + 1)
             done
         in
         walk 0
       with Exit -> ());
      !result
    end

(* ---- the certifier ------------------------------------------------------- *)

(* All accesses of a statement with the select-guard path that must hold
   for each to be evaluated (C ternaries evaluate only the taken branch,
   and the interpreter's [Select] is lazy the same way). *)
let accesses_of_stmt (s : Prog.stmt) =
  let acc = ref [] in
  let rec go path (e : Expr.t) =
    match e with
    | Expr.Const _ | Expr.Cast_int _ -> ()
    | Expr.Access (t, idx) -> acc := (Read, t, idx, List.rev path) :: !acc
    | Expr.Unop (_, a) -> go path a
    | Expr.Binop (_, a, b) ->
      go path a;
      go path b
    | Expr.Select (c, a, b) ->
      go ((c, true) :: path) a;
      go ((c, false) :: path) b
  in
  go [] s.rhs;
  (Write, s.tensor, s.indices, []) :: List.rev !acc

let unproven ~kind ~tensor ~dim ~extent (s : Prog.stmt) =
  Diagnostic.makef ~severity:Diagnostic.Warn ~code:"bounds-unproven"
    ~loc:(Diagnostic.Stage s.stage)
    "%s of %s (stage %s): dimension %d index not proved within [0, %d)"
    (access_kind_name kind) tensor s.stage dim extent

let witness_diag w =
  Diagnostic.makef ~severity:Diagnostic.Error ~code:"out-of-bounds-witness"
    ~loc:(Diagnostic.Stage w.w_stage) "%s" (witness_to_string w)

(* Uncached certification: walks every statement, proves every access
   dimension or finds a witness.  The first witness wins (deterministic:
   statements in program order, accesses write-then-reads, dimensions
   outermost first). *)
let check (prog : Prog.t) : verdict * Diagnostic.t list =
  let diags = ref [] in
  let witness = ref None in
  let unknown = ref false in
  (try
     Prog.iter_stmts prog (fun loops s ->
         let env v =
           List.find_map
             (fun (l : Prog.loop) ->
               if String.equal l.lvar v then Some { I.lo = 0; hi = l.extent - 1 }
               else None)
             loops
         in
         let extent_of v =
           List.find_map
             (fun (l : Prog.loop) ->
               if String.equal l.lvar v then Some l.extent else None)
             loops
         in
         List.iter
           (fun (kind, tensor, indices, path) ->
             match List.assoc_opt tensor prog.buffers with
             | None ->
               (* Validate flags the unknown buffer as an Error already *)
               unknown := true
             | Some shape ->
               if List.length shape <> List.length indices then unknown := true
               else
                 List.iteri
                   (fun dim e ->
                     let extent = List.nth shape dim in
                     (* 1. exact digit hull, falling back to intervals *)
                     let hull =
                       match exact_hull env e with
                       | lo, hi, ranges -> Some (lo, hi, Some ranges)
                       | exception Inexact -> (
                         match I.of_iexpr env e with
                         | Some iv -> Some (iv.I.lo, iv.I.hi, None)
                         | None -> None)
                     in
                     let proven =
                       match hull with
                       | Some (lo, hi, _) -> lo >= 0 && hi < extent
                       | None -> false
                     in
                     (* 1b. a guarded access may be provable from the
                        guard itself even when the raw hull is not: each
                        bound (lower/upper) can come from either
                        source *)
                     let proven =
                       proven
                       || path <> []
                          &&
                          let glo, ghi = guard_refined env path e in
                          let lo_ok =
                            (match hull with
                            | Some (lo, _, _) -> lo >= 0
                            | None -> false)
                            || (match glo with Some l -> l >= 0 | None -> false)
                          and hi_ok =
                            (match hull with
                            | Some (_, hi, _) -> hi < extent
                            | None -> false)
                            ||
                            match ghi with Some h -> h < extent | None -> false
                          in
                          lo_ok && hi_ok
                     in
                     if not proven then begin
                       (* 2. direct witness from the exact hull's arg
                          points (unguarded accesses only) *)
                       let direct =
                         match (path, hull) with
                         | [], Some (lo, hi, Some ranges) ->
                           let at select =
                             List.map (fun r -> (r.vr_var, select r)) ranges
                           in
                           let candidate =
                             if hi >= extent then
                               Some (at (fun r -> r.vr_argmax))
                             else if lo < 0 then
                               Some (at (fun r -> r.vr_argmin))
                             else None
                           in
                           Option.bind candidate (fun assign ->
                               let lookup v =
                                 match List.assoc_opt v assign with
                                 | Some i -> i
                                 | None -> 0
                               in
                               match Expr.eval_iexpr lookup e with
                               | exception Division_by_zero -> None
                               | v when v < 0 || v >= extent ->
                                 Some (full_iter ~loops assign, v)
                               | _ -> None)
                         | _ -> None
                       in
                       let outcome =
                         match direct with
                         | Some (iter, v) -> `Unsafe (iter, v)
                         | None ->
                           enumerate ~loops ~path ~extent_of e
                             ~dim_extent:extent
                       in
                       match outcome with
                       | `Proved -> ()
                       | `Unsafe (iter, v) ->
                         witness :=
                           Some
                             {
                               w_stage = s.stage;
                               w_kind = kind;
                               w_tensor = tensor;
                               w_dim = dim;
                               w_extent = extent;
                               w_index = v;
                               w_iter = iter;
                             };
                         raise Exit
                       | `Over_budget ->
                         unknown := true;
                         diags :=
                           unproven ~kind ~tensor ~dim ~extent s :: !diags
                     end)
                   indices)
           (accesses_of_stmt s))
   with Exit -> ());
  match !witness with
  | Some w -> (Unsafe w, [ witness_diag w ])
  | None ->
    if !unknown then (Unknown, List.rev !diags) else (Certified, [])

(* ---- memoization --------------------------------------------------------- *)

(* Verdicts are pure in the program, so one process-wide LRU keyed by the
   canonical lowered-program hash (the machine-independent core of the
   measurement-cache key) serves every consumer: evolution's mutant
   filter, the native measurement gate, the registry's serving bar and
   [ansor lint].  Not domain-safe — certify only from the owning domain
   (all current call sites run on the calling domain). *)

let memo : (verdict * Diagnostic.t list) Lru.t = Lru.create ~capacity:8192

let certify_full prog : (verdict * Diagnostic.t list) * bool =
  let key = Prog.canonical_hash prog in
  match Lru.find memo key with
  | Some r -> (r, true)
  | None ->
    let r = check prog in
    Lru.add memo key r;
    (r, false)

let certify' prog =
  let (verdict, _), hit = certify_full prog in
  (verdict, hit)

let certify prog = fst (certify' prog)

let diagnostics prog = snd (fst (certify_full prog))
