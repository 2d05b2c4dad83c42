open Ansor_sched

(* Schedule lints over the lowered IR: structural anti-patterns
   ([Warn]) and performance hints ([Info]).  None of these claims a
   miscompile — that is {!Races} — so nothing here is an [Error]. *)

type config = {
  workers : int;  (** worker threads a parallel loop should keep busy *)
  vector_lanes : int;  (** SIMD lanes a vectorized loop should fill *)
  outputs : string list;  (** buffers that are live after the program *)
}

let default_config = { workers = 4; vector_lanes = 8; outputs = [] }

(* Unroll-explosion bar for statements without a pragma limit. *)
let max_unroll_default = 64

let warn ~code ~loc fmt = Diagnostic.makef ~severity:Diagnostic.Warn ~code ~loc fmt
let info ~code ~loc fmt = Diagnostic.makef ~severity:Diagnostic.Info ~code ~loc fmt

(* stride (in elements) of an access along a loop variable; [None] when
   the dependence is not affine in [v] *)
let access_stride v ~shape ~indices =
  match Access.offset shape indices with
  | None -> None
  | Some e -> (
    let vars, d = Access.linear e in
    match Array.find_index (String.equal v) vars with
    | None -> Some 0
    | Some l ->
      if List.exists (fun (t : Access.atom) -> List.mem l t.vars) d.atoms then
        None (* v hidden inside div/mod: gather/scatter *)
      else Some d.coefs.(l))

let check config (prog : Prog.t) =
  let diags = ref [] in
  let emit d = diags := d :: !diags in
  let shapes = prog.buffers in
  let rec walk ~parallel_above ~unroll_product (outer : Prog.loop list) item =
    match item with
    | Prog.Loop l ->
      let loc = Diagnostic.Loop l.lvar in
      (match l.ann with
      | Step.Parallel ->
        if parallel_above then
          emit
            (warn ~code:"nested-parallel" ~loc
               "parallel loop %s nests inside another parallel loop: worker \
                oversubscription"
               l.lvar)
        else if l.extent < config.workers then
          emit
            (info ~code:"parallel-width" ~loc
               "parallel loop %s has extent %d, below the %d workers it \
                should keep busy"
               l.lvar l.extent config.workers)
      | Step.Vectorize ->
        if List.exists (function Prog.Loop _ -> true | _ -> false) l.body then
          emit
            (warn ~code:"vectorize-non-innermost" ~loc
               "vectorized loop %s contains nested loops; vectorization only \
                applies to innermost loops"
               l.lvar);
        if l.extent < config.vector_lanes then
          emit
            (info ~code:"vector-width" ~loc
               "vectorized loop %s has extent %d, below the machine's %d \
                lanes"
               l.lvar l.extent config.vector_lanes)
      | Step.Unroll | Step.No_ann -> ());
      let unroll_product =
        if l.ann = Step.Unroll then unroll_product * l.extent
        else unroll_product
      in
      List.iter
        (walk
           ~parallel_above:(parallel_above || l.ann = Step.Parallel)
           ~unroll_product (l :: outer))
        l.body
    | Prog.Stmt s ->
      (* unroll explosion: the statement is replicated once per iteration
         of every enclosing unrolled loop *)
      let limit = Option.value s.max_unroll ~default:max_unroll_default in
      if unroll_product > limit then
        emit
          (warn ~code:"unroll-explosion" ~loc:(Diagnostic.Stage s.stage)
             "unrolling expands the body of stage %s %d-fold, over its limit \
              of %d"
             s.stage unroll_product limit);
      (* non-unit stride under the nearest vectorized loop *)
      (match
         List.find_opt (fun (l : Prog.loop) -> l.ann = Step.Vectorize) outer
       with
      | None -> ()
      | Some vl ->
        let check_access tensor indices =
          match List.assoc_opt tensor shapes with
          | None -> ()
          | Some shape -> (
            match access_stride vl.lvar ~shape ~indices with
            | Some (0 | 1) -> ()
            | Some stride ->
              emit
                (info ~code:"vector-stride" ~loc:(Diagnostic.Stage s.stage)
                   "stage %s accesses %s with stride %d along vectorized \
                    loop %s"
                   s.stage tensor stride vl.lvar)
            | None ->
              emit
                (info ~code:"vector-gather" ~loc:(Diagnostic.Stage s.stage)
                   "stage %s accesses %s non-affinely along vectorized loop \
                    %s (gather/scatter)"
                   s.stage tensor vl.lvar))
        in
        check_access s.tensor s.indices;
        List.iter
          (fun (t, idx, _) -> check_access t idx)
          (Validate.reads_with_guard s.rhs))
  in
  List.iter (walk ~parallel_above:false ~unroll_product:1 []) prog.items;
  (* dead stores and redundant inits need whole-program read/write sets *)
  let written = Hashtbl.create 16 and read = Hashtbl.create 16 in
  let reducers = Hashtbl.create 16 in
  Prog.iter_stmts prog (fun _ s ->
      Hashtbl.replace written s.tensor ();
      if s.update <> None then Hashtbl.replace reducers s.tensor ();
      List.iter
        (fun (t, _, _) -> Hashtbl.replace read t ())
        (Validate.reads_with_guard s.rhs));
  (* needs the real output set: without it every final output would be
     (wrongly) dead *)
  if config.outputs <> [] then
    Hashtbl.iter
      (fun t () ->
        if (not (Hashtbl.mem read t)) && not (List.mem t config.outputs) then
          emit
            (warn ~code:"dead-store" ~loc:(Diagnostic.Buffer t)
               "buffer %s is written but never read and is not an output" t))
      written;
  List.iter
    (fun (t, v) ->
      if not (Hashtbl.mem reducers t) then
        emit
          (warn ~code:"redundant-init" ~loc:(Diagnostic.Buffer t)
             "buffer %s is initialized to %g but no reduction updates it" t v))
    prog.inits;
  List.rev !diags
