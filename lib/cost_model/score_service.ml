open Ansor_sched
module Pool = Ansor_measure_service.Pool
module Telemetry = Ansor_measure_service.Telemetry
module Features = Ansor_features.Features
module Gbdt = Ansor_gbdt.Gbdt

(* One scored program: its per-statement feature vectors and, once some
   caller asked for them, the scores the service's model gives them. *)
type entry = {
  features : float array list;
  n_rows : int;
  mutable scored : (float list * float) option;
      (* (per-statement scores, their sum) *)
}

type t = {
  num_workers : int;
  chunk : int;
  table : (string, entry) Hashtbl.t;
      (* valid for [model] only: [set_model] empties it *)
  telemetry : Telemetry.t option;
  mutable model : Cost_model.t;
  mutable hits : int;
  mutable misses : int;
}

(* Fixed fan-out granularity: chunk boundaries depend only on the batch,
   never on the worker count, so the work partition (and therefore every
   result) is identical for any [num_workers]. *)
let default_chunk = 8

let create ?telemetry ~num_workers (_ : Ansor_machine.Machine.t) =
  {
    num_workers = max 1 num_workers;
    chunk = default_chunk;
    table = Hashtbl.create 256;
    telemetry;
    model = Cost_model.empty;
    hits = 0;
    misses = 0;
  }

let cache_size t = Hashtbl.length t.table

type stats = { hits : int; misses : int }

let stats (t : t) = { hits = t.hits; misses = t.misses }

let set_model t model =
  t.model <- model;
  Hashtbl.reset t.table

(* ---- deterministic parallel fan-out ------------------------------------- *)

(* Applies [f] to every item on the domain pool in fixed-size chunks;
   results come back in input order.  [f] must be pure — that, plus the
   worker-count-independent chunking, is the determinism argument.
   Returns (results, wall seconds, summed per-chunk work seconds). *)
let fan t f items =
  let n = Array.length items in
  if n = 0 then ([||], 0.0, 0.0)
  else begin
    let nchunks = (n + t.chunk - 1) / t.chunk in
    let t0 = Unix.gettimeofday () in
    let out =
      Pool.run ~num_workers:t.num_workers
        (fun c ->
          let lo = c * t.chunk in
          let len = min t.chunk (n - lo) in
          let c0 = Unix.gettimeofday () in
          let res = Array.init len (fun i -> f items.(lo + i)) in
          (res, Unix.gettimeofday () -. c0))
        (Array.init nchunks Fun.id)
    in
    let wall = Unix.gettimeofday () -. t0 in
    let work = Array.fold_left (fun acc (_, w) -> acc +. w) 0.0 out in
    let results = Array.concat (Array.to_list (Array.map fst out)) in
    (results, wall, work)
  end

(* ---- the batch core ----------------------------------------------------- *)

(* Resolves every candidate to its table entry, returning the entries in
   input order and the distinct ones in first-occurrence order.  All table
   traffic happens on the calling domain; the pool only featurizes the
   unique misses (later duplicates in the batch are hits on the first
   one's entry).  Accounts one scoring batch in telemetry, including the
   caller's own fan-out time ([wall0], [work0]). *)
let resolve ?(wall0 = 0.0) ?(work0 = 0.0) t (cands : Candidate.t list) =
  let hits = ref 0 and misses = ref 0 in
  let local : (string, entry option) Hashtbl.t = Hashtbl.create 64 in
  let order_rev = ref [] and miss_rev = ref [] in
  List.iter
    (fun (c : Candidate.t) ->
      if Hashtbl.mem local c.key then incr hits
      else begin
        order_rev := c.key :: !order_rev;
        let found = Hashtbl.find_opt t.table c.key in
        (* a miss claims the key too, so in-batch duplicates count as
           hits and are featurized once *)
        Hashtbl.replace local c.key found;
        match found with
        | Some _ ->
          incr hits;
          t.hits <- t.hits + 1
        | None ->
          incr misses;
          t.misses <- t.misses + 1;
          miss_rev := c :: !miss_rev
      end)
    cands;
  let miss_arr = Array.of_list (List.rev !miss_rev) in
  let feats, wall, work =
    fan t (fun (c : Candidate.t) -> Features.of_prog c.prog) miss_arr
  in
  Array.iter2
    (fun (c : Candidate.t) features ->
      let e = { features; n_rows = List.length features; scored = None } in
      Hashtbl.replace local c.key (Some e);
      Hashtbl.replace t.table c.key e)
    miss_arr feats;
  (match t.telemetry with
  | Some tm ->
    Telemetry.add_score_batch tm ~hits:!hits ~misses:!misses
      ~wall:(wall0 +. wall) ~work:(work0 +. work)
  | None -> ());
  let entry key = Option.get (Hashtbl.find local key) in
  ( List.map (fun (c : Candidate.t) -> entry c.key) cands,
    List.rev_map entry !order_rev )

(* Scores the unscored ones among [distinct] in one batched GBDT pass,
   preserving the accumulation order of the sequential path
   ([Cost_model.score_stmts] + [Cost_model.score]'s fold). *)
let compute_scores t distinct =
  let unscored = List.filter (fun e -> e.scored = None) distinct in
  let store e ss = e.scored <- Some (ss, List.fold_left ( +. ) 0.0 ss) in
  match Cost_model.gbdt t.model with
  | None ->
    List.iter (fun e -> store e (List.map (fun _ -> 0.0) e.features)) unscored
  | Some gbdt ->
    let rows = List.filter (fun e -> e.n_rows > 0) unscored in
    (match rows with
    | [] -> ()
    | first :: _ ->
      let width = Array.length (List.hd first.features) in
      let matrix = Array.concat (List.concat_map (fun e -> e.features) rows) in
      let preds = Gbdt.predict_batch gbdt ~width matrix in
      ignore
        (List.fold_left
           (fun off e ->
             store e (List.init e.n_rows (fun i -> preds.(off + i)));
             off + e.n_rows)
           0 rows));
    List.iter (fun e -> if e.n_rows = 0 then store e []) unscored

let scored ?wall0 ?work0 t cands =
  let entries, distinct = resolve ?wall0 ?work0 t cands in
  compute_scores t distinct;
  List.map (fun e -> Option.get e.scored) entries

let score t cands = List.map snd (scored t cands)
let stmt_scores t cands = List.map fst (scored t cands)

let features t cands =
  List.map (fun e -> e.features) (fst (resolve t cands))

let score_states t states =
  (* lowering and keying are pure, so they fan out too *)
  let cands, wall, work = fan t Candidate.of_state (Array.of_list states) in
  let cands = Array.to_list cands in
  let scores =
    scored ~wall0:wall ~work0:work t (List.filter_map Fun.id cands)
  in
  snd
    (List.fold_left_map
       (fun scores -> function
         | None -> (scores, Float.neg_infinity)
         | Some _ -> (List.tl scores, snd (List.hd scores)))
       scores cands)
