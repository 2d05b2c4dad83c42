open Ansor_sched
module Pool = Ansor_measure_service.Pool
module Telemetry = Ansor_measure_service.Telemetry
module Lru = Ansor_util.Lru
module Features = Ansor_features.Features
module Gbdt = Ansor_gbdt.Gbdt

(* One cached program: its per-statement feature vectors (valid forever —
   featurization is a pure function of the lowered program) and the
   scores computed from them, stamped with the model generation that
   produced them (stale after a retrain, recomputed lazily). *)
type entry = {
  features : float array list;
  n_rows : int;
  mutable scored : (int * float list * float) option;
      (* (model generation, per-statement scores, their sum) *)
}

type t = {
  num_workers : int;
  chunk : int;
  cache : entry Lru.t;
  telemetry : Telemetry.t option;
  mutable model : Cost_model.t;
  mutable generation : int;  (* bumped by every [set_model] *)
  mutable upstream : int option;  (* last generation seen by [sync] *)
}

let default_capacity = 4096

(* Fixed fan-out granularity: chunk boundaries depend only on the batch,
   never on the worker count, so the work partition (and therefore every
   result) is identical for any [num_workers]. *)
let default_chunk = 8

let create ?(capacity = default_capacity) ?telemetry ~num_workers
    (_ : Ansor_machine.Machine.t) =
  {
    num_workers = max 1 num_workers;
    chunk = default_chunk;
    cache = Lru.create ~capacity:(max 1 capacity);
    telemetry;
    model = Cost_model.empty;
    generation = 0;
    upstream = None;
  }

let generation t = t.generation
let cache_size t = Lru.size t.cache

type stats = { hits : int; misses : int; evictions : int }

let stats t =
  { hits = Lru.hits t.cache; misses = Lru.misses t.cache;
    evictions = Lru.evictions t.cache }

let set_model t model =
  (* cached features survive a retrain; cached scores are invalidated by
     the generation stamp, not by walking the LRU *)
  t.model <- model;
  t.generation <- t.generation + 1

let sync t ~generation model =
  if t.upstream <> Some generation then begin
    t.upstream <- Some generation;
    set_model t model
  end

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

(* Resolves every candidate to its cache entry, returning the entries in
   input order and the distinct ones in first-occurrence order.  All cache
   traffic happens on the calling domain; the pool only featurizes the
   unique misses (later duplicates in the batch are hits on the first
   one's entry).  Accounts one scoring batch in telemetry, including the
   caller's own fan-out time ([wall0], [work0]). *)
let resolve ?(wall0 = 0.0) ?(work0 = 0.0) t (cands : Candidate.t list) =
  let hits = ref 0 and misses = ref 0 in
  let ev0 = Lru.evictions t.cache in
  let local : (string, entry option) Hashtbl.t = Hashtbl.create 64 in
  let order_rev = ref [] and miss_rev = ref [] in
  List.iter
    (fun (c : Candidate.t) ->
      if Hashtbl.mem local c.key then incr hits
      else begin
        order_rev := c.key :: !order_rev;
        let found = Lru.find t.cache c.key in
        (* a miss claims the key too, so in-batch duplicates count as
           hits and are featurized once *)
        Hashtbl.replace local c.key found;
        match found with
        | Some _ -> incr hits
        | None ->
          incr misses;
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
      Lru.add t.cache c.key e)
    miss_arr feats;
  (match t.telemetry with
  | Some tm ->
    Telemetry.add_score_batch tm ~hits:!hits ~misses:!misses
      ~evictions:(Lru.evictions t.cache - ev0)
      ~wall:(wall0 +. wall) ~work:(work0 +. work)
  | None -> ());
  let entry key = Option.get (Hashtbl.find local key) in
  ( List.map (fun (c : Candidate.t) -> entry c.key) cands,
    List.rev_map entry !order_rev )

let fresh_scored t e =
  match e.scored with
  | Some (g, ss, total) when g = t.generation -> Some (ss, total)
  | _ -> None

(* Scores the stale ones among [distinct] under the current model in one
   batched GBDT pass, preserving the accumulation order of the sequential
   path ([Cost_model.score_stmts] + [Cost_model.score]'s fold). *)
let compute_scores t distinct =
  let stale = List.filter (fun e -> fresh_scored t e = None) distinct in
  let store e ss =
    e.scored <- Some (t.generation, ss, List.fold_left ( +. ) 0.0 ss)
  in
  match Cost_model.gbdt t.model with
  | None -> List.iter (fun e -> store e (List.map (fun _ -> 0.0) e.features)) stale
  | Some gbdt ->
    let rows = List.filter (fun e -> e.n_rows > 0) stale in
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
    List.iter (fun e -> if e.n_rows = 0 then store e []) stale

let scored ?wall0 ?work0 t cands =
  let entries, distinct = resolve ?wall0 ?work0 t cands in
  compute_scores t distinct;
  List.map
    (fun e -> match fresh_scored t e with Some r -> r | None -> assert false)
    entries

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
