open Ansor_te
open Ansor_sched
module Rng = Ansor_util.Rng
module Factorize = Ansor_util.Factorize
module Annotate = Ansor_sketch.Annotate
module Score_service = Ansor_cost_model.Score_service

type config = {
  population : int;
  generations : int;
  crossover_prob : float;
  mutate_annotations : bool;
}

let default_config =
  {
    population = 128;
    generations = 4;
    crossover_prob = 0.15;
    mutate_annotations = true;
  }

type scored = { cand : Candidate.t; fitness : float }

let node_of_stage name =
  let strip suffix s =
    if Filename.check_suffix s suffix then
      String.sub s 0 (String.length s - String.length suffix)
    else s
  in
  strip ".local" (strip ".rf" name)

(* What verifying one edited history concluded. *)
type verdict = Dead | Rejected | Verified of Candidate.t

(* Replays an edited history, lowers it into a candidate, and statically
   rejects mutants the race detector proves wrong — the verification
   step of §5.1.  Replay/lowering failures are ordinary dead offspring.
   [static_ok] runs the static check on a lowered candidate. *)
let judge ~static_ok dag steps =
  match Annotate.replay_constrained dag steps ~fill:Annotate.Keep with
  | Error _ -> Dead
  | Ok st -> (
    match Candidate.of_state st with
    | None -> Dead
    | Some c -> if static_ok c then Verified c else Rejected)

(* [on_reject] fires only for the static-analysis rejections
   (telemetry's [statically_rejected]). *)
let conclude ?on_reject = function
  | Verified c -> Some c
  | Dead -> None
  | Rejected ->
    Option.iter (fun f -> f ()) on_reject;
    None

(* Only a race rejects a mutant: the validator and the bounds certifier
   never fired on one, so they run once per measured batch instead, at
   the tuner's measurement boundary. *)
let static_ok (c : Candidate.t) = Ansor_analysis.Races.errors c.prog = []

let verify ?on_reject dag steps =
  conclude ?on_reject (judge ~static_ok dag steps)

(* The verdicts one [evolve] call has reached, by [Step.history_key] of
   the edited history, and the static-check outcome of each program it
   lowered, by [Candidate.key].  Both are pure functions of their key for
   a fixed DAG, so a hit returns exactly what verifying again would; a
   [Rejected] hit still fires [on_reject], so every rejected proposal is
   counted.  The table lives only as long as its [evolve] call: descent
   and later rounds verify afresh (see the .mli for why). *)
type table = {
  histories : (string, verdict) Hashtbl.t;
  programs : (string, bool) Hashtbl.t;
}

let memo tbl key f =
  match Hashtbl.find_opt tbl key with
  | Some v -> v
  | None ->
    let v = f () in
    Hashtbl.add tbl key v;
    v

let verify_in table ?on_reject dag steps =
  let static_ok (c : Candidate.t) =
    memo table.programs c.key (fun () -> static_ok c)
  in
  conclude ?on_reject
    (memo table.histories (Step.history_key steps) (fun () ->
         judge ~static_ok dag steps))

let steps_of (st : State.t) = st.history

(* Stages whose splits are derived from a producer's sizes (compute_at
   targets): their splits must not be mutated directly. *)
let consumer_stages steps =
  List.filter_map
    (function Step.Compute_at { target; _ } -> Some target | _ -> None)
    steps

(* The move vocabulary shared with descent (see the .mli). *)
let tunable_split ~consumers : Step.t -> bool = function
  | Step.Split { stage; lengths; _ } ->
    List.length lengths >= 2 && (not (List.mem stage consumers))
    && List.exists (fun l -> l > 1) lengths
  | _ -> false

let annotation_moves : Step.t -> Step.t list = function
  | Step.Annotate { stage; iv; ann } ->
    List.map
      (fun ann -> Step.Annotate { stage; iv; ann })
      (match ann with
      | Step.Vectorize -> [ Step.Unroll; Step.No_ann; Step.Parallel ]
      | Step.Unroll -> [ Step.Vectorize; Step.No_ann; Step.Parallel ]
      | Step.Parallel -> [ Step.No_ann ]
      | Step.No_ann -> [ Step.Vectorize; Step.Unroll; Step.Parallel ])
  | Step.Fuse { stage; ivs } when List.length ivs >= 3 ->
    (* coarsen the parallel granularity: fuse one level fewer *)
    [ Step.Fuse { stage; ivs = List.rev (List.tl (List.rev ivs)) } ]
  | _ -> []

let other_unroll_steps (policy : Ansor_sketch.Policy.t) current =
  List.filter (fun v -> v <> current) policy.unroll_steps

let replace_nth l n x = List.mapi (fun i y -> if i = n then x else y) l

(* Each operator below sends its edited history through [check] and
   returns what it returns: plain [verify] when called on its own, the
   call's table inside [evolve]. *)
let tile_sizes check rng st =
  let steps = steps_of st in
  let consumers = consumer_stages steps in
  let candidates =
    List.mapi (fun i s -> (i, s)) steps
    |> List.filter_map (fun (i, s) ->
           match (s : Step.t) with
           | Step.Split { stage; iv; lengths; _ }
             when tunable_split ~consumers s ->
             Some (i, stage, iv, lengths)
           | _ -> None)
  in
  match candidates with
  | [] -> None
  | _ ->
    let i, stage, iv, lengths = Rng.choice_list rng candidates in
    let k = List.length lengths in
    let sources =
      List.filter (fun p -> List.nth lengths p > 1) (List.init k Fun.id)
    in
    let src = Rng.choice_list rng sources in
    let dst =
      let others = List.filter (fun p -> p <> src) (List.init k Fun.id) in
      Rng.choice_list rng others
    in
    let factor =
      (* move either a prime factor (small step) or a larger divisor
         (bigger hop through the tile-size lattice) *)
      let l = List.nth lengths src in
      if Rng.bool rng then Rng.choice_list rng (Factorize.prime_factors l)
      else
        Rng.choice_list rng
          (List.filter (fun d -> d > 1) (Factorize.divisors l))
    in
    let lengths =
      List.mapi
        (fun p l ->
          if p = src then l / factor else if p = dst then l * factor else l)
        lengths
    in
    check (replace_nth steps i (Step.Split { stage; iv; lengths; tbd = false }))

let annotation check rng st =
  let steps = steps_of st in
  let indexed = List.mapi (fun i s -> (i, s)) steps in
  let ann_edits =
    List.concat_map
      (fun (i, s) -> List.map (fun s' -> `Replace (i, s')) (annotation_moves s))
      indexed
  in
  (* also annotate a currently-bare iterator: the step semantics accept
     any placement (e.g. Parallel over a reduction axis) and the static
     race filter in [verify] rejects the mutants that would miscompile *)
  let fresh_edits =
    List.concat_map
      (fun name ->
        let s = State.find_stage st name in
        List.concat_map
          (fun iv ->
            if (State.ivar s iv).State.ann = Step.No_ann then
              List.map
                (fun ann -> `Append (Step.Annotate { stage = name; iv; ann }))
                [ Step.Parallel; Step.Vectorize; Step.Unroll ]
            else [])
          s.State.leaves)
      (State.stage_names st)
  in
  match ann_edits @ fresh_edits with
  | [] -> None
  | edits -> (
    match Rng.choice_list rng edits with
    | `Replace (i, step) -> check (replace_nth steps i step)
    | `Append step -> check (steps @ [ step ]))

let pragma check rng (policy : Ansor_sketch.Policy.t) st =
  let steps = steps_of st in
  let candidates =
    List.mapi (fun i s -> (i, s)) steps
    |> List.filter_map (fun (i, s) ->
           match (s : Step.t) with
           | Step.Pragma_unroll { stage; max_step } -> Some (i, stage, max_step)
           | _ -> None)
  in
  match candidates with
  | [] -> None
  | _ ->
    let i, stage, old = Rng.choice_list rng candidates in
    let choices = other_unroll_steps policy old in
    if choices = [] then None
    else
      let max_step = Rng.choice_list rng choices in
      check (replace_nth steps i (Step.Pragma_unroll { stage; max_step }))

let location check rng st =
  let steps = steps_of st in
  (* last compute_at per stage decides its location *)
  let last_by_stage = Hashtbl.create 4 in
  List.iteri
    (fun i s ->
      match (s : Step.t) with
      | Step.Compute_at { stage; _ } -> Hashtbl.replace last_by_stage stage i
      | _ -> ())
    steps;
  let candidates = Hashtbl.fold (fun _ i acc -> i :: acc) last_by_stage [] in
  match candidates with
  | [] -> None
  | _ -> (
    let i = Rng.choice_list rng candidates in
    match List.nth steps i with
    | Step.Compute_at { stage; target; target_iv; bindings } ->
      let coarser = List.filteri (fun j _ -> j mod 2 = 0) bindings in
      let variants =
        List.filter (fun b -> b <> bindings) [ coarser; [] ]
      in
      if variants = [] then None
      else
        let bindings = Rng.choice_list rng variants in
        (* appending keeps the original step so consumer-split constraints
           stay solvable; the last step wins for placement *)
        check
          (steps @ [ Step.Compute_at { stage; target; target_iv; bindings } ])
    | _ -> None)

let mutate_tile_sizes ?on_reject rng dag st =
  tile_sizes (verify ?on_reject dag) rng st

let mutate_annotation ?on_reject rng dag st =
  annotation (verify ?on_reject dag) rng st

let mutate_pragma ?on_reject rng policy dag st =
  pragma (verify ?on_reject dag) rng policy st

let mutate_location ?on_reject rng dag st =
  location (verify ?on_reject dag) rng st

(* ---- crossover ---------------------------------------------------------- *)

let is_annotation_step seen_compute_at (s : Step.t) =
  match s with
  | Step.Annotate _ | Step.Pragma_unroll _ | Step.Fuse _ -> true
  | Step.Compute_at { stage; _ } -> Hashtbl.mem seen_compute_at stage
  | _ -> false

(* Splits a history into (structural steps, annotation steps); the first
   compute_at of each stage is structural, repeats are annotations. *)
let classify steps =
  let seen = Hashtbl.create 4 in
  List.partition_map
    (fun (s : Step.t) ->
      if is_annotation_step seen s then Right s
      else begin
        (match s with
        | Step.Compute_at { stage; _ } -> Hashtbl.replace seen stage ()
        | _ -> ());
        Left s
      end)
    steps

(* Per-DAG-node score totals of one candidate: [scores] holds one score
   per innermost statement, in [Prog.iter_stmts] order (which is
   [Access.analyze] order). *)
let node_scores (c : Candidate.t) scores =
  let stages = ref [] in
  Prog.iter_stmts c.prog (fun _ (s : Prog.stmt) -> stages := s.stage :: !stages);
  let tbl = Hashtbl.create 8 in
  List.iter2
    (fun stage s ->
      let node = node_of_stage stage in
      let cur = Option.value ~default:0.0 (Hashtbl.find_opt tbl node) in
      Hashtbl.replace tbl node (cur +. s))
    (List.rev !stages) scores;
  fun node -> Option.value ~default:0.0 (Hashtbl.find_opt tbl node)

let cross check ~scorer rng ~greedy_node_prob dag (a : Candidate.t)
    (b : Candidate.t) =
  let score_a, score_b =
    match Score_service.stmt_scores scorer [ a; b ] with
    | [ sa; sb ] -> (node_scores a sa, node_scores b sb)
    | _ -> assert false
  in
  let nodes =
    Array.to_list (Dag.ops dag)
    |> List.filter_map (fun op ->
           match op with
           | Op.Compute { name; _ } -> Some name
           | Op.Placeholder _ -> None)
  in
  let choice = Hashtbl.create 8 in
  List.iter
    (fun n ->
      let pick_greedy = Rng.float rng 1.0 < greedy_node_prob in
      let from_a =
        if pick_greedy then score_a n >= score_b n else Rng.bool rng
      in
      Hashtbl.replace choice n from_a)
    nodes;
  let from_a stage =
    Option.value ~default:true (Hashtbl.find_opt choice (node_of_stage stage))
  in
  let a_structural, a_ann = classify (steps_of a.state) in
  let b_structural, b_ann = classify (steps_of b.state) in
  let find_b_lengths ~stage ~iv ~k ~rf =
    List.find_map
      (fun (s : Step.t) ->
        match (s, rf) with
        | Step.Split { stage = s2; iv = iv2; lengths; _ }, false
          when String.equal s2 stage && iv2 = iv && List.length lengths = k ->
          Some lengths
        | Step.Rfactor { stage = s2; iv = iv2; lengths; _ }, true
          when String.equal s2 stage && iv2 = iv && List.length lengths = k ->
          Some lengths
        | _ -> None)
      b_structural
  in
  let exception Mismatch in
  match
    List.map
      (fun (s : Step.t) ->
        match s with
        | Step.Split { stage; iv; lengths; tbd } when not (from_a stage) -> (
          match find_b_lengths ~stage ~iv ~k:(List.length lengths) ~rf:false with
          | Some lengths -> Step.Split { stage; iv; lengths; tbd }
          | None -> raise Mismatch)
        | Step.Rfactor { stage; iv; lengths; tbd } when not (from_a stage) -> (
          match find_b_lengths ~stage ~iv ~k:(List.length lengths) ~rf:true with
          | Some lengths -> Step.Rfactor { stage; iv; lengths; tbd }
          | None -> raise Mismatch)
        | s -> s)
      a_structural
  with
  | exception Mismatch -> None
  | structural ->
    let ann =
      List.filter (fun s -> from_a (Step.stage_of s)) a_ann
      @ List.filter (fun s -> not (from_a (Step.stage_of s))) b_ann
    in
    check (structural @ ann)

let crossover ?on_reject ~scorer rng ~greedy_node_prob dag a b =
  cross (verify ?on_reject dag) ~scorer rng ~greedy_node_prob dag a b

(* ---- main loop ---------------------------------------------------------- *)

let evolve ?on_reject ~scorer rng config policy dag ~init ~out =
  (* Batch fitness: one call per generation instead of one featurization
     per child.  The scoring service's bit-identity contract keeps
     results equal to the sequential per-program fold, and fitness
     consumes no RNG, so deferring it after child generation leaves the
     random stream untouched. *)
  let with_fitness cands =
    List.map2
      (fun cand fitness -> { cand; fitness })
      cands
      (Score_service.score scorer cands)
  in
  let check =
    verify_in
      { histories = Hashtbl.create 1024; programs = Hashtbl.create 1024 }
      ?on_reject dag
  in
  (* every distinct program seen, under the first history that reached
     it; its fitness is a function of the program alone *)
  let best = Hashtbl.create 64 in
  let remember s =
    if not (Hashtbl.mem best s.cand.key) then Hashtbl.add best s.cand.key s
  in
  let population = Array.of_list (with_fitness init) in
  Array.iter remember population;
  let pop = ref population in
  for _gen = 1 to config.generations do
    let cur = !pop in
    let n = Array.length cur in
    if n > 0 then begin
      let min_fit =
        Array.fold_left (fun acc s -> Float.min acc s.fitness) infinity cur
      in
      let weights =
        Array.map (fun s -> s.fitness -. min_fit +. 1e-3) cur
      in
      let select () = cur.(Rng.weighted_index rng weights).cand in
      let target_size = max config.population n in
      (* elitism: the best tenth survives unchanged *)
      let sorted = Array.copy cur in
      Array.sort (fun a b -> compare b.fitness a.fitness) sorted;
      let elite = max 1 (target_size / 10) in
      let n_elites = min elite (Array.length sorted) in
      let elites = List.init n_elites (fun i -> sorted.(i)) in
      (* generate the whole offspring wave first (all RNG consumption),
         then score it in one batch *)
      let children_rev = ref [] in
      for _ = 1 to target_size - n_elites do
        let parent = select () in
        let child =
          if Rng.float rng 1.0 < config.crossover_prob then
            cross check ~scorer rng ~greedy_node_prob:0.8 dag parent (select ())
          else begin
            (* chain 1-3 mutations (geometric): multi-step moves escape
               plateaus that single-factor steps cannot *)
            let mutate_once (c : Candidate.t) =
              let st = c.state in
              if config.mutate_annotations then
                match Rng.int rng 4 with
                | 0 -> tile_sizes check rng st
                | 1 -> annotation check rng st
                | 2 -> pragma check rng policy st
                | _ -> location check rng st
              else tile_sizes check rng st
            in
            let rec chain c changed =
              match mutate_once c with
              | None -> if changed then Some c else None
              | Some c' ->
                if Rng.float rng 1.0 < 0.2 then chain c' true else Some c'
            in
            chain parent false
          end
        in
        children_rev := Option.value child ~default:parent :: !children_rev
      done;
      let scored_children = with_fitness (List.rev !children_rev) in
      List.iter remember scored_children;
      (* same array layout the incremental loop produced:
         [c_m .. c_1, elite_{e-1} .. elite_0] *)
      pop := Array.of_list (List.rev_append scored_children (List.rev elites))
    end
  done;
  Hashtbl.fold (fun _ s acc -> s :: acc) best []
  |> List.sort (fun a b -> compare b.fitness a.fitness)
  |> List.filteri (fun i _ -> i < out)

(* Plateau detector: the trigger signal for the exploitation descent
   stage.  Purely observational — the tuner feeds it the best-so-far
   latency after each evolutionary round and a stall is reported once
   [patience] consecutive observations fail to improve it. *)
module Plateau = struct
  type t = { patience : int; mutable best : float; mutable stall : int }

  let create ~patience =
    { patience = max 1 patience; best = infinity; stall = 0 }

  let observe t best_latency =
    if best_latency < t.best then begin
      t.best <- best_latency;
      t.stall <- 0
    end
    else t.stall <- t.stall + 1;
    t.stall >= t.patience

  let stalled t = t.stall >= t.patience
  let stall t = t.stall

  let restore ~patience ~best ~stall =
    { patience = max 1 patience; best; stall = max 0 stall }
end
