open Ansor_sched
module Factorize = Ansor_util.Factorize
module Evolution = Ansor_evolution.Evolution
module Score_service = Ansor_cost_model.Score_service
module Policy = Ansor_sketch.Policy

type config = { budget_fraction : float; plateau_sweeps : int }

let default_config = { budget_fraction = 0.75; plateau_sweeps = 2 }

(* Line-search moves per coordinate and sweep. *)
let max_walk = 8

(* Winners measured per sweep: the top-scoring ones, which keeps sweeps
   cheap and re-anchoring frequent. *)
let max_probes = 16

(* A tunable coordinate is one editable step of the incumbent's history,
   addressed by index.  Every edit is a same-index replacement, so the
   history length — and with it every other coordinate's address — is
   invariant across a sweep. *)
type coord =
  | Split_levels of int
  | Unroll_pragma of int
  | Annotation of int
  | Fuse_extent of int

let coord_index = function
  | Split_levels i | Unroll_pragma i | Annotation i | Fuse_extent i -> i

type cursor = {
  current : Step.t list;
  sweeps : int;
  non_improving : int;
  finished : bool;
}

let start (st : State.t) =
  { current = st.State.history; sweeps = 0; non_improving = 0; finished = false }

let coordinates (st : State.t) =
  let steps = st.State.history in
  let consumers = Evolution.consumer_stages steps in
  List.mapi
    (fun i (s : Step.t) ->
      match s with
      | Step.Split _ when Evolution.tunable_split ~consumers s ->
        Some (Split_levels i)
      | Step.Pragma_unroll _ -> Some (Unroll_pragma i)
      | Step.Annotate _ -> Some (Annotation i)
      | Step.Fuse _ when Evolution.annotation_moves s <> [] -> Some (Fuse_extent i)
      | _ -> None)
    steps
  |> List.filter_map Fun.id

let replace_nth = Evolution.replace_nth

(* Raw edited histories one lattice move away along [coord] — the same
   moves evolution's mutation operators draw at random, enumerated
   exhaustively and in a fixed order (no RNG anywhere in this module:
   that is what makes the stage bit-identical across worker counts). *)
let proposals ~(policy : Policy.t) (st : State.t) coord : Step.t list list =
  let steps = st.State.history in
  match (coord, List.nth steps (coord_index coord)) with
  | Split_levels i, Step.Split { stage; iv; lengths; _ } ->
    let arr = Array.of_list lengths in
    let n = Array.length arr in
    let seen = Hashtbl.create 8 in
    let out = ref [] in
    for src = 0 to n - 1 do
      let primes =
        List.sort_uniq compare (Factorize.prime_factors arr.(src))
      in
      List.iter
        (fun p ->
          for dst = 0 to n - 1 do
            if dst <> src then begin
              let arr' = Array.copy arr in
              arr'.(src) <- arr'.(src) / p;
              arr'.(dst) <- arr'.(dst) * p;
              let lengths' = Array.to_list arr' in
              if not (Hashtbl.mem seen lengths') then begin
                Hashtbl.replace seen lengths' ();
                out :=
                  replace_nth steps i
                    (Step.Split { stage; iv; lengths = lengths'; tbd = false })
                  :: !out
              end
            end
          done)
        primes
    done;
    List.rev !out
  | Unroll_pragma i, Step.Pragma_unroll { stage; max_step } ->
    List.map
      (fun v -> replace_nth steps i (Step.Pragma_unroll { stage; max_step = v }))
      (Evolution.other_unroll_steps policy max_step)
  | Annotation i, (Step.Annotate _ as s) | Fuse_extent i, (Step.Fuse _ as s) ->
    List.map (replace_nth steps i) (Evolution.annotation_moves s)
  | _ -> []

(* Every neighbor goes through exactly the gate evolution offspring do
   ({!Evolution.verify}): constrained replay, lowering, and the race
   detector's errors, so a racy program never reaches scoring.
   [on_reject] fires for the statically-rejected ones. *)
let neighbors ?on_reject ~policy dag st coord =
  List.filter_map (Evolution.verify ?on_reject dag) (proposals ~policy st coord)

let argmax scores =
  List.fold_left
    (fun (bi, bs) (i, s) -> if s > bs then (i, s) else (bi, bs))
    (-1, neg_infinity)
    (List.mapi (fun i s -> (i, s)) scores)

(* Greedy line search along one coordinate: from the anchor, keep taking
   the best-scoring unvisited lattice move (first index wins ties, so
   the walk is deterministic) while the model keeps strictly improving,
   up to [max_walk] moves.  Points are programs: a move that lowers to a
   program already visited is not taken.  Returns every (candidate,
   score) pair the walk scored — the explored stretch of the line — so
   the caller can pick the most promising *unmeasured* point on it.
   Scoring is one batched call per step, so it stays pooled and
   feature-cached in the scoring service. *)
let line_search ~scorer ?on_reject ~policy dag (w : Candidate.t) coord =
  let visited = Hashtbl.create 8 in
  Hashtbl.replace visited w.key ();
  let acc = ref [] in
  let rec go (w : State.t) prev_score steps_left =
    if steps_left > 0 then
      let vars =
        neighbors ?on_reject ~policy dag w coord
        |> List.filter (Candidate.first_seen visited)
      in
      match vars with
      | [] -> ()
      | _ ->
        let scores = Score_service.score scorer vars in
        acc := !acc @ List.combine vars scores;
        let best_i, best_s = argmax scores in
        if best_i >= 0 && best_s > prev_score then
          go (List.nth vars best_i).state best_s (steps_left - 1)
  in
  go w.state neg_infinity max_walk;
  !acc

(* One coordinate sweep from the cursor's incumbent: line-search every
   coordinate in order and nominate, per coordinate, the best-scoring
   point on its line that nothing has measured yet.  These per-coordinate
   winners — and only these — reach the measurement service; whether one
   of them actually improves the incumbent is decided by measurement
   ([advance]'s [improved]), not by the model, which is what makes the
   plateau stop a *measured* plateau. *)
let sweep ~dag ~policy ~scorer ?on_reject ~measured cursor =
  match
    Result.map Candidate.of_state (State.replay_checked dag cursor.current)
  with
  | Error e -> Error e
  | Ok None -> Error "the incumbent no longer lowers"
  | Ok (Some start) ->
    let coords = coordinates start.state in
    let seen = Hashtbl.create 16 in
    Hashtbl.replace seen start.key ();
    let fresh (c : Candidate.t) =
      not (Hashtbl.mem seen c.key) && not (measured c.key)
    in
    let winners = ref [] in
    List.iteri
      (fun rank coord ->
        let line = line_search ~scorer ?on_reject ~policy dag start coord in
        let cands = List.filter (fun (c, _) -> fresh c) line in
        let best_i, best_s = argmax (List.map snd cands) in
        if best_i >= 0 then begin
          let (c : Candidate.t), _ = List.nth cands best_i in
          Hashtbl.replace seen c.key ();
          winners := (rank, best_s, c) :: !winners
        end)
      coords;
    (* measure only the [max_probes] most promising winners this sweep;
       ties break by coordinate order, so the cut is deterministic *)
    let top =
      List.stable_sort
        (fun (r1, s1, _) (r2, s2, _) ->
          if s1 <> s2 then compare s2 s1 else compare r1 r2)
        (List.rev !winners)
      |> List.filteri (fun i _ -> i < max_probes)
    in
    (* hand them over in coordinate order to keep batch order stable *)
    let top = List.sort (fun (r1, _, _) (r2, _, _) -> compare r1 r2) top in
    Ok (List.map (fun (_, _, c) -> c) top)

(* Advance the cursor with the sweep's measured outcome: an improving
   sweep re-anchors the walk on the new incumbent, a non-improving one
   counts toward the plateau stop (k = [plateau_sweeps]). *)
let advance cfg cursor ~improved ~best =
  let cursor =
    if improved then
      { cursor with current = best; non_improving = 0; sweeps = cursor.sweeps + 1 }
    else
      {
        cursor with
        non_improving = cursor.non_improving + 1;
        sweeps = cursor.sweeps + 1;
      }
  in
  if cursor.non_improving >= cfg.plateau_sweeps then
    { cursor with finished = true }
  else cursor
