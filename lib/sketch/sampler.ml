module Rng = Ansor_util.Rng
open Ansor_sched

(* One random complete program, finished by [finish]: it lowers the
   annotated state and rejects it when lowering deems it illegal (e.g. an
   attached reduction that would be re-invoked).  Lowering draws no
   RNG, so every [finish] sees the same random stream. *)
let draw finish rng policy dag ~sketches =
  match sketches with
  | [] -> None
  | _ ->
    let attempt () =
      let sketch = Rng.choice_list rng sketches in
      match
        Annotate.replay_constrained dag (Gen.sketch_steps sketch)
          ~fill:(Annotate.Random_fill rng)
      with
      | Error _ -> None
      | Ok st -> (
        match Annotate.annotate rng policy st with
        | Ok st -> finish st
        | Error _ -> None)
    in
    let rec retry k = if k = 0 then None else
        match attempt () with Some x -> Some x | None -> retry (k - 1)
    in
    retry 10

let lowers st =
  match Lower.lower st with _prog -> Some st | exception State.Illegal _ -> None

let sample_one rng policy dag ~sketches = draw lowers rng policy dag ~sketches

let draw_n finish rng policy dag ~sketches ~n =
  List.filter_map
    (fun _ -> draw finish rng policy dag ~sketches)
    (List.init n Fun.id)

let sample = draw_n lowers
let sample_candidates = draw_n Candidate.of_state
