(* Evolutionary search: every operator produces verified programs that
   remain functionally equivalent to the naive computation. *)

open Helpers
module Step = Ansor.Step
module State = Ansor.State
module Evolution = Ansor.Evolution
module Cost_model = Ansor.Cost_model
module Lower = Ansor.Lower
module Simulator = Ansor.Simulator
module Machine = Ansor.Machine
module Policy = Ansor.Policy
module Rng = Ansor.Rng

let cpu_policy = Policy.cpu ~workers:20

let test_node_of_stage () =
  check_string "plain" "C" (Evolution.node_of_stage "C");
  check_string "cache" "C" (Evolution.node_of_stage "C.local");
  check_string "rfactor" "Sq" (Evolution.node_of_stage "Sq.rf");
  check_string "other dots kept" "Conv0.x" (Evolution.node_of_stage "Conv0.x")

let sampled dag seed n = sample_programs ~seed ~n dag

(* generic operator test: applied to a population of sampled programs, an
   operator either returns None or a program that is correct and distinct
   when it claims to have changed something *)
let operator_preserves_correctness name op dag =
  let rng = Rng.create 99 in
  let changed = ref 0 in
  List.iter
    (fun st ->
      match op rng dag st with
      | None -> ()
      | Some (c : Ansor.Candidate.t) ->
        incr changed;
        assert_state_correct c.state)
    (sampled dag 21 12);
  check_bool (name ^ " produced at least one offspring") true (!changed > 0)

let test_tile_mutation_correct () =
  operator_preserves_correctness "tile mutation" Evolution.mutate_tile_sizes
    (Ansor.Nn.matmul_relu ~m:16 ~n:16 ~k:16 ())

let test_tile_mutation_preserves_extents () =
  let dag = Ansor.Nn.matmul ~m:16 ~n:16 ~k:16 () in
  let rng = Rng.create 5 in
  List.iter
    (fun st ->
      match Evolution.mutate_tile_sizes rng dag st with
      | None -> ()
      | Some { Ansor.Candidate.state = st'; _ } ->
        (* split products still match loop lengths: for every stage, the
           product of leaf extents equals the stage's iteration space *)
        List.iter
          (fun name ->
            let s = State.find_stage st' name in
            let product =
              List.fold_left
                (fun acc iv -> acc * (State.ivar s iv).extent)
                1 s.leaves
            in
            let expect =
              Ansor.Op.output_elems s.op * Ansor.Op.reduce_extent s.op
            in
            check_int (name ^ " iteration space preserved") expect product)
          (State.stage_names st'))
    (sampled dag 22 10)

let test_annotation_mutation_correct () =
  operator_preserves_correctness "annotation mutation"
    Evolution.mutate_annotation
    (Ansor.Nn.matmul_relu ~m:16 ~n:16 ~k:16 ())

let test_pragma_mutation_correct () =
  operator_preserves_correctness "pragma mutation"
    (fun rng dag st -> Evolution.mutate_pragma rng cpu_policy dag st)
    (Ansor.Nn.matmul ~m:16 ~n:16 ~k:16 ())

let test_location_mutation_correct () =
  operator_preserves_correctness "location mutation" Evolution.mutate_location
    (Ansor.Nn.matmul_relu ~m:16 ~n:16 ~k:16 ())

let test_location_mutation_none_without_attachment () =
  (* programs without compute_at have no location to mutate *)
  let dag = Ansor.Nn.matmul ~m:16 ~n:16 ~k:16 () in
  let rng = Rng.create 7 in
  let plain = State.init dag in
  check_bool "no attachment, no mutation" true
    (Evolution.mutate_location rng dag plain = None)

let test_crossover_correct () =
  let dag = Ansor.Nn.matmul_relu ~m:16 ~n:16 ~k:16 () in
  let rng = Rng.create 31 in
  let pop = Array.of_list (candidates (sampled dag 23 12)) in
  let scorer = scorer () in
  let produced = ref 0 in
  for i = 0 to Array.length pop - 2 do
    match
      Evolution.crossover ~scorer rng ~greedy_node_prob:0.5 dag pop.(i)
        pop.(i + 1)
    with
    | None -> ()
    | Some child ->
      incr produced;
      assert_state_correct child.state
  done;
  check_bool "some crossovers verified" true (!produced > 0)

let test_crossover_mixes_genes () =
  (* with greedy_node_prob 0 the node choice is random; across many tries
     a child differing from both parents should appear *)
  let dag = Ansor.Nn.matmul_relu ~m:16 ~n:16 ~k:16 () in
  let rng = Rng.create 32 in
  match candidates (sampled dag 24 2) with
  | [ a; b ] ->
    let ka = Step.history_key a.state.history
    and kb = Step.history_key b.state.history in
    let scorer = scorer () in
    let mixed = ref false in
    for _ = 1 to 30 do
      match Evolution.crossover ~scorer rng ~greedy_node_prob:0.0 dag a b with
      | Some c ->
        let kc = Step.history_key c.state.history in
        if kc <> ka && kc <> kb then mixed := true
      | None -> ()
    done;
    check_bool "offspring differs from both parents" true !mixed
  | _ -> Alcotest.fail "sampling failed"

let test_evolve_returns_sorted_distinct () =
  let dag = Ansor.Nn.matmul ~m:32 ~n:32 ~k:32 () in
  let rng = Rng.create 41 in
  let init = candidates (sampled dag 25 16) in
  let config =
    { Evolution.default_config with population = 24; generations = 2 }
  in
  let out =
    Evolution.evolve ~scorer:(scorer ()) rng config cpu_policy dag ~init ~out:8
  in
  check_bool "returns up to 8" true (List.length out <= 8 && out <> []);
  let fitnesses = List.map (fun (s : Evolution.scored) -> s.fitness) out in
  check_bool "sorted descending" true
    (List.sort (fun a b -> compare b a) fitnesses = fitnesses);
  let keys =
    List.map (fun (s : Evolution.scored) -> Step.history_key s.cand.state.history) out
  in
  check_int "distinct" (List.length keys)
    (List.length (List.sort_uniq compare keys))

(* Two evolve calls on matmuls of different sizes, both from the bare
   schedule: their annotation mutants have equal histories, so a verdict
   table keyed by history alone that outlived one call would hand the
   second call the first DAG's programs. *)
let test_evolve_verifies_its_own_dag () =
  let config =
    { Evolution.default_config with population = 16; generations = 2 }
  in
  List.iter
    (fun n ->
      let dag = Ansor.Nn.matmul ~m:n ~n ~k:n () in
      let out =
        Evolution.evolve ~scorer:(scorer ()) (Rng.create 3) config cpu_policy
          dag ~init:(candidates [ State.init dag ]) ~out:8
      in
      check_bool "offspring returned" true (List.length out > 1);
      List.iter
        (fun (s : Evolution.scored) ->
          match Evolution.verify dag s.cand.state.history with
          | Some c -> check_string "program of this DAG" c.key s.cand.key
          | None -> Alcotest.fail "returned history does not verify")
        out)
    [ 16; 32; 16 ]

let test_evolve_improves_with_model () =
  (* train a model on measured samples; evolution guided by it should find
     programs whose true latency beats the best random sample *)
  let dag = Ansor.Nn.matmul ~m:128 ~n:128 ~k:128 () in
  let machine = Machine.intel_cpu in
  let init = sampled dag 26 40 in
  let latency st = Simulator.estimate machine (Lower.lower st) in
  let records =
    List.map
      (fun st ->
        Cost_model.record_of_prog ~task_key:"t" ~latency:(latency st)
          (Lower.lower st))
      init
  in
  let model = Cost_model.train records in
  let rng = Rng.create 43 in
  let config =
    { Evolution.default_config with population = 48; generations = 4 }
  in
  let out =
    Evolution.evolve ~scorer:(scorer ~model ()) rng config cpu_policy dag
      ~init:(candidates init) ~out:16
  in
  let best_random =
    List.fold_left (fun acc st -> Float.min acc (latency st)) infinity init
  in
  let best_evolved =
    List.fold_left
      (fun acc (s : Evolution.scored) -> Float.min acc (latency s.cand.state))
      infinity out
  in
  check_bool
    (Printf.sprintf "evolved %.4gms <= random %.4gms" (best_evolved *. 1e3)
       (best_random *. 1e3))
    true
    (best_evolved <= best_random *. 1.05)

let () =
  Alcotest.run "evolution"
    [
      ("naming", [ case "node_of_stage" test_node_of_stage ]);
      ( "mutations",
        [
          case "tile sizes correct" test_tile_mutation_correct;
          case "tile sizes preserve extents" test_tile_mutation_preserves_extents;
          case "annotation correct" test_annotation_mutation_correct;
          case "pragma correct" test_pragma_mutation_correct;
          case "location correct" test_location_mutation_correct;
          case "location needs attachment" test_location_mutation_none_without_attachment;
        ] );
      ( "crossover",
        [
          case "verified offspring" test_crossover_correct;
          case "mixes genes" test_crossover_mixes_genes;
        ] );
      ( "evolve",
        [
          case "sorted distinct output" test_evolve_returns_sorted_distinct;
          case "verifies against its own DAG" test_evolve_verifies_its_own_dag;
          case "model-guided improvement" test_evolve_improves_with_model;
        ] );
    ]
