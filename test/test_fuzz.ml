(* Schedule fuzzer: random walks through the space of LEGAL transform
   steps — including combinations the sketch rules never generate — must
   preserve functional correctness whenever lowering accepts the state.

   This explores a much wider region than the sampler-based property
   tests: arbitrary split factorizations, fusions at any position,
   arbitrary reorders, surgery on any pristine stage, followed by random
   annotations. *)

open Helpers
module Step = Ansor.Step
module State = Ansor.State
module Lower = Ansor.Lower
module Rng = Ansor.Rng
module Factorize = Ansor.Factorize

(* A random step for the current state, if it has a stage.  The step kind
   is drawn among those whose shape preconditions the drawn stage meets:
   enough loops (a scalar output has none, a fused reduction one) and, for
   cache-write and rfactor, a pristine stage.  A draw never goes to a kind
   that cannot apply, so every walk keeps making progress. *)
let random_step rng (st : State.t) =
  let stage_names = Array.of_list (State.stage_names st) in
  if Array.length stage_names = 0 then None
  else begin
    let name = Rng.choice rng stage_names in
    let s = State.find_stage st name in
    let leaves = Array.of_list s.State.leaves in
    let pick_leaf () = Rng.choice rng leaves in
    let n_leaves = Array.length leaves and pristine = State.is_pristine s in
    let kinds =
      List.filter
        (function
          | 1 | 2 -> n_leaves >= 2
          | 0 | 3 -> n_leaves >= 1
          | 5 -> pristine
          | 6 -> n_leaves >= 1 && pristine
          | _ -> true)
        (List.init 8 Fun.id)
    in
    match Rng.choice rng (Array.of_list kinds) with
    | 0 ->
      (* split a random leaf into 2-3 random factors *)
      let iv = pick_leaf () in
      let extent = (State.ivar s iv).State.extent in
      let parts = 2 + Rng.int rng 2 in
      Some
        (Step.Split
           {
             stage = name;
             iv;
             lengths = Factorize.random_factorization rng extent parts;
             tbd = false;
           })
    | 1 ->
      (* fuse a random adjacent pair *)
      let pos = Rng.int rng (Array.length leaves - 1) in
      Some (Step.Fuse { stage = name; ivs = [ leaves.(pos); leaves.(pos + 1) ] })
    | 2 ->
      (* random permutation *)
      let order = Array.copy leaves in
      Rng.shuffle rng order;
      Some (Step.Reorder { stage = name; order = Array.to_list order })
    | 3 ->
      let ann =
        match Rng.int rng 3 with
        | 0 -> Step.Parallel
        | 1 -> Step.Vectorize
        | _ -> Step.Unroll
      in
      Some (Step.Annotate { stage = name; iv = pick_leaf (); ann })
    | 4 -> Some (Step.Compute_inline { stage = name })
    | 5 -> Some (Step.Cache_write { stage = name })
    | 6 ->
      let iv = pick_leaf () in
      let extent = (State.ivar s iv).State.extent in
      Some
        (Step.Rfactor
           {
             stage = name;
             iv;
             lengths = Factorize.random_factorization rng extent 2;
             tbd = false;
           })
    | _ -> Some (Step.Pragma_unroll { stage = name; max_step = Rng.choice rng [| 0; 16; 64 |] })
  end

let fuzz_one dag seed steps =
  let rng = Rng.create seed in
  let st = ref (State.init dag) in
  let applied = ref 0 in
  for _ = 1 to steps do
    match random_step rng !st with
    | None -> ()
    | Some step -> (
      match State.apply_checked !st step with
      | Ok st' ->
        (* keep states that still lower; otherwise drop the step *)
        (match Lower.lower st' with
        | _ ->
          st := st';
          incr applied
        | exception State.Illegal _ -> ())
      | Error _ -> ())
  done;
  (!st, !applied)

let fuzz_dags =
  lazy
    [|
      ("matmul", Ansor.Nn.matmul ~m:12 ~n:8 ~k:6 ());
      ("matmul_relu", Ansor.Nn.matmul_relu ~m:8 ~n:8 ~k:8 ());
      ("conv2d", Ansor.Nn.conv2d ~n:1 ~c:2 ~h:6 ~w:6 ~f:2 ~kh:3 ~kw:3 ~stride:1 ~pad:1 ());
      ("norm", Ansor.Nn.matrix_norm ~m:8 ~n:12 ());
      ("softmax", Ansor.Nn.softmax ~m:4 ~n:6 ());
      ("pool", Ansor.Nn.max_pool2d ~n:1 ~c:2 ~h:6 ~w:6 ~k:2 ~stride:2 ());
    |]

let prop_random_walks_correct =
  qcheck ~count:120 "random legal step walks stay correct"
    QCheck2.Gen.(pair (int_range 0 5) (int_range 0 1_000_000))
    (fun (which, seed) ->
      let _, dag = (Lazy.force fuzz_dags).(which) in
      let st, _ = fuzz_one dag seed 12 in
      let prog = Lower.lower st in
      let inputs = Ansor.Interp.random_inputs (Rng.create (seed + 1)) dag in
      match Ansor.Interp.check_equivalent dag prog ~inputs with
      | Ok () -> true
      | Error _ -> false)

let prop_walks_make_progress =
  qcheck ~count:30 "the fuzzer actually applies steps"
    QCheck2.Gen.(int_range 0 1_000_000)
    (fun seed ->
      let _, dag = (Lazy.force fuzz_dags).(seed mod 6) in
      let _, applied = fuzz_one dag seed 20 in
      applied >= 3)

let prop_walk_histories_replayable =
  qcheck ~count:40 "fuzzed histories replay deterministically"
    QCheck2.Gen.(int_range 0 1_000_000)
    (fun seed ->
      let _, dag = (Lazy.force fuzz_dags).(seed mod 6) in
      let st, _ = fuzz_one dag seed 10 in
      match State.replay_checked dag st.State.history with
      | Ok st' ->
        Step.history_key st'.State.history = Step.history_key st.State.history
      | Error _ -> false)

let prop_fuzzed_records_roundtrip =
  qcheck ~count:40 "fuzzed histories survive the record format"
    QCheck2.Gen.(int_range 0 1_000_000)
    (fun seed ->
      let _, dag = (Lazy.force fuzz_dags).(seed mod 6) in
      let st, _ = fuzz_one dag seed 10 in
      let e =
        { Ansor.Record.task_key = "fuzz"; latency = 1e-3; steps = st.State.history }
      in
      match Ansor.Record.of_line (Ansor.Record.to_line e) with
      | Ok e' -> Step.history_key e'.steps = Step.history_key st.State.history
      | Error _ -> false)

let prop_fuzzed_programs_validate =
  (* the static validator accepts every fuzzed-legal program: its checks
     must never be stricter than the dynamic semantics *)
  qcheck ~count:60 "static validator accepts fuzzed programs"
    QCheck2.Gen.(int_range 0 1_000_000)
    (fun seed ->
      let _, dag = (Lazy.force fuzz_dags).(seed mod 6) in
      let st, _ = fuzz_one dag seed 10 in
      Ansor.Validate.check (Lower.lower st) = [])

let prop_fuzzed_c_structural =
  (* emitting C never crashes and always contains the kernel signature *)
  qcheck ~count:40 "C emission total on fuzzed programs"
    QCheck2.Gen.(int_range 0 1_000_000)
    (fun seed ->
      let _, dag = (Lazy.force fuzz_dags).(seed mod 6) in
      let st, _ = fuzz_one dag seed 10 in
      let src = Ansor.Codegen_c.emit_kernel (Lower.lower st) in
      String.length src > 0)

let () =
  Alcotest.run "fuzz"
    [
      ( "random walks",
        [
          prop_random_walks_correct;
          prop_walks_make_progress;
          prop_walk_histories_replayable;
          prop_fuzzed_records_roundtrip;
          prop_fuzzed_programs_validate;
          prop_fuzzed_c_structural;
        ] );
    ]
