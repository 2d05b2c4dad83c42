(* Shared helpers for the test suites. *)

let check_float = Alcotest.(check (float 1e-9))
let check_floatish msg = Alcotest.(check (float 1e-6)) msg
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let case name f = Alcotest.test_case name `Quick f

let qcheck ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count ~name gen prop)

(* Equivalence of a schedule state against the naive evaluation of its
   (possibly surgery-extended) DAG. *)
let assert_state_correct ?(seed = 2024) (st : Ansor.State.t) =
  let dag = st.Ansor.State.dag in
  let inputs = Ansor.Interp.random_inputs (Ansor.Rng.create seed) dag in
  let prog = Ansor.Lower.lower st in
  match Ansor.Interp.check_equivalent dag prog ~inputs with
  | Ok () -> ()
  | Error e -> Alcotest.failf "schedule not equivalent to naive program: %s" e

(* A small matmul + relu DAG used across suites. *)
let small_matmul_relu () = Ansor.Nn.matmul_relu ~m:16 ~n:16 ~k:16 ()

(* A batch scorer holding [model] (default: untrained). *)
let scorer ?(workers = 1) ?(model = Ansor.Cost_model.empty) () =
  let sc = Ansor.Score_service.create ~num_workers:workers Ansor.Machine.intel_cpu in
  Ansor.Score_service.set_model sc model;
  sc

let candidates states = List.filter_map Ansor.Candidate.of_state states

let sample_programs ?(seed = 1) ?(n = 10) dag =
  let rng = Ansor.Rng.create seed in
  let policy = Ansor.Policy.cpu ~workers:20 in
  let sketches = Ansor.Sketch_gen.generate dag in
  Ansor.Sampler.sample rng policy dag ~sketches ~n

(* The best program of a short [Ansor.tune] session as a record entry. *)
let tuned_entry ~seed ~trials machine dag =
  let r = Ansor.tune ~seed ~trials machine dag in
  Option.map
    (fun (st : Ansor.State.t) ->
      {
        Ansor.Record.task_key =
          Ansor.Task.key (Ansor.Task.create ~name:"tuned" ~machine dag);
        latency = r.Ansor.best_latency;
        steps = st.Ansor.State.history;
      })
    r.Ansor.best_state
