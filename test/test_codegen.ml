(* C code generation: differential testing against the interpreter.

   For several DAGs and both naive and randomly-scheduled programs, the
   emitted C is compiled with gcc and executed; its printed outputs must
   match the interpreter's within float tolerance.  This closes the loop
   from the schedule search down to real machine code. *)

open Helpers
module C = Ansor.Codegen_c
module State = Ansor.State
module Lower = Ansor.Lower
module Interp = Ansor.Interp
module Prog = Ansor.Prog

let require_gcc () = if not (Ansor.Toolchain.available ()) then Alcotest.skip ()

(* compile + run a C translation unit; returns stdout lines as floats *)
let run_c source =
  Ansor.Toolchain.with_temp_dir ~prefix:"ansor_cg" (fun dir ->
      match Ansor.Toolchain.compile_string ~dir ~basename:"t" source with
      | Error msg -> Alcotest.failf "gcc failed: %s" msg
      | Ok exe -> (
        match Ansor.Toolchain.run exe [] with
        | Error e ->
          Alcotest.failf "run failed: %s" (Ansor.Toolchain.run_error_to_string e)
        | Ok lines -> List.map float_of_string lines))

let differential_check (st : State.t) =
  let dag = st.State.dag in
  let prog = Lower.lower st in
  let inputs = Interp.random_inputs (Ansor.Rng.create 77) dag in
  let reference = Interp.run_prog prog ~inputs in
  let c_values = run_c (C.emit_test_main prog ~inputs) in
  (* the C main prints non-input buffers in buffer order *)
  let input_names = List.map fst inputs in
  let expected =
    List.concat_map
      (fun (name, _) ->
        if List.mem name input_names then []
        else Array.to_list (List.assoc name reference))
      prog.buffers
  in
  check_int "same number of printed values" (List.length expected)
    (List.length c_values);
  List.iteri
    (fun i (want, got) ->
      if Float.abs (want -. got) > 1e-3 *. Float.max 1.0 (Float.abs want) then
        Alcotest.failf "value %d differs: interpreter %.9g, C %.9g" i want got)
    (List.combine expected c_values)

let test_naive name dag () =
  require_gcc ();
  ignore name;
  differential_check (State.init dag)

let test_scheduled name dag () =
  require_gcc ();
  ignore name;
  match sample_programs ~seed:13 ~n:2 dag with
  | [] -> Alcotest.fail "sampling failed"
  | states -> List.iter differential_check states

(* ---------- structural checks (no compiler needed) ---------- *)

let test_sanitize () =
  check_string "dots" "C_local" (C.sanitize "C.local");
  check_string "ats" "i_0_j_0" (C.sanitize "i.0@j.0");
  check_string "leading digit" "v3x" (C.sanitize "3x");
  check_string "empty" "v" (C.sanitize "")

let test_params_unique () =
  (* two buffers that sanitize identically must get distinct identifiers *)
  let dag = Ansor.Nn.matmul ~m:4 ~n:4 ~k:4 () in
  let st = State.replay dag [ Ansor.Step.Cache_write { stage = "C" } ] in
  let prog = Lower.lower st in
  let ids = List.map snd (C.params prog) in
  check_int "unique ids" (List.length ids)
    (List.length (List.sort_uniq compare ids))

let contains hay needle =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

let test_kernel_structure () =
  let dag = Ansor.Nn.matmul ~m:8 ~n:8 ~k:8 () in
  let st =
    State.replay dag
      Ansor.Step.
        [
          Annotate { stage = "C"; iv = 0; ann = Parallel };
          Annotate { stage = "C"; iv = 1; ann = Vectorize };
        ]
  in
  let src = C.emit_kernel (Lower.lower st) in
  check_bool "omp parallel" true (contains src "#pragma omp parallel for");
  check_bool "omp simd" true (contains src "#pragma omp simd");
  check_bool "floordiv helper" true (contains src "floordiv");
  check_bool "accumulation" true (contains src "+=");
  check_bool "restrict params" true (contains src "float * restrict")

(* Parallel nested under Vectorize: OpenMP forbids [parallel for] inside a
   [simd] region, and gcc rejects the TU.  The search space proposes such
   schedules (the linter only warns), so the emitter must degrade the inner
   Parallel to a plain loop — keeping the program compilable and correct. *)
let parallel_under_simd_state () =
  let dag = Ansor.Nn.matmul ~m:8 ~n:8 ~k:8 () in
  State.replay dag
    Ansor.Step.
      [
        Annotate { stage = "C"; iv = 0; ann = Vectorize };
        Annotate { stage = "C"; iv = 1; ann = Parallel };
      ]

let test_parallel_under_simd_structure () =
  let src = C.emit_kernel (Lower.lower (parallel_under_simd_state ())) in
  check_bool "omp simd kept" true (contains src "#pragma omp simd");
  check_bool "no parallel for inside simd" false
    (contains src "#pragma omp parallel for")

let test_parallel_under_simd_compiles () =
  require_gcc ();
  differential_check (parallel_under_simd_state ())

let test_max_reduction_emits_fmax () =
  let dag = Ansor.Nn.max_pool2d ~n:1 ~c:2 ~h:4 ~w:4 ~k:2 ~stride:2 () in
  let src = C.emit_kernel (Lower.lower (State.init dag)) in
  check_bool "fmaxf update" true (contains src "= fmaxf(");
  check_bool "-INFINITY init" true (contains src "-INFINITY")

let () =
  Alcotest.run "codegen" ~and_exit:false
    [
      ( "structure",
        [
          case "identifier sanitization" test_sanitize;
          case "unique parameters" test_params_unique;
          case "kernel structure" test_kernel_structure;
          case "parallel under simd degrades" test_parallel_under_simd_structure;
          case "max reduction" test_max_reduction_emits_fmax;
        ] );
      ( "differential vs interpreter (gcc)",
        [
          case "naive matmul+relu" (test_naive "mm" (Ansor.Nn.matmul_relu ~m:8 ~n:8 ~k:8 ()));
          case "naive conv2d (padding select)"
            (test_naive "conv"
               (Ansor.Nn.conv2d ~n:1 ~c:2 ~h:5 ~w:5 ~f:2 ~kh:3 ~kw:3 ~stride:1 ~pad:1 ()));
          case "naive transposed conv (floor div/mod)"
            (test_naive "t2d"
               (Ansor.Nn.conv2d_transposed ~n:1 ~c:2 ~h:4 ~w:4 ~f:2 ~kh:4 ~kw:4
                  ~stride:2 ~pad:1 ()));
          case "naive softmax (math calls)"
            (test_naive "softmax" (Ansor.Nn.softmax ~m:3 ~n:5 ()));
          case "scheduled matmul+relu (fusion, fused loops)"
            (test_scheduled "mm" (Ansor.Nn.matmul_relu ~m:16 ~n:16 ~k:16 ()));
          case "scheduled norm (rfactor)"
            (test_scheduled "nrm" (Ansor.Nn.matrix_norm ~m:8 ~n:32 ()));
          case "scheduled conv layer"
            (test_scheduled "cl"
               (Ansor.Nn.conv_layer ~n:1 ~c:4 ~h:6 ~w:6 ~f:4 ~kh:3 ~kw:3
                  ~stride:1 ~pad:1 ()));
          case "parallel under simd compiles"
            test_parallel_under_simd_compiles;
        ] );
    ]

(* ---------- network deployment (appended suite) ---------- *)

let test_deploy_plan_and_emit () =
  let machine = Ansor.Machine.intel_cpu in
  let subgraphs =
    [
      ("layer.a", Ansor.Nn.matmul ~m:16 ~n:16 ~k:16 ());
      ("layer.b", Ansor.Nn.matmul ~m:16 ~n:32 ~k:16 ());
    ]
  in
  (* tune the first subgraph and record it; leave its sibling (same
     structure class, other shape) untuned *)
  let entry =
    Option.get
      (tuned_entry ~seed:31 ~trials:48 machine (List.assoc "layer.a" subgraphs))
  in
  let registry = Ansor.Registry.of_entries [ entry ] in
  let plan = Ansor.Deploy.plan ~machine ~registry subgraphs in
  check_int "two kernels" 2 (List.length plan);
  (match plan with
  | [ (a, _); (b, _) ] ->
    check_string "first is exact" "exact"
      (Ansor.Registry.outcome_to_string a.Ansor.Deploy.outcome);
    (match b.Ansor.Deploy.outcome with
    | Ansor.Registry.Adapted { source_key; _ } ->
      check_string "second adapted from the first" entry.task_key source_key
    | o ->
      Alcotest.failf "second: expected adapted, got %s"
        (Ansor.Registry.outcome_to_string o));
    check_bool "names distinct" true (a.kernel_name <> b.kernel_name)
  | _ -> Alcotest.fail "unexpected plan");
  let src = Ansor.Deploy.emit ~machine ~registry subgraphs in
  check_bool "one helper block only" true
    (let count_marker marker =
       let rec go i acc =
         if i + String.length marker > String.length src then acc
         else if String.sub src i (String.length marker) = marker then
           go (i + 1) (acc + 1)
         else go (i + 1) acc
       in
       go 0 0
     in
     count_marker "static inline int floordiv" = 1);
  check_bool "both kernels present" true
    (contains src "void layer_a(" && contains src "void layer_b(")

let test_deploy_compiles () =
  require_gcc ();
  let machine = Ansor.Machine.intel_cpu in
  let subgraphs =
    [
      ("conv", Ansor.Nn.conv2d ~n:1 ~c:2 ~h:5 ~w:5 ~f:2 ~kh:3 ~kw:3 ~stride:1 ~pad:1 ());
      ("dense", Ansor.Nn.matmul ~m:8 ~n:8 ~k:8 ());
    ]
  in
  let src =
    Ansor.Deploy.emit ~machine ~registry:(Ansor.Registry.create ()) subgraphs
  in
  (* a stub main makes the library TU a complete program, so one
     Toolchain.compile_string both compiles and links it *)
  let src = src ^ "\nint main(void) { return 0; }\n" in
  Ansor.Toolchain.with_temp_dir ~prefix:"ansor_deploy" (fun dir ->
      match Ansor.Toolchain.compile_string ~dir ~basename:"net" src with
      | Ok _ -> ()
      | Error msg -> Alcotest.failf "deploy TU does not compile: %s" msg)

let () =
  Alcotest.run "codegen_deploy"
    [
      ( "deploy",
        [
          case "plan and emit" test_deploy_plan_and_emit;
          case "compiles with gcc" test_deploy_compiles;
        ] );
    ]
