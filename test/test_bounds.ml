(* The memory-safety certifier: affine bounds proofs, constructive
   out-of-bounds witnesses, the def-use pass, and their gates into the
   native measurement service and the registry.

   The certifier's verdicts are cross-validated against two differential
   oracles:

   - the reference interpreter, whose row-major flattening traps every
     out-of-bounds access ({!Ansor.Interp.Runtime_error}): every program
     the certifier calls [Unsafe] must trap, every [Certified] one must
     run clean;
   - gcc with [-fsanitize=address,undefined]: a sample of certified
     programs compiled natively must not trip ASan, and every witness
     program must (skipped when the toolchain lacks sanitizers, unless
     ANSOR_REQUIRE_SANITIZER=1 turns the skip into a failure). *)

open Helpers
module Step = Ansor.Step
module State = Ansor.State
module Prog = Ansor.Prog
module Lower = Ansor.Lower
module Expr = Ansor.Expr
module D = Ansor.Diagnostic
module Bounds = Ansor.Bounds
module Defuse = Ansor.Defuse
module Analysis = Ansor.Analysis
module Validate = Ansor.Validate
module Interp = Ansor.Interp
module Registry = Ansor.Registry
module Record = Ansor.Record
module Task = Ansor.Task
module Service = Ansor.Measure_service
module Protocol = Ansor.Measure_protocol
module Toolchain = Ansor.Toolchain
module C = Ansor.Codegen_c
module Rng = Ansor.Rng
module Access = Ansor.Access

let machine = Ansor.Machine.intel_cpu
let has_code code ds = List.exists (fun d -> d.D.code = code) ds

let loop ?(ann = Step.No_ann) lvar extent body =
  Prog.Loop { lvar; extent; kind = State.Space; ann; body }

let stmt ?update stage tensor indices rhs =
  Prog.Stmt { stage; tensor; indices; rhs; update; max_unroll = None }

let prog items buffers inits = { Prog.items; buffers; inits }

(* A guarded boundary read — the padding-select idiom every conv lowering
   uses.  Safe: the C ternary and the interpreter's Select only evaluate
   the taken branch. *)
let guarded_pad_prog () =
  prog
    [
      loop "p" 8
        [
          stmt "B" "B" [ Expr.Axis "p" ]
            (Expr.Select
               ( Expr.Band
                   ( Expr.Ble (Expr.Int 1, Expr.Axis "p"),
                     Expr.Blt (Expr.Axis "p", Expr.Int 8) ),
                 Expr.Access ("A", [ Expr.Isub (Expr.Axis "p", Expr.Int 1) ]),
                 Expr.Const 0.0 ));
        ];
    ]
    [ ("A", [ 7 ]); ("B", [ 8 ]) ] []

(* Beyond both budget caps and the digit grammar: the hull over-reaches
   but the true maximum of (p mod 317)(p mod 319) for p < 100000 is not
   known to be reachable without enumeration — an honest [Unknown]. *)
let unknown_prog () =
  prog
    [
      loop "p" 100000
        [
          stmt "B" "B"
            [
              Expr.Imul
                ( Expr.Imod (Expr.Axis "p", Expr.Int 317),
                  Expr.Imod (Expr.Axis "p", Expr.Int 319) );
            ]
            (Expr.Const 1.0);
        ];
    ]
    [ ("B", [ 100000 ]) ] []

let interp_traps p inputs =
  match Interp.run_prog p ~inputs with
  | _ -> false
  | exception Interp.Runtime_error _ -> true

(* Re-evaluate the flagged index expression at the witness iteration: the
   witness is only constructive if it reproduces exactly the claimed
   offending value. *)
let witness_reproduces p (w : Bounds.witness) =
  let ok = ref false in
  Prog.iter_stmts p (fun _ s ->
      if s.Prog.stage = w.Bounds.w_stage then begin
        let lookup v =
          match List.assoc_opt v w.Bounds.w_iter with Some i -> i | None -> 0
        in
        let index_lists =
          (if w.Bounds.w_kind = Bounds.Write && s.Prog.tensor = w.Bounds.w_tensor
           then [ s.Prog.indices ]
           else [])
          @ List.filter_map
              (fun (t, idx, _) ->
                if w.Bounds.w_kind = Bounds.Read && t = w.Bounds.w_tensor then
                  Some idx
                else None)
              (Validate.reads_with_guard s.Prog.rhs)
        in
        List.iter
          (fun idx ->
            match List.nth_opt idx w.Bounds.w_dim with
            | None -> ()
            | Some e -> (
              match Expr.eval_iexpr lookup e with
              | v when v = w.Bounds.w_index -> ok := true
              | _ | (exception Division_by_zero) -> ()))
          index_lists
      end);
  !ok

let test_oob_corpus () =
  List.iter
    (fun (name, p, inputs) ->
      match Bounds.check p with
      | Bounds.Unsafe w, diags ->
        check_bool (name ^ ": index outside range") true
          (w.Bounds.w_index < 0 || w.Bounds.w_index >= w.Bounds.w_extent);
        check_bool (name ^ ": witness reproduces") true (witness_reproduces p w);
        check_bool (name ^ ": error diagnostic") true
          (D.has_errors diags && has_code "out-of-bounds-witness" diags);
        check_bool (name ^ ": interpreter oracle traps") true
          (interp_traps p inputs);
        (* the tuner's measurement boundary refuses it (validator and
           certifier, once per measured program), so no search stage
           needs its own Unsafe check; [static_errors] still gates the
           registry and [Ansor.verify] *)
        check_bool (name ^ ": static_errors rejects it") true
          (Ansor.Analysis.static_errors p <> [])
      | v, _ ->
        Alcotest.failf "%s: expected unsafe, got %s" name
          (Bounds.verdict_name v))
    (oob_corpus ())

let test_guarded_pad_certifies () =
  let p = guarded_pad_prog () in
  check_string "certified" "certified" (Bounds.verdict_name (fst (Bounds.check p)));
  check_bool "interpreter oracle agrees" false
    (interp_traps p [ ("A", Array.make 7 1.0) ])

let test_unknown_is_warn_not_error () =
  let p = unknown_prog () in
  match Bounds.check p with
  | Bounds.Unknown, diags ->
    check_bool "bounds-unproven warning" true (has_code "bounds-unproven" diags);
    check_bool "no error severity" false (D.has_errors diags)
  | v, _ -> Alcotest.failf "expected unknown, got %s" (Bounds.verdict_name v)

(* every sampled program of the seed workloads must certify — the
   acceptance bar for the whole sketch/annotation rule set *)
let clean_dags =
  lazy
    [
      small_matmul_relu ();
      Ansor.Nn.matmul ~m:12 ~n:8 ~k:6 ();
      Ansor.Nn.conv2d ~n:1 ~c:2 ~h:6 ~w:6 ~f:2 ~kh:3 ~kw:3 ~stride:1 ~pad:1 ();
      Ansor.Nn.softmax ~m:4 ~n:6 ();
    ]

let prop_sampled_programs_certify =
  qcheck ~count:40 "sampled programs certify as memory-safe"
    QCheck2.Gen.(pair (int_range 0 3) (int_range 0 1_000_000))
    (fun (which, seed) ->
      let dag = List.nth (Lazy.force clean_dags) which in
      List.for_all
        (fun st -> Bounds.certify (Lower.lower st) = Bounds.Certified)
        (sample_programs ~seed ~n:3 dag))

(* The closed-form digit range is the scan's result, arg points
   included; extents are [stride·q + r] for any remainder [r]. *)
let prop_digit_range_is_scan =
  qcheck ~count:500 ~seed:23
    ~print:(fun (stride, len, c, extent) ->
      Printf.sprintf "stride %d len %d c %d extent %d" stride len c extent)
    "closed-form digit range equals the scan"
    QCheck2.Gen.(
      map
        (fun (stride, len, c, (q, r)) -> (stride, len, c, (stride * q) + (r mod stride)))
        (quad (int_range 1 40) (int_range 1 60) (int_range (-1000) 1000)
           (pair (int_range 0 80) (int_range 0 39))))
    (fun (stride, len, c, extent) ->
      extent = 0
      ||
      let digit = ({ Access.stride; len }, c) in
      Bounds.digits_range ~extent [ digit ] = Bounds.scan_digits ~extent [ digit ])

(* Groups of one to four digits, in shuffled order.  Strides form a
   chain [stride' = stride·len·gap] (gaps included), sometimes broken by
   bumping one stride; lengths include 1 and coefficients are signed (0
   too).  The extent is a multiple of the top stride, reaches past the
   top digit, or ends anywhere, mid-block included, where the closed form
   must give way to the scan. *)
let prop_nested_digit_range_is_scan =
  let open QCheck2.Gen in
  let group =
    let* shape =
      list_size (int_range 1 4)
        (triple (int_range 1 5) (int_range 1 2) (int_range (-30) 30))
    in
    let* s0 = int_range 1 3 in
    let* bump = int_range 0 7 in
    let* pick = int_range 0 2 in
    let* q = int_range 1 12 in
    let* r = int_range 0 10_000 in
    let digits =
      List.mapi
        (fun i (stride, len, c) ->
          ({ Access.stride = (if i = bump then stride + 1 else stride); len }, c))
        (List.rev
           (fst
              (List.fold_left
                 (fun (acc, stride) (len, gap, c) ->
                   ((stride, len, c) :: acc, stride * len * gap))
                 ([], s0) shape)))
    in
    let top, _ = List.nth digits (List.length digits - 1) in
    let extent =
      match pick with
      | 0 -> top.stride * q
      | 1 -> (top.stride * top.len) + (r mod (2 * top.stride))
      | _ -> 1 + (r mod (top.stride * (top.len + 1)))
    in
    map (fun order -> (extent, order)) (shuffle_l digits)
  in
  qcheck ~count:500 ~seed:29
    ~print:(fun (extent, digits) ->
      Printf.sprintf "extent %d: %s" extent
        (String.concat " + "
           (List.map
              (fun ((d : Access.digit), c) ->
                Printf.sprintf "%d·((p / %d) mod %d)" c d.stride d.len)
              digits)))
    "nested digit range equals the scan" group
    (fun (extent, digits) ->
      Bounds.digits_range ~extent digits = Bounds.scan_digits ~extent digits)

(* ---- def-use -------------------------------------------------------------- *)

let test_defuse_uninit_read () =
  (* B reads A before the (textually later) write to A *)
  let p =
    prog
      [
        loop "p" 8
          [
            stmt "B" "B" [ Expr.Axis "p" ]
              (Expr.Access ("A", [ Expr.Axis "p" ]));
            stmt "A" "A" [ Expr.Axis "p" ] (Expr.Const 1.0);
          ];
      ]
      [ ("A", [ 8 ]); ("B", [ 8 ]) ] []
  in
  let ds = Defuse.check p in
  check_bool "uninit-read warn" true (has_code "uninit-read" ds);
  check_bool "warn, never error" false (D.has_errors ds)

let test_defuse_partial_coverage () =
  (* A[0..3] written, then B reads A[0..7] *)
  let p =
    prog
      [
        loop "p" 4 [ stmt "A" "A" [ Expr.Axis "p" ] (Expr.Const 1.0) ];
        loop "q" 8
          [
            stmt "B" "B" [ Expr.Axis "q" ]
              (Expr.Access ("A", [ Expr.Axis "q" ]));
          ];
      ]
      [ ("A", [ 8 ]); ("B", [ 8 ]) ] []
  in
  check_bool "partial coverage flagged" true (has_code "uninit-read" (Defuse.check p))

let test_defuse_clean_producer_consumer () =
  let p =
    prog
      [
        loop "p" 8 [ stmt "A" "A" [ Expr.Axis "p" ] (Expr.Const 1.0) ];
        loop "q" 8
          [
            stmt "B" "B" [ Expr.Axis "q" ]
              (Expr.Access ("A", [ Expr.Axis "q" ]));
          ];
      ]
      [ ("A", [ 8 ]); ("B", [ 8 ]) ] []
  in
  check_int "no diagnostics" 0 (List.length (Defuse.check p));
  (* sampled real programs are def-use clean too *)
  List.iter
    (fun st -> check_int "sampled program clean" 0
        (List.length (Defuse.check (Lower.lower st))))
    (sample_programs ~seed:5 ~n:4 (small_matmul_relu ()))

let test_dead_stores_cross_check () =
  (* T is written and never read; C is the declared output.  The def-use
     derivation and the lint must name exactly the same buffer. *)
  let p =
    prog
      [
        loop "p" 8
          [
            stmt "T" "T" [ Expr.Axis "p" ] (Expr.Const 1.0);
            stmt "C" "C" [ Expr.Axis "p" ] (Expr.Const 2.0);
          ];
      ]
      [ ("T", [ 8 ]); ("C", [ 8 ]) ] []
  in
  check_bool "defuse finds T" true (Defuse.dead_stores ~outputs:[ "C" ] p = [ "T" ]);
  let lint_ds =
    Analysis.lint { Analysis.default_config with outputs = [ "C" ] } p
  in
  check_bool "lint agrees on T" true
    (List.exists
       (fun d -> d.D.code = "dead-store" && d.D.loc = D.Buffer "T")
       lint_ds);
  check_bool "lint agrees on C" false
    (List.exists
       (fun d -> d.D.code = "dead-store" && d.D.loc = D.Buffer "C")
       lint_ds)

let test_analyze_includes_bounds_and_defuse () =
  let _, unsafe, _ = List.nth (oob_corpus ()) 0 in
  check_bool "analyze reports the witness" true
    (has_code "out-of-bounds-witness" (snd (Analysis.analyze unsafe)));
  check_bool "analyze ~bounds:false omits it" false
    (has_code "out-of-bounds-witness"
       (snd (Analysis.analyze ~bounds:false unsafe)))

(* ---- the native measurement gate ------------------------------------------ *)

(* A fake native runner: records the keys it is asked to measure and
   returns a fixed latency — no gcc involved, so the test isolates the
   gate itself. *)
let fake_runner seen ~timeout:_ ~deadline:_ ~max_retries:_ ~num_workers:_ arr =
  Array.iter (fun (k, _) -> seen := k :: !seen) arr;
  {
    Protocol.nr_outcomes =
      Array.map
        (fun (k, _) ->
          (k, { Protocol.out_latency = Ok 1e-3; out_attempts = 1 }))
        arr;
    nr_compile_seconds = 0.0;
    nr_run_seconds = 0.0;
    nr_compiles = (if Array.length arr = 0 then 0 else 1);
    nr_kernels = Array.length arr;
  }

let safe_prog () =
  prog
    [ loop "p" 16 [ stmt "B" "B" [ Expr.Axis "p" ] (Expr.Const 1.0) ] ]
    [ ("B", [ 16 ]) ] []

let test_native_gate_refuses_unsafe_and_unknown () =
  let seen = ref [] in
  let config = { Service.default_config with backend = Protocol.Native } in
  let svc =
    Service.create ~config ~native_runner:(fake_runner seen) ~seed:1 machine
  in
  let st = State.init (Ansor.Nn.matmul ~m:4 ~n:4 ~k:4 ()) in
  let _, unsafe, _ = List.nth (oob_corpus ()) 0 in
  let reqs =
    [
      Protocol.request ~prog:unsafe st;
      Protocol.request ~prog:(unknown_prog ()) st;
      Protocol.request ~prog:(safe_prog ()) st;
    ]
  in
  (match Service.measure_batch svc reqs with
  | [ r_unsafe; r_unknown; r_safe ] ->
    (match r_unsafe.Protocol.latency with
    | Error (Protocol.Bounds_error msg) ->
      check_bool "unsafe message carries the witness" true
        (String.length msg > 0
        && String.sub msg 0 5 = "write")
    | _ -> Alcotest.fail "unsafe program was not refused");
    check_int "refusal consumes no trials" 0 r_unsafe.Protocol.attempts;
    check_bool "refusal is not a cache hit" false r_unsafe.Protocol.cache_hit;
    (match r_unknown.Protocol.latency with
    | Error (Protocol.Bounds_error _) -> ()
    | _ -> Alcotest.fail "unknown program was not refused");
    check_bool "certified program measured" true (Protocol.is_ok r_safe)
  | rs -> Alcotest.failf "expected 3 results, got %d" (List.length rs));
  check_int "runner saw only the certified program" 1 (List.length !seen);
  let stats = Service.stats svc in
  check_int "bounds_rejected counted" 2 stats.Ansor.Telemetry.bounds_rejected;
  check_int "one certification per request" 3
    stats.Ansor.Telemetry.certified

let test_native_gate_allow_unproven () =
  let seen = ref [] in
  let config =
    {
      Service.default_config with
      backend = Protocol.Native;
      allow_unproven = true;
    }
  in
  let svc =
    Service.create ~config ~native_runner:(fake_runner seen) ~seed:1 machine
  in
  let st = State.init (Ansor.Nn.matmul ~m:4 ~n:4 ~k:4 ()) in
  let _, unsafe, _ = List.nth (oob_corpus ()) 1 in
  match
    Service.measure_batch svc
      [
        Protocol.request ~prog:(unknown_prog ()) st;
        Protocol.request ~prog:unsafe st;
      ]
  with
  | [ r_unknown; r_unsafe ] ->
    check_bool "unknown measured under allow_unproven" true
      (Protocol.is_ok r_unknown);
    (match r_unsafe.Protocol.latency with
    | Error (Protocol.Bounds_error _) -> ()
    | _ -> Alcotest.fail "unsafe must be refused even with allow_unproven")
  | rs -> Alcotest.failf "expected 2 results, got %d" (List.length rs)

let test_sim_backend_has_no_gate () =
  (* the simulator traps bounds itself; the gate is native-only, so an
     Unknown program still simulates *)
  let svc = Service.create ~seed:1 machine in
  let st = State.init (Ansor.Nn.matmul ~m:4 ~n:4 ~k:4 ()) in
  match Service.measure_batch svc [ Protocol.request ~prog:(safe_prog ()) st ] with
  | [ r ] -> check_bool "sim measures" true (Protocol.is_ok r)
  | _ -> Alcotest.fail "expected one result"

(* ---- the measurement boundary --------------------------------------------- *)

(* [B[i, j] = A[i, j + 1]] over an 8×8 [A]: every schedule of it lowers
   to a program the bounds certifier rejects (the last column reads past
   [A]), as a buggy lowering would produce. *)
let off_by_one_dag () =
  let a = Ansor.Op.placeholder ~name:"A" ~shape:[ 8; 8 ] in
  let b =
    Ansor.Op.compute ~name:"B"
      ~axes:[ ("i", 8); ("j", 8) ]
      (Expr.Access
         ("A", [ Expr.Axis "i"; Expr.Iadd (Expr.Axis "j", Expr.Int 1) ]))
  in
  Ansor.Dag.create [ a; b ]

(* One fresh sample per round and an untrained model, so each round's
   batch is that one sample: the boundary refuses it, counts it once,
   and neither measures nor remembers it. *)
let test_boundary_refuses_unsafe_batch () =
  let dag = off_by_one_dag () in
  let p = Lower.lower (State.init dag) in
  check_bool "out of bounds is the certifier's call alone" false
    (D.has_errors (Validate.check p));
  check_bool "the certifier rejects it" true
    (match Bounds.certify p with Bounds.Unsafe _ -> true | _ -> false);
  let task = Task.create ~name:"off-by-one" ~machine dag in
  let options = { Ansor.Tuner.ansor_options with sample_size = 1 } in
  let tuner = Ansor.Tuner.create ~seed:3 options task in
  let shared = Ansor.Tuner.Shared.create () in
  let service = Service.create ~seed:1 machine in
  List.iter
    (fun round ->
      Ansor.Tuner.round tuner shared service;
      let stats = Service.stats service in
      check_int
        (Printf.sprintf "round %d: each refusal counted once" round)
        round stats.Ansor.Telemetry.statically_rejected;
      check_int "nothing reached the measurement service" 0
        (Ansor.Telemetry.results stats);
      check_int "no trial" 0 (Service.trials service);
      let snap = Ansor.Tuner.snapshot tuner in
      check_int "not remembered as measured" 0
        (List.length snap.Ansor.Tuner.Snapshot.measured_keys);
      check_int "no training record" 0 (Ansor.Tuner.Shared.num_records shared))
    [ 1; 2 ]

(* ---- registry re-certification -------------------------------------------- *)

let test_registry_adapted_entry_recertifies () =
  (* adaptation refits tile sizes to a new shape — exactly the transform
     that historically produced out-of-bounds writes.  The served state's
     lowering must certify. *)
  let tuned = Ansor.Nn.matmul ~m:16 ~n:16 ~k:16 () in
  let query = Ansor.Nn.matmul ~m:32 ~n:32 ~k:32 () in
  let task = Task.create ~name:"t" ~machine tuned in
  let entry =
    match sample_programs ~seed:1 ~n:1 tuned with
    | [ st ] ->
      { Record.task_key = Task.key task; latency = 1e-3;
        steps = st.Ansor.State.history }
    | _ -> Alcotest.fail "sampling failed"
  in
  let r = Registry.create () in
  ignore (Registry.add r entry);
  let qtask = Task.create ~name:"q" ~machine query in
  let st, outcome = Registry.resolve r qtask in
  (match outcome with
  | Registry.Adapted _ -> ()
  | o -> Alcotest.failf "expected adapted, got %s" (Registry.outcome_to_string o));
  check_string "adapted lowering certifies" "certified"
    (Bounds.verdict_name (Bounds.certify (Lower.lower st)))

(* ---- guarded codegen (ANSOR_BOUNDS_CHECK) --------------------------------- *)

let require_gcc () = if not (Toolchain.available ()) then Alcotest.skip ()

let test_guarded_codegen_aborts_on_oob () =
  require_gcc ();
  let _, unsafe, _ = List.nth (oob_corpus ()) 0 in
  Toolchain.with_temp_dir ~prefix:"bounds_guard" (fun dir ->
      match
        Toolchain.compile_string ~flags:Toolchain.default_flags ~dir
          ~basename:"guarded"
          (C.emit_bench_tu ~guard:true [ unsafe ])
      with
      | Error e -> Alcotest.failf "guarded TU failed to compile: %s" e
      | Ok exe -> (
        match Toolchain.run exe [ "0"; "dump" ] with
        | Ok _ -> Alcotest.fail "guarded kernel did not abort on OOB"
        | Error (Toolchain.Signaled (_, stderr))
        | Error (Toolchain.Nonzero_exit (_, stderr)) ->
          check_bool "guard names the fault" true
            (let needle = "out-of-bounds" in
             let n = String.length needle and h = String.length stderr in
             let rec go i =
               i + n <= h && (String.sub stderr i n = needle || go (i + 1))
             in
             go 0)
        | Error (Toolchain.Timed_out _) -> Alcotest.fail "guarded run timed out"))

let test_guarded_codegen_transparent_when_safe () =
  require_gcc ();
  let p = guarded_pad_prog () in
  Toolchain.with_temp_dir ~prefix:"bounds_guard_ok" (fun dir ->
      let dump guard basename =
        match
          Toolchain.compile_string ~flags:Toolchain.default_flags ~dir ~basename
            (C.emit_bench_tu ~guard [ p ])
        with
        | Error e -> Alcotest.failf "compile failed: %s" e
        | Ok exe -> (
          match Toolchain.run exe [ "0"; "dump" ] with
          | Ok lines -> lines
          | Error e ->
            Alcotest.failf "run failed: %s" (Toolchain.run_error_to_string e))
      in
      check_bool "guard does not change outputs" true
        (dump false "plain" = dump true "guarded"))

(* ---- the sanitizer differential oracle ------------------------------------ *)

let asan_flags = [ "-O1"; "-g"; "-fsanitize=address,undefined" ]

let sanitizer_available =
  lazy
    (Toolchain.available ()
    && Toolchain.with_temp_dir ~prefix:"asan_probe" (fun dir ->
           match
             Toolchain.compile_string ~flags:asan_flags ~dir ~basename:"probe"
               "int main(void) { return 0; }"
           with
           | Error _ -> false
           | Ok exe -> (
             match Toolchain.run exe [] with
             | Ok _ | Error (Toolchain.Nonzero_exit (0, _)) -> true
             | Error _ -> false)))

let require_sanitizer () =
  if not (Lazy.force sanitizer_available) then
    if Sys.getenv_opt "ANSOR_REQUIRE_SANITIZER" = Some "1" then
      Alcotest.fail
        "ANSOR_REQUIRE_SANITIZER=1 but the toolchain cannot build \
         -fsanitize=address,undefined binaries"
    else Alcotest.skip ()

let test_asan_agrees_on_certified () =
  require_sanitizer ();
  (* a 16-program sample across two workloads, all certified, compiled
     with ASan/UBSan: none may trip a sanitizer *)
  let progs =
    List.concat_map
      (fun dag ->
        List.map (fun st -> Lower.lower st) (sample_programs ~seed:13 ~n:8 dag))
      [
        small_matmul_relu ();
        Ansor.Nn.conv2d ~n:1 ~c:2 ~h:6 ~w:6 ~f:2 ~kh:3 ~kw:3 ~stride:1 ~pad:1 ();
      ]
  in
  List.iter
    (fun p ->
      check_string "sample certifies" "certified"
        (Bounds.verdict_name (Bounds.certify p)))
    progs;
  Toolchain.with_temp_dir ~prefix:"asan_cert" (fun dir ->
      match
        Toolchain.compile_string ~flags:asan_flags ~dir ~basename:"certified"
          (C.emit_bench_tu progs)
      with
      | Error e -> Alcotest.failf "ASan TU failed to compile: %s" e
      | Ok exe ->
        List.iteri
          (fun i _ ->
            match Toolchain.run exe [ string_of_int i; "dump" ] with
            | Ok _ -> ()
            | Error e ->
              Alcotest.failf "certified program %d tripped the sanitizer: %s" i
                (Toolchain.run_error_to_string e))
          progs)

let test_asan_agrees_on_witnesses () =
  require_sanitizer ();
  (* every Unsafe witness must reproduce natively: the same program,
     compiled with ASan, faults *)
  let corpus = oob_corpus () in
  Toolchain.with_temp_dir ~prefix:"asan_oob" (fun dir ->
      match
        Toolchain.compile_string ~flags:asan_flags ~dir ~basename:"oob"
          (C.emit_bench_tu (List.map (fun (_, p, _) -> p) corpus))
      with
      | Error e -> Alcotest.failf "OOB TU failed to compile: %s" e
      | Ok exe ->
        List.iteri
          (fun i (name, _, _) ->
            match Toolchain.run exe [ string_of_int i; "dump" ] with
            | Ok _ -> Alcotest.failf "%s: did not fault under ASan" name
            | Error (Toolchain.Nonzero_exit _ | Toolchain.Signaled _) -> ()
            | Error (Toolchain.Timed_out _) ->
              Alcotest.failf "%s: timed out under ASan" name)
          corpus)

(* ---- golden --------------------------------------------------------------- *)

(* Captured before the digit-hull fast path and never re-derived: every
   verdict, diagnostic and witness of the analysis corpus (plus the
   guarded and over-budget programs above). *)
let test_golden_verdicts () =
  let lines =
    List.map
      (fun (name, p) ->
        let verdict, diags = Bounds.check p in
        String.concat " | "
          (name :: Bounds.verdict_name verdict
          :: (match verdict with
             | Bounds.Unsafe w -> [ Bounds.witness_to_string w ]
             | Bounds.Certified | Bounds.Unknown -> [])
          @ List.map D.to_string diags))
      (Lazy.force analysis_corpus
      @ [ ("guarded pad", guarded_pad_prog ()); ("unknown", unknown_prog ()) ])
  in
  check_string "verdicts" "ffb90db1859e03c2aa54c14ff468f4a9"
    (Digest.to_hex (Digest.string (String.concat "\n" lines)))

let () =
  Alcotest.run "bounds"
    [
      ( "certifier",
        [
          case "OOB corpus: witnesses + interpreter oracle" test_oob_corpus;
          case "guarded padding read certifies" test_guarded_pad_certifies;
          case "over-budget program is unknown/warn" test_unknown_is_warn_not_error;
          prop_sampled_programs_certify;
          prop_digit_range_is_scan;
          prop_nested_digit_range_is_scan;
          case "golden verdicts" test_golden_verdicts;
        ] );
      ( "def-use",
        [
          case "uninit read is a warning" test_defuse_uninit_read;
          case "partial coverage flagged" test_defuse_partial_coverage;
          case "clean producer-consumer" test_defuse_clean_producer_consumer;
          case "dead stores cross-check the lint" test_dead_stores_cross_check;
          case "analyze folds bounds + defuse" test_analyze_includes_bounds_and_defuse;
        ] );
      ( "native gate",
        [
          case "refuses unsafe and unknown" test_native_gate_refuses_unsafe_and_unknown;
          case "allow_unproven admits unknown only" test_native_gate_allow_unproven;
          case "sim backend ungated" test_sim_backend_has_no_gate;
        ] );
      ( "measure boundary",
        [ case "refuses an unsafe batch" test_boundary_refuses_unsafe_batch ] );
      ( "registry",
        [ case "adapted entry re-certifies" test_registry_adapted_entry_recertifies ] );
      ( "guarded codegen",
        [
          case "aborts on OOB" test_guarded_codegen_aborts_on_oob;
          case "transparent when safe" test_guarded_codegen_transparent_when_safe;
        ] );
      ( "sanitizer oracle",
        [
          case "certified sample is ASan-clean" test_asan_agrees_on_certified;
          case "witnesses reproduce under ASan" test_asan_agrees_on_witnesses;
        ] );
    ]
