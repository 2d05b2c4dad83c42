(* The cross-task model store: the shared structure-class key, GBDT
   persistence and warm-start training, the sample store's bit-exact
   round-trip and salvage behavior, per-task throughput normalization,
   warm-start adoption semantics in the shared cost model, and the
   acceptance bar of this subsystem: with an empty or absent store,
   tuning and serving are bit-identical to a storeless session. *)

open Helpers
module Task_key = Ansor.Task_key
module Model_store = Ansor.Model_store
module Pretrained = Ansor.Model_store.Pretrained
module Gbdt = Ansor.Gbdt
module Tuner = Ansor.Tuner
module Server = Ansor.Server
module Registry = Ansor.Registry
module Loadgen = Ansor.Loadgen
module Rng = Ansor.Rng

let machine = Ansor.Machine.intel_cpu

let temp_path suffix =
  let p = Filename.temp_file "ansor_mstore" suffix in
  Sys.remove p;
  p

let with_temp suffix f =
  let p = temp_path suffix in
  let cleanup () =
    List.iter
      (fun q -> if Sys.file_exists q then Sys.remove q)
      [ p; p ^ ".prev"; p ^ ".models" ]
  in
  Fun.protect ~finally:cleanup (fun () -> f p)

let read_file p =
  let ic = open_in_bin p in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file p s =
  let oc = open_out_bin p in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc s)

let append_file p s =
  let oc = open_out_gen [ Open_append ] 0o644 p in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc s)

let check_float_bits msg a b =
  Alcotest.(check int64) msg (Int64.bits_of_float a) (Int64.bits_of_float b)

let sample ?(task_key = "intel-cpu/mm[16x16]") ~prog_key ~latency v =
  {
    Model_store.task_key;
    prog_key;
    latency;
    features = [ [| v; v *. 2.0 |]; [| v /. 3.0; v |] ];
  }

(* ---- Task_key ------------------------------------------------------------ *)

let test_class_key_blanking () =
  check_string "digit runs collapse" "mm[#x#]" (Task_key.class_key "mm[512x64]");
  check_string "multi-digit runs are one blank" "c#d b#"
    (Task_key.class_key "c2d b128");
  check_string "no digits unchanged" "relu" (Task_key.class_key "relu");
  check_bool "same structure, different shapes" true
    (Task_key.same_class "mm[512x64]" "mm[16x1024]");
  check_bool "different structure" false
    (Task_key.same_class "mm[512x64]" "conv[512x64]")

let test_shape_distance () =
  check_float "distance to self" 0.0
    (Task_key.shape_distance "mm[512x64]" "mm[512x64]");
  let d1 = Task_key.shape_distance "mm[512x64]" "mm[256x64]" in
  let d2 = Task_key.shape_distance "mm[256x64]" "mm[512x64]" in
  check_bool "positive between shapes" true (d1 > 0.0);
  check_float_bits "symmetric" d1 d2;
  check_bool "length mismatch is infinity" true
    (Task_key.shape_distance "mm[512x64]" "mm[512]" = infinity);
  check_int "same class: equal-length features" 2
    (List.length (Task_key.shape_features "mm[512x64]"))

(* ---- Gbdt persistence and warm init -------------------------------------- *)

let tiny_model seed =
  let rng = Rng.create seed in
  let x =
    Array.init 64 (fun _ -> Array.init 3 (fun _ -> Rng.float rng 1.0))
  in
  let y = Array.map (fun r -> r.(0) +. (2.0 *. r.(1))) x in
  (Gbdt.train ~x ~y (), x)

let test_gbdt_save_load_roundtrip () =
  with_temp ".gbdt" (fun p ->
      let model, x = tiny_model 11 in
      Gbdt.save ~path:p model;
      match Gbdt.load ~path:p with
      | Error e -> Alcotest.failf "load failed: %s" e
      | Ok loaded ->
        check_int "tree count survives" (Gbdt.num_trees model)
          (Gbdt.num_trees loaded);
        Array.iter
          (fun r ->
            check_float_bits "predictions bit-identical" (Gbdt.predict model r)
              (Gbdt.predict loaded r))
          x)

let test_gbdt_load_rejects_corruption () =
  with_temp ".gbdt" (fun p ->
      let model, _ = tiny_model 12 in
      Gbdt.save ~path:p model;
      (* foreign magic *)
      let good = read_file p in
      write_file p ("not-a-gbdt-file\n" ^ good);
      (match Gbdt.load ~path:p with
      | Error e -> check_bool "names bad magic" true (String.length e > 0)
      | Ok _ -> Alcotest.fail "accepted foreign magic");
      (* flipped payload byte: digest must catch it *)
      let b = Bytes.of_string good in
      let mid = Bytes.length b / 2 in
      Bytes.set b mid (Char.chr (Char.code (Bytes.get b mid) lxor 0xff));
      write_file p (Bytes.to_string b);
      (match Gbdt.load ~path:p with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "accepted corrupted payload");
      (* truncation *)
      write_file p (String.sub good 0 (String.length good / 2));
      (match Gbdt.load ~path:p with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "accepted truncated file");
      (* missing file *)
      Sys.remove p;
      match Gbdt.load ~path:p with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "accepted missing file")

let test_gbdt_warm_init () =
  let init, _ = tiny_model 13 in
  let rng = Rng.create 14 in
  let x =
    Array.init 64 (fun _ -> Array.init 3 (fun _ -> Rng.float rng 1.0))
  in
  let y = Array.map (fun r -> r.(0) +. (2.0 *. r.(1)) +. 0.5) x in
  let warm = Gbdt.train ~init ~x ~y () in
  check_bool "warm model extends the init's trees" true
    (Gbdt.num_trees warm > Gbdt.num_trees init);
  (* the fresh trees fit the residual: warm must beat init on new data *)
  let mae m =
    Array.fold_left
      (fun acc (r, t) -> acc +. Float.abs (Gbdt.predict m r -. t))
      0.0
      (Array.map2 (fun a b -> (a, b)) x y)
    /. float_of_int (Array.length x)
  in
  check_bool "fine-tuning reduces error on the new task" true
    (mae warm < mae init)

(* ---- the sample store ----------------------------------------------------- *)

let awkward_samples () =
  [
    sample ~prog_key:"p1" ~latency:(Float.pi *. 1e-7) 0.1;
    sample ~prog_key:"p2" ~latency:(1.0 /. 3.0) (1.0 /. 7.0);
    sample ~prog_key:"p3" ~latency:1.5e-300 1e300;
  ]

let test_store_roundtrip_bitexact () =
  with_temp ".store" (fun p ->
      let store = Model_store.create () in
      let samples = awkward_samples () in
      check_int "all added" 3 (Model_store.add_all store samples);
      Model_store.save ~path:p store;
      match Model_store.load_salvage ~path:p with
      | Error e -> Alcotest.failf "load failed: %s" e
      | Ok (loaded, skipped) ->
        check_int "nothing skipped" 0 skipped;
        check_int "size survives" 3 (Model_store.size loaded);
        List.iter2
          (fun (a : Model_store.sample) (b : Model_store.sample) ->
            check_string "task key" a.task_key b.task_key;
            check_string "prog key" a.prog_key b.prog_key;
            check_float_bits "latency bits" a.latency b.latency;
            List.iter2
              (fun fa fb ->
                Array.iteri
                  (fun i v -> check_float_bits "feature bits" v fb.(i))
                  fa)
              a.features b.features)
          (Model_store.samples store)
          (Model_store.samples loaded))

let test_store_dedup () =
  let store = Model_store.create () in
  let s = sample ~prog_key:"p1" ~latency:1e-3 0.5 in
  check_bool "first add" true (Model_store.add store s);
  check_bool "duplicate rejected" false (Model_store.add store s);
  check_int "size 1" 1 (Model_store.size store);
  check_bool "mem" true (Model_store.mem store ~prog_key:"p1");
  Alcotest.check_raises "non-positive latency rejected"
    (Invalid_argument "Model_store.add: latency <= 0") (fun () ->
      ignore (Model_store.add store (sample ~prog_key:"p9" ~latency:0.0 0.1)))

let test_store_salvage_torn () =
  with_temp ".store" (fun p ->
      let store = Model_store.create () in
      ignore (Model_store.add_all store (awkward_samples ()));
      Model_store.save ~path:p store;
      append_file p "garbage line without tabs\n";
      append_file p "k\tpk\t0x1p-10\t0x1.8p";
      (* torn mid-float *)
      (match Model_store.load_salvage ~path:p with
      | Error e -> Alcotest.failf "salvage failed: %s" e
      | Ok (loaded, skipped) ->
        check_int "two lines skipped" 2 skipped;
        check_int "good prefix recovered" 3 (Model_store.size loaded));
      (* bad magic is fatal even in salvage mode *)
      write_file p "not-a-store\n";
      match Model_store.load_salvage ~path:p with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "salvage accepted a foreign file")

let test_store_append_batch () =
  with_temp ".store" (fun p ->
      Model_store.append_batch ~path:p
        [ sample ~prog_key:"p1" ~latency:1e-3 0.5 ];
      Model_store.append_batch ~path:p
        [ sample ~prog_key:"p2" ~latency:2e-3 0.25 ];
      match Model_store.load_salvage ~path:p with
      | Error e -> Alcotest.failf "load failed: %s" e
      | Ok (loaded, skipped) ->
        check_int "nothing skipped" 0 skipped;
        check_int "append created then extended the file" 2
          (Model_store.size loaded))

let test_store_gc () =
  let store = Model_store.create () in
  List.iter
    (fun i ->
      ignore
        (Model_store.add store
           (sample
              ~task_key:(Printf.sprintf "a[%d]" (16 * (i + 1)))
              ~prog_key:(Printf.sprintf "pa%d" i) ~latency:1e-3 0.5));
      ignore
        (Model_store.add store
           (sample
              ~task_key:(Printf.sprintf "b[%d]" (16 * (i + 1)))
              ~prog_key:(Printf.sprintf "pb%d" i) ~latency:1e-3 0.5)))
    [ 0; 1; 2 ];
  check_int "two classes" 2 (List.length (Model_store.class_keys store));
  check_int "dropped oldest" 2 (Model_store.gc store ~keep_per_class:2);
  check_int "kept 2 per class" 4 (Model_store.size store);
  check_bool "newest of class a kept" true (Model_store.mem store ~prog_key:"pa2");
  check_bool "oldest of class a dropped" false
    (Model_store.mem store ~prog_key:"pa0")

(* ---- per-task throughput normalization ------------------------------------ *)

let test_normalization_scale_invariance () =
  (* per-task normalization makes training invariant under scaling one
     task's latencies by a power of two (exact in floating point): the
     global model trained on the scaled store is bit-identical *)
  let mk scale =
    let store = Model_store.create () in
    let rng = Rng.create 21 in
    for i = 0 to 15 do
      let v = Rng.float rng 1.0 in
      ignore
        (Model_store.add store
           (sample ~task_key:"t/a[16]"
              ~prog_key:(Printf.sprintf "a%d" i)
              ~latency:((1e-4 +. (v *. 1e-3)) *. scale)
              v));
      ignore
        (Model_store.add store
           (sample ~task_key:"t/a[32]"
              ~prog_key:(Printf.sprintf "b%d" i)
              ~latency:(2e-2 +. (v *. 1e-2))
              (v /. 2.0)))
    done;
    store
  in
  let bundle_of store = Pretrained.train ~min_samples:4 store in
  let g1 =
    match Pretrained.global (bundle_of (mk 1.0)) with
    | Some (g, _) -> g
    | None -> Alcotest.fail "no global model"
  in
  let g2 =
    match Pretrained.global (bundle_of (mk 1024.0)) with
    | Some (g, _) -> g
    | None -> Alcotest.fail "no global model (scaled)"
  in
  let rng = Rng.create 22 in
  for _ = 1 to 20 do
    let f = [| Rng.float rng 1.0; Rng.float rng 1.0 |] in
    check_float_bits "scaled task trains the same model" (Gbdt.predict g1 f)
      (Gbdt.predict g2 f)
  done

let test_pretrained_ladder () =
  let store = Model_store.create () in
  for i = 0 to 9 do
    ignore
      (Model_store.add store
         (sample ~task_key:"t/mm[16x16]"
            ~prog_key:(Printf.sprintf "p%d" i)
            ~latency:(1e-3 +. (float_of_int i *. 1e-4))
            (float_of_int i /. 10.0)))
  done;
  let bundle = Pretrained.train ~min_samples:4 store in
  (match Pretrained.resolve bundle ~task_key:"t/mm[16x16]" with
  | Some (_, Pretrained.Exact) -> ()
  | Some (_, o) -> Alcotest.failf "expected exact, got %s" (Pretrained.origin_name o)
  | None -> Alcotest.fail "exact rung missing");
  (match Pretrained.resolve bundle ~task_key:"t/mm[512x64]" with
  | Some (_, Pretrained.Class) -> ()
  | Some (_, o) -> Alcotest.failf "expected class, got %s" (Pretrained.origin_name o)
  | None -> Alcotest.fail "class rung missing");
  (match Pretrained.resolve bundle ~task_key:"t/conv[8]" with
  | Some (_, Pretrained.Global) -> ()
  | Some (_, o) ->
    Alcotest.failf "expected global, got %s" (Pretrained.origin_name o)
  | None -> Alcotest.fail "global rung missing");
  check_bool "cold on empty bundle" true
    (Pretrained.resolve Pretrained.empty ~task_key:"t/mm[16x16]" = None);
  (* a session's warm start over a list of task keys: one key walks the
     full ladder, several keys of one class enter it at the class rung,
     mixed classes take the global model; the sibling samples are those
     of the keys' classes.  Two samples of another class join the store
     after pretraining. *)
  List.iter
    (fun i ->
      ignore
        (Model_store.add store
           (sample ~task_key:"t/conv[8]"
              ~prog_key:(Printf.sprintf "c%d" i)
              ~latency:1e-3 0.5)))
    [ 0; 1 ];
  let session = Model_store.in_memory ~pretrained:bundle store in
  let mm_samples =
    Model_store.samples_for_class store
      ~class_key:(Ansor.Task_key.class_key "t/mm[16x16]")
  in
  check_int "ten mm samples" 10 (List.length mm_samples);
  List.iter
    (fun (task_keys, rung, samples) ->
      let label = String.concat "," task_keys in
      let warm, aux = Model_store.warm_start session ~task_keys in
      (match warm with
      | Some (origin, _) -> check_string (label ^ ": rung") rung origin
      | None -> Alcotest.failf "%s: cold" label);
      check_bool (label ^ ": sibling samples") true (aux = samples))
    [
      ([ "t/mm[16x16]" ], "exact", mm_samples);
      ([ "t/mm[512x64]" ], "class", mm_samples);
      ([ "t/mm[16x16]"; "t/mm[512x64]" ], "class", mm_samples);
      ([ "t/mm[16x16]"; "t/conv[8]" ], "global", Model_store.samples store);
    ];
  (match Model_store.warm_start session ~task_keys:[ "t/mm[16x16]" ] with
  | Some (_, g), _ ->
    check_bool "one key resolves the ladder's own model" true
      (match Pretrained.resolve bundle ~task_key:"t/mm[16x16]" with
      | Some (g', _) -> g == g'
      | None -> false)
  | None, _ -> Alcotest.fail "one key: cold");
  check_bool "cold on empty bundle, samples still offered" true
    (Model_store.warm_start (Model_store.in_memory store) ~task_keys:[ "t/conv[8]" ]
    = (None, Model_store.samples_for_class store
                ~class_key:(Ansor.Task_key.class_key "t/conv[8]")))

let test_open_session_fallbacks () =
  with_temp ".store" (fun p ->
      (* a missing store file is an empty, appendable session *)
      (match Model_store.open_session ~path:p () with
      | Ok ms ->
        check_int "missing file: empty store" 0
          (Model_store.size ms.Model_store.store);
        check_bool "path kept for appends" true (ms.Model_store.path = Some p)
      | Error e -> Alcotest.failf "missing store file rejected: %s" e);
      (* a corrupt models file falls back to in-memory pretraining *)
      let store = Model_store.create () in
      for i = 0 to 9 do
        ignore
          (Model_store.add store
             (sample
                ~prog_key:(Printf.sprintf "p%d" i)
                ~latency:(1e-3 +. (float_of_int i *. 1e-4))
                (float_of_int i /. 10.0)))
      done;
      Model_store.save ~path:p store;
      write_file (Model_store.models_path p) "junk\n";
      (match Model_store.open_session ~path:p () with
      | Ok ms ->
        check_bool "models error surfaced" true
          (ms.Model_store.models_error <> None);
        check_bool "fell back to pretraining from the store" true
          (Pretrained.num_models ms.Model_store.pretrained > 0)
      | Error e -> Alcotest.failf "corrupt models file became fatal: %s" e);
      (* a corrupt store file is a real error *)
      write_file p "not-a-store\n";
      match Model_store.open_session ~path:p () with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "corrupt store file accepted")

(* ---- Shared adoption semantics -------------------------------------------- *)

let test_shared_empty_adopt_is_noop () =
  let shared = Tuner.Shared.create () in
  let g = Tuner.Shared.generation shared in
  check_bool "nothing adopted" false
    (Tuner.Shared.adopt_store shared ~warm:None ~aux:[]);
  check_int "generation untouched" g (Tuner.Shared.generation shared);
  check_string "still cold" "cold" (Tuner.Shared.provenance shared);
  check_int "no warm starts" 0 (Tuner.Shared.warm_starts shared)

let test_shared_warm_applied_once () =
  let shared = Tuner.Shared.create () in
  let model, _ = tiny_model 31 in
  let g0 = Tuner.Shared.generation shared in
  check_bool "warm start happens" true
    (Tuner.Shared.adopt_store shared ~warm:(Some ("class", model)) ~aux:[]);
  check_string "provenance recorded" "class" (Tuner.Shared.provenance shared);
  check_int "exactly one generation bump" (g0 + 1)
    (Tuner.Shared.generation shared);
  check_int "one warm start" 1 (Tuner.Shared.warm_starts shared);
  (* a second adoption cannot clobber the warm model *)
  let other, _ = tiny_model 32 in
  check_bool "already warm: not re-adopted" false
    (Tuner.Shared.adopt_store shared ~warm:(Some ("global", other)) ~aux:[]);
  check_string "provenance unchanged" "class" (Tuner.Shared.provenance shared);
  check_int "still one warm start" 1 (Tuner.Shared.warm_starts shared)

let test_shared_merges_newer_samples_once () =
  let s1 = sample ~prog_key:"p1" ~latency:1e-3 0.5 in
  let s2 = sample ~prog_key:"p2" ~latency:2e-3 0.25 in
  let shared = Tuner.Shared.create () in
  let store = Model_store.create () in
  ignore (Model_store.add store s1);
  Tuner.Shared.attach_store shared store;
  let g0 = Tuner.Shared.generation shared in
  ignore (Tuner.Shared.adopt_store shared ~warm:None ~aux:[ s1 ]);
  check_int "aux merge bumps once" (g0 + 1) (Tuner.Shared.generation shared);
  check_int "one sibling record" 1 (Tuner.Shared.num_aux shared);
  ignore (Tuner.Shared.adopt_store shared ~warm:None ~aux:[ s1 ]);
  check_int "same aux: no second bump" (g0 + 1)
    (Tuner.Shared.generation shared);
  (* resume path: restore a snapshot, then merge samples appended by
     other sessions since — scores invalidate exactly once *)
  let snap = Tuner.Shared.snapshot shared in
  let shared2 = Tuner.Shared.create () in
  Tuner.Shared.attach_store shared2 store;
  Tuner.Shared.restore shared2 snap;
  let g1 = Tuner.Shared.generation shared2 in
  ignore (Model_store.add store s2);
  ignore
    (Tuner.Shared.adopt_store shared2 ~warm:None
       ~aux:(Model_store.samples store));
  check_int "newer sample merged with one bump" (g1 + 1)
    (Tuner.Shared.generation shared2);
  check_int "both siblings now" 2 (Tuner.Shared.num_aux shared2)

let test_shared_own_samples_never_retrain_twice () =
  let shared = Tuner.Shared.create () in
  let store = Model_store.create () in
  Tuner.Shared.attach_store shared store;
  let s = sample ~prog_key:"own1" ~latency:1e-3 0.5 in
  check_int "one sample persisted" 1 (Tuner.Shared.record_samples shared [ s ]);
  check_int "duplicate batch adds nothing" 0
    (Tuner.Shared.record_samples shared [ s ]);
  check_int "store holds it" 1 (Model_store.size store);
  check_int "store_added counter" 1 (Tuner.Shared.store_added shared);
  (* re-reading the store (e.g. on resume) must not train on our own
     contribution again *)
  let g = Tuner.Shared.generation shared in
  check_bool "own-only aux adopts nothing" false
    (Tuner.Shared.adopt_store shared ~warm:None
       ~aux:(Model_store.samples store));
  check_int "no aux from own samples" 0 (Tuner.Shared.num_aux shared);
  check_int "generation untouched" g (Tuner.Shared.generation shared)

(* ---- warm-vs-cold determinism at the session level ------------------------ *)

let tune_mm ?model_store ?snapshot_path ?(resume = false) ?should_stop
    ?on_round ?(workers = 1) ?(trials = 32) ?(m = 32) () =
  Ansor.tune ~seed:7 ~trials
    ~service_config:
      { Ansor.Measure_service.default_config with num_workers = workers }
    ?model_store ?snapshot_path ~resume ?should_stop ?on_round machine
    (Ansor.Nn.matmul ~m ~n:m ~k:m ())

let check_same_result msg (a : Ansor.tune_result) (b : Ansor.tune_result) =
  check_int (msg ^ ": trials") a.trials_used b.trials_used;
  check_float_bits (msg ^ ": best latency") a.best_latency b.best_latency;
  check_int (msg ^ ": curve length") (List.length a.curve)
    (List.length b.curve);
  List.iter2
    (fun (ta, la) (tb, lb) ->
      check_int (msg ^ ": curve trials") ta tb;
      check_float_bits (msg ^ ": curve latency") la lb)
    a.curve b.curve

let check_empty_store_bit_identical ~workers () =
  let plain = tune_mm ~workers () in
  let with_empty =
    tune_mm ~workers
      ~model_store:(Model_store.in_memory (Model_store.create ()))
      ()
  in
  check_same_result
    (Printf.sprintf "empty store, %d worker(s)" workers)
    plain with_empty;
  check_int "empty store session stays cold: no warm starts" 0
    with_empty.stats.Ansor.Telemetry.warm_starts

let test_empty_store_bit_identical_1w () =
  check_empty_store_bit_identical ~workers:1 ()

let test_empty_store_bit_identical_4w () =
  check_empty_store_bit_identical ~workers:4 ()

(* A populated pilot session to warm-start from: tune the 16^3 sibling
   once and pretrain a bundle from its measured samples.  Shared lazily
   across the warm-start tests. *)
let pilot =
  lazy
    (let store = Model_store.create () in
     let session = Model_store.in_memory store in
     let _ = tune_mm ~model_store:session ~trials:16 ~m:16 () in
     let bundle = Pretrained.train ~min_samples:1 store in
     (store, bundle))

let copy_store src =
  let dst = Model_store.create () in
  ignore (Model_store.add_all dst (Model_store.samples src));
  dst

let pilot_session () =
  let store, bundle = Lazy.force pilot in
  Model_store.in_memory ~pretrained:bundle (copy_store store)

let test_warm_start_fine_tunes () =
  let store, _ = Lazy.force pilot in
  check_bool "pilot stored samples" true (Model_store.size store > 0);
  let result = tune_mm ~model_store:(pilot_session ()) () in
  check_int "warm start counted" 1 result.stats.Ansor.Telemetry.warm_starts;
  check_bool "fine-tuning rounds counted" true
    (result.stats.Ansor.Telemetry.finetune_rounds > 0);
  check_bool "session contributed samples" true
    (result.stats.Ansor.Telemetry.store_samples > 0);
  check_bool "still finds a program" true (Option.is_some result.best_state)

let stop_after_rounds n =
  let rounds = ref 0 in
  ((fun () -> !rounds >= n), fun () -> incr rounds)

let check_warm_resume_equivalence ~workers () =
  with_temp ".snap" (fun p ->
      let tune ?snapshot_path ?(resume = false) ?should_stop ?on_round () =
        tune_mm ~workers ~trials:48 ~model_store:(pilot_session ())
          ?snapshot_path ~resume ?should_stop ?on_round ()
      in
      let reference = tune () in
      let should_stop, on_round = stop_after_rounds 1 in
      let interrupted = tune ~snapshot_path:p ~should_stop ~on_round () in
      check_bool "interrupted early" true
        (interrupted.Ansor.trials_used < reference.Ansor.trials_used);
      let resumed = tune ~snapshot_path:p ~resume:true () in
      check_same_result
        (Printf.sprintf "warm resume, %d worker(s)" workers)
        reference resumed;
      check_int "warm start survives the snapshot" 1
        resumed.stats.Ansor.Telemetry.warm_starts)

let test_warm_resume_equivalence_1w () = check_warm_resume_equivalence ~workers:1 ()
let test_warm_resume_equivalence_4w () = check_warm_resume_equivalence ~workers:4 ()

(* ---- the serving tier ------------------------------------------------------ *)

let small_net () =
  {
    Ansor.Workloads.net_name = "one";
    layers =
      [
        ( {
            Ansor.Workloads.case_name = "mm";
            dag = Ansor.Nn.matmul ~m:32 ~n:32 ~k:32 ();
          },
          1 );
      ];
  }

let server_config ~nominal ~seed =
  {
    Server.default_config with
    Server.shards = 2;
    service_workers = 2;
    noise = 0.0;
    seed;
    naive = true;
    load =
      {
        Loadgen.default_config with
        arrival_rate = 1.0 /. nominal;
        seed;
      };
    tuner = Some { Server.every = 20.0 *. nominal; trials = 4 };
  }

let nominal_of net =
  Server.nominal_latency
    (Server.create
       ~config:{ Server.default_config with Server.naive = true }
       ~registry:(Registry.create ()) ~machine net)

let test_server_first_retune_starts_warm () =
  let net = small_net () in
  let config = server_config ~nominal:(nominal_of net) ~seed:2 in
  let s =
    Server.create ~config ~model_store:(pilot_session ())
      ~registry:(Registry.create ()) ~machine net
  in
  Server.run s ~requests:150;
  let st = Server.stats s in
  check_bool "tuner ran" true (st.Server.tuner_rounds > 0);
  (* the pilot tuned the 16^3 sibling: the hot 32^3 key resolves its
     class model on the very first retune *)
  check_int "first retune warm-started" 1 st.Server.warm_starts;
  check_bool "retunes feed the store" true (st.Server.store_samples > 0);
  let contains hay needle =
    let n = String.length needle and h = String.length hay in
    let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
    go 0
  in
  check_bool "stats json carries the counter" true
    (contains (Server.stats_json st) "\"warm_starts\": 1")

let test_server_empty_store_bit_identical () =
  let net = small_net () in
  let nominal = nominal_of net in
  let run model_store =
    let config = server_config ~nominal ~seed:3 in
    let s =
      Server.create ~config ?model_store ~registry:(Registry.create ())
        ~machine net
    in
    Server.run s ~requests:150;
    Server.stats s
  in
  let a = run None in
  let b = run (Some (Model_store.in_memory (Model_store.create ()))) in
  check_int "served" a.Server.served b.Server.served;
  check_int "layer runs" a.Server.layer_runs b.Server.layer_runs;
  check_int "tuner rounds" a.Server.tuner_rounds b.Server.tuner_rounds;
  check_int "proposals" a.Server.proposals b.Server.proposals;
  check_int "promotions" a.Server.promotions b.Server.promotions;
  check_int "rollbacks" a.Server.rollbacks b.Server.rollbacks;
  check_int "no warm starts from an empty store" 0 b.Server.warm_starts;
  check_float_bits "sojourn p50" a.Server.sojourn.Ansor.Histogram.p50
    b.Server.sojourn.Ansor.Histogram.p50;
  check_float_bits "sojourn p999" a.Server.sojourn.Ansor.Histogram.p999
    b.Server.sojourn.Ansor.Histogram.p999;
  check_float_bits "virtual time" a.Server.vtime b.Server.vtime;
  check_int "same event log" (List.length a.Server.events)
    (List.length b.Server.events)

let () =
  Alcotest.run "model_store"
    [
      ( "task key",
        [
          case "class-key blanking" test_class_key_blanking;
          case "shape distance" test_shape_distance;
        ] );
      ( "gbdt persistence",
        [
          case "save/load bit-exact" test_gbdt_save_load_roundtrip;
          case "corruption rejected" test_gbdt_load_rejects_corruption;
          case "warm init fine-tunes" test_gbdt_warm_init;
        ] );
      ( "store",
        [
          case "round-trip bit-exact" test_store_roundtrip_bitexact;
          case "dedup by program hash" test_store_dedup;
          case "torn-file salvage" test_store_salvage_torn;
          case "append batch" test_store_append_batch;
          case "gc keeps newest per class" test_store_gc;
        ] );
      ( "pretraining",
        [
          case "per-task normalization" test_normalization_scale_invariance;
          case "resolution ladder" test_pretrained_ladder;
          case "session fallbacks" test_open_session_fallbacks;
        ] );
      ( "shared adoption",
        [
          case "empty adopt is a no-op" test_shared_empty_adopt_is_noop;
          case "warm applied once" test_shared_warm_applied_once;
          case "newer samples merge once" test_shared_merges_newer_samples_once;
          case "own samples filtered" test_shared_own_samples_never_retrain_twice;
        ] );
      ( "sessions",
        [
          case "empty store bit-identical (1 worker)"
            test_empty_store_bit_identical_1w;
          case "empty store bit-identical (4 workers)"
            test_empty_store_bit_identical_4w;
          case "warm start fine-tunes" test_warm_start_fine_tunes;
          case "warm resume equivalence (1 worker)"
            test_warm_resume_equivalence_1w;
          case "warm resume equivalence (4 workers)"
            test_warm_resume_equivalence_4w;
        ] );
      ( "serving",
        [
          case "first retune starts warm" test_server_first_retune_starts_warm;
          case "empty store bit-identical" test_server_empty_store_bit_identical;
        ] );
    ]
