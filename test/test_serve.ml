(* The serving subsystem: LRU cache, latency histogram and closed-loop
   serving through the server (serve-equivalence, telemetry,
   determinism). *)

open Helpers
module Lru = Ansor.Lru
module Histogram = Ansor.Histogram
module Server = Ansor.Server
module Registry = Ansor.Registry
module Record = Ansor.Record
module Task = Ansor.Task

let machine = Ansor.Machine.intel_cpu

(* ---- LRU ---------------------------------------------------------------- *)

let test_lru_eviction () =
  let c = Lru.create ~capacity:2 in
  Lru.add c "a" 1;
  Lru.add c "b" 2;
  check_bool "a cached" true (Lru.find c "a" = Some 1);
  (* "a" is now most-recent, so inserting "c" evicts "b" *)
  Lru.add c "c" 3;
  check_bool "b evicted" true (Lru.find c "b" = None);
  check_bool "a survives" true (Lru.find c "a" = Some 1);
  check_bool "c cached" true (Lru.find c "c" = Some 3);
  check_int "one eviction" 1 (Lru.evictions c);
  check_int "size at capacity" 2 (Lru.size c);
  check_bool "MRU first" true (List.hd (Lru.keys c) = "c")

let test_lru_replace_and_counters () =
  let c = Lru.create ~capacity:2 in
  Lru.add c "a" 1;
  Lru.add c "a" 10;
  check_int "replace keeps one slot" 1 (Lru.size c);
  check_bool "replaced value" true (Lru.find c "a" = Some 10);
  ignore (Lru.find c "missing");
  check_int "hits" 1 (Lru.hits c);
  check_int "misses" 1 (Lru.misses c);
  check_int "no eviction on replace" 0 (Lru.evictions c)

let test_lru_invalid_capacity () =
  match Lru.create ~capacity:0 with
  | _ -> Alcotest.fail "capacity 0 accepted"
  | exception Invalid_argument _ -> ()

let prop_lru_never_exceeds_capacity =
  qcheck ~count:50 "LRU never exceeds capacity"
    QCheck2.Gen.(pair (int_range 1 8) (list_size (int_range 0 40) (int_range 0 12)))
    (fun (cap, ops) ->
      let c = Lru.create ~capacity:cap in
      List.iter (fun k -> Lru.add c (string_of_int k) k) ops;
      Lru.size c <= cap
      && List.length (Lru.keys c) = Lru.size c)

(* ---- histogram ---------------------------------------------------------- *)

let test_histogram_quantiles () =
  let h = Histogram.create () in
  for i = 1 to 100 do
    Histogram.add h (float_of_int i)
  done;
  let s = Histogram.summary h in
  check_int "count" 100 s.Histogram.count;
  check_float "min" 1.0 s.Histogram.min;
  check_float "max" 100.0 s.Histogram.max;
  check_floatish "mean" 50.5 s.Histogram.mean;
  check_bool "p50 near the median" true
    (Float.abs (s.Histogram.p50 -. 50.5) <= 1.0);
  check_bool "p95 below max" true (s.Histogram.p95 < s.Histogram.max);
  check_bool "quantiles ordered" true
    (s.Histogram.p50 <= s.Histogram.p95 && s.Histogram.p95 <= s.Histogram.p99)

let test_histogram_merge_oracle () =
  (* merged quantiles must equal those of one histogram fed the
     concatenation of every part's samples (samples are retained exactly,
     so this is the sorted-concatenation oracle) *)
  let rng = Ansor.Rng.create 11 in
  let samples = List.init 3 (fun _ -> List.init 40 (fun _ -> Ansor.Rng.float rng 5.0)) in
  let parts =
    List.map
      (fun xs ->
        let h = Histogram.create () in
        List.iter (Histogram.add h) xs;
        h)
      samples
  in
  let merged = Histogram.merged_summary parts in
  let oracle = Histogram.create () in
  List.iter (List.iter (Histogram.add oracle)) samples;
  check_int "merged count" (Histogram.count oracle) merged.Histogram.count;
  List.iter
    (fun (q, x) ->
      check_float
        (Printf.sprintf "q=%.3f matches oracle" q)
        (Histogram.quantile oracle q)
        x)
    [ (0.0, merged.Histogram.min); (0.5, merged.Histogram.p50);
      (0.95, merged.Histogram.p95); (0.99, merged.Histogram.p99);
      (0.999, merged.Histogram.p999); (1.0, merged.Histogram.max) ];
  check_bool "p999 between p99 and max" true
    (merged.Histogram.p99 <= merged.Histogram.p999
    && merged.Histogram.p999 <= merged.Histogram.max);
  (* inputs untouched; the summary of nothing is empty *)
  check_int "parts untouched" 40 (Histogram.count (List.hd parts));
  check_int "empty merge" 0 (Histogram.merged_summary []).Histogram.count

let test_histogram_rejects_bad_samples () =
  let h = Histogram.create () in
  (match Histogram.add h (-1.0) with
  | _ -> Alcotest.fail "negative accepted"
  | exception Invalid_argument _ -> ());
  match Histogram.add h Float.nan with
  | _ -> Alcotest.fail "nan accepted"
  | exception Invalid_argument _ -> ()

(* Sample sets split over 0-5 histograms, with empty parts, parts that
   cross the 8 192-sample block boundary of the storage, and signed zeros:
   the global summary of the parts is bit for bit the summary of one
   histogram fed their concatenation. *)
let prop_histogram_parts_summary =
  let size =
    QCheck2.Gen.(
      frequency
        [ (2, return 0); (3, int_range 1 100); (2, int_range 8150 8250);
          (1, int_range 16350 16450) ])
  in
  qcheck ~count:40 ~seed:27 "parts summary"
    QCheck2.Gen.(pair (int_range 0 1_000_000) (list_size (int_range 0 5) size))
    (fun (seed, sizes) ->
      let rng = Ansor.Rng.create seed in
      let draw () =
        match Ansor.Rng.int rng 8 with
        | 0 -> 0.0
        | 1 -> -0.0
        | 2 -> float_of_int (Ansor.Rng.int rng 4) *. 1e-3
        | _ -> Ansor.Rng.float rng 5e-3
      in
      let samples = List.map (fun n -> List.init n (fun _ -> draw ())) sizes in
      let parts =
        List.map
          (fun xs ->
            let h = Histogram.create () in
            List.iter (Histogram.add h) xs;
            h)
          samples
      in
      let oracle = Histogram.create () in
      List.iter (List.iter (Histogram.add oracle)) samples;
      let bits (s : Histogram.summary) =
        Int64.of_int s.Histogram.count
        :: List.map Int64.bits_of_float
             [ s.Histogram.mean; s.Histogram.min; s.Histogram.max; s.Histogram.p50;
               s.Histogram.p95; s.Histogram.p99; s.Histogram.p999 ]
      in
      bits (Histogram.merged_summary parts)
      = bits (Histogram.summary oracle))

(* ---- closed-loop serving --------------------------------------------------------- *)

let small_case name dag = { Ansor.Workloads.case_name = name; dag }

let small_net () =
  {
    Ansor.Workloads.net_name = "tiny";
    layers =
      [
        (small_case "mm" (Ansor.Nn.matmul ~m:16 ~n:16 ~k:16 ()), 2);
        (small_case "mmr" (small_matmul_relu ()), 1);
      ];
  }

(* registry with a sampled (legal, non-trivial) schedule per layer *)
let registry_for net =
  let r = Registry.create () in
  List.iter
    (fun ((case : Ansor.Workloads.case), _) ->
      let task = Task.create ~name:case.case_name ~machine case.dag in
      match sample_programs ~seed:3 ~n:1 case.dag with
      | [ st ] ->
        ignore
          (Registry.add r
             {
               Record.task_key = Task.key task;
               latency = 1e-3;
               steps = st.Ansor.State.history;
             })
      | _ -> Alcotest.fail "sampling failed")
    net.Ansor.Workloads.layers;
  r

(* closed loop: each completion issues the next request *)
let closed_config =
  {
    Server.default_config with
    Server.load = { Ansor.Loadgen.default_config with arrival_rate = 0.0 };
  }

let serve ?(config = closed_config) ?(registry_of = registry_for) net ~requests =
  let s = Server.create ~config ~registry:(registry_of net) ~machine net in
  Server.run s ~requests;
  s

let verify s what =
  match Server.verify_outputs s with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "%s outputs diverge: %s" what msg

let shard_sum f (st : Server.stats) =
  List.fold_left (fun acc sh -> acc + f sh) 0 st.Server.shards

let test_serve_counts_and_stats () =
  let net = small_net () in
  let s = serve net ~requests:20 in
  let st = Server.stats s in
  check_int "offered" 20 st.Server.offered;
  check_int "served" 20 st.Server.served;
  check_int "nothing shed" 0 st.Server.shed;
  check_bool "conserved" true (Server.conserved st);
  check_int "layer runs" 40 st.Server.layer_runs;
  check_int "one compile per layer" 2 (shard_sum (fun sh -> sh.Server.misses) st);
  check_int "all exact" 2 st.Server.exact;
  check_int "none adapted" 0 st.Server.adapted;
  check_int "none defaulted" 0 st.Server.defaulted;
  check_int "sojourn samples" 20 st.Server.sojourn.Histogram.count;
  check_bool "positive latency" true (st.Server.sojourn.Histogram.mean > 0.0);
  (* statistics accumulate across runs; compiled programs stay cached *)
  Server.run s ~requests:5;
  let st = Server.stats s in
  check_int "offered across runs" 25 st.Server.offered;
  check_int "sojourn samples across runs" 25 st.Server.sojourn.Histogram.count;
  check_int "layer samples across runs" 50 st.Server.service.Histogram.count;
  check_int "still one compile per layer" 2
    (shard_sum (fun sh -> sh.Server.misses) st);
  let json = Server.stats_json st in
  let contains hay needle =
    let n = String.length needle and h = String.length hay in
    let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
    go 0
  in
  List.iter
    (fun key -> check_bool (key ^ " in json") true (contains json key))
    [ "\"conserved\": true"; "\"adapted\": 0"; "\"defaulted\": 0"; "p999" ]

let test_serve_equivalence () =
  (* the serving-side soundness oracle: every compiled program the
     server would run computes the same outputs as the naive evaluation
     of its DAG *)
  let s = serve (small_net ()) ~requests:1 in
  verify s "served"

let test_naive_dispatch () =
  let s = serve ~config:{ closed_config with naive = true } (small_net ()) ~requests:4 in
  let st = Server.stats s in
  check_int "all defaulted" 2 st.Server.defaulted;
  check_int "no exact" 0 st.Server.exact;
  verify s "naive"

let test_registry_beats_naive () =
  (* the acceptance bar: serving from a tuned registry is faster than
     naive dispatch of the same net.  Use a real (tuned, not sampled)
     record so the claim is about the system, not sampling luck. *)
  let case = small_case "mm" (Ansor.Nn.matmul ~m:32 ~n:32 ~k:32 ()) in
  let net = { Ansor.Workloads.net_name = "one"; layers = [ (case, 1) ] } in
  let r = Registry.create () in
  (match tuned_entry ~seed:4 ~trials:48 machine case.dag with
  | Some e -> ignore (Registry.add r e)
  | None -> Alcotest.fail "tuning found nothing");
  let noise_free = { closed_config with noise = 0.0 } in
  let mean config =
    let s = serve ~config ~registry_of:(fun _ -> r) net ~requests:10 in
    (Server.stats s).Server.sojourn.Histogram.mean
  in
  check_bool "tuned dispatch is faster" true
    (mean noise_free < mean { noise_free with naive = true })

let test_noise_free_sojourn () =
  (* requests never queue, so every sojourn is exactly one service time *)
  let s = serve ~config:{ closed_config with noise = 0.0 } (small_net ()) ~requests:12 in
  let nominal = Server.nominal_latency s in
  let so = (Server.stats s).Server.sojourn in
  List.iter
    (fun (what, x) ->
      check_bool (what ^ " = nominal") true
        (Float.abs (x -. nominal) <= 1e-9 *. nominal))
    [ ("min", so.Histogram.min); ("max", so.Histogram.max); ("p50", so.Histogram.p50);
      ("p99", so.Histogram.p99) ]

let test_worker_count_invariance () =
  (* per-request jitter streams are a pure function of the request id and
     closed-loop requests never wait, so sojourns are the same for any
     number of service workers *)
  let net = small_net () in
  let summary workers =
    let config = { closed_config with service_workers = workers } in
    (Server.stats (serve ~config net ~requests:20)).Server.sojourn
  in
  let a = summary 1 and b = summary 3 in
  check_int "count" a.Histogram.count b.Histogram.count;
  List.iter
    (fun (what, x, y) ->
      check_bool (what ^ " invariant") true (Float.abs (x -. y) <= 1e-9 *. x))
    [
      ("mean", a.Histogram.mean, b.Histogram.mean);
      ("p50", a.Histogram.p50, b.Histogram.p50);
      ("p99", a.Histogram.p99, b.Histogram.p99);
      ("max", a.Histogram.max, b.Histogram.max);
    ]

let test_lru_eviction_under_pressure () =
  (* one shard of capacity 1 for two layers: every request recompiles and
     the eviction counter moves *)
  let config = { closed_config with shards = 1; capacity = 1 } in
  let s = serve ~config (small_net ()) ~requests:4 in
  let st = Server.stats s in
  check_bool "evictions happened" true (shard_sum (fun sh -> sh.Server.evictions) st > 0);
  check_bool "recompiles happened" true (shard_sum (fun sh -> sh.Server.misses) st > 2);
  verify s "evicted"

let test_create_validation () =
  let net = small_net () in
  let r = Registry.create () in
  (match
     Server.create ~config:{ closed_config with capacity = 0 } ~registry:r ~machine net
   with
  | _ -> Alcotest.fail "capacity 0 accepted"
  | exception Invalid_argument _ -> ());
  match
    Server.create ~registry:r ~machine
      { Ansor.Workloads.net_name = "empty"; layers = [] }
  with
  | _ -> Alcotest.fail "empty net accepted"
  | exception Invalid_argument _ -> ()

(* MobileNet-V2 served closed loop from an empty registry (every layer on
   its default schedule) at a fixed seed: 100 000 requests leave 1.1 M layer
   samples, enough to cross every growth step of the histogram storage.
   Built once, with the major-heap words that [Server.run] and the first
   [Server.stats] allocate. *)
let mobilenet_served =
  lazy
    (let config =
       { closed_config with seed = 3; load = { closed_config.load with seed = 3 } }
     in
     let s =
       Server.create ~config ~registry:(Registry.create ()) ~machine
         (Ansor.Workloads.mobilenet_v2 ~batch:1)
     in
     let major () = (Gc.quick_stat ()).Gc.major_words in
     let w0 = major () in
     Server.run s ~requests:100_000;
     let w1 = major () in
     let st = Server.stats s in
     let w2 = major () in
     (s, st, w1 -. w0, w2 -. w1))

let test_mobilenet_golden () =
  let s, st, _, _ = Lazy.force mobilenet_served in
  check_int "layer samples" 1_100_000 st.Server.layer_runs;
  let digest str = Digest.to_hex (Digest.string str) in
  check_string "stats json" "67a98b7940328eb7d4449f389ee6743c"
    (digest (Server.stats_json { st with Server.wall_seconds = 0.0 }));
  check_string "report" "f51d553099a91aee1dcbc4696ea0ffb6" (digest (Server.report s st))

(* Exact statistics cost about one copy of their samples: storage grows
   without copying old samples, and the global view sorts one exact-size
   concatenation.  The run is single-domain at a fixed seed, so the counts
   repeat. *)
let test_mobilenet_major_words () =
  let _, st, run_words, stats_words = Lazy.force mobilenet_served in
  let per words = words /. float_of_int st.Server.layer_runs in
  let bounded what words bound =
    check_bool
      (Printf.sprintf "%s: %.2f major words per sample <= %.1f" what (per words) bound)
      true
      (per words <= bound)
  in
  bounded "Server.run" run_words 2.0;
  bounded "Server.stats" stats_words 2.5

let () =
  Alcotest.run "serve"
    [
      ( "lru",
        [
          case "eviction order" test_lru_eviction;
          case "replace and counters" test_lru_replace_and_counters;
          case "invalid capacity" test_lru_invalid_capacity;
          prop_lru_never_exceeds_capacity;
        ] );
      ( "histogram",
        [
          case "quantiles" test_histogram_quantiles;
          case "merge against concatenation oracle" test_histogram_merge_oracle;
          case "bad samples rejected" test_histogram_rejects_bad_samples;
          prop_histogram_parts_summary;
        ] );
      ( "closed-loop",
        [
          case "serve counts and stats json" test_serve_counts_and_stats;
          case "served outputs match naive evaluation" test_serve_equivalence;
          case "naive dispatch" test_naive_dispatch;
          case "registry dispatch beats naive" test_registry_beats_naive;
          case "noise-free sojourn is nominal" test_noise_free_sojourn;
          case "worker-count invariance" test_worker_count_invariance;
          case "LRU eviction under pressure" test_lru_eviction_under_pressure;
          case "creation validation" test_create_validation;
          case "MobileNet-V2 stats golden" test_mobilenet_golden;
          case "MobileNet-V2 major words" test_mobilenet_major_words;
        ] );
    ]
