(* Serving study: end-to-end request latency of registry dispatch vs
   naive dispatch under closed-loop load, plus the server under open-loop
   load.

   Part 1 tunes each subgraph of a small synthetic network briefly,
   builds a schedule registry from the results, then serves the same
   closed-loop request stream (each completion issues the next request,
   so latency is pure service time) three ways:

   - naive: every layer runs its default (unscheduled) program;
   - registry: every layer runs its tuned program (exact hits);
   - adapted: a network of shapes the registry has never seen, served
     through the similarity fallback (nearest structure class, tile
     sizes re-fit).

   The claim to check mirrors §7's end-to-end story on the serving side:
   registry dispatch beats naive by roughly the tuned speedup of its
   layers, and the similarity fallback lands much closer to tuned than
   to naive.

   Part 2 drives the server with open-loop Poisson arrivals through
   admission control) on the tuned registry: sustained throughput and
   accepted-tail latency as the worker/shard count scales, and a 10x
   burst spike against a bounded queue — overload must shed (classified,
   conserved) while the accepted p99 stays bounded.  Emits
   BENCH_serving.json for the CI bench gate, which checks conservation,
   a non-zero shed count under the spike, and the p99 containment
   ratio. *)

let json_path =
  match Sys.getenv_opt "ANSOR_BENCH_JSON" with
  | Some p -> p
  | None -> "BENCH_serving.json"

let net_of cases name =
  { Ansor.Workloads.net_name = name; layers = List.map (fun c -> (c, 1)) cases }

let serve_stats ~config ~registry ~machine net ~requests =
  let s = Ansor.Server.create ~config ~registry ~machine net in
  Ansor.Server.run s ~requests;
  Ansor.Server.stats s

let run () =
  Common.header "Serving: registry dispatch vs naive dispatch";
  let machine = Ansor.Machine.intel_cpu in
  let trials = Common.scaled 60 in
  let requests = Common.scaled 200 in
  let tuned_cases =
    [
      List.nth (Ansor.Workloads.op_cases ~op:"GMM" ~batch:1) 0;
      List.nth (Ansor.Workloads.op_cases ~op:"C1D" ~batch:1) 1;
    ]
  in
  let untuned_cases =
    [
      List.nth (Ansor.Workloads.op_cases ~op:"GMM" ~batch:1) 2;
      List.nth (Ansor.Workloads.op_cases ~op:"C1D" ~batch:1) 0;
    ]
  in
  (* tune each subgraph and register the best record *)
  let registry = Ansor.Registry.create () in
  List.iter
    (fun (case : Ansor.Workloads.case) ->
      let task =
        Ansor.Task.create ~name:case.case_name ~machine case.dag
      in
      let result = Ansor.tune ~seed:Common.seed ~trials machine case.dag in
      match result.best_state with
      | None ->
        Printf.printf "  %-12s no valid program found\n" case.case_name
      | Some st ->
        ignore
          (Ansor.Registry.add registry
             {
               Ansor.Record.task_key = Ansor.Task.key task;
               latency = result.best_latency;
               steps = st.Ansor.State.history;
             });
        Printf.printf "  %-12s tuned to %.4f ms (%d trials)\n"
          case.case_name
          (result.best_latency *. 1e3)
          result.trials_used)
    tuned_cases;
  let config =
    {
      Ansor.Server.default_config with
      Ansor.Server.seed = Common.seed;
      load =
        { Ansor.Loadgen.default_config with arrival_rate = 0.0; seed = Common.seed };
    }
  in
  let tuned_net = net_of tuned_cases "tuned-mix" in
  let untuned_net = net_of untuned_cases "untuned-mix" in
  let naive =
    serve_stats
      ~config:{ config with naive = true }
      ~registry ~machine tuned_net ~requests
  in
  let tuned = serve_stats ~config ~registry ~machine tuned_net ~requests in
  let adapted = serve_stats ~config ~registry ~machine untuned_net ~requests in
  let naive_untuned =
    serve_stats
      ~config:{ config with naive = true }
      ~registry ~machine untuned_net ~requests
  in
  Common.subheader
    (Printf.sprintf "request latency (%d requests each)" requests);
  let line label (s : Ansor.Server.stats) =
    Printf.printf
      "  %-22s mean %10.4f ms   p95 %10.4f ms   %d exact / %d adapted / %d \
       default\n"
      label
      (s.sojourn.Ansor.Histogram.mean *. 1e3)
      (s.sojourn.Ansor.Histogram.p95 *. 1e3)
      s.exact s.adapted s.defaulted
  in
  line "naive dispatch" naive;
  line "registry dispatch" tuned;
  line "adapted (untuned net)" adapted;
  line "naive (untuned net)" naive_untuned;
  if tuned.sojourn.Ansor.Histogram.mean > 0.0 then
    Printf.printf "\n  registry speedup over naive: %.1fx\n"
      (naive.sojourn.Ansor.Histogram.mean
      /. tuned.sojourn.Ansor.Histogram.mean);
  if adapted.sojourn.Ansor.Histogram.mean > 0.0 then
    Printf.printf
      "  similarity fallback speedup over naive (untuned shapes): %.1fx\n"
      (naive_untuned.sojourn.Ansor.Histogram.mean
      /. adapted.sojourn.Ansor.Histogram.mean);

  (* ---- part 2: the streaming tier under open-loop load ------------------ *)
  Common.subheader "Streaming tier: sustained load and a 10x burst spike";
  let stream_config ~workers ~shards ~queue_bound ~utilization ~bursts ~nominal
      =
    let rate = utilization *. float_of_int workers /. nominal in
    {
      Ansor.Server.default_config with
      Ansor.Server.shards;
      service_workers = workers;
      noise = 0.02;
      seed = Common.seed;
      load =
        {
          Ansor.Loadgen.arrival_rate = rate;
          bursts;
          tenants = [ Ansor.Loadgen.default_tenant ];
          seed = Common.seed;
        };
      admission =
        { Ansor.Admission.default_config with Ansor.Admission.queue_bound };
    }
  in
  let stream_stats config n =
    let s = Ansor.Server.create ~config ~registry ~machine tuned_net in
    Ansor.Server.run s ~requests:n;
    Ansor.Server.stats s
  in
  let nominal =
    Ansor.Server.nominal_latency
      (Ansor.Server.create ~registry ~machine tuned_net)
  in
  Printf.printf "  nominal service time: %.4f ms/request\n\n" (nominal *. 1e3);
  (* sustained: 60% utilization of each worker pool, default queue bound *)
  let sustained_n = Common.scaled 400 in
  Printf.printf "  %-18s %12s %14s %12s\n" "pool" "req/s" "p99 sojourn" "shed";
  let sustained =
    List.map
      (fun (workers, shards) ->
        let s =
          stream_stats
            (stream_config ~workers ~shards ~queue_bound:64 ~utilization:0.6
               ~bursts:[] ~nominal)
            sustained_n
        in
        let rps =
          float_of_int s.Ansor.Server.served /. Float.max s.Ansor.Server.vtime 1e-9
        in
        let p99 = s.Ansor.Server.sojourn.Ansor.Histogram.p99 in
        Printf.printf "  %2dw / %d shards   %12.0f %11.4f ms %12d\n" workers
          shards rps (p99 *. 1e3) s.Ansor.Server.shed;
        assert (Ansor.Server.conserved s);
        (workers, shards, rps, p99))
      [ (1, 1); (2, 2); (4, 4) ]
  in
  (* spike: a 10x burst against a 2-deep queue; sheds absorb the
     overload, the accepted tail stays bounded *)
  let spike_n = Common.scaled 300 in
  let spike bursts =
    stream_stats
      (stream_config ~workers:2 ~shards:2 ~queue_bound:2 ~utilization:0.5
         ~bursts ~nominal)
      spike_n
  in
  let calm = spike [] in
  let burst =
    spike
      [
        {
          Ansor.Loadgen.after = 50.0 *. nominal;
          len = 400.0 *. nominal;
          factor = 10.0;
        };
      ]
  in
  let p99_calm = calm.Ansor.Server.sojourn.Ansor.Histogram.p99 in
  let p99_burst = burst.Ansor.Server.sojourn.Ansor.Histogram.p99 in
  let p99_ratio = p99_burst /. Float.max p99_calm 1e-12 in
  Printf.printf
    "\n  spike (10x burst, queue bound 2): %d offered = %d served + %d shed \
     + %d quota\n"
    burst.Ansor.Server.offered burst.Ansor.Server.served
    burst.Ansor.Server.shed burst.Ansor.Server.quota_rejected;
  Printf.printf
    "  accepted p99: %.4f ms calm vs %.4f ms under burst (%.2fx, gate <= \
     2.0x)\n"
    (p99_calm *. 1e3) (p99_burst *. 1e3) p99_ratio;
  let oc = open_out json_path in
  Printf.fprintf oc
    "{\"requests\":%d,\"nominal_ms\":%.6f,\"sustained\":[%s],\
     \"spike_offered\":%d,\"spike_served\":%d,\"burst_shed\":%d,\
     \"spike_quota\":%d,\"baseline_conserved\":%b,\"burst_conserved\":%b,\
     \"baseline_p99_ms\":%.6f,\"burst_p99_ms\":%.6f,\"p99_ratio\":%.4f}\n"
    sustained_n (nominal *. 1e3)
    (String.concat ","
       (List.map
          (fun (w, sh, rps, p99) ->
            Printf.sprintf
              "{\"workers\":%d,\"shards\":%d,\"rps\":%.1f,\"p99_ms\":%.6f}" w
              sh rps (p99 *. 1e3))
          sustained))
    burst.Ansor.Server.offered burst.Ansor.Server.served
    burst.Ansor.Server.shed burst.Ansor.Server.quota_rejected
    (Ansor.Server.conserved calm)
    (Ansor.Server.conserved burst)
    (p99_calm *. 1e3) (p99_burst *. 1e3) p99_ratio;
  close_out oc;
  Printf.printf "  wrote %s\n" json_path
