(* Batch cost-model scoring benchmark: the candidates/sec of the three
   scoring pipelines on an evolution-shaped candidate stream —

     sequential    per-candidate lower + featurize + score (the old path)
     pooled        a fresh Score_service per generation: batched fan-out
                   and in-batch dedup, but no cross-generation reuse
     pooled+cache  one Score_service for the whole stream, as in one
                   tuner round under one model: candidates surviving into
                   the next generation skip featurization entirely

   The stream mimics an evolutionary search: consecutive generations
   share ~60% of their candidates (elites and re-selected parents) and
   ~25% of each generation are intra-batch duplicates (mutation failures
   fall back to the parent).  One pipeline takes a few hundredths of a
   second, so a single timing of each is a race that host noise can
   decide: the three are timed in turn over [reps] interleaved
   repetitions, and each rate is the candidate count over the median
   time.  Emits BENCH_costmodel.json for the CI bench gate, which checks
   pooled >= sequential, a non-zero cache hit rate and the table's
   hit/miss counts (deterministic, so equal to the committed ones), and
   verifies the bit-identity invariant on every score of every
   repetition. *)

open Common

let machine = Ansor.Machine.intel_cpu

let json_path =
  match Sys.getenv_opt "ANSOR_BENCH_JSON" with
  | Some p -> p
  | None -> "BENCH_costmodel.json"

let generations = 3
let reps = 9

let build_stream () =
  let dag =
    Ansor.Nn.conv_layer ~n:1 ~c:64 ~h:28 ~w:28 ~f:64 ~kh:3 ~kw:3 ~stride:1
      ~pad:1 ()
  in
  let sketches = Ansor.Sketch_gen.generate dag in
  let policy = Ansor.Policy.cpu ~workers:20 in
  let rng = Ansor.Rng.create seed in
  let pool =
    Array.of_list
      (Ansor.Sampler.sample rng policy dag ~sketches ~n:(scaled 128))
  in
  let p = Array.length pool in
  let m = min (scaled 64) p in
  let shift = max 1 (2 * m / 5) in
  (* generation g, candidate i: windows sliding by [shift] give ~60%
     carryover; every 4th slot repeats its predecessor (intra-batch dup) *)
  let gen g =
    List.init m (fun i ->
        let j = if i mod 4 = 3 then i - 1 else i in
        pool.(((g * shift) + j) mod p))
  in
  let records =
    List.filteri (fun i _ -> i < min 32 p) (Array.to_list pool)
    |> List.filter_map (fun st ->
           match Ansor.Lower.lower st with
           | exception Ansor.State.Illegal _ -> None
           | prog ->
             let latency = Ansor.Simulator.estimate machine prog in
             (match
                Ansor.Cost_model.record_of_prog ~task_key:"bench" ~latency prog
              with
             | r -> Some r
             | exception Invalid_argument _ -> None))
  in
  let model = Ansor.Cost_model.train records in
  (model, List.init generations gen)

let sequential model stream =
  List.map
    (List.map (fun st ->
         match Ansor.Lower.lower st with
         | exception Ansor.State.Illegal _ -> Float.neg_infinity
         | prog -> Ansor.Cost_model.score_prog model prog))
    stream

let service ~num_workers model =
  let sc = Ansor.Score_service.create ~num_workers machine in
  Ansor.Score_service.set_model sc model;
  sc

let pooled ~num_workers model stream =
  List.map
    (fun g -> Ansor.Score_service.score_states (service ~num_workers model) g)
    stream

let pooled_cache ~num_workers model stream =
  let sc = service ~num_workers model in
  let scores = List.map (Ansor.Score_service.score_states sc) stream in
  (scores, Ansor.Score_service.stats sc)

let cps n elapsed = float_of_int n /. Float.max elapsed 1e-9

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a.(Array.length a / 2)

let run () =
  header "Cost-model batch scoring: sequential vs pooled vs pooled+cache";
  let model, stream = build_stream () in
  let n = List.fold_left (fun acc g -> acc + List.length g) 0 stream in
  let workers = Domain.recommended_domain_count () in
  let runs =
    List.init reps (fun _ ->
        let seq_scores, seq_t = time_of (fun () -> sequential model stream) in
        let pooled_scores, pooled_t =
          time_of (fun () -> pooled ~num_workers:workers model stream)
        in
        let (cached_scores, stats), cached_t =
          time_of (fun () -> pooled_cache ~num_workers:workers model stream)
        in
        let identical l =
          List.for_all2 (List.for_all2 Float.equal) seq_scores l
        in
        ( (seq_t, pooled_t, cached_t),
          identical pooled_scores && identical cached_scores,
          stats ))
  in
  let times = List.map (fun (t, _, _) -> t) runs in
  let seq_t = median (List.map (fun (t, _, _) -> t) times)
  and pooled_t = median (List.map (fun (_, t, _) -> t) times)
  and cached_t = median (List.map (fun (_, _, t) -> t) times) in
  let bit_identical = List.for_all (fun (_, ok, _) -> ok) runs in
  let _, _, stats = List.hd runs in
  let probes = stats.Ansor.Score_service.hits + stats.misses in
  let hit_rate =
    if probes = 0 then 0.0
    else float_of_int stats.Ansor.Score_service.hits /. float_of_int probes
  in
  let seq_cps = cps n seq_t
  and pooled_cps = cps n pooled_t
  and cached_cps = cps n cached_t in
  Printf.printf "%-22s %12s %14s\n" "pipeline" "cand/s" "vs sequential";
  Printf.printf "%-22s %12.0f %14s\n" "sequential" seq_cps "1.00x";
  Printf.printf "%-22s %12.0f %13.2fx\n" "pooled" pooled_cps
    (pooled_cps /. seq_cps);
  Printf.printf "%-22s %12.0f %13.2fx\n" "pooled+cache" cached_cps
    (cached_cps /. seq_cps);
  Printf.printf
    "\ncandidates=%d workers=%d medians of %d interleaved runs\n\
     cache: hits=%d misses=%d (%.0f%% hit rate)\n"
    n workers reps stats.Ansor.Score_service.hits stats.misses
    (100.0 *. hit_rate);
  Printf.printf "bit-identical to sequential: %b\n" bit_identical;
  let oc = open_out json_path in
  Printf.fprintf oc
    "{\"candidates\":%d,\"generations\":%d,\"workers\":%d,\
     \"sequential_cps\":%.1f,\"pooled_cps\":%.1f,\"pooled_cache_cps\":%.1f,\
     \"cache_hits\":%d,\"cache_misses\":%d,\"cache_hit_rate\":%.4f,\
     \"bit_identical\":%b}\n"
    n generations workers seq_cps pooled_cps cached_cps
    stats.Ansor.Score_service.hits stats.misses hit_rate bit_identical;
  close_out oc;
  Printf.printf "wrote %s\n" json_path;
  if not bit_identical then begin
    prerr_endline "costmodel bench: batched scores diverge from sequential";
    exit 1
  end
