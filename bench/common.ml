(* Shared infrastructure for the experiment harness. *)

let scale =
  match Sys.getenv_opt "ANSOR_BENCH_SCALE" with
  | Some s -> ( match float_of_string_opt s with Some f when f > 0.0 -> f | _ -> 1.0)
  | None -> 1.0

let scaled n = max 8 (int_of_float (float_of_int n *. scale))

let seed =
  match Sys.getenv_opt "ANSOR_BENCH_SEED" with
  | Some s -> ( match int_of_string_opt s with Some i -> i | None -> 2020)
  | None -> 2020

let header title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

let subheader title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '-')

let row1 fmt = Printf.printf fmt

(* a normalized-throughput table: one row per workload, one column per
   framework; the best framework per row is 1.00 (the y-axis convention
   of Figures 6, 8 and 9) *)
let normalized_table ~row_label ~columns ~(rows : (string * float list) list) =
  Printf.printf "%-22s" row_label;
  List.iter (fun c -> Printf.printf "%12s" c) columns;
  print_newline ();
  List.iter
    (fun (name, latencies) ->
      let throughputs =
        List.map (fun l -> if l > 0.0 && Float.is_finite l then 1.0 /. l else 0.0) latencies
      in
      let best = List.fold_left Float.max 0.0 throughputs in
      Printf.printf "%-22s" name;
      List.iter
        (fun t ->
          if best > 0.0 && t > 0.0 then Printf.printf "%12.3f" (t /. best)
          else Printf.printf "%12s" "-")
        throughputs;
      print_newline ())
    rows

(* geometric-mean row over a list of per-case normalized latencies *)
let geomean_normalized (cases : float list list) =
  (* cases: per case, per framework latencies; result: per framework
     geomean of (throughput / best throughput) *)
  match cases with
  | [] -> []
  | first :: _ ->
    let nfw = List.length first in
    List.init nfw (fun fw ->
        let values =
          List.filter_map
            (fun lats ->
              let thr =
                List.map
                  (fun l -> if l > 0.0 && Float.is_finite l then 1.0 /. l else 0.0)
                  lats
              in
              let best = List.fold_left Float.max 0.0 thr in
              let v = List.nth thr fw in
              if best > 0.0 then Some (Float.max (v /. best) 1e-6) else None)
            cases
        in
        Ansor.Stats.geomean values)

let tune_case ?(options = Ansor.Tuner.ansor_options) ~machine ~trials
    (case : Ansor.Workloads.case) =
  match (Ansor.tune ~seed ~options ~trials machine case.dag).best_state with
  | None -> infinity
  | Some st ->
    (* final reporting uses the noise-free simulator estimate *)
    Ansor.Simulator.estimate machine (Ansor.Lower.lower st)

let vendor_case vendor ~machine (case : Ansor.Workloads.case) =
  let task = Ansor.Task.create ~name:case.case_name ~machine case.dag in
  Ansor.Baselines.vendor_latency vendor task

let time_of f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)
