(* Experiment harness: regenerates every table and figure of the paper's
   evaluation (§7) on the simulated machines.

     dune exec bench/main.exe            # everything (DESIGN.md §4)
     dune exec bench/main.exe -- fig6    # one experiment
     ANSOR_BENCH_SCALE=0.5 dune exec bench/main.exe   # faster, smaller budgets

   Absolute numbers come from the analytical simulator, not the authors'
   hardware; the claims to check are relative (who wins, by roughly what
   factor) — see EXPERIMENTS.md. *)

let experiments =
  [
    ("table1", "Table 1 / Figure 5: rules and sketches", Table1.run);
    ("fig3", "Figure 3: cost model on incomplete programs", Fig3.run);
    ("fig6", "Figure 6: single-operator benchmark", Fig6.run);
    ("fig7", "Figure 7: search-strategy ablation", Fig7.run);
    ("fig8", "Figure 8: subgraph benchmark", Fig8.run);
    ("fig9", "Figure 9: end-to-end network benchmark", Fig9.run);
    ("fig10", "Figure 10: task-scheduler ablation", Fig10.run);
    ("searchtime", "Search-time study (Ansor vs AutoTVM)", Searchtime.run);
    ("table2", "Table 2: multi-network objectives", Table2.run);
    ("ablation", "Design-choice ablations", Ablation.run);
    ("serving", "Serving: registry vs naive dispatch", Serving.run);
    ("costmodel", "Batch cost-model scoring throughput", Costmodel.run);
    ("native", "Native backend: batch compilation throughput", Native.run);
    ("transfer", "Cross-task transfer: warm vs cold tuning", Transfer.run);
    ("descent", "Exploitation descent: evolution vs evolution+descent", Descent.run);
  ]

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let t0 = Unix.gettimeofday () in
  Printf.printf
    "Ansor reproduction benchmark harness (scale %.2f, seed %d)\n"
    Common.scale Common.seed;
  let to_run =
    match args with
    | [] | [ "all" ] -> experiments
    | names ->
      List.map
        (fun name ->
          match List.find_opt (fun (n, _, _) -> n = name) experiments with
          | Some e -> e
          | None ->
            Printf.eprintf "unknown experiment %s; available: %s\n" name
              (String.concat ", " (List.map (fun (n, _, _) -> n) experiments));
            exit 1)
        names
  in
  List.iter
    (fun (name, _, run) ->
      let (), elapsed = Common.time_of run in
      Printf.printf "\n[%s finished in %.1fs]\n%!" name elapsed)
    to_run;
  Printf.printf "\nTotal: %.1fs\n" (Unix.gettimeofday () -. t0)
