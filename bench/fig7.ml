(* Figure 7: ablation study of four variants of Ansor on one convolution
   operator (the last conv2d of ResNet-50, batch 16), reporting the
   best-found performance against measurement trials. *)

open Common

let variants =
  [
    ("Ansor (ours)", Ansor.Tuner.ansor_options);
    ( "Ansor + descent",
      {
        Ansor.Tuner.ansor_options with
        Ansor.Tuner.descent = Some Ansor.Descent.default_config;
      } );
    ("Beam search", Ansor.Tuner.beam_options);
    ("No fine-tuning", Ansor.Tuner.no_finetune_options);
    ("Limited space", Ansor.Tuner.limited_options);
  ]

let run () =
  header "Figure 7: ablation on the last conv2d of ResNet-50 (batch 16)";
  let machine = Ansor.Machine.intel_cpu in
  let dag =
    Ansor.Nn.conv2d ~n:16 ~c:512 ~h:7 ~w:7 ~f:512 ~kh:3 ~kw:3 ~stride:1 ~pad:1 ()
  in
  let task = Ansor.Task.create ~name:"resnet-last-conv" ~machine dag in
  let trials = scaled 500 in
  let curves =
    List.map
      (fun (name, options) ->
        let (tuner, service), elapsed =
          time_of (fun () -> Ansor.Tuner.tune ~seed options ~trials task)
        in
        let stats = Ansor.Measure_service.stats service in
        Printf.printf "  %-16s best %8.4f ms (%.1fs)\n    %s\n%!" name
          (Ansor.Tuner.best_latency tuner *. 1e3)
          elapsed (Ansor.Telemetry.summary stats);
        (name, Ansor.Tuner.curve tuner, Ansor.Tuner.best_latency tuner))
      variants
  in
  let best_overall =
    List.fold_left (fun acc (_, _, b) -> Float.min acc b) infinity curves
  in
  (* resample each curve at fixed trial checkpoints *)
  let checkpoints =
    List.filter (fun c -> c <= trials) [ 16; 32; 64; 128; 200; 300; 400; 500; 750; 1000 ]
  in
  Printf.printf "\nRelative performance (1.00 = best program found by any variant):\n";
  Printf.printf "%-10s" "trials";
  List.iter (fun (name, _, _) -> Printf.printf "%18s" name) curves;
  print_newline ();
  List.iter
    (fun cp ->
      Printf.printf "%-10d" cp;
      List.iter
        (fun (_, curve, _) ->
          let best_at =
            List.fold_left
              (fun acc (t, l) -> if t <= cp then Float.min acc l else acc)
              infinity curve
          in
          if Float.is_finite best_at then
            Printf.printf "%18.3f" (best_overall /. best_at)
          else Printf.printf "%18s" "-")
        curves;
      print_newline ())
    checkpoints;
  Printf.printf
    "\nExpected shape (paper): dropping the large space (Limited) or the\n\
     fine-tuning (No fine-tuning) hurts final performance; Beam search's\n\
     early pruning of incomplete programs converges lower.\n"
