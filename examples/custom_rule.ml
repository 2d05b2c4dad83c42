(* User-defined derivation rules (§4.1, Table 1, last row).

   The paper's rule set is open: "we allow users to register new
   derivation rules and integrate them seamlessly with existing rules".
   This example registers a rule specific to depthwise convolution that
   fuses the channel and height axes before the generic multi-level tiling
   runs, enlarging the parallelizable outer extent — the kind of
   algorithm-specific structure a Winograd- or TensorCore-style schedule
   would need.

     dune exec examples/custom_rule.exe
*)

open Ansor

(* The rule: on depthwise-style ops (one reduction window, channel axis
   equal to output channel axis), fuse the two outermost space axes, then
   let the default rules continue from the same node. *)
let fuse_outer_spatial : Rules.t =
  {
    Rules.name = "fuse-outer-spatial";
    condition =
      (fun st i ->
        match Dag.op st.State.dag i with
        | Op.Compute { axes; reduce_axes; _ } ->
          List.length axes >= 3
          && List.length reduce_axes = 2
          && Dag.has_data_reuse st.State.dag i
          && State.is_pristine (State.find_stage st (Op.name (Dag.op st.State.dag i)))
        | Op.Placeholder _ -> false);
    apply =
      (fun st i ->
        let name = Op.name (Dag.op st.State.dag i) in
        let stage = State.find_stage st name in
        match stage.State.leaves with
        | a :: b :: _ ->
          let st = State.apply st (Step.Fuse { stage = name; ivs = [ a; b ] }) in
          (* stay on the same node so the built-in tiling rules fire on
             the fused structure *)
          [ (st, i) ]
        | _ -> []);
    exclusive = true;
  }

let () =
  let dag =
    Nn.depthwise_conv2d ~n:1 ~c:32 ~h:28 ~w:28 ~kh:3 ~kw:3 ~stride:1 ~pad:1 ()
  in
  let default_sketches = Sketch_gen.generate dag in
  let custom_rules = fuse_outer_spatial :: Rules.default in
  let custom_sketches = Sketch_gen.generate ~rules:custom_rules dag in
  Printf.printf "sketches: default rules %d, with custom rule %d\n\n"
    (List.length default_sketches)
    (List.length custom_sketches);

  (* tune with the custom space *)
  let machine = Machine.intel_cpu in
  let options =
    {
      Tuner.ansor_options with
      strategy =
        Tuner.Sketch_search { rules = custom_rules; use_evolution = true };
    }
  in
  let custom = Ansor.tune ~seed:5 ~options ~trials:120 machine dag in
  Printf.printf "custom-rule space best: %.4f ms\n"
    (custom.best_latency *. 1e3);
  let default = Ansor.tune ~seed:5 ~trials:120 machine dag in
  Printf.printf "default     space best: %.4f ms\n"
    (default.best_latency *. 1e3);
  match custom.best_state with
  | Some st -> (
    match Ansor.verify_state st with
    | Ok () -> print_endline "verification: OK"
    | Error e -> Printf.printf "verification FAILED: %s\n" e)
  | None -> ()
