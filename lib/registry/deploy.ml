open Ansor_sched
module Codegen_c = Ansor_codegen.Codegen_c
module Task = Ansor_search.Task

type kernel = {
  kernel_name : string;
  task_name : string;
  params : (string * string) list;
  outcome : Registry.outcome;
}

let plan ~machine ~registry subgraphs =
  let used = Hashtbl.create 16 in
  let unique base =
    let rec go candidate k =
      if Hashtbl.mem used candidate then
        go (Printf.sprintf "%s_%d" base k) (k + 1)
      else begin
        Hashtbl.replace used candidate ();
        candidate
      end
    in
    go base 1
  in
  List.map
    (fun (name, dag) ->
      let state, outcome =
        Registry.resolve registry (Task.create ~name ~machine dag)
      in
      let prog = Lower.lower state in
      let kernel =
        {
          kernel_name = unique (Codegen_c.sanitize name);
          task_name = name;
          params = Codegen_c.params prog;
          outcome;
        }
      in
      (kernel, prog))
    subgraphs

let emit ~machine ~registry subgraphs =
  let kernels = plan ~machine ~registry subgraphs in
  let buf = Buffer.create 16384 in
  Buffer.add_string buf
    "/* Generated by the Ansor reproduction: one kernel per tuned subgraph.\n";
  Buffer.add_string buf
    (Printf.sprintf " * target machine model: %s\n *\n"
       machine.Ansor_machine.Machine.name);
  List.iter
    (fun (k, prog) ->
      let latency = Ansor_machine.Simulator.estimate machine prog in
      Buffer.add_string buf
        (Printf.sprintf " *   %-28s -> %s (%s, %.4f ms simulated)\n" k.task_name
           k.kernel_name
           (Registry.outcome_to_string k.outcome)
           (latency *. 1e3)))
    kernels;
  Buffer.add_string buf " */\n\n";
  (* includes and helpers once, then one plain kernel function each *)
  Buffer.add_string buf "#include <math.h>\n\n";
  Buffer.add_string buf Codegen_c.helpers;
  Buffer.add_char buf '\n';
  List.iter
    (fun (k, prog) ->
      Buffer.add_string buf (Codegen_c.emit_kernel_fn ~name:k.kernel_name prog);
      Buffer.add_char buf '\n')
    kernels;
  Buffer.contents buf
