open Ansor_te
open Ansor_sched

type tensors = (string * float array) list

exception Runtime_error of string

let error fmt = Format.kasprintf (fun s -> raise (Runtime_error s)) fmt

(* Row-major flattening with bounds checks. *)
let flatten name shape indices =
  let rec go shape indices acc =
    match (shape, indices) with
    | [], [] -> acc
    | d :: shape', i :: indices' ->
      if i < 0 || i >= d then
        error "index %d out of bounds [0, %d) for tensor %s" i d name;
      go shape' indices' ((acc * d) + i)
    | _ ->
      error "tensor %s: rank mismatch (%d indices for rank %d)" name
        (List.length indices) (List.length shape)
  in
  go shape indices 0

let random_inputs rng dag =
  Array.to_list (Dag.ops dag)
  |> List.filter_map (fun op ->
         match op with
         | Op.Placeholder { name; shape } ->
           let n = Prog.buffer_size shape in
           Some
             ( name,
               Array.init n (fun _ -> Ansor_util.Rng.float rng 2.0 -. 1.0) )
         | Op.Compute _ -> None)

(* Environment: tensor storage plus shapes. *)
module Env = struct
  type t = (string, float array * int list) Hashtbl.t

  let create () : t = Hashtbl.create 16

  let add t name shape data =
    let expected = Prog.buffer_size shape in
    if Array.length data <> expected then
      error "tensor %s: expected %d elements, got %d" name expected
        (Array.length data);
    Hashtbl.replace t name (data, shape)

  let alloc t name shape =
    Hashtbl.replace t name (Array.make (Prog.buffer_size shape) 0.0, shape)

  let find t name =
    match Hashtbl.find_opt t name with
    | Some v -> v
    | None -> error "unknown tensor %s" name

  let load t name indices =
    let data, shape = find t name in
    data.(flatten name shape indices)

end

let run_dag dag ~inputs =
  let env = Env.create () in
  List.iter
    (fun (name, data) ->
      let op = Dag.op dag (Dag.op_index dag name) in
      Env.add env name (Op.shape op) data)
    inputs;
  let computed = ref [] in
  Array.iter
    (fun op ->
      match op with
      | Op.Placeholder { name; _ } ->
        if not (Hashtbl.mem env name) then error "missing input tensor %s" name
      | Op.Compute c ->
        let shape = Op.shape op in
        Env.alloc env c.name shape;
        let data, _ = Env.find env c.name in
        (match c.reduce with
        | Some kind -> Array.fill data 0 (Array.length data) (Op.init_value kind)
        | None -> ());
        computed := c.name :: !computed;
        let axis_tbl = Hashtbl.create 8 in
        let axis_value v =
          match Hashtbl.find_opt axis_tbl v with
          | Some i -> i
          | None -> error "unbound axis %s in %s" v c.name
        in
        let load = Env.load env in
        (* iterate space axes, then reduction axes *)
        let rec iter_axes axes k =
          match axes with
          | [] -> k ()
          | (v, extent) :: rest ->
            for i = 0 to extent - 1 do
              Hashtbl.replace axis_tbl v i;
              iter_axes rest k
            done
        in
        iter_axes c.axes (fun () ->
            let out = flatten c.name shape (List.map (fun (v, _) -> axis_value v) c.axes) in
            match c.reduce with
            | None -> data.(out) <- Expr.eval ~axis_value ~load c.body
            | Some kind ->
              iter_axes c.reduce_axes (fun () ->
                  let x = Expr.eval ~axis_value ~load c.body in
                  data.(out) <- Op.combine kind data.(out) x)))
    (Dag.ops dag);
  List.rev_map (fun n -> (n, fst (Env.find env n))) !computed

(* Iteration semantics for [Parallel] loops.  A legal schedule computes
   the same tensors under every mode; a program with a cross-iteration
   race diverges in at least one — this is the differential oracle the
   static race detector (lib/analysis) is validated against. *)
type exec_mode =
  | Sequential  (** every loop low-to-high: the reference semantics *)
  | Reversed_parallel  (** [Parallel] loops iterated high-to-low *)
  | Snapshot_forward
      (** each [Parallel] iteration reads the state at loop entry and
          logs its writes; logs land in memory in iteration order —
          models lost updates between concurrent workers *)
  | Snapshot_reversed  (** as above, logs applied in reverse order *)

let order_modes = [ Reversed_parallel; Snapshot_forward; Snapshot_reversed ]

let run_prog_mode ~mode (prog : Prog.t) ~inputs =
  let env = Env.create () in
  let input_names = List.map fst inputs in
  List.iter
    (fun (name, shape) ->
      match List.assoc_opt name inputs with
      | Some data -> Env.add env name shape data
      | None -> Env.alloc env name shape)
    prog.buffers;
  List.iter
    (fun (name, v) ->
      let data, _ = Env.find env name in
      Array.fill data 0 (Array.length data) v)
    prog.inits;
  let vars = Hashtbl.create 32 in
  let lookup v =
    match Hashtbl.find_opt vars v with
    | Some i -> i
    | None -> error "unbound loop variable %s" v
  in
  (* Iteration-local copy-on-write view of written buffers, active while
     executing one iteration of a snapshotted parallel loop. *)
  let overlay : (string, float array) Hashtbl.t option ref = ref None in
  let log : (string * int * float) list ref = ref [] in
  let load name indices =
    let data, shape = Env.find env name in
    let i = flatten name shape indices in
    match !overlay with
    | Some o -> (
      match Hashtbl.find_opt o name with
      | Some local -> local.(i)
      | None -> data.(i))
    | None -> data.(i)
  in
  let store name indices f =
    let data, shape = Env.find env name in
    let i = flatten name shape indices in
    match !overlay with
    | None -> data.(i) <- f data.(i)
    | Some o ->
      let local =
        match Hashtbl.find_opt o name with
        | Some local -> local
        | None ->
          let local = Array.copy data in
          Hashtbl.replace o name local;
          local
      in
      local.(i) <- f local.(i);
      log := (name, i, local.(i)) :: !log
  in
  let rec exec = function
    | Prog.Stmt s ->
      let indices = List.map (Expr.eval_iexpr lookup) s.indices in
      let x = Expr.eval ~axis_value:lookup ~load s.rhs in
      store s.tensor indices (fun old ->
          match s.update with
          | None -> x
          | Some kind -> Op.combine kind old x)
    | Prog.Loop l ->
      let snapshot =
        (match mode with
        | Snapshot_forward | Snapshot_reversed -> true
        | Sequential | Reversed_parallel -> false)
        && l.ann = Step.Parallel
        && !overlay = None
      in
      if snapshot then (
        (* Outermost parallel loop: every iteration runs against the
           loop-entry state; cross-iteration dependences are lost. *)
        let logs =
          Array.init l.extent (fun i ->
              overlay := Some (Hashtbl.create 4);
              log := [];
              Hashtbl.replace vars l.lvar i;
              List.iter exec l.body;
              let entries = List.rev !log in
              overlay := None;
              log := [];
              entries)
        in
        let apply i =
          List.iter
            (fun (name, idx, v) ->
              let data, _ = Env.find env name in
              data.(idx) <- v)
            logs.(i)
        in
        if mode = Snapshot_reversed then
          for i = l.extent - 1 downto 0 do
            apply i
          done
        else
          for i = 0 to l.extent - 1 do
            apply i
          done)
      else if mode = Reversed_parallel && l.ann = Step.Parallel then
        for i = l.extent - 1 downto 0 do
          Hashtbl.replace vars l.lvar i;
          List.iter exec l.body
        done
      else
        for i = 0 to l.extent - 1 do
          Hashtbl.replace vars l.lvar i;
          List.iter exec l.body
        done
  in
  List.iter exec prog.items;
  List.filter_map
    (fun (name, _) ->
      if List.mem name input_names then None
      else Some (name, fst (Env.find env name)))
    prog.buffers

let run_prog prog ~inputs = run_prog_mode ~mode:Sequential prog ~inputs

let max_abs_diff a b =
  if Array.length a <> Array.length b then
    error "max_abs_diff: length mismatch (%d vs %d)" (Array.length a)
      (Array.length b);
  let d = ref 0.0 in
  Array.iteri (fun i x -> d := Float.max !d (Float.abs (x -. b.(i)))) a;
  !d

let order_sensitive ?(tol = 1e-9) (prog : Prog.t) ~inputs =
  let reference = run_prog_mode ~mode:Sequential prog ~inputs in
  List.find_opt
    (fun mode ->
      let alt = run_prog_mode ~mode prog ~inputs in
      List.exists
        (fun (name, r) ->
          match List.assoc_opt name alt with
          | None -> true
          | Some a -> max_abs_diff r a > tol)
        reference)
    order_modes

let check_equivalent ?(tol = 1e-4) dag prog ~inputs =
  match (run_dag dag ~inputs, run_prog prog ~inputs) with
  | exception Runtime_error msg -> Error msg
  | reference, scheduled -> (
    let check_output acc out_idx =
      match acc with
      | Error _ as e -> e
      | Ok () -> (
        let name = Op.name (Dag.op dag out_idx) in
        match (List.assoc_opt name reference, List.assoc_opt name scheduled) with
        | Some r, Some s ->
          let d = max_abs_diff r s in
          if d <= tol then Ok ()
          else Error (Printf.sprintf "output %s differs by %g" name d)
        | _ -> Error (Printf.sprintf "output %s missing" name))
    in
    match List.fold_left check_output (Ok ()) (Dag.outputs dag) with
    | Ok () -> Ok ()
    | Error _ as e -> e)
