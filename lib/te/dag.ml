type t = {
  ops : Op.t array;
  cons : int list array;  (* consumers of each op *)
  prods : int list array;  (* producers of each op *)
}

let toposort (ops : Op.t list) : Op.t list =
  let by_name = Hashtbl.create 16 in
  List.iter
    (fun op ->
      let n = Op.name op in
      if Hashtbl.mem by_name n then
        invalid_arg (Printf.sprintf "Dag.create: duplicate operator name %s" n);
      Hashtbl.add by_name n op)
    ops;
  let visited = Hashtbl.create 16 (* name -> [`In_progress | `Done] *) in
  let order = ref [] in
  let rec visit op =
    let n = Op.name op in
    match Hashtbl.find_opt visited n with
    | Some `Done -> ()
    | Some `In_progress -> invalid_arg "Dag.create: cycle in DAG"
    | None ->
      Hashtbl.replace visited n `In_progress;
      List.iter
        (fun input ->
          match Hashtbl.find_opt by_name input with
          | Some producer -> visit producer
          | None ->
            invalid_arg
              (Printf.sprintf "Dag.create: %s reads undefined tensor %s" n input))
        (Op.input_tensors op);
      Hashtbl.replace visited n `Done;
      order := op :: !order
  in
  List.iter visit ops;
  List.rev !order

let create op_list =
  let ops = Array.of_list (toposort op_list) in
  let n = Array.length ops in
  let index = Hashtbl.create 16 in
  Array.iteri (fun i op -> Hashtbl.add index (Op.name op) i) ops;
  let cons = Array.make n [] and prods = Array.make n [] in
  Array.iteri
    (fun i op ->
      List.iter
        (fun input ->
          let p = Hashtbl.find index input in
          prods.(i) <- p :: prods.(i);
          cons.(p) <- i :: cons.(p))
        (Op.input_tensors op))
    ops;
  Array.iteri (fun i l -> cons.(i) <- List.rev l) cons;
  Array.iteri (fun i l -> prods.(i) <- List.rev l) prods;
  { ops; cons; prods }

let ops t = t.ops
let num_ops t = Array.length t.ops
let op t i = t.ops.(i)

let op_index t name =
  let rec go i =
    if i >= Array.length t.ops then raise Not_found
    else if String.equal (Op.name t.ops.(i)) name then i
    else go (i + 1)
  in
  go 0

let consumers t i = t.cons.(i)
let producers t i = t.prods.(i)

let outputs t =
  let acc = ref [] in
  Array.iteri (fun i _ -> if t.cons.(i) = [] then acc := i :: !acc) t.ops;
  List.rev !acc

let is_output t i = t.cons.(i) = []

let flops t = Array.fold_left (fun acc op -> acc + Op.flops op) 0 t.ops

let workload_key t =
  Array.to_list t.ops
  |> List.map (fun op -> Format.asprintf "%a" Op.pp op)
  |> String.concat "; "

let is_strict_inlinable t i =
  match t.ops.(i) with
  | Op.Placeholder _ -> false
  | Op.Compute { reduce_axes; _ } -> reduce_axes = []

let has_data_reuse t i =
  match t.ops.(i) with
  | Op.Placeholder _ -> false
  | Op.Compute { reduce_axes = []; _ } -> false
  | Op.Compute { axes; body; _ } ->
    let space_vars = List.map fst axes in
    (* Reuse: some input tensor is indexed without one of the space axes,
       hence re-read for every value of that axis. *)
    List.exists
      (fun (_tensor, idx) ->
        let used = List.concat_map Expr.iexpr_axes idx in
        List.exists (fun v -> not (List.mem v used)) space_vars)
      (Expr.accesses body)

let fusible_consumer t i =
  match consumers t i with
  | [ j ] -> (
    match (t.ops.(i), t.ops.(j)) with
    | op_i, Op.Compute { axes; reduce_axes = []; body; _ }
      when Op.shape op_i = List.map snd axes ->
      (* The consumer must read tensor i exactly at its own space point. *)
      let identity idx =
        List.length idx = List.length axes
        && List.for_all2
             (fun ie (v, _) -> ie = Expr.Axis v)
             idx axes
      in
      let reads_i =
        List.filter
          (fun (n, _) -> String.equal n (Op.name op_i))
          (Expr.accesses body)
      in
      if reads_i <> [] && List.for_all (fun (_, idx) -> identity idx) reads_i
      then Some j
      else None
    | _ -> None)
  | _ -> None

let has_more_reduction_parallel t i =
  match t.ops.(i) with
  | Op.Placeholder _ -> false
  | Op.Compute { reduce_axes = []; _ } -> false
  | Op.Compute _ as op ->
    let space = Op.output_elems op and red = Op.reduce_extent op in
    space <= 64 && red >= 64

let pp fmt t =
  Format.fprintf fmt "@[<v>%a@]"
    (Format.pp_print_list
       ~pp_sep:(fun fmt () -> Format.pp_print_cut fmt ())
       Op.pp)
    (Array.to_list t.ops)
