type node =
  | Leaf of float
  | Node of { feature : int; threshold : float; left : node; right : node }

type t = {
  base : float;
  trees : node list;
  n_features : int;
  importance : float array;
}

type params = {
  n_trees : int;
  max_depth : int;
  min_samples_leaf : int;
  learning_rate : float;
  min_gain : float;
}

let default_params =
  {
    n_trees = 60;
    max_depth = 6;
    min_samples_leaf = 4;
    learning_rate = 0.12;
    min_gain = 1e-9;
  }

let max_bins = 32

(* Quantile bin edges per feature: at most [max_bins - 1] thresholds. *)
let make_bins x n_features =
  let n = Array.length x in
  Array.init n_features (fun f ->
      let vals = Array.init n (fun i -> x.(i).(f)) in
      Array.sort compare vals;
      (* distinct quantiles *)
      let edges = ref [] in
      for b = 1 to max_bins - 1 do
        let q = float_of_int b /. float_of_int max_bins in
        let idx = int_of_float (q *. float_of_int (n - 1)) in
        let v = vals.(idx) in
        match !edges with
        | e :: _ when e >= v -> ()
        | _ -> edges := v :: !edges
      done;
      Array.of_list (List.rev !edges))

let bin_value edges v =
  (* index of first edge > v; edges sorted ascending *)
  let lo = ref 0 and hi = ref (Array.length edges) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if v < edges.(mid) then hi := mid else lo := mid + 1
  done;
  !lo

let rec eval tree row =
  match tree with
  | Leaf v -> v
  | Node { feature; threshold; left; right } ->
    if feature < Array.length row && row.(feature) < threshold then
      eval left row
    else if feature < Array.length row then eval right row
    else eval left row

let predict t row =
  List.fold_left (fun acc tree -> acc +. eval tree row) t.base t.trees

let train ?(params = default_params) ?init ~x ~y ?w () =
  let n = Array.length x in
  if n = 0 then invalid_arg "Gbdt.train: empty training set";
  let n_features = Array.length x.(0) in
  Array.iter
    (fun row ->
      if Array.length row <> n_features then
        invalid_arg "Gbdt.train: ragged feature matrix")
    x;
  if Array.length y <> n then invalid_arg "Gbdt.train: |y| <> |x|";
  let w = match w with Some w -> w | None -> Array.make n 1.0 in
  if Array.length w <> n then invalid_arg "Gbdt.train: |w| <> |x|";
  let wsum = Array.fold_left ( +. ) 0.0 w in
  if wsum <= 0.0 then invalid_arg "Gbdt.train: weights sum to zero";
  let edges = make_bins x n_features in
  let binned =
    Array.map (fun row -> Array.mapi (fun f v -> bin_value edges.(f) v) row) x
  in
  (* Warm start: with [init], boosting continues from the pretrained
     model's predictions — new trees fit the residuals the old model
     leaves behind, and the result carries the old trees in front.  The
     base then stays the init model's (its trees already encode any
     shift toward the new data). *)
  let base =
    match init with
    | Some m -> m.base
    | None ->
      let s = ref 0.0 in
      Array.iteri (fun i yi -> s := !s +. (w.(i) *. yi)) y;
      !s /. wsum
  in
  let pred =
    match init with
    | Some m -> Array.map (predict m) x
    | None -> Array.make n base
  in
  let out_features =
    match init with Some m -> max m.n_features n_features | None -> n_features
  in
  let importance = Array.make out_features 0.0 in
  (match init with
  | Some m ->
    Array.iteri
      (fun f g -> if f < out_features then importance.(f) <- g)
      m.importance
  | None -> ());
  (* one boosting round: fit a tree to the (weighted) residuals *)
  let residual = Array.make n 0.0 in
  let build_tree () =
    for i = 0 to n - 1 do
      residual.(i) <- y.(i) -. pred.(i)
    done;
    let bin_w = Array.make max_bins 0.0 in
    let bin_wy = Array.make max_bins 0.0 in
    let bin_n = Array.make max_bins 0 in
    let rec grow indices depth =
      let sw = ref 0.0 and swy = ref 0.0 in
      List.iter
        (fun i ->
          sw := !sw +. w.(i);
          swy := !swy +. (w.(i) *. residual.(i)))
        indices;
      let count = List.length indices in
      let leaf () = Leaf (if !sw > 0.0 then !swy /. !sw else 0.0) in
      if depth >= params.max_depth || count < 2 * params.min_samples_leaf then
        leaf ()
      else begin
        let parent_score = if !sw > 0.0 then !swy *. !swy /. !sw else 0.0 in
        let best = ref None in
        for f = 0 to n_features - 1 do
          if Array.length edges.(f) > 0 then begin
            Array.fill bin_w 0 max_bins 0.0;
            Array.fill bin_wy 0 max_bins 0.0;
            Array.fill bin_n 0 max_bins 0;
            List.iter
              (fun i ->
                let b = binned.(i).(f) in
                bin_w.(b) <- bin_w.(b) +. w.(i);
                bin_wy.(b) <- bin_wy.(b) +. (w.(i) *. residual.(i));
                bin_n.(b) <- bin_n.(b) + 1)
              indices;
            let lw = ref 0.0 and lwy = ref 0.0 and ln = ref 0 in
            for b = 0 to Array.length edges.(f) - 1 do
              lw := !lw +. bin_w.(b);
              lwy := !lwy +. bin_wy.(b);
              ln := !ln + bin_n.(b);
              let rw = !sw -. !lw and rwy = !swy -. !lwy in
              let rn = count - !ln in
              if
                !ln >= params.min_samples_leaf
                && rn >= params.min_samples_leaf
                && !lw > 0.0 && rw > 0.0
              then begin
                let gain =
                  (!lwy *. !lwy /. !lw) +. (rwy *. rwy /. rw) -. parent_score
                in
                match !best with
                | Some (g, _, _) when g >= gain -> ()
                | _ -> best := Some (gain, f, b)
              end
            done
          end
        done;
        match !best with
        | Some (gain, f, b) when gain > params.min_gain ->
          importance.(f) <- importance.(f) +. gain;
          let threshold = edges.(f).(b) in
          let left, right =
            List.partition (fun i -> binned.(i).(f) <= b) indices
          in
          Node
            {
              feature = f;
              threshold;
              left = grow left (depth + 1);
              right = grow right (depth + 1);
            }
        | _ -> leaf ()
      end
    in
    grow (List.init n Fun.id) 0
  in
  let rec eval_tree tree row =
    match tree with
    | Leaf v -> v
    | Node { feature; threshold; left; right } ->
      if row.(feature) < threshold then eval_tree left row
      else eval_tree right row
  in
  let trees = ref [] in
  for _ = 1 to params.n_trees do
    let tree = build_tree () in
    trees := tree :: !trees;
    for i = 0 to n - 1 do
      pred.(i) <- pred.(i) +. (params.learning_rate *. eval_tree tree x.(i))
    done
  done;
  (* fold the learning rate into the stored trees *)
  let rec scale tree =
    match tree with
    | Leaf v -> Leaf (params.learning_rate *. v)
    | Node n -> Node { n with left = scale n.left; right = scale n.right }
  in
  let fresh = List.rev_map scale !trees in
  {
    base;
    trees = (match init with Some m -> m.trees @ fresh | None -> fresh);
    n_features = out_features;
    importance;
  }

let predict_many t rows = Array.map (predict t) rows

(* Same bounds-check semantics as [eval], over one row of a flat
   row-major matrix whose rows are [width] wide. *)
let rec eval_flat tree m off width =
  match tree with
  | Leaf v -> v
  | Node { feature; threshold; left; right } ->
    if feature >= width then eval_flat left m off width
    else if m.(off + feature) < threshold then eval_flat left m off width
    else eval_flat right m off width

let predict_batch t ~width m =
  if width <= 0 then invalid_arg "Gbdt.predict_batch: width <= 0";
  let len = Array.length m in
  if len mod width <> 0 then
    invalid_arg "Gbdt.predict_batch: matrix length not a multiple of width";
  let n_rows = len / width in
  let out = Array.make n_rows t.base in
  (* one pass per tree over all rows, accumulating in the same order as
     [predict]'s fold (base, then trees in order): the result is
     bit-identical to calling [predict] per row *)
  List.iter
    (fun tree ->
      for r = 0 to n_rows - 1 do
        out.(r) <- out.(r) +. eval_flat tree m (r * width) width
      done)
    t.trees;
  out

let num_trees t = List.length t.trees

(* ---- persistence --------------------------------------------------------
   A marshalled model in the shared framed envelope ({!Ansor_util.Framed}):
   anything that fails a check is a clear [Error], never a raw [Marshal]
   exception. *)

let file_version = 1

let file_magic = Printf.sprintf "ansor-gbdt-v%d" file_version

let save ~path t =
  Ansor_util.Framed.write ~path ~magic:file_magic (Marshal.to_string (t : t) [])

let load ~path : (t, string) result =
  Result.map
    (fun payload -> (Marshal.from_string payload 0 : t))
    (Ansor_util.Framed.read ~path ~magic:file_magic)

let feature_importance t =
  let total = Array.fold_left ( +. ) 0.0 t.importance in
  if total <= 0.0 then Array.make t.n_features 0.0
  else Array.map (fun g -> g /. total) t.importance
