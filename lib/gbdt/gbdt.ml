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

(* Quantile bin edges per feature: at most [max_bins - 1] thresholds.  A
   constant column (all rows [=], signed zeros included) gets the single
   edge [v] unsorted: all its rows share a bin, so it never splits and
   its edge is never a threshold.  Every other column is copied into one
   reused buffer and sorted there. *)
let make_bins x n_features =
  let n = Array.length x in
  let vals = Array.make n 0.0 in
  Array.init n_features (fun f ->
      let v0 = x.(0).(f) in
      if Array.for_all (fun row -> row.(f) = v0) x then [| v0 |]
      else begin
        Array.iteri (fun i row -> vals.(i) <- row.(f)) x;
        Array.sort Float.compare vals;
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
        Array.of_list (List.rev !edges)
      end)

let bin_value (edges : float array) (v : float) =
  (* index of first edge > v; edges sorted ascending; the annotation makes
     [<] a float comparison, not a polymorphic one *)
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

(* Features fed to the histogram loop per pass over a node's rows: their
   histograms (32 features x 32 bins x 3 floats = 24 KB) stay in L1 while
   each row's bin bytes are read contiguously. *)
let feature_block = 32

(* Column [f] binned, as dense ranks: the [k] bins its rows use become
   bytes [0 .. k - 1], in order.  [cuts.(r)] is the edge that closes rank
   [r]'s bin, so rows of rank [<= r] are exactly those [< cuts.(r)].  The
   row holding the column's largest value (or a NaN) lies past every
   edge, so the top rank has no cut and [Array.length cuts = k - 1]. *)
let rank_column x (edges : float array) f =
  let nb = Array.length edges + 1 in
  let col = Bytes.create (Array.length x) and used = Array.make nb false in
  Array.iteri
    (fun i row ->
      let b = bin_value edges row.(f) in
      used.(b) <- true;
      Bytes.set col i (Char.chr b))
    x;
  let rank = Array.make nb 0 and k = ref 0 and cuts = ref [] in
  Array.iteri
    (fun b u ->
      if u then begin
        rank.(b) <- !k;
        incr k;
        if b < nb - 1 then cuts := edges.(b) :: !cuts
      end)
    used;
  ( Bytes.map (fun c -> Char.chr rank.(Char.code c)) col,
    Array.of_list (List.rev !cuts) )

(* Flat training buffers (layout and bit-identity contract: see the .mli):
   [bins] holds row [i]'s rank of splittable feature [j] at [i * na + j]; a
   node owns the slice [rows.(lo) .. rows.(hi - 1)], in ascending row
   order; [hist] holds the weight, weighted residual and row count of
   feature [j], rank [r] at [3 * (j * max_bins + r)].  Counts are floats:
   they stay exact integers. *)
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
  (* Scanning a column's cuts rather than its bins skips only bins no row
     uses.  Such a bin adds [+0.0] to cumulative sums that start at
     [+0.0], so are never [-0.0] and keep their bits: it offers again the
     split just before it, whose equal gain never replaces it, or an
     empty left side, which never passes [lw > 0.0].  Two kinds of column
     are left out, neither changing a model bit:
     - a column whose rows share one bin (no cut) never splits;
     - a column with the same ranks as an earlier kept one puts the same
       rows, in the same order, on each side of each cut, so every
       histogram entry, sum and gain matches that column's bit for bit,
       and the scan replaces its best split only on a strictly greater
       gain: the earlier column wins every tie.
     A NaN gain would break that order.  A split passes only if the
     node's weight total is positive, and a gain is NaN only if a weight
     or weighted residual in the node is NaN or infinite (a finite sum
     that overflows aside).  That makes the node's residual total, and
     so [parent_score], non-finite: every gain is then NaN or
     [-infinity], none passes [min_gain], and the node is a leaf
     whichever split the scan kept. *)
  let seen = Hashtbl.create 64 in
  let splittable =
    List.init n_features Fun.id
    |> List.filter_map (fun f ->
           let col, cuts = rank_column x edges.(f) f in
           if Array.length cuts = 0 || Hashtbl.mem seen col then None
           else begin
             Hashtbl.add seen col ();
             Some (f, col, cuts)
           end)
    |> Array.of_list
  in
  let features = Array.map (fun (f, _, _) -> f) splittable
  and cuts = Array.map (fun (_, _, c) -> c) splittable in
  let na = Array.length splittable in
  let bins = Bytes.create (n * na) in
  Array.iteri
    (fun j (_, col, _) ->
      Bytes.iteri (fun i r -> Bytes.unsafe_set bins ((i * na) + j) r) col)
    splittable;
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
  let wr = Array.make n 0.0 in
  let rows = Array.make n 0 and scratch = Array.make n 0 in
  let hist = Array.make (3 * na * max_bins) 0.0 in
  let build_tree () =
    for i = 0 to n - 1 do
      wr.(i) <- w.(i) *. (y.(i) -. pred.(i));
      rows.(i) <- i
    done;
    (* every sum below runs over a slice of [rows], in ascending row order *)
    let rec grow lo hi depth =
      let sw = ref 0.0 and swy = ref 0.0 in
      for k = lo to hi - 1 do
        let i = rows.(k) in
        sw := !sw +. w.(i);
        swy := !swy +. wr.(i)
      done;
      let sw = !sw and swy = !swy and count = hi - lo in
      let leaf () = Leaf (if sw > 0.0 then swy /. sw else 0.0) in
      if depth >= params.max_depth || count < 2 * params.min_samples_leaf then
        leaf ()
      else begin
        let parent_score = if sw > 0.0 then swy *. swy /. sw else 0.0 in
        Array.iteri
          (fun j c ->
            Array.fill hist (3 * j * max_bins) (3 * (Array.length c + 1)) 0.0)
          cuts;
        for block = 0 to ((na + feature_block - 1) / feature_block) - 1 do
          let j0 = block * feature_block in
          let j1 = min na (j0 + feature_block) - 1 in
          for k = lo to hi - 1 do
            (* in bounds by construction: [i < n], a rank is < [max_bins] *)
            let i = Array.unsafe_get rows k in
            let wi = Array.unsafe_get w i and wri = Array.unsafe_get wr i in
            for j = j0 to j1 do
              let bin = Char.code (Bytes.unsafe_get bins ((i * na) + j)) in
              let h = 3 * ((j * max_bins) + bin) in
              Array.unsafe_set hist h (Array.unsafe_get hist h +. wi);
              Array.unsafe_set hist (h + 1) (Array.unsafe_get hist (h + 1) +. wri);
              Array.unsafe_set hist (h + 2) (Array.unsafe_get hist (h + 2) +. 1.0)
            done
          done
        done;
        let best = ref None in
        Array.iteri
          (fun j c ->
            let lw = ref 0.0 and lwy = ref 0.0 and ln = ref 0 in
            for b = 0 to Array.length c - 1 do
              let h = 3 * ((j * max_bins) + b) in
              lw := !lw +. hist.(h);
              lwy := !lwy +. hist.(h + 1);
              ln := !ln + int_of_float hist.(h + 2);
              let rw = sw -. !lw and rwy = swy -. !lwy in
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
                | _ -> best := Some (gain, j, b)
              end
            done)
          cuts;
        match !best with
        | Some (gain, j, b) when gain > params.min_gain ->
          let f = features.(j) in
          importance.(f) <- importance.(f) +. gain;
          (* stable partition: left rows compact in place, right rows go
             through [scratch]; both halves keep ascending row order *)
          let mid = ref lo and nr = ref 0 in
          for k = lo to hi - 1 do
            let i = rows.(k) in
            if Char.code (Bytes.get bins ((i * na) + j)) <= b then begin
              rows.(!mid) <- i;
              incr mid
            end
            else begin
              scratch.(!nr) <- i;
              incr nr
            end
          done;
          let mid = !mid in
          Array.blit scratch 0 rows mid !nr;
          (* right subtree first: the order in which [importance] sums
             gains is part of the bit-identity contract *)
          let right = grow mid hi (depth + 1) in
          let left = grow lo mid (depth + 1) in
          Node { feature = f; threshold = cuts.(j).(b); left; right }
        | _ -> leaf ()
      end
    in
    grow 0 n 0
  in
  let trees = ref [] in
  for _ = 1 to params.n_trees do
    let tree = build_tree () in
    trees := tree :: !trees;
    for i = 0 to n - 1 do
      pred.(i) <- pred.(i) +. (params.learning_rate *. eval tree x.(i))
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
