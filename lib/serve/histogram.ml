(* Samples live in blocks: the first block doubles from 64 up to [block]
   samples, and from then on every [block] samples start a fresh block, so
   storage grows without copying old samples.  Sample [i] is at
   [i mod block] of block [i / block]. *)
let block = 8192

type t = {
  mutable head : float array;  (* newest block; allocated on the first add *)
  mutable full : float array list;  (* full blocks of [block] samples, newest first *)
  mutable n : int;
  mutable sorted : float array option;  (* cache, invalidated by add *)
}

let create () = { head = [||]; full = []; n = 0; sorted = None }

let add t x =
  if (not (Float.is_finite x)) || x < 0.0 then
    invalid_arg "Histogram.add: latency must be finite and non-negative";
  let i = t.n land (block - 1) in
  if i = 0 && t.n > 0 then begin
    t.full <- t.head :: t.full;
    t.head <- Array.create_float block
  end
  else if i = Array.length t.head then begin
    let bigger = Array.create_float (max 64 (2 * i)) in
    Array.blit t.head 0 bigger 0 i;
    t.head <- bigger
  end;
  t.head.(i) <- x;
  t.n <- t.n + 1;
  t.sorted <- None

let count t = t.n

(* One exact-size array of the samples of [ts], histogram by histogram,
   each in insertion order. *)
let concat ts =
  let dst = Array.create_float (List.fold_left (fun acc t -> acc + t.n) 0 ts) in
  let pos = ref 0 in
  let put b len =
    Array.blit b 0 dst !pos len;
    pos := !pos + len
  in
  List.iter
    (fun t ->
      List.iter (fun b -> put b block) (List.rev t.full);
      put t.head (t.n - (block * List.length t.full)))
    ts;
  dst

let sort_concat ts =
  let s = concat ts in
  Array.sort Float.compare s;
  s

let sorted t =
  match t.sorted with
  | Some s -> s
  | None ->
    let s = sort_concat [ t ] in
    t.sorted <- Some s;
    s

let quantile_sorted s q =
  let n = Array.length s in
  if n = 0 then 0.0
  else begin
    let q = Float.max 0.0 (Float.min 1.0 q) in
    let pos = q *. float_of_int (n - 1) in
    let lo = int_of_float (Float.floor pos) in
    let hi = min (n - 1) (lo + 1) in
    let frac = pos -. float_of_int lo in
    (s.(lo) *. (1.0 -. frac)) +. (s.(hi) *. frac)
  end

let quantile t q = quantile_sorted (sorted t) q

type summary = {
  count : int;
  mean : float;
  min : float;
  max : float;
  p50 : float;
  p95 : float;
  p99 : float;
  p999 : float;
}

let summary_of_sorted s =
  let n = Array.length s in
  if n = 0 then
    { count = 0; mean = 0.0; min = 0.0; max = 0.0; p50 = 0.0; p95 = 0.0;
      p99 = 0.0; p999 = 0.0 }
  else begin
    let sum = Array.fold_left ( +. ) 0.0 s in
    {
      count = n;
      mean = sum /. float_of_int n;
      min = s.(0);
      max = s.(n - 1);
      p50 = quantile_sorted s 0.5;
      p95 = quantile_sorted s 0.95;
      p99 = quantile_sorted s 0.99;
      p999 = quantile_sorted s 0.999;
    }
  end

let summary t = summary_of_sorted (sorted t)

(* Every sample is retained, so the summary of several histograms is
   exactly the summary of their concatenated samples: the per-shard
   histograms of the serving tier combine without approximation error. *)
let merged_summary ts = summary_of_sorted (sort_concat ts)

let summary_line s =
  Printf.sprintf "n=%d mean=%.4fms p50=%.4fms p95=%.4fms p99=%.4fms p99.9=%.4fms"
    s.count (s.mean *. 1e3) (s.p50 *. 1e3) (s.p95 *. 1e3) (s.p99 *. 1e3)
    (s.p999 *. 1e3)

(* Power-of-two buckets over the sample range, anchored at the smallest
   positive sample; at most 20 lines. *)
let render t =
  if t.n = 0 then "(no samples)\n"
  else begin
    let s = sorted t in
    let lo =
      match Array.find_opt (fun x -> x > 0.0) s with
      | Some x -> x
      | None -> 1e-9
    in
    let hi = Float.max s.(Array.length s - 1) lo in
    let nbuckets =
      min 20 (max 1 (1 + int_of_float (Float.ceil (Float.log2 (hi /. lo)))))
    in
    let counts = Array.make nbuckets 0 in
    Array.iter
      (fun x ->
        let b =
          if x <= lo then 0
          else
            min (nbuckets - 1) (int_of_float (Float.ceil (Float.log2 (x /. lo))))
        in
        counts.(b) <- counts.(b) + 1)
      s;
    let peak = Array.fold_left max 1 counts in
    let buf = Buffer.create 256 in
    Array.iteri
      (fun i c ->
        let blo = if i = 0 then 0.0 else lo *. Float.pow 2.0 (float_of_int (i - 1)) in
        let bhi = lo *. Float.pow 2.0 (float_of_int i) in
        Buffer.add_string buf
          (Printf.sprintf "%10.4f-%8.4fms %6d %s\n" (blo *. 1e3) (bhi *. 1e3) c
             (String.make (30 * c / peak) '#')))
      counts;
    Buffer.contents buf
  end
