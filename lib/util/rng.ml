type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let mix64 z =
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

let next_int64 t =
  t.state <- Int64.add t.state golden_gamma;
  mix64 t.state

let create seed = { state = mix64 (Int64.of_int seed) }

let split t = { state = next_int64 t }

let copy t = { state = t.state }

let state t = t.state

let set_state t s = t.state <- s

let bits t = Int64.to_int (Int64.shift_right_logical (next_int64 t) 2)
(* 62 usable bits, always non-negative as an OCaml int. *)

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  bits t mod bound

let int_in t lo hi =
  if hi < lo then invalid_arg "Rng.int_in: empty range";
  lo + int t (hi - lo + 1)

let float t bound =
  let x = Int64.to_float (Int64.shift_right_logical (next_int64 t) 11) in
  bound *. (x /. 9007199254740992.0 (* 2^53 *))

let bool t = Int64.logand (next_int64 t) 1L = 1L

let gaussian t =
  let rec draw () =
    let u = float t 1.0 in
    if u <= 1e-300 then draw () else u
  in
  let u1 = draw () and u2 = float t 1.0 in
  sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2)

let choice t a =
  if Array.length a = 0 then invalid_arg "Rng.choice: empty array";
  a.(int t (Array.length a))

let choice_list t l =
  match l with
  | [] -> invalid_arg "Rng.choice_list: empty list"
  | l -> List.nth l (int t (List.length l))

let weighted_index t w =
  let n = Array.length w in
  if n = 0 then invalid_arg "Rng.weighted_index: empty array";
  let total = Array.fold_left (fun acc x -> acc +. Float.max x 0.0) 0.0 w in
  if total <= 0.0 then int t n
  else begin
    let target = float t total in
    let rec go i acc =
      if i = n - 1 then i
      else
        let acc = acc +. Float.max w.(i) 0.0 in
        if target < acc then i else go (i + 1) acc
    in
    go 0 0.0
  end

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let sample_distinct t k n =
  let k = min k n in
  let idx = Array.init n (fun i -> i) in
  shuffle t idx;
  Array.to_list (Array.sub idx 0 k)
