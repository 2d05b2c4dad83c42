let divisors n =
  if n <= 0 then invalid_arg "Factorize.divisors: n must be positive";
  let small = ref [] and large = ref [] in
  let i = ref 1 in
  while !i * !i <= n do
    if n mod !i = 0 then begin
      small := !i :: !small;
      if !i <> n / !i then large := n / !i :: !large
    end;
    incr i
  done;
  List.rev_append !small !large

let prime_factors n =
  if n <= 0 then invalid_arg "Factorize.prime_factors: n must be positive";
  let rec go n d acc =
    if n = 1 then List.rev acc
    else if d * d > n then List.rev (n :: acc)
    else if n mod d = 0 then go (n / d) d (d :: acc)
    else go n (d + 1) acc
  in
  go n 2 []

let rec factorizations n k =
  if n <= 0 || k <= 0 then invalid_arg "Factorize.factorizations";
  if k = 1 then [ [ n ] ]
  else
    List.concat_map
      (fun d -> List.map (fun rest -> d :: rest) (factorizations (n / d) (k - 1)))
      (divisors n)

let rec count_factorizations n k =
  if n <= 0 || k <= 0 then invalid_arg "Factorize.count_factorizations";
  if k = 1 then 1
  else
    List.fold_left
      (fun acc d -> acc + count_factorizations (n / d) (k - 1))
      0 (divisors n)

let random_factorization rng n k =
  if n <= 0 || k <= 0 then invalid_arg "Factorize.random_factorization";
  let parts = Array.make k 1 in
  List.iter
    (fun p ->
      let i = Rng.int rng k in
      parts.(i) <- parts.(i) * p)
    (prime_factors n);
  Array.to_list parts

let weighted_factorization rng n ~weights =
  let k = Array.length weights in
  if n <= 0 || k <= 0 then invalid_arg "Factorize.weighted_factorization";
  let parts = Array.make k 1 in
  List.iter
    (fun p ->
      let i = Rng.weighted_index rng weights in
      parts.(i) <- parts.(i) * p)
    (prime_factors n);
  Array.to_list parts
