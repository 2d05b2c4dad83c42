module Rng = Ansor_util.Rng

type tenant = {
  name : string;
  weight : float;
  quota_rate : float;
  quota_burst : float;
  priority : int;
}

let default_tenant =
  {
    name = "default";
    weight = 1.0;
    quota_rate = infinity;
    quota_burst = infinity;
    priority = 0;
  }

type burst = { after : float; len : float; factor : float }

type config = {
  arrival_rate : float;
  bursts : burst list;
  tenants : tenant list;
  seed : int;
}

let default_config =
  { arrival_rate = 1000.0; bursts = []; tenants = [ default_tenant ]; seed = 0 }

type request = { id : int; tenant : tenant; arrival : float }

(* Overlapping burst episodes compose multiplicatively (two 2x episodes
   covering t make a 4x spike); factors below 1 model lulls. *)
let rate_factor bursts t =
  List.fold_left
    (fun acc b ->
      if t >= b.after && t < b.after +. b.len then acc *. b.factor else acc)
    1.0 bursts

let validate_tenants tenants =
  if tenants = [] then invalid_arg "Loadgen: tenant list is empty";
  List.iter
    (fun t ->
      if t.name = "" then invalid_arg "Loadgen: tenant name is empty";
      if t.weight < 0.0 || not (Float.is_finite t.weight) then
        invalid_arg "Loadgen: tenant weight must be finite and non-negative";
      if t.quota_rate < 0.0 || t.quota_burst < 0.0 then
        invalid_arg "Loadgen: tenant quota must be non-negative")
    tenants;
  if List.for_all (fun t -> t.weight = 0.0) tenants then
    invalid_arg "Loadgen: every tenant has weight zero"

let validate config =
  if (not (Float.is_finite config.arrival_rate)) || config.arrival_rate <= 0.0
  then invalid_arg "Loadgen: arrival_rate must be positive and finite";
  List.iter
    (fun b ->
      if b.after < 0.0 || b.len <= 0.0 || b.factor <= 0.0
         || not (Float.is_finite b.factor) then
        invalid_arg "Loadgen: burst needs after >= 0, len > 0, finite factor > 0")
    config.bursts;
  validate_tenants config.tenants

(* Non-homogeneous Poisson process by thinning: draw candidate arrivals at
   the peak rate, accept each with probability rate(t)/peak.  Purely a
   function of the seed, so a load trace is reproducible by construction. *)
let generate config ~n =
  validate config;
  if n < 0 then invalid_arg "Loadgen.generate: n < 0";
  let rng = Rng.create (config.seed + 0x10ad) in
  let peak =
    config.arrival_rate
    *. List.fold_left (fun acc b -> acc *. Float.max 1.0 b.factor) 1.0
         config.bursts
  in
  let tenants = Array.of_list config.tenants in
  let weights = Array.map (fun t -> t.weight) tenants in
  let exp_draw () = -.log (1.0 -. Rng.float rng 1.0) /. peak in
  let out = Array.make n { id = 0; tenant = default_tenant; arrival = 0.0 } in
  let t = ref 0.0 in
  let i = ref 0 in
  while !i < n do
    t := !t +. exp_draw ();
    let r = config.arrival_rate *. rate_factor config.bursts !t in
    if Rng.float rng 1.0 < r /. peak then begin
      let tenant = tenants.(Rng.weighted_index rng weights) in
      out.(!i) <- { id = !i; tenant; arrival = !t };
      incr i
    end
  done;
  out

(* Closed loop has no arrival process: only ids and the tenant mix are
   drawn here; the server stamps each arrival when a service slot frees. *)
let closed_loop config ~n =
  validate_tenants config.tenants;
  if n < 0 then invalid_arg "Loadgen.closed_loop: n < 0";
  let rng = Rng.create (config.seed + 0x10ad) in
  let tenants = Array.of_list config.tenants in
  let weights = Array.map (fun t -> t.weight) tenants in
  Array.init n (fun id ->
      { id; tenant = tenants.(Rng.weighted_index rng weights); arrival = 0.0 })

(* ---- CLI spec parsing ---------------------------------------------------- *)

let float_of field s =
  match float_of_string_opt s with
  | Some f -> Ok f
  | None -> Error (Printf.sprintf "%s: %S is not a number" field s)

let ( let* ) = Result.bind

let burst_of_spec spec =
  match String.split_on_char ':' spec with
  | [ a; l; f ] ->
    let* after = float_of "burst start" a in
    let* len = float_of "burst length" l in
    let* factor = float_of "burst factor" f in
    if after < 0.0 || len <= 0.0 || factor <= 0.0 then
      Error (Printf.sprintf "burst %S: want start >= 0, length > 0, factor > 0" spec)
    else Ok { after; len; factor }
  | _ ->
    Error
      (Printf.sprintf "burst %S: want START:LEN:FACTOR (virtual seconds)" spec)

let tenant_of_spec spec =
  let mk name weight quota_rate quota_burst priority =
    if name = "" then Error (Printf.sprintf "tenant %S: empty name" spec)
    else if weight < 0.0 then
      Error (Printf.sprintf "tenant %S: negative weight" spec)
    else if quota_rate < 0.0 || quota_burst < 0.0 then
      Error (Printf.sprintf "tenant %S: negative quota" spec)
    else Ok { name; weight; quota_rate; quota_burst; priority }
  in
  match String.split_on_char ':' spec with
  | [ name; w ] ->
    let* weight = float_of "tenant weight" w in
    mk name weight infinity infinity 0
  | [ name; w; r ] ->
    let* weight = float_of "tenant weight" w in
    let* rate = float_of "tenant quota rate" r in
    mk name weight rate rate 0
  | [ name; w; r; b ] ->
    let* weight = float_of "tenant weight" w in
    let* rate = float_of "tenant quota rate" r in
    let* burst = float_of "tenant quota burst" b in
    mk name weight rate burst 0
  | [ name; w; r; b; p ] ->
    let* weight = float_of "tenant weight" w in
    let* rate = float_of "tenant quota rate" r in
    let* burst = float_of "tenant quota burst" b in
    (match int_of_string_opt p with
    | Some priority -> mk name weight rate burst priority
    | None -> Error (Printf.sprintf "tenant %S: priority %S is not an int" spec p))
  | _ ->
    Error
      (Printf.sprintf
         "tenant %S: want NAME:WEIGHT[:QUOTA_RATE[:QUOTA_BURST[:PRIORITY]]]"
         spec)

let tenants_of_spec spec =
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | s :: rest ->
      let* t = tenant_of_spec s in
      if List.exists (fun u -> u.name = t.name) acc then
        Error (Printf.sprintf "tenant %S: duplicate name %s" spec t.name)
      else go (t :: acc) rest
  in
  if String.trim spec = "" then Ok [ default_tenant ]
  else go [] (String.split_on_char ',' spec)
