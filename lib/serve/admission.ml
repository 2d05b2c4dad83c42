type shed_reason = Queue_full | Displaced

type outcome = Served | Shed of shed_reason | Quota_exceeded

let shed_reason_to_string = function
  | Queue_full -> "queue_full"
  | Displaced -> "displaced"

let outcome_to_string = function
  | Served -> "served"
  | Shed r -> "shed:" ^ shed_reason_to_string r
  | Quota_exceeded -> "quota_exceeded"

type shed_policy = Reject_newest | Drop_oldest
type discipline = Fifo | Priority

let shed_policy_of_string = function
  | "reject-newest" -> Ok Reject_newest
  | "drop-oldest" -> Ok Drop_oldest
  | s -> Error (Printf.sprintf "shed policy %S: want reject-newest or drop-oldest" s)

let discipline_of_string = function
  | "fifo" -> Ok Fifo
  | "priority" -> Ok Priority
  | s -> Error (Printf.sprintf "queue discipline %S: want fifo or priority" s)

type config = {
  queue_bound : int;
  shed_policy : shed_policy;
  discipline : discipline;
}

let default_config =
  { queue_bound = 64; shed_policy = Reject_newest; discipline = Fifo }

(* Virtual-time token bucket; refilled lazily on each probe. *)
type bucket = {
  mutable tokens : float;
  mutable last : float;
  rate : float;
  cap : float;
}

type 'a item = { prio : int; seq : int; payload : 'a }

type 'a t = {
  config : config;
  buckets : (string, bucket) Hashtbl.t;
  mutable queue : 'a item list;  (* head is next to serve *)
  mutable seq : int;
  mutable depth : int;
  mutable offered : int;
  mutable admitted : int;
  mutable quota_rejected : int;
  mutable shed_queue_full : int;
  mutable shed_displaced : int;
  mutable max_depth : int;
}

let create ?(config = default_config) () =
  if config.queue_bound < 1 then
    invalid_arg "Admission.create: queue_bound < 1";
  {
    config;
    buckets = Hashtbl.create 8;
    queue = [];
    seq = 0;
    depth = 0;
    offered = 0;
    admitted = 0;
    quota_rejected = 0;
    shed_queue_full = 0;
    shed_displaced = 0;
    max_depth = 0;
  }

let depth t = t.depth

let quota_ok t ~now (tenant : Loadgen.tenant) =
  if tenant.Loadgen.quota_rate = infinity || tenant.Loadgen.quota_burst = infinity
  then true
  else begin
    let b =
      match Hashtbl.find_opt t.buckets tenant.Loadgen.name with
      | Some b -> b
      | None ->
        let b =
          {
            tokens = tenant.Loadgen.quota_burst;
            last = now;
            rate = tenant.Loadgen.quota_rate;
            cap = tenant.Loadgen.quota_burst;
          }
        in
        Hashtbl.replace t.buckets tenant.Loadgen.name b;
        b
    in
    b.tokens <- Float.min b.cap (b.tokens +. (Float.max 0.0 (now -. b.last) *. b.rate));
    b.last <- now;
    if b.tokens >= 1.0 then begin
      b.tokens <- b.tokens -. 1.0;
      true
    end
    else false
  end

(* Queue order is service order.  Fifo appends; Priority inserts before
   the first strictly-lower-priority item (stable within a priority). *)
let enqueue t item =
  (match t.config.discipline with
  | Fifo -> t.queue <- t.queue @ [ item ]
  | Priority ->
    let rec ins = function
      | [] -> [ item ]
      | x :: rest when x.prio >= item.prio -> x :: ins rest
      | rest -> item :: rest
    in
    t.queue <- ins t.queue);
  t.depth <- t.depth + 1;
  if t.depth > t.max_depth then t.max_depth <- t.depth

(* The load-shedding victim under Drop_oldest: FIFO drops the head (the
   oldest waiting request — it has absorbed the most queueing delay and
   is the most likely to already be useless to its caller); Priority
   drops the oldest item of the lowest priority class. *)
let remove_victim t =
  match t.config.discipline with
  | Fifo ->
    (match t.queue with
    | [] -> None
    | v :: rest ->
      t.queue <- rest;
      t.depth <- t.depth - 1;
      Some v)
  | Priority ->
    (match t.queue with
    | [] -> None
    | q ->
      let victim =
        List.fold_left
          (fun acc x ->
            match acc with
            | None -> Some x
            | Some v ->
              if x.prio < v.prio || (x.prio = v.prio && x.seq < v.seq) then
                Some x
              else acc)
          None q
      in
      (match victim with
      | None -> None
      | Some v ->
        t.queue <- List.filter (fun (x : 'a item) -> x.seq <> v.seq) q;
        t.depth <- t.depth - 1;
        Some v))

let offer t ~now ~(tenant : Loadgen.tenant) payload =
  t.offered <- t.offered + 1;
  if not (quota_ok t ~now tenant) then begin
    t.quota_rejected <- t.quota_rejected + 1;
    `Quota_exceeded
  end
  else begin
    let item = { prio = tenant.Loadgen.priority; seq = t.seq; payload } in
    t.seq <- t.seq + 1;
    if t.depth < t.config.queue_bound then begin
      enqueue t item;
      t.admitted <- t.admitted + 1;
      `Admitted
    end
    else
      match t.config.shed_policy with
      | Reject_newest ->
        t.shed_queue_full <- t.shed_queue_full + 1;
        `Shed_queue_full
      | Drop_oldest -> (
        match remove_victim t with
        | None ->
          (* unreachable: depth >= queue_bound >= 1 *)
          t.shed_queue_full <- t.shed_queue_full + 1;
          `Shed_queue_full
        | Some v ->
          t.shed_displaced <- t.shed_displaced + 1;
          enqueue t item;
          t.admitted <- t.admitted + 1;
          `Displaced v.payload)
  end

let take t =
  match t.queue with
  | [] -> None
  | x :: rest ->
    t.queue <- rest;
    t.depth <- t.depth - 1;
    Some x.payload

type stats = {
  offered : int;
  admitted : int;
  quota_rejected : int;
  shed_queue_full : int;
  shed_displaced : int;
  max_depth : int;
}

let stats (t : 'a t) =
  {
    offered = t.offered;
    admitted = t.admitted;
    quota_rejected = t.quota_rejected;
    shed_queue_full = t.shed_queue_full;
    shed_displaced = t.shed_displaced;
    max_depth = t.max_depth;
  }

let shed s = s.shed_queue_full + s.shed_displaced
