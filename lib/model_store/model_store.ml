(* Cross-task training-data store and pretrained cost models.

   Tuning sessions measure programs; those (features, latency) pairs are
   only ever used for the session's own GBDT and then thrown away.  This
   module persists them — one line per measured program, keyed by task
   key and deduplicated by the canonical lowered-program hash the
   measurement cache already computes — and pretrains shared models from
   the accumulated corpus: one per exact task, one per digit-blanked
   structure class (Ansor_util.Task_key), and one global fallback.  A
   fresh tuning session then resolves exact -> class -> global -> cold
   and fine-tunes from a warm model instead of from scratch
   (Chen et al., "Learning to Optimize Tensor Programs").

   File format (an Ansor_util.Line_file with a version header):

     ansor-store-v1
     <task_key> \t <prog_key> \t <latency %h> \t <features>

   where <features> is the per-statement feature vectors, statements
   joined by ';', floats within a statement joined by ',' and printed
   with %h so the round-trip is bit-exact.  The loader skips malformed
   lines and counts them. *)

module Task_key = Ansor_util.Task_key
module Line_file = Ansor_util.Line_file
module Gbdt = Ansor_gbdt.Gbdt
module Cost_model = Ansor_cost_model.Cost_model

let magic = "ansor-store-v1"

type sample = {
  task_key : string;
  prog_key : string;  (* canonical lowered-program hash: the dedup key *)
  latency : float;  (* measured seconds, > 0 *)
  features : float array list;  (* per innermost statement *)
}

type t = {
  mutable rev_samples : sample list;  (* newest first *)
  index : (string, unit) Hashtbl.t;  (* prog_key set *)
  mutable count : int;
}

let create () = { rev_samples = []; index = Hashtbl.create 256; count = 0 }

let size t = t.count

let mem t ~prog_key = Hashtbl.mem t.index prog_key

let add t s =
  if s.latency <= 0.0 then invalid_arg "Model_store.add: latency <= 0";
  if Hashtbl.mem t.index s.prog_key then false
  else begin
    Hashtbl.add t.index s.prog_key ();
    t.rev_samples <- s :: t.rev_samples;
    t.count <- t.count + 1;
    true
  end

let add_all t samples =
  List.fold_left (fun n s -> if add t s then n + 1 else n) 0 samples

let samples t = List.rev t.rev_samples

let samples_for_class t ~class_key =
  List.filter
    (fun s -> String.equal (Task_key.class_key s.task_key) class_key)
    (samples t)

let task_keys t =
  List.sort_uniq String.compare (List.map (fun s -> s.task_key) (samples t))

let class_keys t =
  List.sort_uniq String.compare
    (List.map (fun s -> Task_key.class_key s.task_key) (samples t))

let to_record (s : sample) : Cost_model.record =
  { features = s.features; task_key = s.task_key; latency = s.latency }

(* ---- codec -------------------------------------------------------------- *)

let encode_features features =
  String.concat ";"
    (List.map
       (fun stmt ->
         String.concat ","
           (Array.to_list (Array.map (Printf.sprintf "%h") stmt)))
       features)

let decode_features str =
  if String.equal str "" then []
  else
    String.split_on_char ';' str
    |> List.map (fun stmt ->
           String.split_on_char ',' stmt
           |> List.map float_of_string |> Array.of_list)

let encode_sample s =
  if String.contains s.task_key '\t' || String.contains s.prog_key '\t' then
    invalid_arg "Model_store: tab in key";
  Printf.sprintf "%s\t%s\t%h\t%s" s.task_key s.prog_key s.latency
    (encode_features s.features)

let decode_sample line =
  match String.split_on_char '\t' line with
  | [ task_key; prog_key; lat; feats ] -> (
    match (float_of_string_opt lat, decode_features feats) with
    | Some latency, features when latency > 0.0 && not (String.equal prog_key "")
      ->
      Ok { task_key; prog_key; latency; features }
    | _ | (exception Failure _) -> Error "malformed store line")
  | _ -> Error "malformed store line"

(* ---- persistence -------------------------------------------------------- *)

let save ~path t =
  Line_file.write ~path ~header:magic (List.map encode_sample (samples t))

let load_salvage ~path =
  Result.map
    (fun (samples, skipped) ->
      let t = create () in
      ignore (add_all t samples);
      (t, skipped))
    (Line_file.read ~path ~header:magic ~strict:false decode_sample)

let append_batch ~path samples =
  Line_file.append ~path ~header:magic (List.map encode_sample samples)

(* Keep only the newest [keep_per_class] samples of each structure class
   (newest = latest appended).  Returns the number dropped. *)
let gc t ~keep_per_class =
  if keep_per_class < 0 then invalid_arg "Model_store.gc: negative keep";
  let kept_per_class = Hashtbl.create 16 in
  let kept_rev = ref [] and dropped = ref 0 in
  (* rev_samples is newest-first, so a simple scan keeps the newest *)
  List.iter
    (fun s ->
      let cls = Task_key.class_key s.task_key in
      let n = Option.value ~default:0 (Hashtbl.find_opt kept_per_class cls) in
      if n < keep_per_class then begin
        Hashtbl.replace kept_per_class cls (n + 1);
        kept_rev := s :: !kept_rev
      end
      else begin
        Hashtbl.remove t.index s.prog_key;
        incr dropped
      end)
    t.rev_samples;
  t.rev_samples <- List.rev !kept_rev;
  t.count <- t.count - !dropped;
  !dropped

(* ---- pretrained bundle --------------------------------------------------- *)

module Pretrained = struct
  type origin = Exact | Class | Global

  let origin_name = function
    | Exact -> "exact"
    | Class -> "class"
    | Global -> "global"

  type t = {
    exact : (string * Gbdt.t) list;  (* task_key -> model *)
    classes : (string * Gbdt.t) list;  (* class_key -> model *)
    global : Gbdt.t option;
  }

  let empty = { exact = []; classes = []; global = None }

  let num_models t =
    List.length t.exact + List.length t.classes
    + match t.global with Some _ -> 1 | None -> 0

  let summary t =
    List.map (fun (k, m) -> (`Task, k, Gbdt.num_trees m)) t.exact
    @ List.map (fun (k, m) -> (`Class, k, Gbdt.num_trees m)) t.classes
    @
    match t.global with
    | Some m -> [ (`Global, "*", Gbdt.num_trees m) ]
    | None -> []

  (* Fit one model per grouping with at least [min_samples] samples.
     Cost_model.train normalizes throughput per task inside each group,
     so classes mixing several concrete shapes compose correctly. *)
  let train ?params ?(min_samples = 8) store =
    let fit samples =
      if List.length samples < min_samples then None
      else Cost_model.gbdt (Cost_model.train ?params (List.map to_record samples))
    in
    let group_by key_of =
      let keys =
        List.sort_uniq String.compare (List.map key_of (samples store))
      in
      List.filter_map
        (fun k ->
          let group =
            List.filter (fun s -> String.equal (key_of s) k) (samples store)
          in
          Option.map (fun m -> (k, m)) (fit group))
        keys
    in
    {
      exact = group_by (fun s -> s.task_key);
      classes = group_by (fun s -> Task_key.class_key s.task_key);
      global = fit (samples store);
    }

  let global t = Option.map (fun m -> (m, Global)) t.global

  (* class -> global (for sessions spanning several tasks of one class) *)
  let resolve_class t ~class_key =
    match List.assoc_opt class_key t.classes with
    | Some m -> Some (m, Class)
    | None -> global t

  (* exact -> class -> global -> cold *)
  let resolve t ~task_key =
    match List.assoc_opt task_key t.exact with
    | Some m -> Some (m, Exact)
    | None -> resolve_class t ~class_key:(Task_key.class_key task_key)

  (* Persistence: the shared framed envelope around a marshalled bundle. *)
  let file_magic = "ansor-models-v1"

  let save ~path t =
    Ansor_util.Framed.write ~path ~magic:file_magic (Marshal.to_string (t : t) [])

  let load ~path : (t, string) result =
    Result.map
      (fun payload -> (Marshal.from_string payload 0 : t))
      (Ansor_util.Framed.read ~path ~magic:file_magic)
end

(* ---- session ------------------------------------------------------------- *)

(* Everything a tuning session needs from one --model-store flag: the
   store itself (possibly empty for a fresh path), the append target,
   and the pretrained bundle — loaded from <path>.models when a valid
   one exists, else trained in-memory from the store. *)

type session = {
  store : t;
  path : string option;
  pretrained : Pretrained.t;
  salvaged : int;  (* malformed store lines skipped at load *)
  models_error : string option;  (* set when <path>.models was unusable *)
}

let models_path path = path ^ ".models"

let in_memory ?(pretrained = Pretrained.empty) store =
  { store; path = None; pretrained; salvaged = 0; models_error = None }

let open_session ?params ~path () =
  let loaded =
    if Sys.file_exists path then load_salvage ~path
    else Ok (create (), 0) (* fresh path: appends will create it *)
  in
  match loaded with
  | Error e -> Error e
  | Ok (store, salvaged) ->
    let pretrain () =
      if size store = 0 then Pretrained.empty else Pretrained.train ?params store
    in
    let pretrained, models_error =
      let mp = models_path path in
      if Sys.file_exists mp then
        match Pretrained.load ~path:mp with
        | Ok p -> (p, None)
        | Error e -> (pretrain (), Some e) (* fall back to the raw store *)
      else (pretrain (), None)
    in
    Ok { store; path = Some path; pretrained; salvaged; models_error }
