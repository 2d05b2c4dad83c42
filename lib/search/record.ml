open Ansor_sched

type entry = { task_key : string; latency : float; steps : Step.t list }

let magic = "ansor-v1"

(* ---- serialization ------------------------------------------------------ *)

let check_name what s =
  String.iter
    (fun c ->
      if c = ' ' || c = ';' || c = '\t' || c = '\n' then
        invalid_arg (Printf.sprintf "Record: %s %S contains a separator" what s))
    s

let ints l = String.concat "," (List.map string_of_int l)

let pairs l =
  match l with
  | [] -> "-"
  | l -> String.concat "," (List.map (fun (a, b) -> Printf.sprintf "%d:%d" a b) l)

let ann_code = function
  | Step.No_ann -> "n"
  | Step.Parallel -> "p"
  | Step.Vectorize -> "v"
  | Step.Unroll -> "u"

let step_to_string (s : Step.t) =
  match s with
  | Step.Split { stage; iv; lengths; tbd } ->
    check_name "stage" stage;
    Printf.sprintf "S %s %d %s %d" stage iv (ints lengths) (if tbd then 1 else 0)
  | Step.Fuse { stage; ivs } ->
    check_name "stage" stage;
    Printf.sprintf "F %s %s" stage (ints ivs)
  | Step.Reorder { stage; order } ->
    check_name "stage" stage;
    Printf.sprintf "O %s %s" stage (ints order)
  | Step.Compute_at { stage; target; target_iv; bindings } ->
    check_name "stage" stage;
    check_name "target" target;
    Printf.sprintf "CA %s %s %d %s" stage target target_iv (pairs bindings)
  | Step.Compute_inline { stage } ->
    check_name "stage" stage;
    Printf.sprintf "I %s" stage
  | Step.Compute_root { stage } ->
    check_name "stage" stage;
    Printf.sprintf "CR %s" stage
  | Step.Cache_write { stage } ->
    check_name "stage" stage;
    Printf.sprintf "CW %s" stage
  | Step.Rfactor { stage; iv; lengths; tbd } ->
    check_name "stage" stage;
    Printf.sprintf "RF %s %d %s %d" stage iv (ints lengths) (if tbd then 1 else 0)
  | Step.Annotate { stage; iv; ann } ->
    check_name "stage" stage;
    Printf.sprintf "A %s %d %s" stage iv (ann_code ann)
  | Step.Pragma_unroll { stage; max_step } ->
    check_name "stage" stage;
    Printf.sprintf "P %s %d" stage max_step

let to_line e =
  if String.contains e.task_key '\t' || String.contains e.task_key '\n' then
    invalid_arg "Record.to_line: task key contains tab or newline";
  Printf.sprintf "%s\t%s\t%.9e\t%s" magic e.task_key e.latency
    (String.concat ";" (List.map step_to_string e.steps))

(* ---- parsing ------------------------------------------------------------- *)

let ( let* ) r f = Result.bind r f

let parse_int s =
  match int_of_string_opt s with
  | Some i -> Ok i
  | None -> Error (Printf.sprintf "not an integer: %S" s)

let parse_ints s =
  if String.equal s "" then Ok []
  else
    List.fold_left
      (fun acc tok ->
        let* acc = acc in
        let* i = parse_int tok in
        Ok (i :: acc))
      (Ok [])
      (String.split_on_char ',' s)
    |> Result.map List.rev

let parse_pairs s =
  if String.equal s "-" then Ok []
  else
    List.fold_left
      (fun acc tok ->
        let* acc = acc in
        match String.split_on_char ':' tok with
        | [ a; b ] ->
          let* a = parse_int a in
          let* b = parse_int b in
          Ok ((a, b) :: acc)
        | _ -> Error (Printf.sprintf "malformed binding %S" tok))
      (Ok [])
      (String.split_on_char ',' s)
    |> Result.map List.rev

let parse_ann = function
  | "n" -> Ok Step.No_ann
  | "p" -> Ok Step.Parallel
  | "v" -> Ok Step.Vectorize
  | "u" -> Ok Step.Unroll
  | s -> Error (Printf.sprintf "unknown annotation code %S" s)

let parse_bool = function
  | "0" -> Ok false
  | "1" -> Ok true
  | s -> Error (Printf.sprintf "expected 0/1, got %S" s)

let step_of_string s : (Step.t, string) result =
  match String.split_on_char ' ' s with
  | [ "S"; stage; iv; lengths; tbd ] ->
    let* iv = parse_int iv in
    let* lengths = parse_ints lengths in
    let* tbd = parse_bool tbd in
    Ok (Step.Split { stage; iv; lengths; tbd })
  | [ "F"; stage; ivs ] ->
    let* ivs = parse_ints ivs in
    Ok (Step.Fuse { stage; ivs })
  | [ "O"; stage; order ] ->
    let* order = parse_ints order in
    Ok (Step.Reorder { stage; order })
  | [ "CA"; stage; target; target_iv; bindings ] ->
    let* target_iv = parse_int target_iv in
    let* bindings = parse_pairs bindings in
    Ok (Step.Compute_at { stage; target; target_iv; bindings })
  | [ "I"; stage ] -> Ok (Step.Compute_inline { stage })
  | [ "CR"; stage ] -> Ok (Step.Compute_root { stage })
  | [ "CW"; stage ] -> Ok (Step.Cache_write { stage })
  | [ "RF"; stage; iv; lengths; tbd ] ->
    let* iv = parse_int iv in
    let* lengths = parse_ints lengths in
    let* tbd = parse_bool tbd in
    Ok (Step.Rfactor { stage; iv; lengths; tbd })
  | [ "A"; stage; iv; ann ] ->
    let* iv = parse_int iv in
    let* ann = parse_ann ann in
    Ok (Step.Annotate { stage; iv; ann })
  | [ "P"; stage; max_step ] ->
    let* max_step = parse_int max_step in
    Ok (Step.Pragma_unroll { stage; max_step })
  | _ -> Error (Printf.sprintf "malformed step %S" s)

let of_line line =
  match String.split_on_char '\t' line with
  | [ m; task_key; latency; steps ] when String.equal m magic ->
    let* latency =
      match float_of_string_opt latency with
      | Some f when f > 0.0 -> Ok f
      | _ -> Error (Printf.sprintf "bad latency %S" latency)
    in
    let* steps =
      if String.equal steps "" then Ok []
      else
        List.fold_left
          (fun acc s ->
            let* acc = acc in
            let* step = step_of_string s in
            Ok (step :: acc))
          (Ok [])
          (String.split_on_char ';' steps)
        |> Result.map List.rev
    in
    Ok { task_key; latency; steps }
  | m :: _ when not (String.equal m magic) ->
    Error (Printf.sprintf "bad magic (expected %s)" magic)
  | _ -> Error "malformed record line"

(* ---- files --------------------------------------------------------------- *)

let save ~path entries = Ansor_util.Line_file.write ~path (List.map to_line entries)

let append_batch ~path entries =
  Ansor_util.Line_file.append ~path (List.map to_line entries)

let load_salvage ~path = Ansor_util.Line_file.read ~path ~strict:false of_line

(* Keep the best (lowest-latency) entry of every task key, preserving the
   file order of the survivors.  Ties keep the earliest entry, so a log of
   identical entries compacts to its first line. *)
let compact_entries entries =
  let best = Hashtbl.create 16 in
  List.iter
    (fun e ->
      match Hashtbl.find_opt best e.task_key with
      | Some b when b.latency <= e.latency -> ()
      | _ -> Hashtbl.replace best e.task_key e)
    entries;
  List.filter
    (fun e ->
      match Hashtbl.find_opt best e.task_key with
      | Some b -> b == e
      | None -> false)
    entries

let compact ~path =
  match load_salvage ~path with
  | Error msg -> Error msg
  | Ok (entries, skipped) ->
    let kept = compact_entries entries in
    save ~path kept;
    Ok (List.length entries - List.length kept + skipped)

let best_for entries ~task_key =
  List.fold_left
    (fun acc e ->
      if not (String.equal e.task_key task_key) then acc
      else
        match acc with
        | Some b when b.latency <= e.latency -> acc
        | _ -> Some e)
    None entries

let entry_of_tuner tuner =
  match Tuner.best_state tuner with
  | None -> None
  | Some st ->
    Some
      {
        task_key = Task.key (Tuner.task tuner);
        latency = Tuner.best_latency tuner;
        steps = st.State.history;
      }

let best_state entry dag = State.replay_checked dag entry.steps
