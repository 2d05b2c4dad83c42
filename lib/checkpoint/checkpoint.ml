type meta = {
  seed : int;
  machine : string;
  task_keys : string list;
  rounds : int;
}

type image = { meta : meta; session : Ansor_scheduler.Scheduler.Snapshot.t }

(* v2: Shared.snapshot gained the cross-task warm-start fields
   (pretrained base model, store-derived records, provenance).
   v3: Telemetry.stats gained the memory-safety certification counters
   (bounds_rejected / certified / cert_cache_hits).
   v4: Tuner.Snapshot gained the exploitation-descent cursor and
   plateau-detector state; Telemetry.stats gained the descent counters.
   v5: the Single/Session payload variant is gone — a single-operator
   session is a one-task scheduler session, so every image holds one
   Scheduler.Snapshot.t.
   The version lives in the magic line, so a snapshot from an older
   binary is rejected cleanly instead of misparsed by Marshal. *)
let version = 5

let magic = Printf.sprintf "ansor-snapshot-v%d" version

let prev_path path = path ^ ".prev"

let save ~path image =
  (* rotate first: the previous generation survives as <path>.prev, so a
     crash anywhere below costs at most one round of progress *)
  if Sys.file_exists path then (
    try Sys.rename path (prev_path path) with Sys_error _ -> ());
  Ansor_util.Framed.write ~path ~magic (Marshal.to_string (image : image) [])

let load ~path : (image, string) result =
  Result.map
    (fun payload -> (Marshal.from_string payload 0 : image))
    (Ansor_util.Framed.read ~path ~magic)

type generation = Current | Previous of string

let load_latest ~path =
  match load ~path with
  | Ok img -> Ok (img, Current)
  | Error current_err -> (
    match load ~path:(prev_path path) with
    | Ok img -> Ok (img, Previous current_err)
    | Error prev_err ->
      Error (Printf.sprintf "%s; %s" current_err prev_err))

module Shutdown = struct
  let flag = ref None

  let note name _signum =
    match !flag with
    | None -> flag := Some name
    | Some _ ->
      (* second signal: the user insists — exit immediately *)
      exit 130

  let install () =
    Sys.set_signal Sys.sigint (Sys.Signal_handle (note "SIGINT"));
    Sys.set_signal Sys.sigterm (Sys.Signal_handle (note "SIGTERM"))

  let requested () = !flag <> None

  let reason () = !flag

  let reset () = flag := None
end
