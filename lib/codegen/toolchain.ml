(* One place that knows how to drive the C compiler and the binaries it
   produces.  Everything that used to shell out to gcc ad hoc (the codegen
   differential tests, deployment smoke checks, the native measurement
   backend, benches) goes through here, so failure messages always carry
   the captured stderr instead of pointing at a dead temp file. *)

let cc () = Option.value (Sys.getenv_opt "ANSOR_CC") ~default:"gcc"

let available =
  let probe =
    lazy
      (Sys.command (Printf.sprintf "%s --version > /dev/null 2>&1" (cc ())) = 0)
  in
  fun () -> Lazy.force probe

let default_flags = [ "-O1" ]
let native_flags = [ "-O3"; "-fopenmp"; "-march=native" ]

(* ---- temp-dir plumbing -------------------------------------------------- *)

let with_temp_dir ~prefix f =
  let dir = Filename.temp_file prefix "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  let cleanup () =
    match Sys.readdir dir with
    | entries ->
      Array.iter
        (fun e -> try Sys.remove (Filename.concat dir e) with Sys_error _ -> ())
        entries;
      (try Unix.rmdir dir with Unix.Unix_error _ -> ())
    | exception Sys_error _ -> ()
  in
  Fun.protect ~finally:cleanup (fun () -> f dir)

let read_file path =
  try In_channel.with_open_bin path In_channel.input_all
  with Sys_error _ -> ""

let write_file path contents =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc contents)

(* stderr capped so a pathological compiler dump cannot blow up telemetry,
   logs or checkpoint images downstream *)
let truncate_err msg =
  let limit = 4000 in
  if String.length msg <= limit then String.trim msg
  else String.trim (String.sub msg 0 limit) ^ " ... [truncated]"

(* ---- compilation -------------------------------------------------------- *)

let compile ?(flags = default_flags) ~src ~out () =
  let err_file = out ^ ".err" in
  let cmd =
    Printf.sprintf "%s %s -o %s %s -lm 2> %s" (cc ())
      (String.concat " " flags)
      (Filename.quote out) (Filename.quote src) (Filename.quote err_file)
  in
  let code = Sys.command cmd in
  let err = read_file err_file in
  (try Sys.remove err_file with Sys_error _ -> ());
  if code = 0 then Ok ()
  else
    Error
      (Printf.sprintf "%s exited with %d: %s" (cc ()) code
         (truncate_err (if err = "" then "(no stderr)" else err)))

let compile_string ?flags ~dir ~basename source =
  let src = Filename.concat dir (basename ^ ".c") in
  let out = Filename.concat dir basename in
  write_file src source;
  match compile ?flags ~src ~out () with
  | Ok () -> Ok out
  | Error _ as e -> e

(* ---- running ------------------------------------------------------------ *)

type run_error =
  | Nonzero_exit of int * string  (** exit code, captured stderr *)
  | Signaled of int * string  (** fatal signal (killed, segfault, ...) *)
  | Timed_out of float  (** wall-clock limit in seconds *)

let run_error_to_string = function
  | Nonzero_exit (c, err) ->
    Printf.sprintf "exited with %d%s" c (if err = "" then "" else ": " ^ err)
  | Signaled (s, err) ->
    Printf.sprintf "killed by signal %d%s" s (if err = "" then "" else ": " ^ err)
  | Timed_out limit -> Printf.sprintf "timed out after %.1fs" limit

(* Run [exe args], stdout/stderr captured to temp files (no pipe deadlock
   on chatty programs), with an optional wall-clock kill.  The poll loop
   backs off to 10ms, so the timing resolution is far below any sane
   [timeout]; the measured latencies themselves are taken {e inside} the
   child, so the polling granularity never pollutes them. *)
let run ?(timeout = infinity) exe args =
  let out_file = Filename.temp_file "ansor_run" ".out" in
  let err_file = Filename.temp_file "ansor_run" ".err" in
  let cleanup () =
    List.iter
      (fun f -> try Sys.remove f with Sys_error _ -> ())
      [ out_file; err_file ]
  in
  Fun.protect ~finally:cleanup (fun () ->
      let fd_out = Unix.openfile out_file [ O_WRONLY; O_TRUNC ] 0o644 in
      let fd_err = Unix.openfile err_file [ O_WRONLY; O_TRUNC ] 0o644 in
      let pid =
        Fun.protect
          ~finally:(fun () ->
            Unix.close fd_out;
            Unix.close fd_err)
          (fun () ->
            Unix.create_process exe
              (Array.of_list (exe :: args))
              Unix.stdin fd_out fd_err)
      in
      let deadline = Unix.gettimeofday () +. timeout in
      let rec wait () =
        match Unix.waitpid [ Unix.WNOHANG ] pid with
        | 0, _ ->
          if Unix.gettimeofday () > deadline then begin
            (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
            ignore (Unix.waitpid [] pid);
            Error (Timed_out timeout)
          end
          else begin
            Unix.sleepf 0.01;
            wait ()
          end
        | _, Unix.WEXITED 0 ->
          let stdout_lines =
            String.split_on_char '\n' (read_file out_file)
            |> List.filter (fun l -> l <> "")
          in
          Ok stdout_lines
        | _, Unix.WEXITED c ->
          Error (Nonzero_exit (c, truncate_err (read_file err_file)))
        | _, (Unix.WSIGNALED s | Unix.WSTOPPED s) ->
          Error (Signaled (s, truncate_err (read_file err_file)))
      in
      wait ())
