(* End-to-end tests of the ansor-cli binary: every subcommand runs, and
   the tune --save / replay round trip works on a real log file. *)

open Helpers

let cli =
  (* dune runtest runs from _build/default/test; dune exec from the root *)
  lazy
    (List.find_opt Sys.file_exists
       [ "../bin/ansor_cli.exe"; "_build/default/bin/ansor_cli.exe" ])

let have_cli = lazy (Lazy.force cli <> None)

let run_cli args =
  let exe = Option.get (Lazy.force cli) in
  let out = Filename.temp_file "ansor_cli" ".out" in
  let cmd = Printf.sprintf "%s %s > %s 2>&1" exe args (Filename.quote out) in
  let code = Sys.command cmd in
  let ic = open_in out in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  Sys.remove out;
  (code, s)

let require_cli () = if not (Lazy.force have_cli) then Alcotest.skip ()

let contains hay needle =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

let test_machines () =
  require_cli ();
  let code, out = run_cli "machines" in
  check_int "exit 0" 0 code;
  List.iter
    (fun m -> check_bool (m ^ " listed") true (contains out m))
    [ "intel-cpu"; "arm-cpu"; "gpu" ]

let test_sketches () =
  require_cli ();
  let code, out = run_cli "sketches -o GMM -i 1" in
  check_int "exit 0" 0 code;
  check_bool "shows sketch steps" true (contains out "split(");
  check_bool "shows computation" true (contains out "placeholder")

let test_lint_bounds () =
  require_cli ();
  let code, out = run_cli "lint -o GMM --sample 2 --seed 3 --json" in
  check_int "exit 0" 0 code;
  check_bool "per-target bounds verdict" true
    (contains out {|"bounds_verdict":"certified"|});
  check_bool "bounds summary block" true (contains out {|"bounds":{|});
  check_bool "no unsafe programs" true (contains out {|"unsafe":0|});
  let code, out =
    run_cli "lint -o GMM --sample 2 --seed 3 --bounds=false --json"
  in
  check_int "exit 0 with certifier off" 0 code;
  check_bool "verdicts absent when disabled" false (contains out "bounds_verdict")

let test_tune_and_replay () =
  require_cli ();
  let log = Filename.temp_file "ansor_cli" ".log" in
  Sys.remove log;
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists log then Sys.remove log)
    (fun () ->
      let code, out =
        run_cli (Printf.sprintf "tune -o GMM -i 1 -t 32 --save %s" log)
      in
      check_int "tune exit 0" 0 code;
      check_bool "reports best" true (contains out "best");
      check_bool "log written" true (Sys.file_exists log);
      let code, out =
        run_cli (Printf.sprintf "replay -o GMM -i 1 --from %s" log)
      in
      check_int "replay exit 0" 0 code;
      check_bool "replay reports" true (contains out "replayed record");
      check_bool "on the exact rung" true
        (contains out "replayed record (exact;");
      (* replaying a different task from the same log fails cleanly *)
      let code, out =
        run_cli (Printf.sprintf "replay -o NRM -i 1 --from %s" log)
      in
      check_int "missing record exits 1" 1 code;
      check_bool "explains" true (contains out "no record"))

let test_tune_curve () =
  require_cli ();
  let code, out = run_cli "tune -o GMM -i 1 -t 32 --curve" in
  check_int "exit 0" 0 code;
  check_bool "plots" true (contains out "measurement trials")

let test_bad_arguments () =
  require_cli ();
  let code, _ = run_cli "tune -o FFT" in
  check_bool "unknown operator rejected" true (code <> 0);
  let code, _ = run_cli "tune -m quantum" in
  check_bool "unknown machine rejected" true (code <> 0);
  let code, _ = run_cli "tune -s magic" in
  check_bool "unknown strategy rejected" true (code <> 0);
  let code, _ = run_cli "network -n alexnet" in
  check_bool "unknown network rejected" true (code <> 0)

let test_network_command () =
  require_cli ();
  let code, out = run_cli "network -n dcgan --budget 60" in
  check_int "exit 0" 0 code;
  check_bool "end-to-end reported" true (contains out "end-to-end")

let in_temp_dir body =
  (* registry/serve tests juggle several files; keep them together *)
  let dir = Filename.temp_file "ansor_cli" ".d" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
      Unix.rmdir dir)
    (fun () -> body (fun name -> Filename.concat dir name))

let test_registry_and_serve () =
  require_cli ();
  in_temp_dir (fun path ->
      let log = path "tune.log" and reg = path "sched.reg" in
      let code, _ =
        run_cli (Printf.sprintf "tune -o GMM -i 1 -t 32 --save %s" log)
      in
      check_int "tune exit 0" 0 code;
      let code, out =
        run_cli (Printf.sprintf "registry build -o %s --from %s" reg log)
      in
      check_int "build exit 0" 0 code;
      check_bool "build reports" true (contains out "1 task");
      let code, out = run_cli (Printf.sprintf "registry show %s" reg) in
      check_int "show exit 0" 0 code;
      check_bool "shows the key" true (contains out "intel-cpu/");
      let code, out = run_cli (Printf.sprintf "registry compact %s" reg) in
      check_int "compact exit 0" 0 code;
      check_bool "canonical already" true (contains out "0 lines dropped");
      let merged = path "merged.reg" in
      let code, out =
        run_cli (Printf.sprintf "registry merge -o %s %s %s" merged reg reg)
      in
      check_int "merge exit 0" 0 code;
      check_bool "merged size" true (contains out "1 task");
      (* serve the tuned shape: exact hits, nothing adapted or defaulted *)
      let code, out =
        run_cli
          (Printf.sprintf
             "serve -o GMM -i 1 --registry %s --requests 40 --stats-json -"
             reg)
      in
      check_int "serve exit 0" 0 code;
      check_bool "exact dispatch" true (contains out "1 exact");
      check_bool "none adapted" true (contains out "\"adapted\": 0");
      check_bool "none defaulted" true (contains out "\"defaulted\": 0");
      (* an untuned shape is answered by the similarity fallback *)
      let code, out =
        run_cli
          (Printf.sprintf
             "serve -o GMM -i 2 --registry %s --requests 10 --stats-json -" reg)
      in
      check_int "untuned serve exit 0" 0 code;
      check_bool "adapted dispatch" true (contains out "\"adapted\": 1"))

let test_serve_errors () =
  require_cli ();
  (* --resume without --registry: a usage error, not a backtrace *)
  let code, out = run_cli "serve -o GMM -i 1 --resume --requests 1" in
  check_int "usage error exits 1" 1 code;
  check_bool "explains the fix" true
    (contains out "--resume requires --registry");
  check_bool "no backtrace" false (contains out "Raised at");
  (* a raw tuning log is not a registry *)
  in_temp_dir (fun path ->
      let log = path "tune.log" in
      let code, _ =
        run_cli (Printf.sprintf "tune -o GMM -i 1 -t 16 --save %s" log)
      in
      check_int "tune exit 0" 0 code;
      let code, out =
        run_cli (Printf.sprintf "serve -o GMM -i 1 --registry %s" log)
      in
      check_int "raw log rejected" 1 code;
      check_bool "explains" true (contains out "registry build"))

let count_occurrences hay needle =
  let n = String.length needle in
  let rec go i acc =
    if i + n > String.length hay then acc
    else if String.sub hay i n = needle then go (i + n) (acc + 1)
    else go (i + 1) acc
  in
  go 0 0

let test_torn_store_warns_once () =
  require_cli ();
  in_temp_dir (fun path ->
      let store = path "tune.store" in
      let tune () =
        run_cli (Printf.sprintf "tune -o GMM -t 8 --model-store %s" store)
      in
      let code, _ = tune () in
      check_int "first tune exit 0" 0 code;
      (* a writer killed mid-append: the final line keeps only a prefix
         of its task key *)
      let bytes = In_channel.with_open_bin store In_channel.input_all in
      let last = String.rindex_from bytes (String.length bytes - 2) '\n' in
      Out_channel.with_open_bin store (fun oc ->
          output_string oc (String.sub bytes 0 (last + 1 + 8)));
      let code, out = tune () in
      check_int "tune on a torn store exit 0" 0 code;
      check_int "one skipped-lines warning" 1
        (count_occurrences out "malformed"))

let test_serve_naive () =
  require_cli ();
  let code, out = run_cli "serve -o GMM -i 1 --naive --requests 8" in
  check_int "exit 0" 0 code;
  check_bool "default dispatch" true (contains out "1 default")

let () =
  Alcotest.run "cli"
    [
      ( "commands",
        [
          case "machines" test_machines;
          case "sketches" test_sketches;
          case "lint --bounds" test_lint_bounds;
          case "tune --save / replay" test_tune_and_replay;
          case "tune --curve" test_tune_curve;
          case "argument validation" test_bad_arguments;
          case "network" test_network_command;
          case "torn model store warns once" test_torn_store_warns_once;
        ] );
      ( "serving",
        [
          case "registry build/show/compact/merge + serve"
            test_registry_and_serve;
          case "serve error handling" test_serve_errors;
          case "serve --naive" test_serve_naive;
        ] );
    ]
