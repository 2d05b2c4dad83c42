(* The shared line-file envelope and the four text formats built on it:
   record log, dedup cache, schedule registry and model store. *)

open Helpers
module Line_file = Ansor_util.Line_file

let read_file p = In_channel.with_open_bin p In_channel.input_all

let write_file p s = Out_channel.with_open_bin p (fun oc -> output_string oc s)

let with_temp f =
  let p = Filename.temp_file "ansor_lines" ".txt" in
  Sys.remove p;
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists p then Sys.remove p)
    (fun () -> f p)

let parse_int line =
  match int_of_string_opt line with
  | Some i -> Ok i
  | None -> Error "not an int"

let read_ok ?header ~strict p =
  match Line_file.read ~path:p ?header ~strict parse_int with
  | Ok r -> r
  | Error e -> Alcotest.failf "read failed: %s" e

(* ---- envelope ------------------------------------------------------------ *)

let test_write_read () =
  with_temp (fun p ->
      Line_file.write ~path:p ~header:"h-v1" [ "1"; "2" ];
      check_string "bytes" "h-v1\n1\n2\n" (read_file p);
      let items, skipped = read_ok ~header:"h-v1" ~strict:true p in
      check_bool "items in file order" true (items = [ 1; 2 ]);
      check_int "nothing skipped" 0 skipped;
      Line_file.write ~path:p [];
      check_string "empty write leaves an empty file" "" (read_file p))

let test_append () =
  with_temp (fun p ->
      Line_file.append ~path:p ~header:"h-v1" [];
      check_bool "empty batch writes nothing" false (Sys.file_exists p);
      Line_file.append ~path:p ~header:"h-v1" [ "1" ];
      Line_file.append ~path:p ~header:"h-v1" [ "2"; "3" ];
      check_string "header only on create" "h-v1\n1\n2\n3\n" (read_file p);
      (* a torn final line is terminated before the batch, so it costs
         that line alone *)
      write_file p "h-v1\n1\n2x";
      Line_file.append ~path:p ~header:"h-v1" [ "4" ];
      let items, skipped = read_ok ~header:"h-v1" ~strict:false p in
      check_bool "appended line survives a torn tail" true (items = [ 1; 4 ]);
      check_int "torn line skipped" 1 skipped)

let test_read_modes () =
  with_temp (fun p ->
      write_file p "1\n\nx\n3\n";
      let items, skipped = read_ok ~strict:false p in
      check_bool "blank skipped, bad line counted" true (items = [ 1; 3 ]);
      check_int "one bad line" 1 skipped;
      (match Line_file.read ~path:p ~strict:true parse_int with
      | Ok _ -> Alcotest.fail "strict read accepted a bad line"
      | Error e ->
        check_string "names path and line" (p ^ ": line 3: not an int") e);
      (match Line_file.read ~path:p ~header:"h-v1" ~strict:false parse_int with
      | Ok _ -> Alcotest.fail "missing header accepted"
      | Error e ->
        check_bool "header error names the path" true
          (String.starts_with ~prefix:(p ^ ": ") e));
      write_file p "";
      (match Line_file.read ~path:p ~header:"h-v1" ~strict:false parse_int with
      | Ok _ -> Alcotest.fail "empty file accepted as headed"
      | Error _ -> ());
      Sys.remove p;
      match Line_file.read ~path:p ~strict:false parse_int with
      | Ok _ -> Alcotest.fail "missing file accepted"
      | Error e ->
        check_bool "open error names the path" true
          (String.starts_with ~prefix:p e))

(* ---- the four formats ---------------------------------------------------- *)

type format = {
  name : string;
  literal : string;
      (* one entry, byte for byte as the previous releases write it *)
  headed : bool;  (* a foreign header must be refused *)
  resave : string -> (int * int, string) result;
      (* load the file, save it back; (entries, skipped) *)
}

let record_line =
  "ansor-v1\tintel-cpu/mm[16x16x16]\t1.230000000e-03\tS C 0 4,4 0;A C 0 p"

let formats =
  [
    {
      name = "record log";
      literal = record_line ^ "\n";
      headed = false;
      resave =
        (fun path ->
          Result.map
            (fun (es, skipped) ->
              Ansor.Record.save ~path es;
              (List.length es, skipped))
            (Ansor.Record.load_salvage ~path));
    };
    {
      name = "dedup cache";
      literal =
        "ansor-cache-v1\t0123456789abcdef0123456789abcdef\t2.500000000e-04\n";
      headed = false;
      resave =
        (fun path ->
          Result.map
            (fun (c, skipped) ->
              Ansor.Measure_cache.save ~path c;
              (Ansor.Measure_cache.size c, skipped))
            (Ansor.Measure_cache.load_salvage ~path));
    };
    {
      name = "registry";
      literal = "ansor-registry-v1\n" ^ record_line ^ "\n";
      headed = true;
      resave =
        (fun path ->
          Result.map
            (fun (r, skipped) ->
              Ansor.Registry.save ~path r;
              (Ansor.Registry.size r, skipped))
            (Ansor.Registry.load_salvage ~path));
    };
    {
      name = "model store";
      literal =
        "ansor-store-v1\n\
         intel-cpu/mm[16x16x16]\t0123456789abcdef0123456789abcdef\t0x1.4p-10\t\
         0x1p+0,0x1.8p+1;0x0p+0\n";
      headed = true;
      resave =
        (fun path ->
          Result.map
            (fun (s, skipped) ->
              Ansor.Model_store.save ~path s;
              (Ansor.Model_store.size s, skipped))
            (Ansor.Model_store.load_salvage ~path));
    };
  ]

let last_line literal =
  let body = String.sub literal 0 (String.length literal - 1) in
  match String.rindex_opt body '\n' with
  | Some i -> String.sub body (i + 1) (String.length body - i - 1)
  | None -> body

let test_format f () =
  with_temp (fun p ->
      write_file p f.literal;
      (match f.resave p with
      | Ok (n, skipped) ->
        check_int "one entry" 1 n;
        check_int "nothing skipped" 0 skipped
      | Error e -> Alcotest.failf "load failed: %s" e);
      check_string "re-saved byte for byte" f.literal (read_file p);
      (* a killed writer: half of a second entry line, no newline *)
      let line = last_line f.literal in
      write_file p (f.literal ^ String.sub line 0 (String.length line / 2));
      (match f.resave p with
      | Ok (n, skipped) ->
        check_int "intact entry kept" 1 n;
        check_int "torn line costs that line" 1 skipped
      | Error e -> Alcotest.failf "salvage failed: %s" e);
      check_string "torn line healed by the re-save" f.literal (read_file p);
      if f.headed then begin
        write_file p ("ansor-foreign-v9\n" ^ line ^ "\n");
        match f.resave p with
        | Ok _ -> Alcotest.fail "foreign header accepted"
        | Error e ->
          check_bool "error names the path" true
            (String.starts_with ~prefix:(p ^ ": ") e);
          check_string "foreign file untouched"
            ("ansor-foreign-v9\n" ^ line ^ "\n")
            (read_file p)
      end)

let () =
  Alcotest.run "line_file"
    [
      ( "envelope",
        [
          case "write/read" test_write_read;
          case "append" test_append;
          case "salvage, strict and header errors" test_read_modes;
        ] );
      ("formats", List.map (fun f -> case f.name (test_format f)) formats);
    ]
