let output_lines oc lines =
  List.iter
    (fun line ->
      output_string oc line;
      output_char oc '\n')
    lines

let write ~path ?header lines =
  Atomic_file.write ~path (fun oc -> output_lines oc (Option.to_list header @ lines))

let append ~path ?header lines =
  if lines <> [] then
    if Sys.file_exists path then begin
      let existing = In_channel.with_open_bin path In_channel.input_all in
      Atomic_file.write ~path (fun oc ->
          output_string oc existing;
          let n = String.length existing in
          if n > 0 && existing.[n - 1] <> '\n' then output_char oc '\n';
          output_lines oc lines)
    end
    else write ~path ?header lines

let read ~path ?header ~strict parse =
  match open_in_bin path with
  | exception Sys_error e -> Error e
  | ic ->
    let fail fmt = Printf.ksprintf (fun msg -> Error (path ^ ": " ^ msg)) fmt in
    let rec go lineno items skipped =
      match input_line ic with
      | exception End_of_file -> Ok (List.rev items, skipped)
      | "" -> go (lineno + 1) items skipped
      | line -> (
        match parse line with
        | Ok item -> go (lineno + 1) (item :: items) skipped
        | Error msg when strict -> fail "line %d: %s" lineno msg
        | Error _ -> go (lineno + 1) items (skipped + 1))
    in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        match header with
        | None -> go 1 [] 0
        | Some h -> (
          match input_line ic with
          | line when String.equal line h -> go 2 [] 0
          | _ | (exception End_of_file) -> fail "missing the %s header line" h))
