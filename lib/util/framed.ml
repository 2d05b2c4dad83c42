let footer payload = "md5:" ^ Digest.to_hex (Digest.string payload)

let write ~path ~magic payload =
  Atomic_file.write ~path (fun oc ->
      Printf.fprintf oc "%s\n%d\n%s%s\n" magic (String.length payload) payload
        (footer payload))

let read ~path ~magic =
  match open_in_bin path with
  | exception Sys_error e -> Error e
  | ic ->
    let fail msg = Error (Printf.sprintf "%s: %s" path msg) in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        try
          let header = input_line ic in
          if not (String.equal header magic) then
            fail (Printf.sprintf "bad magic %S (expected %s)" header magic)
          else
            match int_of_string_opt (input_line ic) with
            | None -> fail "malformed payload length"
            | Some len when len < 0 -> fail "bad payload length"
            | Some len ->
              let payload = really_input_string ic len in
              if String.equal (input_line ic) (footer payload) then Ok payload
              else fail "digest mismatch: file torn or corrupted"
        with
        | End_of_file -> fail "truncated file"
        | e -> fail (Printexc.to_string e))
