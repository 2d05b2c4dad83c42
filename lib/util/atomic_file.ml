let temp_for path =
  let dir = Filename.dirname path in
  let base = Filename.basename path in
  Filename.temp_file ~temp_dir:dir (base ^ ".") ".tmp"

let write ~path f =
  let tmp = temp_for path in
  let oc = open_out tmp in
  match
    Fun.protect ~finally:(fun () -> close_out oc) (fun () -> f oc)
  with
  | () -> Sys.rename tmp path
  | exception e ->
    (try Sys.remove tmp with Sys_error _ -> ());
    raise e

let write_string ~path s = write ~path (fun oc -> output_string oc s)
