type t = { table : (string, float) Hashtbl.t }

let create () = { table = Hashtbl.create 256 }

let key_of_prog ?(backend = Protocol.Sim) (machine : Ansor_machine.Machine.t)
    (prog : Ansor_sched.Prog.t) =
  (* the structural fields fully determine the simulator estimate; the step
     history that produced the program does not participate.  The backend
     participates: a native wall-clock measurement must never satisfy a
     simulator lookup (or vice versa), even through a shared cache file.
     Sim keys keep the historical unprefixed form so caches persisted by
     older sessions stay valid. *)
  let payload = Ansor_sched.Prog.canonical_payload prog in
  let tag =
    match backend with
    | Protocol.Sim -> ""
    | b -> Protocol.backend_name b ^ "\x00"
  in
  Digest.to_hex
    (Digest.string
       (tag ^ machine.Ansor_machine.Machine.name ^ "\x00" ^ payload))

let find t key = Hashtbl.find_opt t.table key

let add t key latency =
  if not (Hashtbl.mem t.table key) then Hashtbl.replace t.table key latency

let size t = Hashtbl.length t.table

let entries t =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.table []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let magic = "ansor-cache-v1"

let to_line (k, v) = Printf.sprintf "%s\t%s\t%.9e" magic k v

let parse_line line =
  match String.split_on_char '\t' line with
  | [ m; key; latency ] when String.equal m magic -> (
    match float_of_string_opt latency with
    | Some l when l > 0.0 -> Ok (key, l)
    | _ -> Error (Printf.sprintf "bad latency %S" latency))
  | m :: _ when not (String.equal m magic) ->
    Error (Printf.sprintf "bad magic (expected %s)" magic)
  | _ -> Error "malformed cache line"

let save ~path t = Ansor_util.Line_file.write ~path (List.map to_line (entries t))

let load_salvage ~path =
  Result.map
    (fun (kvs, skipped) ->
      let t = create () in
      List.iter (fun (key, l) -> add t key l) kvs;
      (t, skipped))
    (Ansor_util.Line_file.read ~path ~strict:false parse_line)
