type severity = Error | Warn | Info

type location =
  | Program
  | Stage of string
  | Loop of string
  | Buffer of string

type t = {
  severity : severity;
  code : string;
  loc : location;
  message : string;
}

let make ~severity ~code ~loc message = { severity; code; loc; message }

let makef ~severity ~code ~loc fmt =
  Format.kasprintf (fun message -> { severity; code; loc; message }) fmt

let severity_to_string = function
  | Error -> "error"
  | Warn -> "warn"
  | Info -> "info"

(* Error sorts first; used for reporting worst-first. *)
let severity_rank = function Error -> 0 | Warn -> 1 | Info -> 2

let compare_severity a b = compare (severity_rank a) (severity_rank b)

let loc_to_string = function
  | Program -> "program"
  | Stage s -> "statement of stage " ^ s
  | Loop v -> "loop " ^ v
  | Buffer b -> "buffer " ^ b

let pp fmt d =
  Format.fprintf fmt "%s[%s] %s: %s"
    (severity_to_string d.severity)
    d.code (loc_to_string d.loc) d.message

let to_string d = Format.asprintf "%a" pp d

let is_error d = d.severity = Error
let errors ds = List.filter is_error ds
let has_errors ds = List.exists is_error ds

let sort ds =
  List.stable_sort (fun a b -> compare_severity a.severity b.severity) ds

(* ---- JSON --------------------------------------------------------------- *)

let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | '\r' -> Buffer.add_string b "\\r"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let loc_to_json = function
  | Program -> {|{"kind":"program"}|}
  | Stage s -> Printf.sprintf {|{"kind":"stage","name":"%s"}|} (json_escape s)
  | Loop v -> Printf.sprintf {|{"kind":"loop","name":"%s"}|} (json_escape v)
  | Buffer b -> Printf.sprintf {|{"kind":"buffer","name":"%s"}|} (json_escape b)

let to_json d =
  Printf.sprintf {|{"severity":"%s","code":"%s","loc":%s,"message":"%s"}|}
    (severity_to_string d.severity)
    (json_escape d.code) (loc_to_json d.loc) (json_escape d.message)

let list_to_json ds =
  "[" ^ String.concat "," (List.map to_json ds) ^ "]"
