(** Severity-tiered diagnostics shared by the validator ({!Validate}) and
    the static analyses over lowered programs (lib/analysis).

    Every static finding — bounds violations, data races, schedule lints —
    is one {!type:t}: a severity, a stable machine-readable [code] slug
    (e.g. ["write-race"], ["nested-parallel"]), a structured location, and
    a human message.  One pretty renderer and one JSON renderer serve every
    producer, so the CLI, the measurement service, and CI all report
    findings identically. *)

type severity =
  | Error  (** the program is wrong (or will be once run in parallel) *)
  | Warn  (** suspicious; legal but probably not what was intended *)
  | Info  (** performance hint, never a correctness claim *)

type location =
  | Program  (** whole-program finding *)
  | Stage of string  (** the statement of a compute stage *)
  | Loop of string  (** a loop, identified by its variable *)
  | Buffer of string  (** a buffer, identified by name *)

type t = {
  severity : severity;
  code : string;
  loc : location;
  message : string;
}

val make : severity:severity -> code:string -> loc:location -> string -> t

val makef :
  severity:severity ->
  code:string ->
  loc:location ->
  ('a, Format.formatter, unit, t) format4 ->
  'a
(** [makef] is {!make} with a format string for the message. *)

val pp : Format.formatter -> t -> unit
(** ["error[write-race] statement of stage C: ..."] *)

val to_string : t -> string

val errors : t list -> t list
val has_errors : t list -> bool

val sort : t list -> t list
(** Stable sort, worst severity first. *)

val json_escape : string -> string
val to_json : t -> string
val list_to_json : t list -> string
