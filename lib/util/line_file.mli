(** Line files: the one on-disk envelope for line-oriented text artifacts
    (record logs, dedup caches, schedule registries, model stores).

    {v
    [<header>\n]          optional version line, e.g. ansor-registry-v1
    <line>\n              one entry per line, in the caller's codec
    ...
    v}

    Every write goes through {!Atomic_file}, so an interrupted write never
    truncates the lines already on disk.  Readers skip blank lines and, in
    salvage mode, count the lines the codec rejects (e.g. the torn final
    line of a killed writer) instead of failing. *)

val write : path:string -> ?header:string -> string list -> unit
(** [write ~path ?header lines] atomically replaces [path] with [header]
    (when given) followed by [lines], each terminated by ["\n"]. *)

val append : path:string -> ?header:string -> string list -> unit
(** [append ~path ?header lines] appends [lines] with {e one} copy +
    rename, so a batch costs one O(file-size) rewrite.  [header] is
    written only when the call creates the file.  A torn final line of
    the existing file is terminated first, so it costs that line alone.
    The empty batch is a no-op (the file is not even touched). *)

val read :
  path:string ->
  ?header:string ->
  strict:bool ->
  (string -> ('a, string) result) ->
  ('a list * int, string) result
(** [read ~path ?header ~strict parse] parses every non-blank line after
    the header.  [Ok (items, skipped)] lists the parsed items in file
    order and counts the lines [parse] rejected; with [~strict:true] the
    first rejected line is instead an [Error] naming [path] and the line
    number.  An unreadable file, or a missing or foreign [header], is an
    [Error] naming [path] in either mode.  Never raises. *)
