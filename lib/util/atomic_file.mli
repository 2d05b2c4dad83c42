(** Atomic file replacement: write-temp + rename.

    Every persistent artifact of a tuning session goes through this module
    (text files via {!Line_file}, binary images via {!Framed}), so an
    interrupted save — crash, OOM kill, Ctrl-C — can never leave a
    truncated file where a previously-valid one stood.  The temp file is created in the target's
    own directory (rename is only atomic within one filesystem) and
    renamed over the destination only after the writer ran to completion
    and the channel was flushed and closed. *)

val write : path:string -> (out_channel -> unit) -> unit
(** [write ~path f] runs [f] on a temp channel in [path]'s directory, then
    atomically renames the temp file to [path].  If [f] raises, the temp
    file is removed and [path] is left untouched. *)

val write_string : path:string -> string -> unit
(** [write_string ~path s] atomically replaces [path]'s content with [s]. *)
