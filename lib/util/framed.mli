(** Framed binary files: the one on-disk envelope for marshalled images
    (tuning snapshots, GBDT models, pretrained-model bundles).

    {v
    <magic>\n
    <payload byte length>\n
    <payload bytes>
    md5:<hex digest of the payload>\n
    v}

    The magic line carries the caller's format name and version, so an
    image from an older binary is refused before its payload is
    unmarshalled.  Writes go through {!Atomic_file}. *)

val write : path:string -> magic:string -> string -> unit
(** [write ~path ~magic payload] atomically replaces [path] with the
    framed [payload]. *)

val read : path:string -> magic:string -> (string, string) result
(** The payload of a framed file.  Every defect — unreadable file, bad
    magic, bad length line, truncation, digest mismatch — is an [Error]
    naming [path]; this never raises. *)
