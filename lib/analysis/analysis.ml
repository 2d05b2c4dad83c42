open Ansor_sched

type config = Lint.config = {
  workers : int;
  vector_lanes : int;
  max_unroll_default : int;
  outputs : string list;
}

let default_config = Lint.default_config

let races = Races.check
let lint = Lint.check
let certify = Bounds.certify
let bounds = Bounds.diagnostics
let defuse = Defuse.check

let static_checks prog =
  Validate.check prog @ Races.check prog @ Bounds.diagnostics prog

let static_errors prog = Diagnostic.errors (static_checks prog)

let analyze ?(config = default_config) ?(bounds = true) prog =
  let base = Validate.check prog @ Races.check prog @ Lint.check config prog in
  let extra =
    if bounds then Bounds.diagnostics prog @ Defuse.check prog else []
  in
  Diagnostic.sort (base @ extra)
