open Ansor_sched

type config = Lint.config = {
  workers : int;
  vector_lanes : int;
  outputs : string list;
}

let default_config = Lint.default_config

let races = Races.check
let lint = Lint.check
let certify = Bounds.certify
let bounds = Bounds.diagnostics
let defuse = Defuse.check

let static_errors prog =
  Diagnostic.errors
    (Validate.check prog @ Races.check prog @ Bounds.diagnostics prog)

let analyze ?(config = default_config) ?(bounds = true) prog =
  let base = Validate.check prog @ Races.check prog @ Lint.check config prog in
  if bounds then
    let verdict, diags = Bounds.check prog in
    (Some verdict, Diagnostic.sort (base @ diags @ Defuse.check prog))
  else (None, Diagnostic.sort base)
