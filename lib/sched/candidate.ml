type t = { state : State.t; prog : Prog.t; key : string }

let of_state state =
  match Lower.lower state with
  | prog -> Some { state; prog; key = Prog.canonical_hash prog }
  | exception State.Illegal _ -> None

let first_seen seen c =
  (not (Hashtbl.mem seen c.key)) && (Hashtbl.replace seen c.key (); true)
