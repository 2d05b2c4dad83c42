type t = { state : State.t; prog : Prog.t; key : string }

let of_state state =
  match Lower.lower state with
  | prog -> Some { state; prog; key = Prog.canonical_hash prog }
  | exception State.Illegal _ -> None
