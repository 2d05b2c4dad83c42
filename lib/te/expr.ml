type iexpr =
  | Int of int
  | Axis of string
  | Iadd of iexpr * iexpr
  | Isub of iexpr * iexpr
  | Imul of iexpr * iexpr
  | Idiv of iexpr * iexpr
  | Imod of iexpr * iexpr
  | Imin of iexpr * iexpr
  | Imax of iexpr * iexpr

type bexpr =
  | Blt of iexpr * iexpr
  | Ble of iexpr * iexpr
  | Beq of iexpr * iexpr
  | Band of bexpr * bexpr
  | Bor of bexpr * bexpr
  | Bnot of bexpr

type unop = Neg | Exp | Log | Sqrt | Tanh | Sigmoid | Abs | Relu

type binop = Add | Sub | Mul | Div | Max | Min | Pow

type t =
  | Const of float
  | Access of string * iexpr list
  | Unop of unop * t
  | Binop of binop * t * t
  | Select of bexpr * t * t
  | Cast_int of iexpr

let ( +: ) a b = Binop (Add, a, b)
let ( -: ) a b = Binop (Sub, a, b)
let ( *: ) a b = Binop (Mul, a, b)
let ( /: ) a b = Binop (Div, a, b)
let const f = Const f
let access name idx = Access (name, idx)
let axis name = Axis name
let int n = Int n
let ( +! ) a b = Iadd (a, b)
let ( -! ) a b = Isub (a, b)
let ( *! ) a b = Imul (a, b)

(* OCaml's [/] and [mod] raise [Division_by_zero] on a zero divisor *)
let idiv a b =
  if (a < 0) <> (b < 0) && a mod b <> 0 then (a / b) - 1 else a / b

let imod a b =
  let r = a mod b in
  if r < 0 then r + abs b else r

let rec eval_iexpr lookup = function
  | Int n -> n
  | Axis v -> lookup v
  | Iadd (a, b) -> eval_iexpr lookup a + eval_iexpr lookup b
  | Isub (a, b) -> eval_iexpr lookup a - eval_iexpr lookup b
  | Imul (a, b) -> eval_iexpr lookup a * eval_iexpr lookup b
  | Idiv (a, b) ->
    (* the divisor first: a zero divisor raises before [a] is evaluated *)
    let b = eval_iexpr lookup b in
    if b = 0 then raise Division_by_zero else idiv (eval_iexpr lookup a) b
  | Imod (a, b) ->
    let b = eval_iexpr lookup b in
    if b = 0 then raise Division_by_zero else imod (eval_iexpr lookup a) b
  | Imin (a, b) -> min (eval_iexpr lookup a) (eval_iexpr lookup b)
  | Imax (a, b) -> max (eval_iexpr lookup a) (eval_iexpr lookup b)

let rec eval_bexpr lookup = function
  | Blt (a, b) -> eval_iexpr lookup a < eval_iexpr lookup b
  | Ble (a, b) -> eval_iexpr lookup a <= eval_iexpr lookup b
  | Beq (a, b) -> eval_iexpr lookup a = eval_iexpr lookup b
  | Band (a, b) -> eval_bexpr lookup a && eval_bexpr lookup b
  | Bor (a, b) -> eval_bexpr lookup a || eval_bexpr lookup b
  | Bnot a -> not (eval_bexpr lookup a)

let rec eval ~axis_value ~load = function
  | Const f -> f
  | Access (name, idx) -> load name (List.map (eval_iexpr axis_value) idx)
  | Unop (op, a) -> (
    let x = eval ~axis_value ~load a in
    match op with
    | Neg -> -.x
    | Exp -> exp x
    | Log -> log x
    | Sqrt -> sqrt x
    | Tanh -> tanh x
    | Sigmoid -> 1.0 /. (1.0 +. exp (-.x))
    | Abs -> Float.abs x
    | Relu -> Float.max x 0.0)
  | Binop (op, a, b) -> (
    let x = eval ~axis_value ~load a and y = eval ~axis_value ~load b in
    match op with
    | Add -> x +. y
    | Sub -> x -. y
    | Mul -> x *. y
    | Div -> x /. y
    | Max -> Float.max x y
    | Min -> Float.min x y
    | Pow -> Float.pow x y)
  | Select (c, a, b) ->
    if eval_bexpr axis_value c then eval ~axis_value ~load a
    else eval ~axis_value ~load b
  | Cast_int e -> float_of_int (eval_iexpr axis_value e)

let accesses e =
  let acc = ref [] in
  let rec go = function
    | Const _ | Cast_int _ -> ()
    | Access (name, idx) -> acc := (name, idx) :: !acc
    | Unop (_, a) -> go a
    | Binop (_, a, b) ->
      go a;
      go b
    | Select (_, a, b) ->
      go a;
      go b
  in
  go e;
  List.rev !acc

let iexpr_axes e =
  let acc = ref [] in
  let add v = if not (List.mem v !acc) then acc := v :: !acc in
  let rec go = function
    | Int _ -> ()
    | Axis v -> add v
    | Iadd (a, b) | Isub (a, b) | Imul (a, b) | Idiv (a, b) | Imod (a, b)
    | Imin (a, b) | Imax (a, b) ->
      go a;
      go b
  in
  go e;
  List.rev !acc

let axes_of e =
  let acc = ref [] in
  let add v = if not (List.mem v !acc) then acc := v :: !acc in
  let goi i = List.iter add (iexpr_axes i) in
  let gob b =
    let rec go = function
      | Blt (a, b) | Ble (a, b) | Beq (a, b) ->
        goi a;
        goi b
      | Band (a, b) | Bor (a, b) ->
        go a;
        go b
      | Bnot a -> go a
    in
    go b
  in
  let rec go = function
    | Const _ -> ()
    | Cast_int i -> goi i
    | Access (_, idx) -> List.iter goi idx
    | Unop (_, a) -> go a
    | Binop (_, a, b) ->
      go a;
      go b
    | Select (c, a, b) ->
      gob c;
      go a;
      go b
  in
  go e;
  List.rev !acc

let rec subst_tensor name f = function
  | Const _ as e -> e
  | Cast_int _ as e -> e
  | Access (n, idx) -> if String.equal n name then f idx else Access (n, idx)
  | Unop (op, a) -> Unop (op, subst_tensor name f a)
  | Binop (op, a, b) -> Binop (op, subst_tensor name f a, subst_tensor name f b)
  | Select (c, a, b) -> Select (c, subst_tensor name f a, subst_tensor name f b)

let rec subst_axes_iexpr env = function
  | Int _ as e -> e
  | Axis v as e -> ( match List.assoc_opt v env with Some e' -> e' | None -> e)
  | Iadd (a, b) -> Iadd (subst_axes_iexpr env a, subst_axes_iexpr env b)
  | Isub (a, b) -> Isub (subst_axes_iexpr env a, subst_axes_iexpr env b)
  | Imul (a, b) -> Imul (subst_axes_iexpr env a, subst_axes_iexpr env b)
  | Idiv (a, b) -> Idiv (subst_axes_iexpr env a, subst_axes_iexpr env b)
  | Imod (a, b) -> Imod (subst_axes_iexpr env a, subst_axes_iexpr env b)
  | Imin (a, b) -> Imin (subst_axes_iexpr env a, subst_axes_iexpr env b)
  | Imax (a, b) -> Imax (subst_axes_iexpr env a, subst_axes_iexpr env b)

let rec subst_axes_bexpr env = function
  | Blt (a, b) -> Blt (subst_axes_iexpr env a, subst_axes_iexpr env b)
  | Ble (a, b) -> Ble (subst_axes_iexpr env a, subst_axes_iexpr env b)
  | Beq (a, b) -> Beq (subst_axes_iexpr env a, subst_axes_iexpr env b)
  | Band (a, b) -> Band (subst_axes_bexpr env a, subst_axes_bexpr env b)
  | Bor (a, b) -> Bor (subst_axes_bexpr env a, subst_axes_bexpr env b)
  | Bnot a -> Bnot (subst_axes_bexpr env a)

let rec subst_axes env = function
  | Const _ as e -> e
  | Cast_int i -> Cast_int (subst_axes_iexpr env i)
  | Access (n, idx) -> Access (n, List.map (subst_axes_iexpr env) idx)
  | Unop (op, a) -> Unop (op, subst_axes env a)
  | Binop (op, a, b) -> Binop (op, subst_axes env a, subst_axes env b)
  | Select (c, a, b) ->
    Select (subst_axes_bexpr env c, subst_axes env a, subst_axes env b)

type op_counts = {
  float_add_sub : int;
  float_mul : int;
  float_div_mod : int;
  float_cmp : int;
  float_math : int;
  int_add_sub : int;
  int_mul : int;
  int_div_mod : int;
}

let zero_counts =
  {
    float_add_sub = 0;
    float_mul = 0;
    float_div_mod = 0;
    float_cmp = 0;
    float_math = 0;
    int_add_sub = 0;
    int_mul = 0;
    int_div_mod = 0;
  }

let add_counts a b =
  {
      float_add_sub = a.float_add_sub + b.float_add_sub;
      float_mul = a.float_mul + b.float_mul;
      float_div_mod = a.float_div_mod + b.float_div_mod;
      float_cmp = a.float_cmp + b.float_cmp;
      float_math = a.float_math + b.float_math;
      int_add_sub = a.int_add_sub + b.int_add_sub;
      int_mul = a.int_mul + b.int_mul;
      int_div_mod = a.int_div_mod + b.int_div_mod;
    }

let count_ops e =
  let rec goi c = function
    | Int _ | Axis _ -> c
    | Iadd (a, b) | Isub (a, b) ->
      goi (goi { c with int_add_sub = c.int_add_sub + 1 } a) b
    | Imul (a, b) -> goi (goi { c with int_mul = c.int_mul + 1 } a) b
    | Idiv (a, b) | Imod (a, b) ->
      goi (goi { c with int_div_mod = c.int_div_mod + 1 } a) b
    | Imin (a, b) | Imax (a, b) ->
      goi (goi { c with int_add_sub = c.int_add_sub + 1 } a) b
  in
  let rec gob c = function
    | Blt (a, b) | Ble (a, b) | Beq (a, b) ->
      goi (goi { c with int_add_sub = c.int_add_sub + 1 } a) b
    | Band (a, b) | Bor (a, b) -> gob (gob c a) b
    | Bnot a -> gob c a
  in
  let rec go c = function
    | Const _ -> c
    | Cast_int i -> goi c i
    | Access (_, idx) -> List.fold_left goi c idx
    | Unop (op, a) ->
      let c =
        match op with
        | Neg -> { c with float_add_sub = c.float_add_sub + 1 }
        | Abs | Relu -> { c with float_cmp = c.float_cmp + 1 }
        | Exp | Log | Sqrt | Tanh | Sigmoid ->
          { c with float_math = c.float_math + 1 }
      in
      go c a
    | Binop (op, a, b) ->
      let c =
        match op with
        | Add | Sub -> { c with float_add_sub = c.float_add_sub + 1 }
        | Mul -> { c with float_mul = c.float_mul + 1 }
        | Div -> { c with float_div_mod = c.float_div_mod + 1 }
        | Max | Min -> { c with float_cmp = c.float_cmp + 1 }
        | Pow -> { c with float_math = c.float_math + 1 }
      in
      go (go c a) b
    | Select (cond, a, b) ->
      let c = { c with float_cmp = c.float_cmp + 1 } in
      go (go (gob c cond) a) b
  in
  go zero_counts e

let flops e =
  let c = count_ops e in
  c.float_add_sub + c.float_mul + c.float_div_mod + c.float_cmp + c.float_math

let rec pp_iexpr fmt = function
  | Int n -> Format.pp_print_int fmt n
  | Axis v -> Format.pp_print_string fmt v
  | Iadd (a, b) -> Format.fprintf fmt "(%a + %a)" pp_iexpr a pp_iexpr b
  | Isub (a, b) -> Format.fprintf fmt "(%a - %a)" pp_iexpr a pp_iexpr b
  | Imul (a, b) -> Format.fprintf fmt "(%a * %a)" pp_iexpr a pp_iexpr b
  | Idiv (a, b) -> Format.fprintf fmt "(%a / %a)" pp_iexpr a pp_iexpr b
  | Imod (a, b) -> Format.fprintf fmt "(%a %% %a)" pp_iexpr a pp_iexpr b
  | Imin (a, b) -> Format.fprintf fmt "min(%a, %a)" pp_iexpr a pp_iexpr b
  | Imax (a, b) -> Format.fprintf fmt "max(%a, %a)" pp_iexpr a pp_iexpr b

let rec pp_bexpr fmt = function
  | Blt (a, b) -> Format.fprintf fmt "%a < %a" pp_iexpr a pp_iexpr b
  | Ble (a, b) -> Format.fprintf fmt "%a <= %a" pp_iexpr a pp_iexpr b
  | Beq (a, b) -> Format.fprintf fmt "%a == %a" pp_iexpr a pp_iexpr b
  | Band (a, b) -> Format.fprintf fmt "(%a && %a)" pp_bexpr a pp_bexpr b
  | Bor (a, b) -> Format.fprintf fmt "(%a || %a)" pp_bexpr a pp_bexpr b
  | Bnot a -> Format.fprintf fmt "!(%a)" pp_bexpr a

let unop_name = function
  | Neg -> "neg"
  | Exp -> "exp"
  | Log -> "log"
  | Sqrt -> "sqrt"
  | Tanh -> "tanh"
  | Sigmoid -> "sigmoid"
  | Abs -> "abs"
  | Relu -> "relu"

let rec pp fmt = function
  | Const f -> Format.fprintf fmt "%g" f
  | Cast_int i -> Format.fprintf fmt "float(%a)" pp_iexpr i
  | Access (n, idx) ->
    Format.fprintf fmt "%s[%a]" n
      (Format.pp_print_list
         ~pp_sep:(fun fmt () -> Format.pp_print_string fmt ", ")
         pp_iexpr)
      idx
  | Unop (op, a) -> Format.fprintf fmt "%s(%a)" (unop_name op) pp a
  | Binop (Add, a, b) -> Format.fprintf fmt "(%a + %a)" pp a pp b
  | Binop (Sub, a, b) -> Format.fprintf fmt "(%a - %a)" pp a pp b
  | Binop (Mul, a, b) -> Format.fprintf fmt "(%a * %a)" pp a pp b
  | Binop (Div, a, b) -> Format.fprintf fmt "(%a / %a)" pp a pp b
  | Binop (Max, a, b) -> Format.fprintf fmt "max(%a, %a)" pp a pp b
  | Binop (Min, a, b) -> Format.fprintf fmt "min(%a, %a)" pp a pp b
  | Binop (Pow, a, b) -> Format.fprintf fmt "pow(%a, %a)" pp a pp b
  | Select (c, a, b) ->
    Format.fprintf fmt "select(%a, %a, %a)" pp_bexpr c pp a pp b

let to_string e = Format.asprintf "%a" pp e

let rec simplify_iexpr e =
  let binop mk fold a b =
    let a = simplify_iexpr a and b = simplify_iexpr b in
    match (a, b) with Int x, Int y -> Int (fold x y) | _ -> mk a b
  in
  match e with
  | Int _ | Axis _ -> e
  | Iadd (a, b) -> (
    match binop (fun a b -> Iadd (a, b)) ( + ) a b with
    | Iadd (Int 0, x) | Iadd (x, Int 0) -> x
    | x -> x)
  | Isub (a, b) -> (
    match binop (fun a b -> Isub (a, b)) ( - ) a b with
    | Isub (x, Int 0) -> x
    | x -> x)
  | Imul (a, b) -> (
    match binop (fun a b -> Imul (a, b)) ( * ) a b with
    | Imul (Int 1, x) | Imul (x, Int 1) -> x
    | Imul (Int 0, _) | Imul (_, Int 0) -> Int 0
    | x -> x)
  | Idiv (a, b) -> (
    let a = simplify_iexpr a and b = simplify_iexpr b in
    match (a, b) with
    | Int x, Int y when y <> 0 ->
      Int (if (x < 0) <> (y < 0) && x mod y <> 0 then (x / y) - 1 else x / y)
    | x, Int 1 -> x
    | _ -> Idiv (a, b))
  | Imod (a, b) -> (
    let a = simplify_iexpr a and b = simplify_iexpr b in
    match (a, b) with
    | Int x, Int y when y <> 0 ->
      Int
        (let r = x mod y in
         if r < 0 then r + abs y else r)
    | _, Int 1 -> Int 0
    | _ -> Imod (a, b))
  | Imin (a, b) -> (
    let a = simplify_iexpr a and b = simplify_iexpr b in
    match (a, b) with
    | Int x, Int y -> Int (min x y)
    | _ -> if a = b then a else Imin (a, b))
  | Imax (a, b) -> (
    let a = simplify_iexpr a and b = simplify_iexpr b in
    match (a, b) with
    | Int x, Int y -> Int (max x y)
    | _ -> if a = b then a else Imax (a, b))

let rec simplify_bexpr e =
  match e with
  | Blt (a, b) -> Blt (simplify_iexpr a, simplify_iexpr b)
  | Ble (a, b) -> Ble (simplify_iexpr a, simplify_iexpr b)
  | Beq (a, b) -> Beq (simplify_iexpr a, simplify_iexpr b)
  | Band (a, b) -> Band (simplify_bexpr a, simplify_bexpr b)
  | Bor (a, b) -> Bor (simplify_bexpr a, simplify_bexpr b)
  | Bnot a -> Bnot (simplify_bexpr a)

exception Not_static

let static_bexpr e =
  let fail _ = raise Not_static in
  match eval_bexpr fail e with b -> Some b | exception Not_static -> None

let rec simplify e =
  match e with
  | Const _ -> e
  | Cast_int i -> Cast_int (simplify_iexpr i)
  | Access (n, idx) -> Access (n, List.map simplify_iexpr idx)
  | Unop (op, a) -> Unop (op, simplify a)
  | Binop (op, a, b) -> Binop (op, simplify a, simplify b)
  | Select (c, a, b) -> (
    let c = simplify_bexpr c in
    match static_bexpr c with
    | Some true -> simplify a
    | Some false -> simplify b
    | None -> Select (c, simplify a, simplify b))
