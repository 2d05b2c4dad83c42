open Ansor_te
open Ansor_sched

let sanitize name =
  let buf = Buffer.create (String.length name + 1) in
  String.iteri
    (fun i c ->
      if (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_' then
        Buffer.add_char buf c
      else if c >= '0' && c <= '9' then begin
        if i = 0 then Buffer.add_char buf 'v';
        Buffer.add_char buf c
      end
      else Buffer.add_char buf '_')
    name;
  if Buffer.length buf = 0 then "v" else Buffer.contents buf

(* collision-free identifier table over a set of names *)
let make_names names =
  let used = Hashtbl.create 16 in
  List.map
    (fun n ->
      let base = sanitize n in
      let rec pick candidate k =
        if Hashtbl.mem used candidate then pick (Printf.sprintf "%s_%d" base k) (k + 1)
        else candidate
      in
      let id = pick base 1 in
      Hashtbl.replace used id ();
      (n, id))
    names

let params (prog : Prog.t) = make_names (List.map fst prog.buffers)

(* loop variables: collected from the item tree *)
let loop_vars (prog : Prog.t) =
  let acc = ref [] in
  let rec go = function
    | Prog.Stmt _ -> ()
    | Prog.Loop l ->
      acc := l.lvar :: !acc;
      List.iter go l.body
  in
  List.iter go prog.items;
  List.rev !acc

let helpers =
  {|static inline int floordiv(int a, int b) {
  int q = a / b, r = a % b;
  return (r != 0 && ((r < 0) != (b < 0))) ? q - 1 : q;
}
static inline int floormod(int a, int b) {
  int r = a % b;
  return (r != 0 && ((r < 0) != (b < 0))) ? r + b : r;
}
static inline int imin(int a, int b) { return a < b ? a : b; }
static inline int imax(int a, int b) { return a > b ? a : b; }
|}

(* Guarded-mode helper (ANSOR_BOUNDS_CHECK=1): every flattened offset
   passes through [ansor_ck], which aborts with a diagnostic instead of
   touching memory out of bounds.  Requires <stdio.h> and <stdlib.h> in
   the TU. *)
let guard_helpers =
  {|static inline int ansor_ck(int i, int n, const char *buf) {
  if (i < 0 || i >= n) {
    fprintf(stderr, "ansor: out-of-bounds access to %s: index %d not in [0, %d)\n",
            buf, i, n);
    fflush(stderr);
    abort();
  }
  return i;
}
|}

type ctx = {
  buf_id : string -> string;
  var_id : string -> string;
  shapes : (string * int list) list;
  guard : bool;
}

let rec emit_iexpr ctx (e : Expr.iexpr) =
  match e with
  | Expr.Int n -> if n < 0 then Printf.sprintf "(%d)" n else string_of_int n
  | Expr.Axis v -> ctx.var_id v
  | Expr.Iadd (a, b) -> Printf.sprintf "(%s + %s)" (emit_iexpr ctx a) (emit_iexpr ctx b)
  | Expr.Isub (a, b) -> Printf.sprintf "(%s - %s)" (emit_iexpr ctx a) (emit_iexpr ctx b)
  | Expr.Imul (a, b) -> Printf.sprintf "(%s * %s)" (emit_iexpr ctx a) (emit_iexpr ctx b)
  | Expr.Idiv (a, b) ->
    Printf.sprintf "floordiv(%s, %s)" (emit_iexpr ctx a) (emit_iexpr ctx b)
  | Expr.Imod (a, b) ->
    Printf.sprintf "floormod(%s, %s)" (emit_iexpr ctx a) (emit_iexpr ctx b)
  | Expr.Imin (a, b) ->
    Printf.sprintf "imin(%s, %s)" (emit_iexpr ctx a) (emit_iexpr ctx b)
  | Expr.Imax (a, b) ->
    Printf.sprintf "imax(%s, %s)" (emit_iexpr ctx a) (emit_iexpr ctx b)

let rec emit_bexpr ctx (e : Expr.bexpr) =
  match e with
  | Expr.Blt (a, b) -> Printf.sprintf "(%s < %s)" (emit_iexpr ctx a) (emit_iexpr ctx b)
  | Expr.Ble (a, b) -> Printf.sprintf "(%s <= %s)" (emit_iexpr ctx a) (emit_iexpr ctx b)
  | Expr.Beq (a, b) -> Printf.sprintf "(%s == %s)" (emit_iexpr ctx a) (emit_iexpr ctx b)
  | Expr.Band (a, b) -> Printf.sprintf "(%s && %s)" (emit_bexpr ctx a) (emit_bexpr ctx b)
  | Expr.Bor (a, b) -> Printf.sprintf "(%s || %s)" (emit_bexpr ctx a) (emit_bexpr ctx b)
  | Expr.Bnot a -> Printf.sprintf "(!%s)" (emit_bexpr ctx a)

(* row-major flattened offset for an access *)
let emit_offset ctx tensor indices =
  let shape =
    match List.assoc_opt tensor ctx.shapes with Some s -> s | None -> []
  in
  match indices with
  | [] -> "0"
  | _ ->
    (* row-major: ((i0*d1 + i1)*d2 + i2)... — each index is multiplied by
       the dimension of the NEXT axis as the fold accumulates *)
    let rec fold dims idx acc =
      match (dims, idx) with
      | [], [] -> acc
      | d :: dims', i :: idx' ->
        let t = emit_iexpr ctx i in
        let acc' =
          match acc with
          | None -> t
          | Some a -> Printf.sprintf "(%s * %d + %s)" a d t
        in
        fold dims' idx' (Some acc')
      | _ -> failwith "emit_offset: rank mismatch"
    in
    (match fold shape indices None with Some s -> s | None -> "0")

let emit_access ctx tensor indices =
  let offset = emit_offset ctx tensor indices in
  if ctx.guard then
    let size =
      match List.assoc_opt tensor ctx.shapes with
      | Some shape -> List.fold_left ( * ) 1 shape
      | None -> 1
    in
    Printf.sprintf "%s[ansor_ck(%s, %d, \"%s\")]" (ctx.buf_id tensor) offset
      size (sanitize tensor)
  else Printf.sprintf "%s[%s]" (ctx.buf_id tensor) offset

let rec emit_expr ctx (e : Expr.t) =
  match e with
  | Expr.Const f ->
    if Float.is_integer f && Float.abs f < 1e9 then
      Printf.sprintf "%.1ff" f
    else Printf.sprintf "%hf" f
  | Expr.Access (t, idx) -> emit_access ctx t idx
  | Expr.Cast_int i -> Printf.sprintf "(float)(%s)" (emit_iexpr ctx i)
  | Expr.Unop (op, a) -> (
    let x = emit_expr ctx a in
    match op with
    | Expr.Neg -> Printf.sprintf "(-%s)" x
    | Expr.Exp -> Printf.sprintf "expf(%s)" x
    | Expr.Log -> Printf.sprintf "logf(%s)" x
    | Expr.Sqrt -> Printf.sprintf "sqrtf(%s)" x
    | Expr.Tanh -> Printf.sprintf "tanhf(%s)" x
    | Expr.Sigmoid -> Printf.sprintf "(1.0f / (1.0f + expf(-(%s))))" x
    | Expr.Abs -> Printf.sprintf "fabsf(%s)" x
    | Expr.Relu -> Printf.sprintf "fmaxf(%s, 0.0f)" x)
  | Expr.Binop (op, a, b) -> (
    let x = emit_expr ctx a and y = emit_expr ctx b in
    match op with
    | Expr.Add -> Printf.sprintf "(%s + %s)" x y
    | Expr.Sub -> Printf.sprintf "(%s - %s)" x y
    | Expr.Mul -> Printf.sprintf "(%s * %s)" x y
    | Expr.Div -> Printf.sprintf "(%s / %s)" x y
    | Expr.Max -> Printf.sprintf "fmaxf(%s, %s)" x y
    | Expr.Min -> Printf.sprintf "fminf(%s, %s)" x y
    | Expr.Pow -> Printf.sprintf "powf(%s, %s)" x y)
  | Expr.Select (c, a, b) ->
    Printf.sprintf "(%s ? %s : %s)"
      (emit_bexpr ctx c) (emit_expr ctx a) (emit_expr ctx b)

let emit_stmt ctx (s : Prog.stmt) =
  let lhs = emit_access ctx s.tensor s.indices in
  let rhs = emit_expr ctx s.rhs in
  match s.update with
  | None -> Printf.sprintf "%s = %s;" lhs rhs
  | Some Op.Sum -> Printf.sprintf "%s += %s;" lhs rhs
  | Some Op.Maximum -> Printf.sprintf "%s = fmaxf(%s, %s);" lhs lhs rhs

let emit_items ctx buf items =
  let indent n = String.make (2 * n) ' ' in
  (* [in_simd]: OpenMP forbids a [parallel for] construct nested inside a
     [simd] region (a simd lane cannot host a thread team), and gcc rejects
     the TU outright.  The search space does propose Parallel-under-Vectorize
     schedules (the linter only warns), so inside a simd region a Parallel
     annotation degrades to a plain loop instead of an illegal pragma. *)
  let rec go ~in_simd depth = function
    | Prog.Stmt s ->
      Buffer.add_string buf (indent depth);
      Buffer.add_string buf (emit_stmt ctx s);
      Buffer.add_char buf '\n'
    | Prog.Loop l ->
      (match l.ann with
      | Step.Parallel when not in_simd ->
        Buffer.add_string buf (indent depth);
        Buffer.add_string buf "#pragma omp parallel for\n"
      | Step.Parallel -> ()
      | Step.Vectorize ->
        Buffer.add_string buf (indent depth);
        Buffer.add_string buf "#pragma omp simd\n"
      | Step.Unroll ->
        Buffer.add_string buf (indent depth);
        Buffer.add_string buf (Printf.sprintf "#pragma GCC unroll %d\n" l.extent)
      | Step.No_ann -> ());
      let in_simd = in_simd || l.ann = Step.Vectorize in
      let v = ctx.var_id l.lvar in
      Buffer.add_string buf (indent depth);
      Buffer.add_string buf
        (Printf.sprintf "for (int %s = 0; %s < %d; %s++) {\n" v v l.extent v);
      List.iter (go ~in_simd (depth + 1)) l.body;
      Buffer.add_string buf (indent depth);
      Buffer.add_string buf "}\n"
  in
  List.iter (go ~in_simd:false 1) items

let make_ctx ?(guard = false) (prog : Prog.t) =
  let buf_names = params prog in
  let var_names = make_names (loop_vars prog) in
  {
    buf_id =
      (fun n ->
        match List.assoc_opt n buf_names with
        | Some id -> id
        | None -> sanitize n);
    var_id =
      (fun v ->
        match List.assoc_opt v var_names with
        | Some id -> id
        | None -> sanitize v);
    shapes = prog.buffers;
    guard;
  }

let emit_kernel_fn ?(static_fn = false) ?(guard = false) ~name (prog : Prog.t) =
  let ctx = make_ctx ~guard prog in
  let buf = Buffer.create 4096 in
  let param_list =
    String.concat ", "
      (List.map
         (fun (n, id) ->
           ignore n;
           Printf.sprintf "float * restrict %s" id)
         (params prog))
  in
  Buffer.add_string buf
    (Printf.sprintf "%svoid %s(%s) {\n"
       (if static_fn then "static " else "")
       name param_list);
  (* reduction-buffer initialization *)
  List.iter
    (fun (tensor, v) ->
      match List.assoc_opt tensor prog.buffers with
      | None -> ()
      | Some shape ->
        let n = Prog.buffer_size shape in
        let id = ctx.buf_id tensor in
        let init =
          if Float.is_finite v then Printf.sprintf "%hf" v
          else if v < 0.0 then "-INFINITY"
          else "INFINITY"
        in
        Buffer.add_string buf
          (Printf.sprintf "  for (int i = 0; i < %d; i++) %s[i] = %s;\n" n id
             init))
    prog.inits;
  emit_items ctx buf prog.items;
  Buffer.add_string buf "}\n";
  Buffer.contents buf

let emit_kernel ?(name = "kernel") ?(guard = false) (prog : Prog.t) =
  let includes =
    if guard then "#include <math.h>\n#include <stdio.h>\n#include <stdlib.h>\n\n"
    else "#include <math.h>\n\n"
  in
  includes ^ helpers
  ^ (if guard then guard_helpers else "")
  ^ "\n"
  ^ emit_kernel_fn ~guard ~name prog

let emit_test_main (prog : Prog.t) ~inputs =
  let names = params prog in
  let buf = Buffer.create 8192 in
  Buffer.add_string buf "#include <stdio.h>\n#include <stdlib.h>\n";
  Buffer.add_string buf (emit_kernel prog);
  Buffer.add_char buf '\n';
  (* input data as exact hex-float initializers *)
  List.iter
    (fun (tensor, shape) ->
      let id = List.assoc tensor names in
      match List.assoc_opt tensor inputs with
      | Some data ->
        if Array.length data <> Prog.buffer_size shape then
          invalid_arg
            (Printf.sprintf "Codegen_c.emit_test_main: input %s has %d elements, expected %d"
               tensor (Array.length data) (Prog.buffer_size shape));
        Buffer.add_string buf
          (Printf.sprintf "static float %s_data[%d] = {" id (Array.length data));
        Array.iteri
          (fun i v ->
            if i > 0 then Buffer.add_string buf ", ";
            Buffer.add_string buf (Printf.sprintf "%hf" v))
          data;
        Buffer.add_string buf "};\n"
      | None ->
        Buffer.add_string buf
          (Printf.sprintf "static float %s_data[%d];\n" id (Prog.buffer_size shape)))
    prog.buffers;
  Buffer.add_string buf "\nint main(void) {\n";
  Buffer.add_string buf
    (Printf.sprintf "  kernel(%s);\n"
       (String.concat ", "
          (List.map (fun (_, id) -> id ^ "_data") names)));
  let input_names = List.map fst inputs in
  List.iter
    (fun (tensor, shape) ->
      if not (List.mem tensor input_names) then begin
        let id = List.assoc tensor names in
        Buffer.add_string buf
          (Printf.sprintf
             "  for (int i = 0; i < %d; i++) printf(\"%%.9g\\n\", (double)%s_data[i]);\n"
             (Prog.buffer_size shape) id)
      end)
    prog.buffers;
  Buffer.add_string buf "  return 0;\n}\n";
  Buffer.contents buf

(* ---- batched benchmark translation units -------------------------------- *)

(* Buffers never stored to by the program (and not reduction-initialized)
   are its inputs; for a lowered schedule this is exactly the DAG's input
   set, whatever surgery steps (cache stages, rfactor) added in between. *)
let input_buffers (prog : Prog.t) =
  let written = Hashtbl.create 16 in
  let rec go = function
    | Prog.Stmt s -> Hashtbl.replace written s.Prog.tensor ()
    | Prog.Loop l -> List.iter go l.Prog.body
  in
  List.iter go prog.items;
  List.iter (fun (t, _) -> Hashtbl.replace written t ()) prog.inits;
  List.filter (fun (n, _) -> not (Hashtbl.mem written n)) prog.buffers

(* The C side fills input buffers with a 32-bit LCG; every value is a
   multiple of 2^-16 in [-0.5, 0.5), hence exactly representable in both
   float32 (C) and float64 (the interpreter), so [bench_inputs] reproduces
   the identical tensors without shipping data into the TU. *)
let lcg_fill ~seed n =
  let s = ref (seed land 0xFFFFFFFF) in
  Array.init n (fun _ ->
      s := ((!s * 1664525) + 1013904223) land 0xFFFFFFFF;
      (float_of_int ((!s lsr 8) land 0xFFFF) /. 65536.0) -. 0.5)

(* seed: a Weyl step over the buffer's position, so every buffer gets a
   distinct well-mixed stream and the C side can embed the constant *)
let fill_seed bi = 0x9E3779B9 * (bi + 1) land 0xFFFFFFFF

let bench_inputs (prog : Prog.t) =
  let inputs = List.map fst (input_buffers prog) in
  List.mapi (fun bi (name, shape) -> (bi, name, shape)) prog.buffers
  |> List.filter_map (fun (bi, name, shape) ->
         if List.mem name inputs then
           Some (name, lcg_fill ~seed:(fill_seed bi) (Prog.buffer_size shape))
         else None)

let bench_main_help =
  "  /* usage: <exe> KERNEL_INDEX [time REPEAT WARMUP | dump] */\n"

let emit_bench_tu ?(guard = false) (progs : Prog.t list) =
  let buf = Buffer.create 65536 in
  Buffer.add_string buf
    "#include <math.h>\n#include <stdio.h>\n#include <stdlib.h>\n\
     #include <string.h>\n#include <time.h>\n\n";
  Buffer.add_string buf helpers;
  if guard then Buffer.add_string buf guard_helpers;
  Buffer.add_string buf
    {|static void fill(float *a, int n, unsigned s) {
  for (int i = 0; i < n; i++) {
    s = s * 1664525u + 1013904223u;
    a[i] = (float)((s >> 8) & 0xFFFFu) / 65536.0f - 0.5f;
  }
}
static double now_sec(void) {
  struct timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return (double)ts.tv_sec + 1e-9 * (double)ts.tv_nsec;
}
|};
  Buffer.add_char buf '\n';
  List.iteri
    (fun i prog ->
      Buffer.add_string buf
        (emit_kernel_fn ~static_fn:true ~guard ~name:(Printf.sprintf "k%d" i)
           prog);
      Buffer.add_char buf '\n')
    progs;
  (* one runner per kernel: allocate + deterministically fill the buffers,
     optionally dump the outputs (equivalence checks), otherwise time
     warmup + repeat runs and return the minimum *)
  List.iteri
    (fun ki (prog : Prog.t) ->
      let inputs = List.map fst (input_buffers prog) in
      let n_bufs = List.length prog.buffers in
      Buffer.add_string buf
        (Printf.sprintf "static double run_%d(int dump, int repeat, int warmup) {\n"
           ki);
      List.iteri
        (fun bi (name, shape) ->
          let n = Prog.buffer_size shape in
          if List.mem name inputs then begin
            Buffer.add_string buf
              (Printf.sprintf "  float *b%d = malloc(%d * sizeof(float));\n" bi n);
            Buffer.add_string buf
              (Printf.sprintf "  fill(b%d, %d, %uu);\n" bi n (fill_seed bi))
          end
          else
            Buffer.add_string buf
              (Printf.sprintf "  float *b%d = calloc(%d, sizeof(float));\n" bi n))
        prog.buffers;
      let args =
        String.concat ", " (List.init n_bufs (fun bi -> Printf.sprintf "b%d" bi))
      in
      Buffer.add_string buf (Printf.sprintf "  double best = INFINITY;\n");
      Buffer.add_string buf "  if (dump) {\n";
      Buffer.add_string buf (Printf.sprintf "    k%d(%s);\n" ki args);
      List.iteri
        (fun bi (name, shape) ->
          if not (List.mem name inputs) then
            Buffer.add_string buf
              (Printf.sprintf
                 "    for (int i = 0; i < %d; i++) printf(\"%%.9g\\n\", \
                  (double)b%d[i]);\n"
                 (Prog.buffer_size shape) bi))
        prog.buffers;
      Buffer.add_string buf "    best = 0.0;\n  } else {\n";
      Buffer.add_string buf
        (Printf.sprintf "    for (int w = 0; w < warmup; w++) k%d(%s);\n" ki args);
      Buffer.add_string buf "    for (int r = 0; r < repeat; r++) {\n";
      Buffer.add_string buf "      double t0 = now_sec();\n";
      Buffer.add_string buf (Printf.sprintf "      k%d(%s);\n" ki args);
      Buffer.add_string buf "      double dt = now_sec() - t0;\n";
      Buffer.add_string buf "      if (dt < best) best = dt;\n    }\n  }\n";
      List.iteri
        (fun bi _ -> Buffer.add_string buf (Printf.sprintf "  free(b%d);\n" bi))
        prog.buffers;
      Buffer.add_string buf "  return best;\n}\n\n")
    progs;
  Buffer.add_string buf "int main(int argc, char **argv) {\n";
  Buffer.add_string buf bench_main_help;
  Buffer.add_string buf
    {|  if (argc < 2) return 2;
  int idx = atoi(argv[1]);
  int dump = argc > 2 && strcmp(argv[2], "dump") == 0;
  int repeat = 0, warmup = 0;
  if (!dump) {
    if (argc < 5) return 2;
    repeat = atoi(argv[3]);
    warmup = atoi(argv[4]);
  }
  double t;
  switch (idx) {
|};
  List.iteri
    (fun ki _ ->
      Buffer.add_string buf
        (Printf.sprintf "  case %d: t = run_%d(dump, repeat, warmup); break;\n"
           ki ki))
    progs;
  Buffer.add_string buf
    {|  default: return 2;
  }
  if (!dump) printf("%.9e\n", t);
  return 0;
}
|};
  Buffer.contents buf
