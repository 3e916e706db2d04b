type base =
  | Potential of string * string
  | Flow of string * string
  | Signal of string
  | Param of string

type var = { base : base; delay : int }

let v base = { base; delay = 0 }
let potential a b = v (Potential (a, b))
let flow a b = v (Flow (a, b))
let signal s = v (Signal s)
let param s = v (Param s)

let delayed x k =
  if k < 0 then invalid_arg "Expr.delayed: negative shift";
  { x with delay = x.delay + k }

let compare_base a b =
  match (a, b) with
  | Potential (x1, y1), Potential (x2, y2) ->
      let c = String.compare x1 x2 in
      if c <> 0 then c else String.compare y1 y2
  | Flow (x1, y1), Flow (x2, y2) ->
      let c = String.compare x1 x2 in
      if c <> 0 then c else String.compare y1 y2
  | Signal s1, Signal s2 -> String.compare s1 s2
  | Param s1, Param s2 -> String.compare s1 s2
  | Potential _, (Flow _ | Signal _ | Param _) -> -1
  | Flow _, (Signal _ | Param _) -> -1
  | Signal _, Param _ -> -1
  | Flow _, Potential _ -> 1
  | Signal _, (Potential _ | Flow _) -> 1
  | Param _, (Potential _ | Flow _ | Signal _) -> 1

let compare_var a b =
  let c = compare_base a.base b.base in
  if c <> 0 then c else Int.compare a.delay b.delay

let equal_var a b = compare_var a b = 0

let base_name = function
  | Potential (a, b) -> Printf.sprintf "V(%s,%s)" a b
  | Flow (a, "") -> Printf.sprintf "I(%s)" a
  | Flow (a, b) -> Printf.sprintf "I(%s,%s)" a b
  | Signal s -> s
  | Param s -> s

let var_name x =
  if x.delay = 0 then base_name x.base
  else Printf.sprintf "%s@-%d" (base_name x.base) x.delay

let access_of_string s =
  let s = String.trim s in
  let n = String.length s in
  let bad () =
    Error
      (Printf.sprintf
         "bad access %S (want V(a,b), V(a), I(a,b), I(a) or a signal name)" s)
  in
  let names body = List.map String.trim (String.split_on_char ',' body) in
  if n >= 2 && (s.[0] = 'V' || s.[0] = 'I') && s.[1] = '(' then
    if s.[n - 1] <> ')' then bad ()
    else
      match (s.[0], names (String.sub s 2 (n - 3))) with
      | _, l when List.mem "" l -> bad ()
      | 'V', [ a ] -> Ok (potential a "gnd")
      | 'V', [ a; b ] -> Ok (potential a b)
      | 'I', [ a ] -> Ok (flow a "")
      | 'I', [ a; b ] -> Ok (flow a b)
      | _ -> bad ()
  else if n > 0 then Ok (signal s)
  else bad ()

let sanitize s =
  String.map (fun c -> if c = '(' || c = ')' || c = ',' || c = '.' then '_' else c) s

let base_c_name = function
  | Potential (a, b) -> Printf.sprintf "V_%s_%s" (sanitize a) (sanitize b)
  | Flow (a, "") -> Printf.sprintf "I_%s" (sanitize a)
  | Flow (a, b) -> Printf.sprintf "I_%s_%s" (sanitize a) (sanitize b)
  | Signal s -> sanitize s
  | Param s -> sanitize s

let var_c_name x =
  if x.delay = 0 then base_c_name x.base
  else Printf.sprintf "%s_m%d" (base_c_name x.base) x.delay

module Var_ord = struct
  type t = var

  let compare = compare_var
end

module Var_map = Map.Make (Var_ord)
module Var_set = Set.Make (Var_ord)

type unary_fun = Sin | Cos | Exp | Ln | Sqrt | Abs | Tanh
type cmp = Lt | Le | Gt | Ge

type t =
  | Const of float
  | Var of var
  | Neg of t
  | Add of t * t
  | Sub of t * t
  | Mul of t * t
  | Div of t * t
  | Ddt of t
  | Idt of t
  | App of unary_fun * t
  | Cond of cond * t * t

and cond = Cmp of cmp * t * t | And of cond * cond | Or of cond * cond | Not of cond

let const c = Const c
let var x = Var x
let zero = Const 0.0
let one = Const 1.0

(* Smart constructors performing the obvious local simplifications so
   that generated trees stay readable. *)
let add a b =
  match (a, b) with
  | Const 0.0, e | e, Const 0.0 -> e
  | Const x, Const y -> Const (x +. y)
  | _ -> Add (a, b)

let sub a b =
  match (a, b) with
  | e, Const 0.0 -> e
  | Const 0.0, e -> Neg e
  | Const x, Const y -> Const (x -. y)
  | _ -> Sub (a, b)

let mul a b =
  match (a, b) with
  | Const 0.0, _ | _, Const 0.0 -> Const 0.0
  | Const 1.0, e | e, Const 1.0 -> e
  | Const x, Const y -> Const (x *. y)
  | _ -> Mul (a, b)

let div a b =
  match (a, b) with
  | Const 0.0, _ -> Const 0.0
  | e, Const 1.0 -> e
  | Const x, Const y when y <> 0.0 -> Const (x /. y)
  | _ -> Div (a, b)

let neg = function
  | Const c -> Const (-.c)
  | Neg e -> e
  | e -> Neg e

let scale k e = mul (Const k) e

let rec fold_cond_vars f acc = function
  | Cmp (_, a, b) -> fold_vars f (fold_vars f acc a) b
  | And (c1, c2) | Or (c1, c2) -> fold_cond_vars f (fold_cond_vars f acc c1) c2
  | Not c -> fold_cond_vars f acc c

and fold_vars f acc = function
  | Const _ -> acc
  | Var x -> f acc x
  | Neg e | Ddt e | Idt e | App (_, e) -> fold_vars f acc e
  | Add (a, b) | Sub (a, b) | Mul (a, b) | Div (a, b) ->
      fold_vars f (fold_vars f acc a) b
  | Cond (c, a, b) -> fold_cond_vars f (fold_vars f (fold_vars f acc a) b) c

let vars e = fold_vars (fun acc x -> Var_set.add x acc) Var_set.empty e
let contains_var x e = fold_vars (fun acc y -> acc || equal_var x y) false e

let rec contains_ddt = function
  | Const _ | Var _ -> false
  | Ddt _ | Idt _ -> true
  | Neg e | App (_, e) -> contains_ddt e
  | Add (a, b) | Sub (a, b) | Mul (a, b) | Div (a, b) ->
      contains_ddt a || contains_ddt b
  | Cond (c, a, b) -> cond_contains_ddt c || contains_ddt a || contains_ddt b

and cond_contains_ddt = function
  | Cmp (_, a, b) -> contains_ddt a || contains_ddt b
  | And (c1, c2) | Or (c1, c2) -> cond_contains_ddt c1 || cond_contains_ddt c2
  | Not c -> cond_contains_ddt c

let rec subst f e =
  match e with
  | Const _ -> e
  | Var x -> ( match f x with Some e' -> e' | None -> e)
  | Neg a -> neg (subst f a)
  | Add (a, b) -> add (subst f a) (subst f b)
  | Sub (a, b) -> sub (subst f a) (subst f b)
  | Mul (a, b) -> mul (subst f a) (subst f b)
  | Div (a, b) -> div (subst f a) (subst f b)
  | Ddt a -> Ddt (subst f a)
  | Idt a -> Idt (subst f a)
  | App (fn, a) -> App (fn, subst f a)
  | Cond (c, a, b) -> Cond (subst_cond f c, subst f a, subst f b)

and subst_cond f = function
  | Cmp (op, a, b) -> Cmp (op, subst f a, subst f b)
  | And (c1, c2) -> And (subst_cond f c1, subst_cond f c2)
  | Or (c1, c2) -> Or (subst_cond f c1, subst_cond f c2)
  | Not c -> Not (subst_cond f c)

let delay_expr k e =
  if contains_ddt e then
    invalid_arg "Expr.delay_expr: expression contains ddt/idt";
  subst (fun x -> Some (Var (delayed x k))) e

let apply_fun fn x =
  match fn with
  | Sin -> sin x
  | Cos -> cos x
  | Exp -> exp x
  | Ln -> log x
  | Sqrt -> sqrt x
  | Abs -> abs_float x
  | Tanh -> tanh x

exception Continuous_time of string

let () =
  Printexc.register_printer (function
    | Continuous_time m -> Some m
    | _ -> None)

let apply_cmp op (a : float) (b : float) =
  match op with Lt -> a < b | Le -> a <= b | Gt -> a > b | Ge -> a >= b

let rec eval env = function
  | Const c -> c
  | Var x -> env x
  | Neg e -> -.eval env e
  | Add (a, b) -> eval env a +. eval env b
  | Sub (a, b) -> eval env a -. eval env b
  | Mul (a, b) -> eval env a *. eval env b
  | Div (a, b) -> eval env a /. eval env b
  | Ddt _ | Idt _ ->
      raise (Continuous_time "Expr.eval: ddt/idt cannot be evaluated pointwise")
  | App (fn, e) -> apply_fun fn (eval env e)
  | Cond (c, a, b) -> if eval_cond env c then eval env a else eval env b

and eval_cond env = function
  | Cmp (op, a, b) -> apply_cmp op (eval env a) (eval env b)
  | And (c1, c2) -> eval_cond env c1 && eval_cond env c2
  | Or (c1, c2) -> eval_cond env c1 || eval_cond env c2
  | Not c -> not (eval_cond env c)

let rec simplify e =
  match e with
  | Const _ | Var _ -> e
  | Neg a -> neg (simplify a)
  | Add (a, b) -> add (simplify a) (simplify b)
  | Sub (a, b) -> sub (simplify a) (simplify b)
  | Mul (a, b) -> mul (simplify a) (simplify b)
  | Div (a, b) -> div (simplify a) (simplify b)
  | Ddt a -> Ddt (simplify a)
  | Idt a -> Idt (simplify a)
  | App (fn, a) -> (
      match simplify a with
      | Const c -> Const (apply_fun fn c)
      | a' -> App (fn, a'))
  | Cond (c, a, b) -> Cond (simplify_cond c, simplify a, simplify b)

and simplify_cond = function
  | Cmp (op, a, b) -> Cmp (op, simplify a, simplify b)
  | And (c1, c2) -> And (simplify_cond c1, simplify_cond c2)
  | Or (c1, c2) -> Or (simplify_cond c1, simplify_cond c2)
  | Not c -> Not (simplify_cond c)

(* Linear-form extraction: an affine map from variables to coefficients
   plus a constant offset, or None when the expression is nonlinear. *)
let linear_form e =
  let module M = Var_map in
  let merge f m1 m2 = M.union (fun _ a b -> Some (f a b)) m1 m2 in
  let rec go = function
    | Const c -> Some (M.empty, c)
    | Var x -> Some (M.singleton x 1.0, 0.0)
    | Neg a ->
        Option.map (fun (m, k) -> (M.map (fun c -> -.c) m, -.k)) (go a)
    | Add (a, b) -> (
        match (go a, go b) with
        | Some (m1, k1), Some (m2, k2) -> Some (merge ( +. ) m1 m2, k1 +. k2)
        | _ -> None)
    | Sub (a, b) -> (
        match (go a, go b) with
        | Some (m1, k1), Some (m2, k2) ->
            Some (merge ( +. ) m1 (M.map (fun c -> -.c) m2), k1 -. k2)
        | _ -> None)
    | Mul (a, b) -> (
        match (go a, go b) with
        | Some (m1, k1), Some (m2, k2) ->
            if M.is_empty m1 then Some (M.map (fun c -> c *. k1) m2, k1 *. k2)
            else if M.is_empty m2 then
              Some (M.map (fun c -> c *. k2) m1, k1 *. k2)
            else None
        | _ -> None)
    | Div (a, b) -> (
        match (go a, go b) with
        | Some (m1, k1), Some (m2, k2) when M.is_empty m2 && k2 <> 0.0 ->
            Some (M.map (fun c -> c /. k2) m1, k1 /. k2)
        | _ -> None)
    | Ddt _ | Idt _ | App _ | Cond _ -> None
  in
  match go e with
  | None -> None
  | Some (m, k) ->
      let items =
        M.fold (fun x c acc -> if c = 0.0 then acc else (x, c) :: acc) m []
      in
      Some (List.rev items, k)

let of_linear_form (items, k) =
  let term (x, c) = if c = 1.0 then Var x else mul (Const c) (Var x) in
  match items with
  | [] -> Const k
  | first :: rest ->
      let body = List.fold_left (fun acc it -> add acc (term it)) (term first) rest in
      if k = 0.0 then body else add body (Const k)

let dt_param = param "__dt"

let rec discretize ~dt e =
  match e with
  | Const _ | Var _ -> e
  | Neg a -> neg (discretize ~dt a)
  | Add (a, b) -> add (discretize ~dt a) (discretize ~dt b)
  | Sub (a, b) -> sub (discretize ~dt a) (discretize ~dt b)
  | Mul (a, b) -> mul (discretize ~dt a) (discretize ~dt b)
  | Div (a, b) -> div (discretize ~dt a) (discretize ~dt b)
  | Ddt a ->
      let a' = discretize ~dt a in
      div (sub a' (delay_expr 1 a')) (Const dt)
  | Idt _ ->
      raise
        (Continuous_time "Expr.discretize: idt must be removed with extract_idt")
  | App (fn, a) -> App (fn, discretize ~dt a)
  | Cond (c, a, b) ->
      Cond (discretize_cond ~dt c, discretize ~dt a, discretize ~dt b)

and discretize_cond ~dt = function
  | Cmp (op, a, b) -> Cmp (op, discretize ~dt a, discretize ~dt b)
  | And (c1, c2) -> And (discretize_cond ~dt c1, discretize_cond ~dt c2)
  | Or (c1, c2) -> Or (discretize_cond ~dt c1, discretize_cond ~dt c2)
  | Not c -> Not (discretize_cond ~dt c)

let extract_idt ~fresh e =
  let aux = ref [] in
  let rec go e =
    match e with
    | Const _ | Var _ -> e
    | Neg a -> neg (go a)
    | Add (a, b) -> add (go a) (go b)
    | Sub (a, b) -> sub (go a) (go b)
    | Mul (a, b) -> mul (go a) (go b)
    | Div (a, b) -> div (go a) (go b)
    | Ddt a -> Ddt (go a)
    | Idt a ->
        let a' = go a in
        let s = signal (fresh ()) in
        (* s = s@-1 + __dt * integrand: rectangle-rule accumulator. *)
        let update = add (Var (delayed s 1)) (mul (Var dt_param) a') in
        aux := (s, update) :: !aux;
        Var s
    | App (fn, a) -> App (fn, go a)
    | Cond (c, a, b) -> Cond (go_cond c, go a, go b)
  and go_cond = function
    | Cmp (op, a, b) -> Cmp (op, go a, go b)
    | And (c1, c2) -> And (go_cond c1, go_cond c2)
    | Or (c1, c2) -> Or (go_cond c1, go_cond c2)
    | Not c -> Not (go_cond c)
  in
  let e' = go e in
  (e', List.rev !aux)

(* Printing with precedence levels: 0 additive, 1 multiplicative,
   2 unary/atomic. *)
let fun_name = function
  | Sin -> "sin"
  | Cos -> "cos"
  | Exp -> "exp"
  | Ln -> "ln"
  | Sqrt -> "sqrt"
  | Abs -> "abs"
  | Tanh -> "tanh"

let cmp_name = function Lt -> "<" | Le -> "<=" | Gt -> ">" | Ge -> ">="

let pp ppf e =
  let rec go prec ppf e =
    match e with
    | Const c -> Format.fprintf ppf "%g" c
    | Var x -> Format.pp_print_string ppf (var_name x)
    | Neg a -> wrap prec 1 ppf (fun ppf -> Format.fprintf ppf "-%a" (go 2) a)
    | Add (a, b) ->
        wrap prec 0 ppf (fun ppf ->
            Format.fprintf ppf "%a + %a" (go 0) a (go 1) b)
    | Sub (a, b) ->
        wrap prec 0 ppf (fun ppf ->
            Format.fprintf ppf "%a - %a" (go 0) a (go 1) b)
    | Mul (a, b) ->
        wrap prec 1 ppf (fun ppf ->
            Format.fprintf ppf "%a * %a" (go 1) a (go 2) b)
    | Div (a, b) ->
        wrap prec 1 ppf (fun ppf ->
            Format.fprintf ppf "%a / %a" (go 1) a (go 2) b)
    | Ddt a -> Format.fprintf ppf "ddt(%a)" (go 0) a
    | Idt a -> Format.fprintf ppf "idt(%a)" (go 0) a
    | App (fn, a) -> Format.fprintf ppf "%s(%a)" (fun_name fn) (go 0) a
    | Cond (c, a, b) ->
        Format.fprintf ppf "if (%a) %a else %a" go_cond c (go 2) a (go 2) b
  and go_cond ppf = function
    | Cmp (op, a, b) ->
        Format.fprintf ppf "%a %s %a" (go 1) a (cmp_name op) (go 1) b
    | And (c1, c2) -> Format.fprintf ppf "(%a) && (%a)" go_cond c1 go_cond c2
    | Or (c1, c2) -> Format.fprintf ppf "(%a) || (%a)" go_cond c1 go_cond c2
    | Not c -> Format.fprintf ppf "!(%a)" go_cond c
  and wrap prec level ppf body =
    if prec > level then Format.fprintf ppf "(%t)" body else body ppf
  in
  go 0 ppf e

let to_string e = Format.asprintf "%a" pp e

let pp_tree ppf e =
  let rec go indent ppf e =
    let pad = String.make indent ' ' in
    match e with
    | Const c -> Format.fprintf ppf "%s%g@," pad c
    | Var x -> Format.fprintf ppf "%s%s@," pad (var_name x)
    | Neg a -> node "neg" [ a ] ppf indent pad
    | Add (a, b) -> node "+" [ a; b ] ppf indent pad
    | Sub (a, b) -> node "-" [ a; b ] ppf indent pad
    | Mul (a, b) -> node "*" [ a; b ] ppf indent pad
    | Div (a, b) -> node "/" [ a; b ] ppf indent pad
    | Ddt a -> node "ddt" [ a ] ppf indent pad
    | Idt a -> node "idt" [ a ] ppf indent pad
    | App (fn, a) -> node (fun_name fn) [ a ] ppf indent pad
    | Cond (_, a, b) -> node "cond" [ a; b ] ppf indent pad
  and node label children ppf indent pad =
    Format.fprintf ppf "%s%s@," pad label;
    List.iter (fun c -> go (indent + 2) ppf c) children
  in
  Format.fprintf ppf "@[<v>";
  go 0 ppf e;
  Format.fprintf ppf "@]"

let ( + ) = add
let ( - ) = sub
let ( * ) = mul
let ( / ) = div
