type origin =
  | Dipole of string
  | Kcl of string
  | Kvl of int
  | Derived
  | Explicit

type t = { id : int; lhs : Expr.t; rhs : Expr.t; origin : origin }

let counter = ref 0

let make origin ~lhs ~rhs =
  incr counter;
  { id = !counter; lhs; rhs; origin }

let residual eq = Expr.(eq.lhs - eq.rhs)

let pp_origin ppf = function
  | Dipole d -> Format.fprintf ppf "dipole[%s]" d
  | Kcl n -> Format.fprintf ppf "KCL[%s]" n
  | Kvl i -> Format.fprintf ppf "KVL[%d]" i
  | Derived -> Format.pp_print_string ppf "derived"
  | Explicit -> Format.pp_print_string ppf "explicit"

let pp ppf eq =
  Format.fprintf ppf "%a = %a  (%a)" Expr.pp eq.lhs Expr.pp eq.rhs pp_origin
    eq.origin

let to_string eq = Format.asprintf "%a" pp eq

type pseudo = Cur of Expr.var | Der of Expr.var

let compare_pseudo a b =
  match (a, b) with
  | Cur x, Cur y | Der x, Der y -> Expr.compare_var x y
  | Cur _, Der _ -> -1
  | Der _, Cur _ -> 1

let pseudo_name = function
  | Cur x -> Expr.var_name x
  | Der x -> Printf.sprintf "ddt(%s)" (Expr.var_name x)

let expr_of_pseudo = function
  | Cur x -> Expr.Var x
  | Der x -> Expr.Ddt (Expr.Var x)

module Pmap = Map.Make (struct
  type t = pseudo

  let compare = compare_pseudo
end)

let plinear_form e =
  let merge m1 m2 = Pmap.union (fun _ a b -> Some (a +. b)) m1 m2 in
  let scale_map k m = Pmap.map (fun c -> c *. k) m in
  let rec go e =
    match e with
    | Expr.Const c -> Some (Pmap.empty, c)
    | Expr.Var x -> Some (Pmap.singleton (Cur x) 1.0, 0.0)
    | Expr.Neg a -> Option.map (fun (m, k) -> (scale_map (-1.0) m, -.k)) (go a)
    | Expr.Add (a, b) -> combine ( +. ) a b
    | Expr.Sub (a, b) -> (
        match (go a, go b) with
        | Some (m1, k1), Some (m2, k2) ->
            Some (merge m1 (scale_map (-1.0) m2), k1 -. k2)
        | _ -> None)
    | Expr.Mul (a, b) -> (
        match (go a, go b) with
        | Some (m1, k1), Some (m2, k2) ->
            if Pmap.is_empty m1 then Some (scale_map k1 m2, k1 *. k2)
            else if Pmap.is_empty m2 then Some (scale_map k2 m1, k1 *. k2)
            else None
        | _ -> None)
    | Expr.Div (a, b) -> (
        match (go a, go b) with
        | Some (m1, k1), Some (m2, k2) when Pmap.is_empty m2 && k2 <> 0.0 ->
            Some (scale_map (1.0 /. k2) m1, k1 /. k2)
        | _ -> None)
    | Expr.Ddt a -> (
        (* ddt is linear: distribute over the affine argument; the
           derivative of a constant vanishes. Nested derivatives are
           outside the linear view. *)
        match go a with
        | Some (m, _k) ->
            let ok = ref true in
            let m' =
              Pmap.fold
                (fun p c acc ->
                  match p with
                  | Cur x -> Pmap.add (Der x) c acc
                  | Der _ ->
                      ok := false;
                      acc)
                m Pmap.empty
            in
            if !ok then Some (m', 0.0) else None
        | None -> None)
    | Expr.Idt _ | Expr.App _ | Expr.Cond _ -> None
  and combine op a b =
    match (go a, go b) with
    | Some (m1, k1), Some (m2, k2) -> Some (merge m1 m2, op k1 k2)
    | _ -> None
  in
  match go e with
  | None -> None
  | Some (m, k) ->
      let items =
        Pmap.fold (fun p c acc -> if c = 0.0 then acc else (p, c) :: acc) m []
      in
      Some (List.rev items, k)

let of_plinear (items, k) =
  let term (p, c) =
    if c = 1.0 then expr_of_pseudo p
    else Expr.Mul (Expr.Const c, expr_of_pseudo p)
  in
  match items with
  | [] -> Expr.Const k
  | first :: rest ->
      let body =
        List.fold_left (fun acc it -> Expr.(acc + term it)) (term first) rest
      in
      if k = 0.0 then body else Expr.(body + Expr.Const k)

let unknowns eq =
  match plinear_form (residual eq) with
  | None -> []
  | Some (items, _) -> List.map fst items

let solve_for p eq =
  match plinear_form (residual eq) with
  | None -> None
  | Some (items, k) -> (
      match List.assoc_opt p (List.map (fun (q, c) -> (q, c)) items) with
      | None | Some 0.0 -> None
      | Some a ->
          (* residual = a*p + rest = 0  =>  p = -rest / a *)
          let rest =
            List.filter (fun (q, _) -> compare_pseudo q p <> 0) items
          in
          let scaled =
            (List.map (fun (q, c) -> (q, -.c /. a)) rest, -.k /. a)
          in
          Some (Expr.simplify (of_plinear scaled)))

let is_linear eq = plinear_form (residual eq) <> None
