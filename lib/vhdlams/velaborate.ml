module E = Amsvp_vams.Elaborate
module Diag = Amsvp_diag.Diag

exception Elab_error of string * Diag.span option

let fail ?span fmt =
  Printf.ksprintf (fun s -> raise (Elab_error (s, span))) fmt

type qkind = Across | Through

type quantity = { kind : qkind; branch : E.branch_ref }

type ctx = {
  design : Vast.design;
  path : string;
  bindings : (string * string) list;  (* formal terminal -> global net *)
  values : (string * float) list;  (* generics and constants *)
  quantities : (string * quantity) list;
  mutable acc : (E.branch_ref * bool * Expr.t * Diag.span) list;
}

let qualify ctx name = if ctx.path = "" then name else ctx.path ^ "." ^ name

let resolve_terminal ctx name =
  match List.assoc_opt name ctx.bindings with
  | Some net -> net
  | None -> if name = "ground" || name = "gnd" then "gnd" else qualify ctx name

let rec const_eval ctx (e : Vast.expr) =
  match e with
  | Vast.Number f -> f
  | Vast.Name n -> (
      match List.assoc_opt n ctx.values with
      | Some v -> v
      | None -> fail "unknown generic or constant %s in %s" n ctx.path)
  | Vast.Unop (`Neg, a) -> -.const_eval ctx a
  | Vast.Binop (`Add, a, b) -> const_eval ctx a +. const_eval ctx b
  | Vast.Binop (`Sub, a, b) -> const_eval ctx a -. const_eval ctx b
  | Vast.Binop (`Mul, a, b) -> const_eval ctx a *. const_eval ctx b
  | Vast.Binop (`Div, a, b) -> const_eval ctx a /. const_eval ctx b
  | Vast.Unop (`Not, _) | Vast.Binop _ | Vast.Call _ | Vast.Dot _ ->
      fail "unsupported constant expression"

let quantity_expr q =
  match q.kind with
  | Across ->
      if q.branch.E.pos = q.branch.E.neg then Expr.zero
      else Expr.var (Expr.potential q.branch.E.pos q.branch.E.neg)
  | Through -> Expr.var (Expr.flow q.branch.E.flow_id "")

let unary_fun_of_name = function
  | "sin" -> Some Expr.Sin
  | "cos" -> Some Expr.Cos
  | "exp" -> Some Expr.Exp
  | "log" | "ln" -> Some Expr.Ln
  | "sqrt" -> Some Expr.Sqrt
  | "abs" -> Some Expr.Abs
  | "tanh" -> Some Expr.Tanh
  | _ -> None

let rec expr_of_ast ctx (e : Vast.expr) =
  match e with
  | Vast.Number f -> Expr.const f
  | Vast.Name n -> (
      match List.assoc_opt n ctx.quantities with
      | Some q -> quantity_expr q
      | None -> (
          match List.assoc_opt n ctx.values with
          | Some v -> Expr.const v
          | None -> fail "unknown name %s in %s" n ctx.path))
  | Vast.Dot n -> (
      match List.assoc_opt n ctx.quantities with
      | Some q -> Expr.Ddt (quantity_expr q)
      | None -> fail "'dot applies to a quantity, got %s" n)
  | Vast.Unop (`Neg, a) -> Expr.neg (expr_of_ast ctx a)
  | Vast.Unop (`Not, _) -> fail "boolean operator outside a condition"
  | Vast.Binop (`Add, a, b) -> Expr.( + ) (expr_of_ast ctx a) (expr_of_ast ctx b)
  | Vast.Binop (`Sub, a, b) -> Expr.( - ) (expr_of_ast ctx a) (expr_of_ast ctx b)
  | Vast.Binop (`Mul, a, b) -> Expr.( * ) (expr_of_ast ctx a) (expr_of_ast ctx b)
  | Vast.Binop (`Div, a, b) -> Expr.( / ) (expr_of_ast ctx a) (expr_of_ast ctx b)
  | Vast.Binop ((`Lt | `Le | `Gt | `Ge | `And | `Or), _, _) ->
      fail "comparison outside a condition"
  | Vast.Call (f, [ a ]) -> (
      match unary_fun_of_name f with
      | Some fn -> Expr.App (fn, expr_of_ast ctx a)
      | None -> fail "unsupported function %s" f)
  | Vast.Call (f, _) -> fail "unsupported function %s or arity" f

and cond_of_ast ctx (e : Vast.expr) =
  match e with
  | Vast.Binop (`Lt, a, b) ->
      Expr.Cmp (Expr.Lt, expr_of_ast ctx a, expr_of_ast ctx b)
  | Vast.Binop (`Le, a, b) ->
      Expr.Cmp (Expr.Le, expr_of_ast ctx a, expr_of_ast ctx b)
  | Vast.Binop (`Gt, a, b) ->
      Expr.Cmp (Expr.Gt, expr_of_ast ctx a, expr_of_ast ctx b)
  | Vast.Binop (`Ge, a, b) ->
      Expr.Cmp (Expr.Ge, expr_of_ast ctx a, expr_of_ast ctx b)
  | Vast.Binop (`And, a, b) -> Expr.And (cond_of_ast ctx a, cond_of_ast ctx b)
  | Vast.Binop (`Or, a, b) -> Expr.Or (cond_of_ast ctx a, cond_of_ast ctx b)
  | Vast.Unop (`Not, a) -> Expr.Not (cond_of_ast ctx a)
  | _ -> fail "expected a comparison in condition"

let rec exec_stmts ctx guard stmts =
  List.iter
    (fun (s : Vast.stmt) ->
      match s with
      | Vast.Simult (qname, rhs, span) ->
          let q =
            match List.assoc_opt qname ctx.quantities with
            | Some q -> q
            | None ->
                fail ~span "simultaneous statement on unknown quantity %s"
                  qname
          in
          let rhs = expr_of_ast ctx rhs in
          let rhs =
            match guard with
            | None -> rhs
            | Some c -> Expr.Cond (c, rhs, Expr.zero)
          in
          ctx.acc <- (q.branch, q.kind = Through, rhs, span) :: ctx.acc
      | Vast.If_use (c, then_b, else_b) ->
          let c = cond_of_ast ctx c in
          let combined g extra =
            match g with
            | None -> Some extra
            | Some g0 -> Some (Expr.And (g0, extra))
          in
          exec_stmts ctx (combined guard c) then_b;
          if else_b <> [] then
            exec_stmts ctx (combined guard (Expr.Not c)) else_b)
    stmts

let rec elaborate design ~path ~bindings ~generic_values acc_sink entity_name =
  let entity =
    match Vast.find_entity design entity_name with
    | Some e -> e
    | None -> fail "unknown entity %s" entity_name
  in
  let arch =
    match Vast.find_architecture design entity_name with
    | Some a -> a
    | None -> fail "entity %s has no architecture" entity_name
  in
  (* Generic environment: defaults overridden by the instance. *)
  let values =
    List.map
      (fun (g : Vast.generic) ->
        match List.assoc_opt g.Vast.gname generic_values with
        | Some v -> (g.Vast.gname, v)
        | None -> (
            match g.Vast.default with
            | Some d ->
                ( g.Vast.gname,
                  const_eval
                    {
                      design;
                      path;
                      bindings;
                      values = [];
                      quantities = [];
                      acc = [];
                    }
                    d )
            | None -> fail "generic %s of %s has no value" g.Vast.gname entity_name))
      entity.Vast.generics
  in
  let base = { design; path; bindings; values; quantities = []; acc = [] } in
  (* Declarations: constants extend the value environment; quantities
     declare branches. *)
  let ctx =
    List.fold_left
      (fun ctx decl ->
        match decl with
        | Vast.Constant (name, e) ->
            { ctx with values = (name, const_eval ctx e) :: ctx.values }
        | Vast.Terminal _ -> ctx
        | Vast.Quantity { across; through; pos; neg; qspan = _ } ->
            let branch =
              {
                E.flow_id =
                  (match through with
                  | Some i -> qualify ctx i
                  | None -> qualify ctx ("br_" ^ across));
                pos = resolve_terminal ctx pos;
                neg = resolve_terminal ctx neg;
              }
            in
            let qs =
              ((across, { kind = Across; branch }) :: ctx.quantities)
              |> fun qs ->
              match through with
              | Some i -> (i, { kind = Through; branch }) :: qs
              | None -> qs
            in
            { ctx with quantities = qs })
      base arch.Vast.decls
  in
  List.iter
    (fun item ->
      match item with
      | Vast.Stmt s ->
          exec_stmts ctx None [ s ];
          (* chronological order: earlier chunks first *)
          acc_sink := !acc_sink @ List.rev ctx.acc;
          ctx.acc <- []
      | Vast.Instance { label; entity = child_name; generic_map; port_map } ->
          let child =
            match Vast.find_entity design child_name with
            | Some e -> e
            | None -> fail "unknown entity %s" child_name
          in
          let child_bindings =
            List.map
              (fun (formal, actual) ->
                if not (List.mem formal child.Vast.ports) then
                  fail "entity %s has no port %s" child_name formal;
                (formal, resolve_terminal ctx actual))
              port_map
          in
          let child_values =
            List.map (fun (g, e) -> (g, const_eval ctx e)) generic_map
          in
          let child_path = if path = "" then label else path ^ "." ^ label in
          elaborate design ~path:child_path ~bindings:child_bindings
            ~generic_values:child_values acc_sink child_name)
    arch.Vast.body

let flatten design ~top ~inputs =
  let acc = ref [] in
  let top_entity =
    match Vast.find_entity design top with
    | Some e -> e
    | None -> fail "unknown entity %s" top
  in
  List.iter
    (fun p ->
      if not (List.mem p top_entity.Vast.ports) then
        fail "top entity %s has no port %s" top p)
    inputs;
  let bindings = List.map (fun p -> (p, p)) top_entity.Vast.ports in
  elaborate design ~path:"" ~bindings ~generic_values:[] acc top;
  let raw = !acc in
  (* Merge contributions per branch and kind, preserving first-use
     order (VHDL-AMS simultaneous statements are a system of equations;
     several statements on the same quantity sum like [<+]). *)
  let merged = Hashtbl.create 16 in
  let order = ref [] in
  List.iter
    (fun ((br : E.branch_ref), is_flow, rhs, span) ->
      let key = (br.E.flow_id, is_flow) in
      match Hashtbl.find_opt merged key with
      | Some (br0, sum, span0) ->
          Hashtbl.replace merged key (br0, Expr.( + ) sum rhs, span0)
      | None ->
          Hashtbl.replace merged key (br, rhs, span);
          order := key :: !order)
    raw;
  let contributions =
    List.rev_map
      (fun key ->
        let br, rhs, span = Hashtbl.find merged key in
        { E.branch = br; is_flow = snd key; rhs = Expr.simplify rhs; span })
      !order
  in
  let nets =
    let module S = Set.Make (String) in
    let s =
      List.fold_left
        (fun s (c : E.contribution) ->
          let s = S.add c.E.branch.E.pos (S.add c.E.branch.E.neg s) in
          Expr.Var_set.fold
            (fun v s ->
              match v.Expr.base with
              | Expr.Potential (a, b) -> S.add a (S.add b s)
              | Expr.Flow _ | Expr.Signal _ | Expr.Param _ -> s)
            (Expr.vars c.E.rhs) s)
        (S.singleton "gnd") contributions
    in
    S.elements s
  in
  {
    E.top;
    ground = "gnd";
    nets;
    input_ports = inputs;
    output_ports = [];
    contributions;
  }

let parse_and_abstract src ~top ~inputs ~outputs ~dt =
  let design = Vparser.parse src in
  let flat = flatten design ~top ~inputs in
  match E.classify flat with
  | `Conservative ->
      let circuit = E.to_circuit flat in
      Amsvp_core.Flow.abstract_circuit ~name:top circuit ~outputs ~dt
  | `Signal_flow ->
      let contributions = E.signal_flow_assignments flat in
      let program =
        Amsvp_core.Flow.convert_signal_flow ~name:top
          ~inputs:flat.E.input_ports ~outputs ~contributions ~dt
      in
      {
        Amsvp_core.Flow.program;
        nodes = List.length flat.E.nets;
        branches = List.length flat.E.contributions;
        classes = 0;
        variants = 0;
        definitions = List.length contributions;
        explain = Amsvp_core.Explain.of_signal_flow program;
        acquisition_s = 0.0;
        enrichment_s = 0.0;
        assemble_s = 0.0;
        solve_s = 0.0;
      }
