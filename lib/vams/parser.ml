module Diag = Amsvp_diag.Diag

exception Parse_error of string * int * int

type state = {
  toks : Lexer.positioned array;
  mutable pos : int;
  file : string;
}

let peek st = st.toks.(st.pos).Lexer.token

let here st =
  let t = st.toks.(st.pos) in
  Diag.span ~file:st.file t.Lexer.line t.Lexer.col

let fail st msg =
  let s = here st in
  raise (Parse_error (msg, s.Diag.line, s.Diag.col))

let advance st = if st.pos < Array.length st.toks - 1 then st.pos <- st.pos + 1

let eat_punct st p =
  match peek st with
  | Lexer.Punct q when q = p -> advance st
  | _ -> fail st (Printf.sprintf "expected '%s'" p)

let accept_punct st p =
  match peek st with
  | Lexer.Punct q when q = p ->
      advance st;
      true
  | _ -> false

let eat_ident st =
  match peek st with
  | Lexer.Ident s ->
      advance st;
      s
  | _ -> fail st "expected identifier"

let accept_keyword st kw =
  match peek st with
  | Lexer.Ident s when s = kw ->
      advance st;
      true
  | _ -> false

let eat_keyword st kw =
  if not (accept_keyword st kw) then fail st (Printf.sprintf "expected '%s'" kw)

let ident_list st =
  let rec go acc =
    let id = eat_ident st in
    if accept_punct st "," then go (id :: acc) else List.rev (id :: acc)
  in
  go []

let mk span edesc = { Ast.edesc; espan = span }

(* Expressions, precedence climbing. Compound nodes inherit the span of
   their leftmost constituent, so a finding on [a + b/c] points at [a]'s
   position — the start of the expression as written. *)
let rec parse_ternary st =
  let sp = here st in
  let c = parse_or st in
  if accept_punct st "?" then begin
    let a = parse_ternary st in
    eat_punct st ":";
    let b = parse_ternary st in
    mk sp (Ast.Ternary (c, a, b))
  end
  else c

and parse_or st =
  let sp = here st in
  let rec go acc =
    if accept_punct st "||" then
      go (mk sp (Ast.Binop (Ast.Or, acc, parse_and st)))
    else acc
  in
  go (parse_and st)

and parse_and st =
  let sp = here st in
  let rec go acc =
    if accept_punct st "&&" then
      go (mk sp (Ast.Binop (Ast.And, acc, parse_cmp st)))
    else acc
  in
  go (parse_cmp st)

and parse_cmp st =
  let sp = here st in
  let a = parse_add st in
  let op =
    match peek st with
    | Lexer.Punct "<" -> Some Ast.Lt
    | Lexer.Punct "<=" -> Some Ast.Le
    | Lexer.Punct ">" -> Some Ast.Gt
    | Lexer.Punct ">=" -> Some Ast.Ge
    | _ -> None
  in
  match op with
  | None -> a
  | Some op ->
      advance st;
      mk sp (Ast.Binop (op, a, parse_add st))

and parse_add st =
  let sp = here st in
  let rec go acc =
    if accept_punct st "+" then
      go (mk sp (Ast.Binop (Ast.Add, acc, parse_mul st)))
    else if accept_punct st "-" then
      go (mk sp (Ast.Binop (Ast.Sub, acc, parse_mul st)))
    else acc
  in
  go (parse_mul st)

and parse_mul st =
  let sp = here st in
  let rec go acc =
    if accept_punct st "*" then
      go (mk sp (Ast.Binop (Ast.Mul, acc, parse_unary st)))
    else if accept_punct st "/" then
      go (mk sp (Ast.Binop (Ast.Div, acc, parse_unary st)))
    else acc
  in
  go (parse_unary st)

and parse_unary st =
  let sp = here st in
  if accept_punct st "-" then mk sp (Ast.Unop (Ast.Neg, parse_unary st))
  else if accept_punct st "!" then mk sp (Ast.Unop (Ast.Not, parse_unary st))
  else if accept_punct st "+" then parse_unary st
  else parse_primary st

and parse_primary st =
  let sp = here st in
  match peek st with
  | Lexer.Number f ->
      advance st;
      mk sp (Ast.Number f)
  | Lexer.Punct "(" ->
      advance st;
      let e = parse_ternary st in
      eat_punct st ")";
      e
  | Lexer.Ident name ->
      advance st;
      if accept_punct st "(" then begin
        (* Access functions V(...)/I(...) take net names; everything
           else is a call with expression arguments. *)
        if name = "V" || name = "I" then begin
          let args = ident_list st in
          eat_punct st ")";
          mk sp (Ast.Access (name, args))
        end
        else begin
          let args =
            if accept_punct st ")" then []
            else begin
              let rec go acc =
                let e = parse_ternary st in
                if accept_punct st "," then go (e :: acc)
                else begin
                  eat_punct st ")";
                  List.rev (e :: acc)
                end
              in
              go []
            end
          in
          mk sp (Ast.Call (name, args))
        end
      end
      else mk sp (Ast.Ident name)
  | Lexer.Punct p -> fail st (Printf.sprintf "unexpected '%s'" p)
  | Lexer.Eof -> fail st "unexpected end of input"

(* Statements. *)
let rec parse_stmt st =
  let sp = here st in
  if accept_keyword st "if" then begin
    eat_punct st "(";
    let c = parse_ternary st in
    eat_punct st ")";
    let then_branch = parse_block_or_stmt st in
    let else_branch =
      if accept_keyword st "else" then parse_block_or_stmt st else []
    in
    { Ast.sdesc = Ast.If (c, then_branch, else_branch); sspan = sp }
  end
  else begin
    let lhs = parse_primary st in
    match lhs.Ast.edesc with
    | Ast.Access _ ->
        eat_punct st "<+";
        let rhs = parse_ternary st in
        eat_punct st ";";
        { Ast.sdesc = Ast.Contribution (lhs, rhs); sspan = sp }
    | Ast.Ident name when accept_punct st "=" ->
        let rhs = parse_ternary st in
        eat_punct st ";";
        { Ast.sdesc = Ast.Assign (name, rhs); sspan = sp }
    | _ -> fail st "expected a contribution (<+) or an assignment (=)"
  end

and parse_block_or_stmt st =
  if accept_keyword st "begin" then begin
    let rec go acc =
      if accept_keyword st "end" then List.rev acc
      else go (parse_stmt st :: acc)
    in
    go []
  end
  else [ parse_stmt st ]

let parse_parameter st sp =
  (* parameter [real|integer] name = expr ; *)
  (match peek st with
  | Lexer.Ident ("real" | "integer") -> advance st
  | _ -> ());
  let name = eat_ident st in
  eat_punct st "=";
  let e = parse_ternary st in
  eat_punct st ";";
  {
    Ast.idesc = Ast.Parameter { name; default = Some e; local = false };
    ispan = sp;
  }

let parse_overrides st =
  (* #(.name(expr), ...) *)
  if accept_punct st "#" then begin
    eat_punct st "(";
    let rec go acc =
      eat_punct st ".";
      let sp = here st in
      let name = eat_ident st in
      eat_punct st "(";
      let e = parse_ternary st in
      eat_punct st ")";
      if accept_punct st "," then go ((name, sp, e) :: acc)
      else begin
        eat_punct st ")";
        List.rev ((name, sp, e) :: acc)
      end
    in
    go []
  end
  else []

let parse_connections st =
  eat_punct st "(";
  if accept_punct st ")" then []
  else if accept_punct st "." then begin
    (* Named: .port(net), ... *)
    let rec go acc =
      let port = eat_ident st in
      eat_punct st "(";
      let net = eat_ident st in
      eat_punct st ")";
      if accept_punct st "," then begin
        eat_punct st ".";
        go ((port, net) :: acc)
      end
      else begin
        eat_punct st ")";
        List.rev ((port, net) :: acc)
      end
    in
    go []
  end
  else begin
    (* Positional: net, net, ... — port names resolved at elaboration. *)
    let nets = ident_list st in
    eat_punct st ")";
    List.map (fun n -> ("", n)) nets
  end

let parse_item st =
  let sp = here st in
  let item idesc = { Ast.idesc; ispan = sp } in
  let direction =
    if accept_keyword st "inout" then Some Ast.Inout
    else if accept_keyword st "input" then Some Ast.Input
    else if accept_keyword st "output" then Some Ast.Output
    else None
  in
  match direction with
  | Some d ->
      (* inout [electrical] a, b ; *)
      ignore (accept_keyword st "electrical");
      let ids = ident_list st in
      eat_punct st ";";
      item (Ast.Port_direction (d, ids))
  | None ->
      if accept_keyword st "electrical" then begin
        let ids = ident_list st in
        eat_punct st ";";
        item (Ast.Net_decl ("electrical", ids))
      end
      else if accept_keyword st "ground" then begin
        let ids = ident_list st in
        eat_punct st ";";
        item (Ast.Ground_decl ids)
      end
      else if accept_keyword st "branch" then begin
        eat_punct st "(";
        let a = eat_ident st in
        eat_punct st ",";
        let b = eat_ident st in
        eat_punct st ")";
        let names = ident_list st in
        eat_punct st ";";
        item (Ast.Branch_decl ((a, b), names))
      end
      else if accept_keyword st "real" then begin
        (* analog real variable declaration: names are brought into
           scope by their first assignment, the declaration itself
           carries no information we need *)
        let ids = ident_list st in
        eat_punct st ";";
        item (Ast.Net_decl ("real", ids))
      end
      else if accept_keyword st "parameter" then parse_parameter st sp
      else if accept_keyword st "analog" then begin
        let stmts = parse_block_or_stmt st in
        item (Ast.Analog stmts)
      end
      else begin
        (* Instance: module_name [#(...)] inst_name ( connections ) ; *)
        let module_name = eat_ident st in
        let overrides = parse_overrides st in
        let instance_name = eat_ident st in
        let connections = parse_connections st in
        eat_punct st ";";
        item (Ast.Instance { module_name; instance_name; overrides; connections })
      end

let parse_module st =
  let sp = here st in
  eat_keyword st "module";
  let name = eat_ident st in
  let ports =
    if accept_punct st "(" then begin
      if accept_punct st ")" then []
      else begin
        let ids = ident_list st in
        eat_punct st ")";
        ids
      end
    end
    else []
  in
  eat_punct st ";";
  let rec items acc =
    if accept_keyword st "endmodule" then List.rev acc
    else items (parse_item st :: acc)
  in
  let items = items [] in
  { Ast.name; ports; items; mspan = sp }

let state_of ?(file = "<input>") src =
  { toks = Array.of_list (Lexer.tokenize src); pos = 0; file }

let parse ?file src =
  let st = state_of ?file src in
  let rec go acc =
    match peek st with
    | Lexer.Eof -> List.rev acc
    | _ -> go (parse_module st :: acc)
  in
  go []

let parse_expr_string src =
  let st = state_of src in
  let e = parse_ternary st in
  (match peek st with
  | Lexer.Eof -> ()
  | _ -> fail st "trailing tokens after expression");
  e
