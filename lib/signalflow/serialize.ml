exception Parse_error of string * int

(* {1 Writing} *)

let var_to_string = Expr.var_name

let rec expr_to_string e =
  (* Canonical rendering: fully parenthesised ternaries, standard
     operator precedences otherwise (reuses the precedence-aware C
     printer for everything but conditionals). *)
  match e with
  | Expr.Cond (c, a, b) ->
      Printf.sprintf "(%s ? %s : %s)" (cond_to_string c) (expr_to_string a)
        (expr_to_string b)
  | Expr.Add (a, b) -> Printf.sprintf "%s + %s" (expr_to_string a) (atom b)
  | Expr.Sub (a, b) -> Printf.sprintf "%s - %s" (expr_to_string a) (atom b)
  | _ -> atom e

and atom e =
  match e with
  | Expr.Const c -> Printf.sprintf "%.17g" c
  | Expr.Var v -> var_to_string v
  | Expr.Neg a -> Printf.sprintf "-%s" (atom a)
  | Expr.Mul (a, b) -> Printf.sprintf "%s * %s" (atom a) (atom b)
  | Expr.Div (a, b) -> Printf.sprintf "%s / %s" (atom a) (atom b)
  | Expr.App (fn, a) ->
      Printf.sprintf "%s(%s)" (Expr.fun_name fn) (expr_to_string a)
  | Expr.Add _ | Expr.Sub _ | Expr.Cond _ ->
      Printf.sprintf "(%s)" (expr_to_string e)
  | Expr.Ddt _ | Expr.Idt _ ->
      invalid_arg "Serialize: programs may not contain ddt/idt"

and cond_to_string = function
  | Expr.Cmp (op, a, b) ->
      Printf.sprintf "%s %s %s" (expr_to_string a) (Expr.cmp_name op)
        (expr_to_string b)
  | Expr.And (c1, c2) ->
      Printf.sprintf "(%s) && (%s)" (cond_to_string c1) (cond_to_string c2)
  | Expr.Or (c1, c2) ->
      Printf.sprintf "(%s) || (%s)" (cond_to_string c1) (cond_to_string c2)
  | Expr.Not c -> Printf.sprintf "!(%s)" (cond_to_string c)

let program_to_string (p : Sfprogram.t) =
  let buf = Buffer.create 512 in
  Buffer.add_string buf "sfprogram 1\n";
  Buffer.add_string buf ("name " ^ p.Sfprogram.name ^ "\n");
  Buffer.add_string buf (Printf.sprintf "dt %.17g\n" p.Sfprogram.dt);
  Buffer.add_string buf
    ("inputs " ^ String.concat " " p.Sfprogram.inputs ^ "\n");
  Buffer.add_string buf
    ("outputs "
    ^ String.concat " " (List.map var_to_string p.Sfprogram.outputs)
    ^ "\n");
  List.iter
    (fun (a : Sfprogram.assignment) ->
      Buffer.add_string buf
        (Printf.sprintf "assign %s := %s\n"
           (var_to_string a.Sfprogram.target)
           (expr_to_string a.Sfprogram.expr)))
    p.Sfprogram.assignments;
  Buffer.contents buf

(* {1 Reading} *)

type token =
  | Tvar of Expr.var
  | Tnum of float
  | Tident of string
  | Tpunct of string
  | Teof

let fail line fmt = Printf.ksprintf (fun s -> raise (Parse_error (s, line))) fmt

let is_ident_start c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_' || c = '$'

let is_ident_char c = is_ident_start c || (c >= '0' && c <= '9')
let is_digit c = c >= '0' && c <= '9'

(* Lex one expression string (no newlines inside). *)
let lex_expr line s =
  let n = String.length s in
  let out = ref [] in
  let i = ref 0 in
  let peek k = if !i + k < n then Some s.[!i + k] else None in
  (* optional @-k suffix after a variable-like token *)
  let delay_suffix () =
    if !i + 1 < n && s.[!i] = '@' && s.[!i + 1] = '-' then begin
      i := !i + 2;
      let start = !i in
      while !i < n && is_digit s.[!i] do
        incr i
      done;
      if start = !i then fail line "expected digits after @-";
      int_of_string (String.sub s start (!i - start))
    end
    else 0
  in
  while !i < n do
    let c = s.[!i] in
    if c = ' ' || c = '\t' then incr i
    else if (c = 'V' || c = 'I') && peek 1 = Some '(' then begin
      let start = !i in
      while !i < n && s.[!i] <> ')' do
        incr i
      done;
      if !i >= n then fail line "unterminated access";
      incr i;
      let access = String.sub s start (!i - start) in
      let d = delay_suffix () in
      match Expr.access_of_string access with
      | Ok v -> out := Tvar (Expr.delayed v d) :: !out
      | Error m -> fail line "%s" m
    end
    else if is_digit c || (c = '.' && match peek 1 with Some d -> is_digit d | None -> false)
    then begin
      let start = !i in
      while
        !i < n
        && (is_digit s.[!i] || s.[!i] = '.' || s.[!i] = 'e' || s.[!i] = 'E'
           || ((s.[!i] = '+' || s.[!i] = '-')
              && !i > start
              && (s.[!i - 1] = 'e' || s.[!i - 1] = 'E')))
      do
        incr i
      done;
      match float_of_string_opt (String.sub s start (!i - start)) with
      | Some f -> out := Tnum f :: !out
      | None -> fail line "malformed number"
    end
    else if is_ident_start c then begin
      let start = !i in
      while !i < n && is_ident_char s.[!i] do
        incr i
      done;
      let name = String.sub s start (!i - start) in
      let d = delay_suffix () in
      if d = 0 then out := Tident name :: !out
      else out := Tvar (Expr.delayed (Expr.signal name) d) :: !out
    end
    else begin
      let two = if !i + 1 < n then Some (String.sub s !i 2) else None in
      match two with
      | Some (("<=" | ">=" | "&&" | "||") as p) ->
          i := !i + 2;
          out := Tpunct p :: !out
      | _ -> (
          match c with
          | '(' | ')' | '?' | ':' | '+' | '-' | '*' | '/' | '<' | '>' | '!' ->
              incr i;
              out := Tpunct (String.make 1 c) :: !out
          | _ -> fail line "unexpected character %c" c)
    end
  done;
  Array.of_list (List.rev (Teof :: !out))

type pstate = { toks : token array; mutable pos : int; line : int }

let peek st = st.toks.(st.pos)
let advance st = if st.pos < Array.length st.toks - 1 then st.pos <- st.pos + 1

let accept st p =
  match peek st with
  | Tpunct q when q = p ->
      advance st;
      true
  | _ -> false

let expect st p =
  if not (accept st p) then fail st.line "expected '%s'" p

(* Grammar: ternary is parenthesised: '(' or-expr '?' e ':' e ')'.
   Inside a parenthesis we first parse an or-expression (which covers
   plain arithmetic too); '?' decides between ternary and grouping. *)
let rec parse_expr st = parse_add st

and parse_add st =
  let rec go acc =
    if accept st "+" then go (Expr.( + ) acc (parse_mul st))
    else if accept st "-" then go (Expr.( - ) acc (parse_mul st))
    else acc
  in
  go (parse_mul st)

and parse_mul st =
  let rec go acc =
    if accept st "*" then go (Expr.( * ) acc (parse_unary st))
    else if accept st "/" then go (Expr.( / ) acc (parse_unary st))
    else acc
  in
  go (parse_unary st)

and parse_unary st =
  if accept st "-" then Expr.neg (parse_unary st) else parse_primary st

and parse_primary st =
  match peek st with
  | Tnum f ->
      advance st;
      Expr.const f
  | Tvar v ->
      advance st;
      Expr.var v
  | Tident name -> (
      advance st;
      if accept st "(" then begin
        let arg = parse_expr st in
        expect st ")";
        let fn =
          match name with
          | "sin" -> Expr.Sin
          | "cos" -> Expr.Cos
          | "exp" -> Expr.Exp
          | "ln" | "log" -> Expr.Ln
          | "sqrt" -> Expr.Sqrt
          | "abs" -> Expr.Abs
          | "tanh" -> Expr.Tanh
          | _ -> fail st.line "unknown function %s" name
        in
        Expr.App (fn, arg)
      end
      else Expr.var (Expr.signal name))
  | Tpunct "(" -> (
      advance st;
      (* Either a grouped arithmetic expression or a ternary whose
         condition is a boolean expression. A condition is recognised
         by a successful boolean parse followed by '?'; otherwise we
         backtrack and parse arithmetic. *)
      let save = st.pos in
      let as_cond =
        match (try Some (parse_cond st) with Parse_error _ -> None) with
        | Some c when (match peek st with Tpunct "?" -> true | _ -> false) ->
            Some c
        | _ ->
            st.pos <- save;
            None
      in
      match as_cond with
      | Some c ->
          expect st "?";
          let a = parse_expr st in
          expect st ":";
          let b = parse_expr st in
          expect st ")";
          Expr.Cond (c, a, b)
      | None ->
          let e = parse_expr st in
          expect st ")";
          e)
  | Tpunct p -> fail st.line "unexpected '%s'" p
  | Teof -> fail st.line "unexpected end of expression"

(* Boolean grammar: atoms are comparisons, parenthesised conditions or
   negations; && and || combine left-to-right (the writer parenthesises
   nested boolean operands, so associativity is unambiguous). *)
and parse_cond st =
  let atom () =
    if accept st "!" then begin
      expect st "(";
      let c = parse_cond st in
      expect st ")";
      Expr.Not c
    end
    else if accept st "(" then begin
      let c = parse_cond st in
      expect st ")";
      c
    end
    else begin
      let a = parse_expr st in
      let op =
        match peek st with
        | Tpunct "<" -> Expr.Lt
        | Tpunct "<=" -> Expr.Le
        | Tpunct ">" -> Expr.Gt
        | Tpunct ">=" -> Expr.Ge
        | _ -> fail st.line "expected a comparison"
      in
      advance st;
      Expr.Cmp (op, a, parse_expr st)
    end
  in
  let rec go acc =
    if accept st "&&" then go (Expr.And (acc, atom ()))
    else if accept st "||" then go (Expr.Or (acc, atom ()))
    else acc
  in
  go (atom ())

let parse_expression ~line s =
  let st = { toks = lex_expr line s; pos = 0; line } in
  let e = parse_expr st in
  (match peek st with
  | Teof -> ()
  | _ -> fail line "trailing tokens in expression");
  e

let parse_var ~line s =
  match parse_expression ~line s with
  | Expr.Var v -> v
  | _ -> fail line "expected a variable"

let program_of_string text =
  let lines = String.split_on_char '\n' text in
  let name = ref None
  and dt = ref None
  and inputs = ref None
  and outputs = ref None
  and assigns = ref [] in
  List.iteri
    (fun idx raw ->
      let lineno = idx + 1 in
      let line = String.trim raw in
      if line = "" then ()
      else
        let keyword, rest =
          match String.index_opt line ' ' with
          | None -> (line, "")
          | Some i ->
              ( String.sub line 0 i,
                String.trim (String.sub line (i + 1) (String.length line - i - 1))
              )
        in
        match keyword with
        | "sfprogram" ->
            if String.trim rest <> "1" then
              fail lineno "unsupported sfprogram version %s" rest
        | "name" -> name := Some rest
        | "dt" -> (
            match float_of_string_opt rest with
            | Some f -> dt := Some f
            | None -> fail lineno "malformed dt")
        | "inputs" ->
            inputs :=
              Some (List.filter (fun s -> s <> "") (String.split_on_char ' ' rest))
        | "outputs" ->
            outputs :=
              Some
                (List.filter_map
                   (fun s -> if s = "" then None else Some (parse_var ~line:lineno s))
                   (String.split_on_char ' ' rest))
        | "assign" -> (
            match
              let marker = " := " in
              let rec find i =
                if i + String.length marker > String.length rest then None
                else if String.sub rest i (String.length marker) = marker then
                  Some i
                else find (i + 1)
              in
              find 0
            with
            | None -> fail lineno "assign needs ':='"
            | Some i ->
                let target = parse_var ~line:lineno (String.sub rest 0 i) in
                let body =
                  String.sub rest (i + 4) (String.length rest - i - 4)
                in
                let expr = parse_expression ~line:lineno body in
                assigns := { Sfprogram.target; expr } :: !assigns)
        | other -> fail lineno "unknown directive %s" other)
    lines;
  match (!name, !dt, !inputs, !outputs) with
  | Some name, Some dt, Some inputs, Some outputs ->
      Sfprogram.make ~name ~inputs ~outputs
        ~assignments:(List.rev !assigns) ~dt
  | _ -> fail 0 "missing name/dt/inputs/outputs header"
