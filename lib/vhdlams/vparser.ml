module Diag = Amsvp_diag.Diag

module Ast = Amsvp_vams.Ast

exception Parse_error = Amsvp_vams.Parser.Parse_error

type token = Ident of string | Number of float | Punct of string | Eof

type ptok = { tok : token; line : int; col : int }

let is_ident_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'

let is_ident_char c = is_ident_start c || (c >= '0' && c <= '9')

let is_digit c = c >= '0' && c <= '9'

let tokenize src =
  let n = String.length src in
  let out = ref [] in
  let line = ref 1 in
  let bol = ref 0 in
  let i = ref 0 in
  while !i < n do
    let c = src.[!i] in
    let col = !i - !bol + 1 in
    let emit tok = out := { tok; line = !line; col } :: !out in
    if c = '\n' then begin
      incr line;
      incr i;
      bol := !i
    end
    else if c = ' ' || c = '\t' || c = '\r' then incr i
    else if c = '-' && !i + 1 < n && src.[!i + 1] = '-' then
      while !i < n && src.[!i] <> '\n' do
        incr i
      done
    else if is_digit c then begin
      let b = Buffer.create 8 in
      let seen_dot = ref false and seen_exp = ref false in
      let continue = ref true in
      while !continue && !i < n do
        let ch = src.[!i] in
        if is_digit ch || ch = '_' then begin
          if ch <> '_' then Buffer.add_char b ch;
          incr i
        end
        else if ch = '.' && not !seen_dot && not !seen_exp then begin
          seen_dot := true;
          Buffer.add_char b ch;
          incr i
        end
        else if (ch = 'e' || ch = 'E') && not !seen_exp then begin
          seen_exp := true;
          Buffer.add_char b 'e';
          incr i;
          if !i < n && (src.[!i] = '+' || src.[!i] = '-') then begin
            Buffer.add_char b src.[!i];
            incr i
          end
        end
        else continue := false
      done;
      match float_of_string_opt (Buffer.contents b) with
      | Some f -> emit (Number f)
      | None ->
          raise
            (Parse_error ("malformed number " ^ Buffer.contents b, !line, col))
    end
    else if is_ident_start c then begin
      let b = Buffer.create 8 in
      while !i < n && is_ident_char src.[!i] do
        Buffer.add_char b (Char.lowercase_ascii src.[!i]);
        incr i
      done;
      emit (Ident (Buffer.contents b))
    end
    else begin
      let two =
        if !i + 1 < n then Some (String.init 2 (fun k -> src.[!i + k])) else None
      in
      match two with
      | Some ((":=" | "==" | "=>" | "<=" | ">=" | "/=" | "**") as p) ->
          i := !i + 2;
          emit (Punct p)
      | _ -> (
          match c with
          | '(' | ')' | ',' | ';' | ':' | '.' | '\'' | '+' | '-' | '*' | '/'
          | '<' | '>' | '=' ->
              incr i;
              emit (Punct (String.make 1 c))
          | _ ->
              raise
                (Parse_error
                   (Printf.sprintf "unexpected character %c" c, !line, col)))
    end
  done;
  out := { tok = Eof; line = !line; col = n - !bol + 1 } :: !out;
  List.rev !out

(* [quantities] maps each quantity of the architecture being parsed to
   its branch access: the across name reads [V(branch)], the through
   name [I(branch)]. *)
type state = {
  toks : ptok array;
  mutable pos : int;
  file : string;
  mutable quantities : (string * Ast.expr_desc) list;
}

let peek st = st.toks.(st.pos).tok

let here st =
  let t = st.toks.(st.pos) in
  Diag.span ~file:st.file t.line t.col

let fail_at (sp : Diag.span) msg =
  raise (Parse_error (msg, sp.Diag.line, sp.Diag.col))

let fail st msg = fail_at (here st) msg

let advance st = if st.pos < Array.length st.toks - 1 then st.pos <- st.pos + 1

let accept_punct st p =
  match peek st with
  | Punct q when q = p ->
      advance st;
      true
  | _ -> false

let eat_punct st p =
  if not (accept_punct st p) then fail st (Printf.sprintf "expected '%s'" p)

let accept_kw st kw =
  match peek st with
  | Ident s when s = kw ->
      advance st;
      true
  | _ -> false

let eat_kw st kw =
  if not (accept_kw st kw) then fail st (Printf.sprintf "expected '%s'" kw)

let eat_ident st =
  match peek st with
  | Ident s ->
      advance st;
      s
  | _ -> fail st "expected identifier"

let ident_list st =
  let rec go acc =
    let sp = here st in
    let id = (sp, eat_ident st) in
    if accept_punct st "," then go (id :: acc) else List.rev (id :: acc)
  in
  go []

let mk espan edesc = { Ast.edesc; espan }
let item ispan idesc = { Ast.idesc; ispan }

(* [ident_list] names as electrical nets, spanned at the first one. *)
let net_decl names =
  item (fst (List.hd names)) (Ast.Net_decl ("electrical", List.map snd names))

(* Expressions. Compound nodes inherit the span of their leftmost
   constituent, as in the Verilog-AMS parser. *)
let rec parse_or st =
  let sp = here st in
  let rec go acc =
    if accept_kw st "or" then go (mk sp (Ast.Binop (Ast.Or, acc, parse_and st)))
    else acc
  in
  go (parse_and st)

and parse_and st =
  let sp = here st in
  let rec go acc =
    if accept_kw st "and" then
      go (mk sp (Ast.Binop (Ast.And, acc, parse_cmp st)))
    else acc
  in
  go (parse_cmp st)

and parse_cmp st =
  let sp = here st in
  let a = parse_add st in
  let op =
    match peek st with
    | Punct "<" -> Some Ast.Lt
    | Punct "<=" -> Some Ast.Le
    | Punct ">" -> Some Ast.Gt
    | Punct ">=" -> Some Ast.Ge
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
    if accept_punct st "+" then go (mk sp (Ast.Binop (Ast.Add, acc, parse_mul st)))
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
  else if accept_punct st "+" then parse_unary st
  else if accept_kw st "not" then mk sp (Ast.Unop (Ast.Not, parse_unary st))
  else parse_primary st

and parse_primary st =
  let sp = here st in
  match peek st with
  | Number f ->
      advance st;
      mk sp (Ast.Number f)
  | Punct "(" ->
      advance st;
      let e = parse_or st in
      eat_punct st ")";
      e
  | Ident name -> (
      advance st;
      let quantity = List.assoc_opt name st.quantities in
      if accept_punct st "'" then begin
        let attr = eat_ident st in
        if attr <> "dot" then fail st ("unsupported attribute '" ^ attr);
        match quantity with
        | Some access -> mk sp (Ast.Call ("ddt", [ mk sp access ]))
        | None -> fail_at sp ("'dot applies to a quantity, got " ^ name)
      end
      else if accept_punct st "(" then begin
        let rec args acc =
          let e = parse_or st in
          if accept_punct st "," then args (e :: acc)
          else begin
            eat_punct st ")";
            List.rev (e :: acc)
          end
        in
        mk sp (Ast.Call (name, args []))
      end
      else
        match quantity with
        | Some access -> mk sp access
        | None -> mk sp (Ast.Ident name))
  | Punct p -> fail st (Printf.sprintf "unexpected '%s'" p)
  | Eof -> fail st "unexpected end of input"

(* Statements: [q == rhs;] is a contribution to q's branch. *)
let rec parse_stmt st =
  let sp = here st in
  if accept_kw st "if" then begin
    let cond = parse_or st in
    eat_kw st "use";
    let rec stmts acc =
      match peek st with
      | Ident ("else" | "end") -> List.rev acc
      | _ -> stmts (parse_stmt st :: acc)
    in
    let then_b = stmts [] in
    let else_b = if accept_kw st "else" then stmts [] else [] in
    eat_kw st "end";
    eat_kw st "use";
    eat_punct st ";";
    { Ast.sdesc = Ast.If (cond, then_b, else_b); sspan = sp }
  end
  else begin
    let q = eat_ident st in
    let target =
      match List.assoc_opt q st.quantities with
      | Some access -> mk sp access
      | None -> fail_at sp ("simultaneous statement on unknown quantity " ^ q)
    in
    eat_punct st "==";
    let rhs = parse_or st in
    eat_punct st ";";
    { Ast.sdesc = Ast.Contribution (target, rhs); sspan = sp }
  end

(* ( formal => actual, ... ), each formal with its span *)
let parse_assoc_list st actual =
  eat_punct st "(";
  let rec go acc =
    let sp = here st in
    let formal = eat_ident st in
    eat_punct st "=>";
    let acc = (formal, sp, actual st) :: acc in
    if accept_punct st "," then go acc
    else begin
      eat_punct st ")";
      List.rev acc
    end
  in
  go []

(* ( element; element; ... ); *)
let parse_clause st element =
  eat_punct st "(";
  let rec go acc =
    let acc = element () :: acc in
    if accept_punct st ";" then go acc else List.concat (List.rev acc)
  in
  let items = go [] in
  eat_punct st ")";
  eat_punct st ";";
  items

let parse_end st kw =
  eat_kw st "end";
  ignore (accept_kw st kw);
  (match peek st with Ident _ -> advance st | _ -> ());
  eat_punct st ";"

(* entity <id> is [generic (...);] [port (...);] end [entity] [id];
   Generics become parameters and terminal ports electrical nets; the
   reference names [ground]/[gnd] become a ground declaration unless
   they are ports. The architecture's items are appended later. *)
let parse_entity st mspan =
  let name = eat_ident st in
  eat_kw st "is";
  let generics =
    if not (accept_kw st "generic") then []
    else
      parse_clause st (fun () ->
          let names = ident_list st in
          eat_punct st ":";
          eat_kw st "real";
          let default =
            if accept_punct st ":=" then Some (parse_or st) else None
          in
          List.map
            (fun (sp, name) ->
              item sp (Ast.Parameter { name; default; local = false }))
            names)
  in
  let port_decls =
    if not (accept_kw st "port") then []
    else
      parse_clause st (fun () ->
          eat_kw st "terminal";
          let names = ident_list st in
          eat_punct st ":";
          eat_kw st "electrical";
          [ net_decl names ])
  in
  parse_end st "entity";
  let ports =
    List.concat_map
      (fun (it : Ast.item) ->
        match it.Ast.idesc with Ast.Net_decl (_, ns) -> ns | _ -> [])
      port_decls
  in
  let grounds =
    List.filter (fun g -> not (List.mem g ports)) [ "ground"; "gnd" ]
  in
  {
    Ast.name;
    ports;
    items = port_decls @ generics @ [ item mspan (Ast.Ground_decl grounds) ];
    mspan;
  }

(* A quantity declares its branch, named after the through quantity
   ([br_<across>] for an across-only one), and brings its names into
   scope; terminals are nets and constants local parameters. *)
let across_prefix = "br_"

let quantity_of_branch b =
  let n = String.length across_prefix in
  if String.starts_with ~prefix:across_prefix b then
    String.sub b n (String.length b - n)
  else b

let parse_decl st =
  if accept_kw st "quantity" then begin
    let sp = here st in
    let across = eat_ident st in
    eat_kw st "across";
    (* either "i through p to n" or directly "p to n" *)
    let first = eat_ident st in
    let through, pos =
      if accept_kw st "through" then (Some first, eat_ident st)
      else (None, first)
    in
    eat_kw st "to";
    let neg = eat_ident st in
    eat_punct st ";";
    let branch = Option.value through ~default:(across_prefix ^ across) in
    let through_q =
      List.map (fun i -> (i, Ast.Access ("I", [ branch ]))) (Option.to_list through)
    in
    st.quantities <-
      ((across, Ast.Access ("V", [ branch ])) :: through_q) @ st.quantities;
    Some (item sp (Ast.Branch_decl ((pos, neg), [ branch ])))
  end
  else if accept_kw st "terminal" then begin
    let names = ident_list st in
    eat_punct st ":";
    eat_kw st "electrical";
    eat_punct st ";";
    Some (net_decl names)
  end
  else if accept_kw st "constant" then begin
    let sp = here st in
    let name = eat_ident st in
    eat_punct st ":";
    eat_kw st "real";
    eat_punct st ":=";
    let e = parse_or st in
    eat_punct st ";";
    Some (item sp (Ast.Parameter { name; default = Some e; local = true }))
  end
  else None

let terminal_actual st =
  match peek st with
  | Ident s ->
      advance st;
      s
  | _ -> fail st "port map actual must be a terminal name or 'ground'"

(* A concurrent statement: "label : entity [work.]name ..." is an
   instance, anything else a simultaneous statement, which becomes its
   own analog block so contributions keep their body order. *)
let parse_concurrent st =
  let sp = here st in
  let analog () = item sp (Ast.Analog [ parse_stmt st ]) in
  match peek st with
  | Ident "if" -> analog ()
  | _ ->
      let save = st.pos in
      let instance_name = eat_ident st in
      if accept_punct st ":" then begin
        eat_kw st "entity";
        (* optional library prefix: work.name *)
        let name1 = eat_ident st in
        let module_name = if accept_punct st "." then eat_ident st else name1 in
        let map kw actual =
          if accept_kw st kw then begin
            eat_kw st "map";
            parse_assoc_list st actual
          end
          else []
        in
        let overrides = map "generic" parse_or in
        let connections =
          List.map (fun (p, _, net) -> (p, net)) (map "port" terminal_actual)
        in
        eat_punct st ";";
        item sp (Ast.Instance { module_name; instance_name; overrides; connections })
      end
      else begin
        st.pos <- save;
        analog ()
      end

(* architecture <id> of <id> is decls begin body end [architecture] [id];
   yields the entity name and the architecture's items. *)
let parse_architecture st =
  ignore (eat_ident st);
  eat_kw st "of";
  let entity = eat_ident st in
  eat_kw st "is";
  st.quantities <- [];
  let rec decls acc =
    match parse_decl st with Some d -> decls (d :: acc) | None -> List.rev acc
  in
  let decls = decls [] in
  eat_kw st "begin";
  let rec body acc =
    match peek st with
    | Ident "end" -> List.rev acc
    | Ident _ -> body (parse_concurrent st :: acc)
    | _ -> fail st "expected concurrent statement"
  in
  let body = body [] in
  parse_end st "architecture";
  st.quantities <- [];
  (entity, decls @ body)

let state_of ?(file = "<input>") src =
  { toks = Array.of_list (tokenize src); pos = 0; file; quantities = [] }

(* Each entity, joined with its first architecture, is one module. *)
let parse ?file src =
  let st = state_of ?file src in
  let rec go entities archs =
    match peek st with
    | Eof -> (List.rev entities, List.rev archs)
    | Ident "library" ->
        advance st;
        ignore (ident_list st);
        eat_punct st ";";
        go entities archs
    | Ident "use" ->
        advance st;
        (* dotted name, possibly ending in .all *)
        ignore (eat_ident st);
        while accept_punct st "." do
          match peek st with
          | Ident _ -> advance st
          | _ -> fail st "expected name after '.'"
        done;
        eat_punct st ";";
        go entities archs
    | Ident "entity" ->
        let sp = here st in
        advance st;
        go (parse_entity st sp :: entities) archs
    | Ident "architecture" ->
        advance st;
        go entities (parse_architecture st :: archs)
    | Ident other -> fail st (Printf.sprintf "unexpected '%s'" other)
    | Number _ | Punct _ -> fail st "expected a design unit"
  in
  let entities, archs = go [] [] in
  List.map
    (fun (m : Ast.module_def) ->
      match List.assoc_opt m.Ast.name archs with
      | Some items -> { m with Ast.items = m.Ast.items @ items }
      | None -> fail_at m.Ast.mspan ("entity " ^ m.Ast.name ^ " has no architecture"))
    entities

let parse_expr_string src =
  let st = state_of src in
  let e = parse_or st in
  (match peek st with Eof -> () | _ -> fail st "trailing tokens");
  e
