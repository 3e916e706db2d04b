module Diag = Amsvp_diag.Diag

exception Parse_error of string * int * int

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

type state = { toks : ptok array; mutable pos : int; file : string }

let peek st = st.toks.(st.pos).tok

let here st =
  let t = st.toks.(st.pos) in
  Diag.span ~file:st.file t.line t.col

let fail st msg =
  let t = st.toks.(st.pos) in
  raise (Parse_error (msg, t.line, t.col))

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
    let id = eat_ident st in
    if accept_punct st "," then go (id :: acc) else List.rev (id :: acc)
  in
  go []

(* Expressions. *)
let rec parse_or st =
  let rec go acc =
    if accept_kw st "or" then go (Vast.Binop (`Or, acc, parse_and st)) else acc
  in
  go (parse_and st)

and parse_and st =
  let rec go acc =
    if accept_kw st "and" then go (Vast.Binop (`And, acc, parse_cmp st))
    else acc
  in
  go (parse_cmp st)

and parse_cmp st =
  let a = parse_add st in
  let op =
    match peek st with
    | Punct "<" -> Some `Lt
    | Punct "<=" -> Some `Le
    | Punct ">" -> Some `Gt
    | Punct ">=" -> Some `Ge
    | _ -> None
  in
  match op with
  | None -> a
  | Some op ->
      advance st;
      Vast.Binop (op, a, parse_add st)

and parse_add st =
  let rec go acc =
    if accept_punct st "+" then go (Vast.Binop (`Add, acc, parse_mul st))
    else if accept_punct st "-" then go (Vast.Binop (`Sub, acc, parse_mul st))
    else acc
  in
  go (parse_mul st)

and parse_mul st =
  let rec go acc =
    if accept_punct st "*" then go (Vast.Binop (`Mul, acc, parse_unary st))
    else if accept_punct st "/" then go (Vast.Binop (`Div, acc, parse_unary st))
    else acc
  in
  go (parse_unary st)

and parse_unary st =
  if accept_punct st "-" then Vast.Unop (`Neg, parse_unary st)
  else if accept_punct st "+" then parse_unary st
  else if accept_kw st "not" then Vast.Unop (`Not, parse_unary st)
  else parse_primary st

and parse_primary st =
  match peek st with
  | Number f ->
      advance st;
      Vast.Number f
  | Punct "(" ->
      advance st;
      let e = parse_or st in
      eat_punct st ")";
      e
  | Ident name -> (
      advance st;
      if accept_punct st "'" then begin
        let attr = eat_ident st in
        if attr <> "dot" then fail st ("unsupported attribute '" ^ attr);
        Vast.Dot name
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
        Vast.Call (name, args [])
      end
      else Vast.Name name)
  | Punct p -> fail st (Printf.sprintf "unexpected '%s'" p)
  | Eof -> fail st "unexpected end of input"

(* Statements. *)
let rec parse_stmt st =
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
    Vast.If_use (cond, then_b, else_b)
  end
  else begin
    let span = here st in
    let q = eat_ident st in
    eat_punct st "==";
    let rhs = parse_or st in
    eat_punct st ";";
    Vast.Simult (q, rhs, span)
  end

let parse_assoc_list st =
  (* ( formal => actual, ... ) where actual is an expression or a
     terminal name; we capture the raw expression and let the
     elaborator interpret it. *)
  eat_punct st "(";
  let rec go acc =
    let formal = eat_ident st in
    eat_punct st "=>";
    let actual = parse_or st in
    if accept_punct st "," then go ((formal, actual) :: acc)
    else begin
      eat_punct st ")";
      List.rev ((formal, actual) :: acc)
    end
  in
  go []

let parse_entity st =
  (* entity <id> is [generic (...);] [port (...);] end [entity] [id]; *)
  let ename = eat_ident st in
  eat_kw st "is";
  let generics = ref [] in
  if accept_kw st "generic" then begin
    eat_punct st "(";
    let rec go () =
      let names = ident_list st in
      eat_punct st ":";
      eat_kw st "real";
      let default =
        if accept_punct st ":=" then Some (parse_or st) else None
      in
      List.iter
        (fun gname -> generics := { Vast.gname; default } :: !generics)
        names;
      if accept_punct st ";" then go ()
    in
    go ();
    eat_punct st ")";
    eat_punct st ";"
  end;
  let ports = ref [] in
  if accept_kw st "port" then begin
    eat_punct st "(";
    let rec go () =
      eat_kw st "terminal";
      let names = ident_list st in
      eat_punct st ":";
      eat_kw st "electrical";
      ports := !ports @ names;
      if accept_punct st ";" then go ()
    in
    go ();
    eat_punct st ")";
    eat_punct st ";"
  end;
  eat_kw st "end";
  ignore (accept_kw st "entity");
  (match peek st with Ident _ -> ignore (eat_ident st) | _ -> ());
  eat_punct st ";";
  { Vast.ename; generics = List.rev !generics; ports = !ports }

let parse_decl st =
  if accept_kw st "quantity" then begin
    let span = here st in
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
    Some (Vast.Quantity { across; through; pos; neg; qspan = span })
  end
  else if accept_kw st "terminal" then begin
    let names = ident_list st in
    eat_punct st ":";
    eat_kw st "electrical";
    eat_punct st ";";
    Some (Vast.Terminal names)
  end
  else if accept_kw st "constant" then begin
    let name = eat_ident st in
    eat_punct st ":";
    eat_kw st "real";
    eat_punct st ":=";
    let e = parse_or st in
    eat_punct st ";";
    Some (Vast.Constant (name, e))
  end
  else None

let actual_to_string st (e : Vast.expr) =
  match e with
  | Vast.Name s -> s
  | _ -> fail st "port map actual must be a terminal name or 'ground'"

let parse_architecture st =
  (* architecture <id> of <id> is decls begin body end [architecture] [id]; *)
  let aname = eat_ident st in
  eat_kw st "of";
  let of_entity = eat_ident st in
  eat_kw st "is";
  let decls = ref [] in
  let rec decl_loop () =
    match parse_decl st with
    | Some d ->
        decls := d :: !decls;
        decl_loop ()
    | None -> ()
  in
  decl_loop ();
  eat_kw st "begin";
  let body = ref [] in
  let rec body_loop () =
    match peek st with
    | Ident "end" -> ()
    | Ident "if" ->
        body := Vast.Stmt (parse_stmt st) :: !body;
        body_loop ()
    | Ident _ ->
        (* lookahead: "label : entity ..." is an instance, otherwise a
           simultaneous statement. *)
        let save = st.pos in
        let first = eat_ident st in
        if accept_punct st ":" then begin
          eat_kw st "entity";
          (* optional library prefix: work.name *)
          let name1 = eat_ident st in
          let entity =
            if accept_punct st "." then eat_ident st else name1
          in
          let generic_map =
            if accept_kw st "generic" then begin
              eat_kw st "map";
              parse_assoc_list st
            end
            else []
          in
          let port_map =
            if accept_kw st "port" then begin
              eat_kw st "map";
              List.map
                (fun (f, a) -> (f, actual_to_string st a))
                (parse_assoc_list st)
            end
            else []
          in
          eat_punct st ";";
          body :=
            Vast.Instance { label = first; entity; generic_map; port_map }
            :: !body;
          body_loop ()
        end
        else begin
          st.pos <- save;
          body := Vast.Stmt (parse_stmt st) :: !body;
          body_loop ()
        end
    | _ -> fail st "expected concurrent statement"
  in
  body_loop ();
  eat_kw st "end";
  ignore (accept_kw st "architecture");
  (match peek st with Ident _ -> ignore (eat_ident st) | _ -> ());
  eat_punct st ";";
  { Vast.aname; of_entity; decls = List.rev !decls; body = List.rev !body }

let state_of ?(file = "<input>") src =
  { toks = Array.of_list (tokenize src); pos = 0; file }

let parse ?file src =
  let st = state_of ?file src in
  let units = ref [] in
  let rec go () =
    match peek st with
    | Eof -> ()
    | Ident "library" ->
        advance st;
        ignore (ident_list st);
        eat_punct st ";";
        go ()
    | Ident "use" ->
        advance st;
        (* dotted name, possibly ending in .all *)
        ignore (eat_ident st);
        while accept_punct st "." do
          (match peek st with
          | Ident _ -> ignore (eat_ident st)
          | _ -> fail st "expected name after '.'")
        done;
        eat_punct st ";";
        go ()
    | Ident "entity" ->
        advance st;
        units := Vast.Entity (parse_entity st) :: !units;
        go ()
    | Ident "architecture" ->
        advance st;
        units := Vast.Architecture (parse_architecture st) :: !units;
        go ()
    | Ident other -> fail st (Printf.sprintf "unexpected '%s'" other)
    | Number _ | Punct _ -> fail st "expected a design unit"
  in
  go ();
  List.rev !units

let parse_expr_string src =
  let st = state_of src in
  let e = parse_or st in
  (match peek st with Eof -> () | _ -> fail st "trailing tokens");
  e
