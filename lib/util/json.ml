(* Recursive-descent JSON reader and the one compact printer; see
   json.mli for scope and the float rule. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Parse_error of string * int

type state = { src : string; mutable pos : int }

let fail st msg = raise (Parse_error (msg, st.pos))

let peek st =
  if st.pos < String.length st.src then Some st.src.[st.pos] else None

let advance st = st.pos <- st.pos + 1

let rec skip_ws st =
  match peek st with
  | Some (' ' | '\t' | '\n' | '\r') ->
      advance st;
      skip_ws st
  | _ -> ()

let expect st c =
  match peek st with
  | Some c' when c' = c -> advance st
  | _ -> fail st (Printf.sprintf "expected %C" c)

let literal st word value =
  let n = String.length word in
  if
    st.pos + n <= String.length st.src
    && String.sub st.src st.pos n = word
  then begin
    st.pos <- st.pos + n;
    value
  end
  else fail st (Printf.sprintf "expected %s" word)

let hex_digit st c =
  match c with
  | '0' .. '9' -> Char.code c - Char.code '0'
  | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
  | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
  | _ -> fail st "bad \\u escape"

(* \uXXXX escapes are decoded to UTF-8; surrogate pairs are combined
   when both halves are present. *)
let parse_string st =
  expect st '"';
  let b = Buffer.create 16 in
  let rec read_u4 () =
    if st.pos + 4 > String.length st.src then fail st "truncated \\u escape";
    let v =
      (hex_digit st st.src.[st.pos] lsl 12)
      lor (hex_digit st st.src.[st.pos + 1] lsl 8)
      lor (hex_digit st st.src.[st.pos + 2] lsl 4)
      lor hex_digit st st.src.[st.pos + 3]
    in
    st.pos <- st.pos + 4;
    v
  and add_codepoint cp =
    if cp < 0x80 then Buffer.add_char b (Char.chr cp)
    else if cp < 0x800 then begin
      Buffer.add_char b (Char.chr (0xC0 lor (cp lsr 6)));
      Buffer.add_char b (Char.chr (0x80 lor (cp land 0x3F)))
    end
    else if cp < 0x10000 then begin
      Buffer.add_char b (Char.chr (0xE0 lor (cp lsr 12)));
      Buffer.add_char b (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
      Buffer.add_char b (Char.chr (0x80 lor (cp land 0x3F)))
    end
    else begin
      Buffer.add_char b (Char.chr (0xF0 lor (cp lsr 18)));
      Buffer.add_char b (Char.chr (0x80 lor ((cp lsr 12) land 0x3F)));
      Buffer.add_char b (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
      Buffer.add_char b (Char.chr (0x80 lor (cp land 0x3F)))
    end
  and loop () =
    match peek st with
    | None -> fail st "unterminated string"
    | Some '"' ->
        advance st;
        Buffer.contents b
    | Some '\\' -> (
        advance st;
        match peek st with
        | Some '"' -> advance st; Buffer.add_char b '"'; loop ()
        | Some '\\' -> advance st; Buffer.add_char b '\\'; loop ()
        | Some '/' -> advance st; Buffer.add_char b '/'; loop ()
        | Some 'b' -> advance st; Buffer.add_char b '\b'; loop ()
        | Some 'f' -> advance st; Buffer.add_char b '\012'; loop ()
        | Some 'n' -> advance st; Buffer.add_char b '\n'; loop ()
        | Some 'r' -> advance st; Buffer.add_char b '\r'; loop ()
        | Some 't' -> advance st; Buffer.add_char b '\t'; loop ()
        | Some 'u' ->
            advance st;
            let hi = read_u4 () in
            let cp =
              if hi >= 0xD800 && hi <= 0xDBFF
                 && st.pos + 6 <= String.length st.src
                 && st.src.[st.pos] = '\\'
                 && st.src.[st.pos + 1] = 'u'
              then begin
                st.pos <- st.pos + 2;
                let lo = read_u4 () in
                if lo >= 0xDC00 && lo <= 0xDFFF then
                  0x10000 + ((hi - 0xD800) lsl 10) + (lo - 0xDC00)
                else fail st "unpaired surrogate"
              end
              else hi
            in
            add_codepoint cp;
            loop ()
        | _ -> fail st "bad escape")
    | Some c ->
        advance st;
        Buffer.add_char b c;
        loop ()
  in
  loop ()

let parse_number st =
  let start = st.pos in
  let consume_while pred =
    let rec go () =
      match peek st with
      | Some c when pred c ->
          advance st;
          go ()
      | _ -> ()
    in
    go ()
  in
  (match peek st with Some '-' -> advance st | _ -> ());
  consume_while (function '0' .. '9' -> true | _ -> false);
  (match peek st with
  | Some '.' ->
      advance st;
      consume_while (function '0' .. '9' -> true | _ -> false)
  | _ -> ());
  (match peek st with
  | Some ('e' | 'E') ->
      advance st;
      (match peek st with Some ('+' | '-') -> advance st | _ -> ());
      consume_while (function '0' .. '9' -> true | _ -> false)
  | _ -> ());
  let text = String.sub st.src start (st.pos - start) in
  match float_of_string_opt text with
  | Some v -> v
  | None ->
      st.pos <- start;
      fail st "bad number"

let rec parse_value st =
  skip_ws st;
  match peek st with
  | None -> fail st "unexpected end of input"
  | Some '{' ->
      advance st;
      skip_ws st;
      if peek st = Some '}' then begin
        advance st;
        Obj []
      end
      else begin
        let rec fields acc =
          skip_ws st;
          let k = parse_string st in
          skip_ws st;
          expect st ':';
          let v = parse_value st in
          skip_ws st;
          match peek st with
          | Some ',' ->
              advance st;
              fields ((k, v) :: acc)
          | Some '}' ->
              advance st;
              Obj (List.rev ((k, v) :: acc))
          | _ -> fail st "expected ',' or '}'"
        in
        fields []
      end
  | Some '[' ->
      advance st;
      skip_ws st;
      if peek st = Some ']' then begin
        advance st;
        Arr []
      end
      else begin
        let rec elems acc =
          let v = parse_value st in
          skip_ws st;
          match peek st with
          | Some ',' ->
              advance st;
              elems (v :: acc)
          | Some ']' ->
              advance st;
              Arr (List.rev (v :: acc))
          | _ -> fail st "expected ',' or ']'"
        in
        elems []
      end
  | Some '"' -> Str (parse_string st)
  | Some 't' -> literal st "true" (Bool true)
  | Some 'f' -> literal st "false" (Bool false)
  | Some 'n' -> literal st "null" Null
  | Some ('-' | '0' .. '9') -> Num (parse_number st)
  | Some c -> fail st (Printf.sprintf "unexpected %C" c)

let parse src =
  let st = { src; pos = 0 } in
  let v = parse_value st in
  skip_ws st;
  (match peek st with
  | None -> ()
  | Some _ -> fail st "trailing content");
  v

let parse_lines src =
  String.split_on_char '\n' src
  |> List.filter_map (fun line ->
         if String.trim line = "" then None else Some (parse line))

let member k = function
  | Obj fields -> List.assoc_opt k fields
  | _ -> None

let to_float = function
  | Num v -> Some v
  | Str "NaN" -> Some nan
  | Str "Infinity" -> Some infinity
  | Str "-Infinity" -> Some neg_infinity
  | _ -> None

let to_string = function Str s -> Some s | _ -> None
let mem_float k j = Option.bind (member k j) to_float
let mem_string k j = Option.bind (member k j) to_string

let mem_bool k j =
  match member k j with Some (Bool b) -> Some b | _ -> None

let mem_list k j = match member k j with Some (Arr l) -> l | _ -> []

(* ---- printer ---- *)

let add_string b s =
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"'

(* [op] items separated by ',' [cl] *)
let add_items b op cl f l =
  Buffer.add_char b op;
  List.iteri
    (fun i x ->
      if i > 0 then Buffer.add_char b ',';
      f x)
    l;
  Buffer.add_char b cl

(* The C conversion [Printf]'s [%.17g] ends in, called directly: the
   same bytes without interpreting the format on every number. *)
external format_float : string -> float -> string = "caml_format_float"

let print v =
  let b = Buffer.create 256 in
  let rec value = function
    | Null -> Buffer.add_string b "null"
    | Bool x -> Buffer.add_string b (string_of_bool x)
    | Num v when Float.is_finite v ->
        Buffer.add_string b (format_float "%.17g" v)
    | Num v ->
        add_string b
          (if Float.is_nan v then "NaN"
           else if v > 0.0 then "Infinity"
           else "-Infinity")
    | Str s -> add_string b s
    | Arr l -> add_items b '[' ']' value l
    | Obj fields ->
        add_items b '{' '}'
          (fun (k, v) ->
            add_string b k;
            Buffer.add_char b ':';
            value v)
          fields
  in
  value v;
  Buffer.contents b
