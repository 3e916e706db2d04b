(** Recursive-descent parser for the Verilog-AMS subset.

    Positional instance connections are recorded with an empty port
    name and resolved against the instantiated module's port order
    during elaboration. Every AST node is stamped with the
    [file:line:col] span of its first token; [file] defaults to
    ["<input>"] for in-memory sources. *)

exception Parse_error of string * int * int
(** message, line, column *)

val parse : ?file:string -> string -> Ast.design
(** Parse source text.
    @raise Parse_error or {!Lexer.Lex_error} on malformed input. *)

val parse_expr_string : string -> Ast.expr
(** Parse a single expression (used by tests). *)
