(** Lexer and recursive-descent parser for the VHDL-AMS subset.

    VHDL is case-insensitive: identifiers and keywords are lowercased
    during lexing. [--] comments are skipped; [library]/[use] clauses
    are accepted and ignored. *)

exception Parse_error of string * int * int
(** message, 1-based source line, 1-based column *)

val parse : ?file:string -> string -> Vast.design
(** @raise Parse_error on malformed input. [file] (default
    ["<input>"]) names the source in AST spans. *)

val parse_expr_string : string -> Vast.expr
(** Parse a single expression (for tests). *)
