(** Lexer for the Verilog-AMS subset.

    Handles identifiers, keywords, real/integer literals with
    Verilog-AMS scale factors ([T G M K k m u n p f a]), punctuation
    including the contribution operator [<+], line and block comments,
    and compiler directives (backtick lines such as
    [`include "disciplines.vams"]), which are skipped. *)

type token =
  | Ident of string
  | Number of float
  | Punct of string
      (** one of: ( ) , ; = . # ? : + - * / < <= > >= <+ && || ! % *)
  | Eof

type positioned = { token : token; line : int; col : int }

exception Lex_error of string * int * int
(** message, line, column *)

val tokenize : string -> positioned list
(** @raise Lex_error on an unexpected character or malformed number. *)

