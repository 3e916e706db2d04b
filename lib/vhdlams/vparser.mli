(** Lexer and recursive-descent parser for the VHDL-AMS subset.

    The paper works in Verilog-AMS syntax but notes that "despite of
    the syntactic differences, both languages represent the same
    systems and constructs ... all considerations are applicable to
    VHDL-AMS" (§II-A). This front-end accepts the VHDL-AMS rendering
    of the same subset — entities/architectures, terminal ports,
    across/through quantity pairs, simultaneous statements ([==]) with
    the ['dot] derivative attribute, conditional [if ... use]
    statements and component instantiation with generic/port maps —
    and lowers it straight onto the Verilog-AMS {!Amsvp_vams.Ast}, so
    elaboration, lint and every later step are shared:

    - an entity plus its (first) architecture is one module; generics
      are parameters, architecture constants local parameters,
      terminals electrical nets, and [ground]/[gnd] a ground
      declaration unless they are ports;
    - a quantity is a named branch, called after its through quantity
      ([br_<across>] for an across-only one); the across name reads
      [V(branch)], the through name [I(branch)] and [q'dot] is
      [ddt(...)];
    - each concurrent statement is its own analog block in body order:
      [q == rhs] is a contribution to q's branch and [if ... use] an
      [if].

    VHDL is case-insensitive: identifiers and keywords are lowercased
    during lexing. [--] comments are skipped; [library]/[use] clauses
    are accepted and ignored. Every node carries its [file:line:col]. *)

exception Parse_error of string * int * int
(** message, 1-based source line, 1-based column. The same exception as
    {!Amsvp_vams.Parser.Parse_error}, so callers handle both front-ends
    alike. *)

val parse : ?file:string -> string -> Amsvp_vams.Ast.design
(** @raise Parse_error on malformed input, a simultaneous statement or
    ['dot] on a name that is not a quantity, or an entity without an
    architecture. [file] (default ["<input>"]) names the source in AST
    spans. *)

val quantity_of_branch : string -> string
(** The quantity a branch of this front-end is named after: the across
    quantity of a [br_<across>] branch, the through quantity
    otherwise. *)

val parse_expr_string : string -> Amsvp_vams.Ast.expr
(** Parse a single expression, with no quantity in scope (for tests). *)
