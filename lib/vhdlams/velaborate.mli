(** Elaboration of the VHDL-AMS subset: {!Vparser} already lowers it
    onto the Verilog-AMS {!Amsvp_vams.Ast}, so this is
    {!Amsvp_vams.Elaborate.flatten} plus the one thing VHDL-AMS lacks.
    Terminals carry no direction, so the externally driven ports of the
    top entity are given explicitly ([~inputs]) and marked
    input-direction before flattening; every other port of the top
    entity is marked output-direction. *)

exception Elab_error of string * Amsvp_diag.Diag.span option
(** The same exception as {!Amsvp_vams.Elaborate.Elab_error}. *)

val flatten :
  Amsvp_vams.Ast.design ->
  top:string ->
  inputs:string list ->
  Amsvp_vams.Elaborate.flat
(** @raise Elab_error when an input is not a port of the top entity, and
    as {!Amsvp_vams.Elaborate.flatten} does. *)

val parse_and_abstract :
  string ->
  top:string ->
  inputs:string list ->
  outputs:Expr.var list ->
  dt:float ->
  Amsvp_core.Flow.report
(** Parse VHDL-AMS source, elaborate the top entity and
    {!Amsvp_vams.Elaborate.abstract} it, exactly as the Verilog-AMS
    front door does. *)
