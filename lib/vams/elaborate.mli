(** Elaboration: hierarchy flattening and model extraction.

    Flattening instantiates every module instance (substituting
    parameter overrides and binding ports to parent nets), executes the
    analog blocks symbolically — contributions accumulate per branch,
    [if]/ternary conditions wrap their contribution in a conditional —
    and yields one summed contribution per accessed branch, over global
    net names.

    A flat model is then consumed along the paper's two routes:
    {!to_circuit} recognises the constitutive equation of each branch
    (resistor, capacitor, inductor, sources, controlled sources) and
    builds the conservative network for the abstraction flow, while
    {!signal_flow_assignments} translates a purely signal-flow model
    directly (§III-A/C). *)

exception Elab_error of string * Amsvp_diag.Diag.span option
(** message and, when the error traces back to a source construct, its
    [file:line:col] span. *)

type branch_ref = {
  flow_id : string;  (** unique flow identifier (device name) *)
  pos : string;
  neg : string;  (** global net names *)
}

type contribution = {
  branch : branch_ref;
  is_flow : bool;  (** [I(...) <+ ...] vs [V(...) <+ ...] *)
  rhs : Expr.t;  (** summed, condition-wrapped, parameters substituted *)
  span : Amsvp_diag.Diag.span;
      (** the first contribution statement targeting this branch *)
}

type flat = {
  top : string;
  ground : string;
  nets : string list;  (** global nets, ground included *)
  input_ports : string list;  (** input-direction ports of the top module *)
  output_ports : string list;  (** output-direction ports of the top module *)
  top_span : Amsvp_diag.Diag.span;  (** where the top module is declared *)
  contributions : contribution list;  (** in source order *)
}

type lang = [ `Verilog_ams | `Vhdl_ams ]

val flatten : ?lang:lang -> Ast.design -> top:string -> flat
(** A parameter default may read the parameters declared before it; an
    instance override must name a non-local parameter of the module.
    [lang] (default [`Verilog_ams]) is the language the design was
    written in; it only words the errors (an unresolved identifier is
    advice about [V()]/[I()] access in Verilog-AMS, about quantities,
    generics and constants in VHDL-AMS).
    @raise Elab_error on unknown modules/ports/parameters, arity
    mismatches, unresolved identifiers or unsupported constructs. *)

val output_port : flat -> Expr.var
(** The default output of interest: the potential of the top's single
    output port against ground.
    @raise Elab_error, located at the top module and naming the
    candidate ports, when the top has no output port or several. *)

val classify : flat -> [ `Signal_flow | `Conservative ]
(** [`Signal_flow] when every contribution drives a potential to
    ground and no flow is accessed anywhere (Equation 1 models);
    [`Conservative] otherwise (Equation 2 models). *)

val to_circuit : flat -> Amsvp_netlist.Circuit.t
(** Recognise each branch contribution as a circuit device; every
    input-direction top port [p] is driven by an implicit voltage
    source carrying the external signal [p].
    @raise Elab_error on a contribution that matches no supported
    device pattern. *)

val signal_flow_assignments : flat -> (Expr.var * Expr.t) list
(** The ordered contribution list of a signal-flow model, with
    top-level input-port potentials rewritten to input signals, ready
    for {!Amsvp_core.Flow.signal_flow}.
    @raise Elab_error if the model is not signal-flow. *)

val spans : flat -> Amsvp_core.Flow.spans
(** Source anchors for the findings of either route over this model.
    Signal-flow: a quantity maps to the contribution that assigns it.
    Conservative: a device (the sanitised flow id) maps to the first
    contribution that created it, a node or a potential over it to the
    first contribution touching or sensing that node, a flow to its
    device. *)

val abstract :
  ?mode:Amsvp_core.Solve.mode ->
  ?integration:Amsvp_core.Solve.integration ->
  flat ->
  outputs:Expr.var list ->
  dt:float ->
  Amsvp_core.Flow.report
(** The abstraction of a flat model, whichever front-end produced it:
    {!Amsvp_core.Flow.abstract_circuit} over {!to_circuit}
    (conservative route, with [mode] and [integration]) or
    {!Amsvp_core.Flow.signal_flow} over {!signal_flow_assignments}
    (signal-flow route). The report is named after the top module.
    @raise Amsvp_diag.Diag.Rejected with the first error finding of
    the route, located through {!spans} — the same finding
    [amsvp lint] reports for the defect.
    @raise Elab_error as {!to_circuit} does. *)

val front_end :
  ?file:string -> (unit -> 'a) -> ('a, Amsvp_diag.Diag.finding) result
(** Run a front-end step (lexing, parsing, elaboration, either
    language) and turn its error into a located finding: a lexing error
    is [AMS001], a parse error [AMS002], an elaboration error [AMS003].
    [file] names the source in the lexer's and parser's positions. *)

val parse_and_abstract :
  string ->
  top:string ->
  outputs:Expr.var list ->
  dt:float ->
  Amsvp_core.Flow.report
(** One-call front door: parse Verilog-AMS source text, elaborate the
    top module and {!abstract} it. *)
