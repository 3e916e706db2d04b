(** The complete abstraction flow of Fig. 4: acquisition → enrichment →
    assemble → solve → signal-flow program, plus the direct conversion
    path for models that are already in signal-flow form (contribution 1
    of the paper). The stages run and fail here only: lint, sweeps and
    the CLI take their findings from {!run} and {!signal_flow}. *)

type report = {
  program : Amsvp_sf.Sfprogram.t;
  nodes : int;
  branches : int;
  classes : int;  (** equation classes after enrichment *)
  variants : int;  (** solved variants in the multimap *)
  definitions : int;  (** quantities in the cone of influence *)
  explain : Explain.t;
      (** the structured plan account ([amsvp explain]) *)
  acquisition_s : float;
  enrichment_s : float;
  assemble_s : float;
  solve_s : float;
}

val total_seconds : report -> float

val insert_probes :
  Amsvp_netlist.Circuit.t -> outputs:Expr.var list -> Amsvp_netlist.Circuit.t
(** The probe-insertion step {!run} starts with:
    every output potential and every controlled-source sensing pair
    that is not a branch potential of the circuit gets a zero-current
    probe (an ideal voltmeter), making it observable by the equation
    system. Returns the original circuit unchanged when nothing is
    missing.
    @raise Invalid_argument on an output over a node the circuit
    lacks ({!run} reports it as [AMS030]). *)

type spans = {
  of_subject : string -> Amsvp_diag.Diag.span option;  (** device or node *)
  of_var : Expr.var -> Amsvp_diag.Diag.span option;  (** quantity *)
}
(** Where a finding's subject sits in the source, built by the front-end
    from its flat model; a run forces it only for a finding that lacks
    a span. *)

type stages = {
  findings : Amsvp_diag.Diag.finding list;  (** in stage order *)
  enriched : (Acquisition.t * Eqmap.t) option;
  assembled : Assemble.result option;
  solved : report option;  (** the whole flow's account *)
}

val run :
  ?name:string ->
  ?mode:Solve.mode ->
  ?integration:Solve.integration ->
  ?spans:spans Lazy.t ->
  ?solve:bool ->
  ?continue_with:
    (Amsvp_netlist.Circuit.t -> Amsvp_netlist.Circuit.t * Expr.var list) ->
  Amsvp_netlist.Circuit.t ->
  outputs:Expr.var list ->
  dt:float ->
  stages
(** The one run of the flow: probe insertion, topology, acquisition,
    enrichment, solvability, assemble and solve ([solve:false] stops
    after assemble). A topology or solvability error stops it; a stage
    failure ends it as a finding — [Assemble.No_definition],
    [Solve.Underdetermined] and [Invalid_argument] as [AMS030],
    [Solve.Nonlinear] as [AMS042]. [continue_with] goes on past
    topology errors other than a source loop or cutset (AMS022/AMS023),
    on the circuit and outputs it returns for the unprobed one. An
    output over a node the circuit lacks ends the run at once with an
    [AMS030] finding. *)

val abstract_circuit :
  ?name:string ->
  ?mode:Solve.mode ->
  ?integration:Solve.integration ->
  ?spans:spans Lazy.t ->
  Amsvp_netlist.Circuit.t ->
  outputs:Expr.var list ->
  dt:float ->
  report
(** {!run} to the end on a conservative model.
    @raise Amsvp_diag.Diag.Rejected with the run's first error finding
    @raise Invalid_argument on no outputs or outputs over unknown
    nodes. *)

val abstract_testcase :
  ?mode:Solve.mode ->
  ?integration:Solve.integration ->
  Amsvp_netlist.Circuits.testcase ->
  dt:float ->
  report
(** Abstraction of a paper test case (single output of interest). *)

val convert_signal_flow :
  name:string ->
  inputs:string list ->
  outputs:Expr.var list ->
  contributions:(Expr.var * Expr.t) list ->
  dt:float ->
  Amsvp_sf.Sfprogram.t
(** Direct conversion of an explicit signal-flow description: each
    contribution [target <+ expr] is discretised ([ddt] → backward
    difference, [idt] → accumulator signal) and written out in the same
    order as in the source (§III-C).
    @raise Amsvp_sf.Sfprogram.Undefined on a read of a quantity nothing
    defines or an output nothing assigns
    @raise Invalid_argument on any other invalid program (e.g. a
    zero-delay read before the assignment)
    @raise Solve.Nonlinear, Solve.Underdetermined on a self-reference
    the scalar solve cannot resolve. *)

val signal_flow :
  spans:spans Lazy.t ->
  name:string ->
  inputs:string list ->
  outputs:Expr.var list ->
  contributions:(Expr.var * Expr.t) list ->
  dt:float ->
  (Amsvp_sf.Sfprogram.t, Amsvp_diag.Diag.finding list) result
(** {!convert_signal_flow} with its failures as findings ([Error] is
    never empty): [AMS030] for each quantity read but neither an input
    nor a target (at the reading contribution) and for
    [Sfprogram.Undefined] and [Solve.Underdetermined], [AMS040] for a
    zero-delay ordering violation, [AMS042] for [Solve.Nonlinear]. *)

val pp_report : Format.formatter -> report -> unit
