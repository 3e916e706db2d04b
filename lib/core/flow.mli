(** The complete abstraction flow of Fig. 4: acquisition → enrichment →
    assemble → solve → signal-flow program, plus the direct conversion
    path for models that are already in signal-flow form (contribution 1
    of the paper). *)

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
(** The probe-insertion step {!abstract_circuit} performs internally:
    every output potential and every controlled-source sensing pair
    that is not a branch potential of the circuit gets a zero-current
    probe (an ideal voltmeter), making it observable by the equation
    system. Returns the original circuit unchanged when nothing is
    missing. *)

val abstract_circuit :
  ?name:string ->
  ?mode:Solve.mode ->
  ?integration:Solve.integration ->
  Amsvp_netlist.Circuit.t ->
  outputs:Expr.var list ->
  dt:float ->
  report
(** Run the whole flow on a conservative model. If an output potential
    [V(a,b)] is not the branch potential of any device, a zero-current
    probe (an ideal voltmeter) is inserted between [a] and [b] first.
    @raise Invalid_argument on invalid circuits or outputs over unknown
    nodes
    @raise Assemble.No_definition, Solve.Nonlinear,
    Solve.Underdetermined as the respective steps do. *)

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

val pp_report : Format.formatter -> report -> unit
