(** DC operating-point analysis.

    Solves the network with every capacitor open and every inductor
    shorted (a 0 V branch), with sources at their DC values —
    the classic [.op] analysis, also used as the consistent initial
    condition for transients and as the linearisation point for
    piecewise-linear devices (regions are iterated to a fixed point,
    like a SPICE source-free Newton loop). *)

type solution

exception No_fixed_point of int
(** The piecewise-linear region iteration did not settle within the
    given number of passes: every region selection the search visited
    moves the solution out of itself, so the network has no DC
    operating point under the region model. *)

val operating_point :
  ?inputs:(string * float) list -> Amsvp_netlist.Circuit.t -> solution
(** [inputs] gives the DC level of each external input signal
    (default 0).
    @raise Invalid_argument on invalid circuits or missing inputs
    @raise Matrix.Singular on ill-posed networks
    @raise No_fixed_point if the piecewise-linear region iteration does
    not settle. *)

val voltage : solution -> string -> float
(** Node voltage (0 for the ground node).
    @raise Invalid_argument for unknown nodes. *)

val current : solution -> string -> float
(** Branch current of a device carrying a current unknown (sources,
    inductors, controlled voltage sources) or of a resistor.
    @raise Invalid_argument otherwise. *)

val pp : Format.formatter -> solution -> unit
(** Table of node voltages and source/inductor currents. *)
