(** Small-signal AC analysis of a linear network.

    Solves the complex MNA system [(G + jωC) x = b] at each requested
    frequency, with a unit AC excitation on one chosen input source.
    This is the frequency-domain reference the abstraction is checked
    against: the discrete-time model's measured gain must follow
    [|H(jω)|] of the network for frequencies well below 1/dt. *)

type point = {
  freq_hz : float;
  response : Complex.t;  (** H(jω) of the output quantity *)
}

val analyze :
  Amsvp_netlist.Circuit.t ->
  input:string ->
  output:Expr.var ->
  freqs:float list ->
  point list
(** [analyze ckt ~input ~output ~freqs] drives the voltage source
    carrying input signal [input] with a unit phasor (all other
    sources at zero) and returns the transfer function at each
    frequency. The network is laid out by {!System.build} and the
    output located by {!System.locate}: a node-pair potential, a branch
    flow carried by a current unknown, or a resistor current.
    @raise Invalid_argument on piecewise-linear networks (no small-
    signal model), unknown inputs, unsupported outputs or non-positive
    frequencies. *)

val magnitude_db : point -> float
val phase_deg : point -> float
