(** Modified nodal analysis (MNA) assembly of a circuit.

    Unknown vector layout: node voltages for every non-ground node
    first, then one branch current per device that needs it (voltage
    sources, inductors, controlled voltage sources). Companion models
    use backward Euler with step [h]: a capacitor becomes a conductance
    [C/h] with a history current, an inductor a resistive branch with a
    history voltage.

    Resolved device layout: {!build} looks every name up once and
    stores each device with the integer indices its stamps use — its
    terminal nodes, its current unknown, its control nodes and the
    input slot of an [Input] source. The per-step functions
    ({!stamp_into} through {!stamp_matrix}/{!stamp_triplets},
    {!stamp_rhs}, {!pwl_regions_into}) and {!read} only index arrays;
    callers resolve their names once, with {!inputs} and {!locate}. *)

type t

type device = {
  component : Amsvp_netlist.Component.t;
  pos : int;  (** node index of the positive terminal, -1 for ground *)
  neg : int;  (** node index of the negative terminal, -1 for ground *)
  branch : int;  (** current unknown, -1 for devices without one *)
  ctrl_pos : int;
      (** control node of a VCVS/VCCS (-1 for ground and for every
          other device kind) *)
  ctrl_neg : int;
  slot : int;  (** input slot of an [Input] source, -1 otherwise *)
}

val build : Amsvp_netlist.Circuit.t -> t
(** @raise Invalid_argument if the circuit fails validation. *)

val size : t -> int
(** Dimension of the MNA system. *)

val devices : t -> device array
(** Every device with its resolved indices, in stamp order. *)

val inputs : t -> string array
(** The external input signal of each slot, in order of first use
    ({!Amsvp_netlist.Circuit.input_signals}). *)

val stamp_matrix : ?state:float array -> t -> h:float -> Matrix.t
(** The MNA matrix for timestep [h]; constant for a linear network.
    Piecewise-linear devices stamp the conductance of the region
    selected by [state] (the current solution estimate, defaulting to
    the zero vector) — re-stamping per solver pass is how the
    SPICE-like engine linearises them. *)

val pwl_count : t -> int
(** Number of piecewise-linear devices in stamp order. *)

val pwl_regions_into : t -> float array -> regions:bool array -> unit
(** Write each piecewise-linear device's region selection under the
    given solution estimate ([true] when on) into [regions], in stamp
    order. The matrix stamp is fully determined by [(h, regions)], which
    is what lets the fast engine reuse an LU across Newton passes. *)

val stamp_triplets :
  ?state:float array -> t -> h:float -> (int * int * float) list
(** The same stamps as {!stamp_matrix}, as sparse triplets for
    {!Sparse.analyze} and {!Sparse.refactor}. *)

val stamp_rhs :
  t ->
  h:float ->
  state:float array ->
  inputs:float array ->
  rhs:float array ->
  unit
(** Fill [rhs] for one step: [state] is the previous solution vector
    (history terms), [inputs] holds the value of each input slot (see
    {!inputs}) at the new time point. Walks a plan of the contributing
    devices built by {!build}, in device order; the companion
    coefficients [c/h] and [-(l/h)] are kept for the last [h] and
    recomputed when it changes. *)

(** Where an output quantity sits in a solution vector. *)
type locator =
  | Potential of int * int  (** [e_a - e_b]; -1 is ground *)
  | Branch of int  (** a current unknown *)
  | Resistor_flow of int * int * float
      (** [(e_a - e_b) / r] through a resistor *)

val locate : t -> Expr.var -> locator
(** Resolve an output quantity: a [Potential(a,b)] is [e_a - e_b] (a
    node outside the circuit reads as ground); a [Flow(dev)] is
    supported for devices carrying a current unknown and for
    resistors.
    @raise Invalid_argument for delayed, unsupported or unknown
    quantities. *)

val probe_refusal : t -> circuit:string -> Expr.var -> string option
(** Whether a probe of a user-named quantity can be recorded, checked
    before a run: [None] when {!locate} resolves it to a quantity the
    circuit has, else the text of the refusal, e.g. ["probe V(zz,gnd)
    names no quantity of the circuit rc"] (a node outside the circuit
    is refused here, where {!locate} reads it as ground), or, for the
    current of a device the solver keeps no current for, ["probe
    I(c1) names the capacitor c1 of the circuit rc, for which the
    solver keeps no current"]. [circuit] names the circuit in it. *)

val read : locator -> float array -> float
(** The located quantity's value in a solution vector. *)
