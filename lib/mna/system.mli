(** Modified nodal analysis (MNA) assembly of a circuit.

    Unknown vector layout: node voltages for every non-ground node
    first, then one branch current per device that needs it (voltage
    sources, inductors, controlled voltage sources). Companion models
    use backward Euler with step [h]: a capacitor becomes a conductance
    [C/h] with a history current, an inductor a resistive branch with a
    history voltage. *)

type t

val build : Amsvp_netlist.Circuit.t -> t
(** @raise Invalid_argument if the circuit fails validation. *)

val size : t -> int
(** Dimension of the MNA system. *)

val stamp_matrix : ?state:float array -> t -> h:float -> Matrix.t
(** The MNA matrix for timestep [h]; constant for a linear network.
    Piecewise-linear devices stamp the conductance of the region
    selected by [state] (the current solution estimate, defaulting to
    the zero vector) — re-stamping per solver pass is how the
    SPICE-like engine linearises them. *)

val has_pwl : t -> bool

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
    {!Sparse.lu_factor}. *)

val stamp_rhs :
  t ->
  h:float ->
  state:float array ->
  input:(string -> float) ->
  rhs:float array ->
  unit
(** Fill [rhs] for one step: [state] is the previous solution vector
    (history terms), [input] maps external signal names to their value
    at the new time point. *)

val output_value : t -> Expr.var -> float array -> float
(** Read an output quantity from a solution vector: a [Potential(a,b)]
    is [e_a - e_b]; a [Flow(dev)] is supported for devices carrying a
    current unknown and for resistors.
    @raise Invalid_argument for unsupported or unknown quantities. *)
