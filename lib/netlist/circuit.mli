(** An electrical network: a set of named devices over named nodes.

    This is the conservative representation of the paper (§III-B): a
    graph of nodes connected by branches, each branch carrying a dipole
    equation. The circuit is the input of both the MNA simulation
    back-ends and the abstraction methodology. *)

type t

val create : ?ground:string -> unit -> t
(** [create ()] is an empty circuit whose reference node is ["gnd"]. *)

val ground : t -> string

val add : t -> Component.t -> unit
(** @raise Invalid_argument if a device with the same name exists. *)

val add_resistor : t -> name:string -> pos:string -> neg:string -> float -> unit
val add_capacitor : t -> name:string -> pos:string -> neg:string -> float -> unit
val add_inductor : t -> name:string -> pos:string -> neg:string -> float -> unit

val add_vsource :
  t -> name:string -> pos:string -> neg:string -> Component.source -> unit

val add_isource :
  t -> name:string -> pos:string -> neg:string -> Component.source -> unit

val add_pwl_conductance :
  t ->
  name:string ->
  pos:string ->
  neg:string ->
  g_on:float ->
  g_off:float ->
  threshold:float ->
  unit

val has_pwl : t -> bool
(** True when the network contains a piecewise-linear device (it is
    then outside the scope of the linear fixed-matrix ELN engine). *)

val add_vcvs :
  t ->
  name:string ->
  pos:string ->
  neg:string ->
  gain:float ->
  ctrl_pos:string ->
  ctrl_neg:string ->
  unit

val devices : t -> Component.t list
(** In insertion order. *)

val find : t -> string -> Component.t option
val nodes : t -> string list
(** All node names, ground included, sorted. *)

val device_count : t -> int

val input_signals : t -> string list
(** External input signal names, in first-appearance order, without
    duplicates. *)

val dipole_equations : t -> Eqn.t list
(** One constitutive equation per device, in insertion order — the
    "arbitrary set of constitutive dipole equations" that parameterises
    the abstraction algorithm (§IV). *)

(** {1 Parameter overrides}

    A sweep point is a set of [device.parameter -> value] bindings over
    a fixed structure; these hooks expose the circuit's parameter space
    and apply such bindings without mutating the original circuit. *)

val params : t -> (string * float) list
(** All numeric parameters as [("device.param", value)] pairs, devices
    in insertion order (see {!Component.params} for the names). *)

val override : t -> (string * float) list -> t
(** [override c bindings] is a fresh circuit in which each
    ["device.param"] key is rebound to its value; device order, names
    and topology are preserved, so {!structure_key} is unchanged.
    @raise Invalid_argument on an unknown device, an unknown parameter
    name, or a malformed key (no dot). *)

val structure_key : t -> string
(** A value-free fingerprint of the circuit: ground, device order,
    kinds and connectivity, with every numeric parameter elided. Two
    circuits with equal keys differ at most in parameter values —
    the cache key of the sweep engine's abstraction cache. *)

val diagnose : t -> Amsvp_diag.Diag.finding list
(** Topology lint passes over the elaborated network. Findings carry no
    source spans (the lint driver attaches them via the contribution
    that created each device); [subject] names the offending node or
    device. Codes:
    - [AMS024] — the circuit has no devices;
    - [AMS020] — a node with no path to ground (one finding per node,
      [subject] = node name);
    - [AMS021] — an island of devices none of whose terminals reach
      ground ([subject] = first such device);
    - [AMS022] — a cycle of voltage-defined branches
      (Vsource/VCVS; [subject] = the device closing the loop);
    - [AMS023] — a current-defined branch (Isource/VCCS) with no
      conductive return path, i.e. a current-source cutset. *)

val grounded : t -> t
(** The part of the network connected to ground: every device of an
    island none of whose terminals reaches ground (AMS020/AMS021) is
    dropped. The circuit itself when nothing is. *)

val validate : t -> (unit, string) result
(** Structural checks: at least one device, every node connected to the
    ground component of the graph, no duplicate device names. Now a
    thin wrapper over {!diagnose} that joins error findings into one
    message. *)

val pp : Format.formatter -> t -> unit
