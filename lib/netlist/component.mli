(** Two-terminal devices (dipoles) of an electrical linear network.

    Each device connects a positive to a negative node; its flow
    [I(name)] is oriented from positive to negative through the device.
    A device contributes one constitutive (dipole) equation relating
    its branch potential and flow (paper §III-B). *)

(** Waveform driving an independent source. *)
type source =
  | Dc of float  (** constant value *)
  | Input of string
      (** an external input signal of the analog subsystem, named so
          the abstracted model exposes it as an input port *)

type kind =
  | Resistor of float  (** resistance in ohm *)
  | Capacitor of float  (** capacitance in farad *)
  | Inductor of float  (** inductance in henry *)
  | Vsource of source  (** independent voltage source *)
  | Isource of source  (** independent current source *)
  | Vcvs of { gain : float; ctrl_pos : string; ctrl_neg : string }
      (** voltage-controlled voltage source, e.g. an op-amp output
          stage *)
  | Vccs of { gm : float; ctrl_pos : string; ctrl_neg : string }
      (** voltage-controlled current source (transconductance) *)
  | Pwl_conductance of { g_on : float; g_off : float; threshold : float }
      (** piecewise-linear two-segment conductance (an ideal-diode-like
          element, §III-C): conducts [g_on] when its branch voltage is
          at least [threshold], [g_off] otherwise *)

type t = { name : string; pos : string; neg : string; kind : kind }

val make : name:string -> pos:string -> neg:string -> kind -> t
(** @raise Invalid_argument on a self-loop ([pos = neg]) or an empty
    name. *)

val kind_name : kind -> string
(** What the device is, in words: ["capacitor"], ["current source"],
    ... *)

val flow_var : t -> Expr.var
(** [I(name)], the branch flow. *)

val potential_var : t -> Expr.var
(** [V(pos,neg)], the branch potential. *)

val dipole_equation : t -> Eqn.t
(** The constitutive equation of the device, with parameter values
    substituted (e.g. [V(a,b) = R * I(d)] for a resistor,
    [I(d) = C * ddt(V(a,b))] for a capacitor). Sources driven by
    [Input u] refer to the signal variable [u]. *)

val input_signals : t -> string list

(** {1 Parameter access}

    Every numeric value a device carries is a named parameter, so sweep
    and optimisation layers can rebind values without knowing the
    device kinds: a resistor exposes ["r"], a capacitor ["c"], an
    inductor ["l"], DC sources ["dc"], controlled sources ["gain"] /
    ["gm"], and a PWL conductance ["g_on"], ["g_off"] and
    ["threshold"]. Sources driven by an external input expose no
    parameters. *)

val params : t -> (string * float) list
(** Named numeric parameters of the device, in a fixed order. *)

val with_param : t -> string -> float -> t
(** [with_param d p v] is [d] with parameter [p] rebound to [v]; the
    nodes and name are unchanged.
    @raise Invalid_argument if the device has no parameter [p]. *)

val structure_tag : t -> string
(** A value-free fingerprint of the device: name, kind, terminals and
    control nodes, with every numeric parameter elided. Two devices
    with equal tags differ at most in parameter values, so any
    abstraction plan keyed on the tag can be re-bound across them. *)

val pp : Format.formatter -> t -> unit
