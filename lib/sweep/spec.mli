(** Declarative scenario specifications for parameter sweeps.

    A spec names a circuit (or is paired with one programmatically) and
    describes a set of scenario points over its component parameters
    (see {!Amsvp_netlist.Circuit.params} for the ["device.param"] key
    space):

    - {e grid} / {e values} axes combine by cartesian product;
    - {e uniform} / {e normal} axes are Monte Carlo tolerances, drawn
      [samples] times per grid point from a seeded deterministic RNG;
    - {e corners} are named explicit bindings, appended as one point
      each.

    Specs have a line-oriented text form ([key value...] lines, [#]
    comments) that round-trips through {!to_string} / {!of_string}. *)

type range =
  | Grid of { lo : float; hi : float; n : int }
      (** [n] linearly spaced values, endpoints included. *)
  | Values of float list  (** explicit list *)
  | Uniform of { lo : float; hi : float }  (** Monte Carlo, uniform *)
  | Normal of { mean : float; sigma : float }  (** Monte Carlo, Gaussian *)

type axis = { param : string; range : range }

type corner = { corner_name : string; binds : (string * float) list }

type stimulus =
  | Square of { period : float; low : float; high : float }
  | Sine of { freq : float; amplitude : float }

type t = {
  name : string;
  circuit : string option;  (** built-in test-case label, e.g. ["RECT"] *)
  output : string option;  (** e.g. ["V(out,gnd)"]; test-case default *)
  stimulus : stimulus option;  (** applied to every input when given *)
  t_stop : float option;
  dt : float option;
  mode : [ `Auto | `Exact | `Relaxed ];
  integration : [ `Backward_euler | `Trapezoidal ];
  samples : int;  (** Monte Carlo draws per grid point *)
  seed : int;
  jobs : int option;
      (** worker processes for [amsvp sweep] (1 runs in-process); the
          CLI may override it, and the serve daemon ignores it *)
  reference : bool;  (** run the MNA reference and report NRMSE *)
  fidelity : Amsvp_core.Solve.fidelity option;
      (** reference-engine cost model ([fidelity paper|fast]): [`Fast]
          runs the reference with reused sparse factors and Newton
          early-exit — bounded-error, much faster on big sweeps.
          [None] (the default) means [`Paper] and is omitted from the
          text form, keeping existing spec texts, daemon context keys
          and checkpoint digests unchanged *)
  nrmse_budget : float option;
      (** accuracy watchdog: a point whose streaming NRMSE against the
          reference exceeds this budget is flagged unhealthy in the
          report (needs [reference]) *)
  amplitude_limit : float option;
      (** amplitude watchdog: a point whose output exceeds this |value|
          is flagged unhealthy; it is also the budget the pre-flight
          static pruner proves against ([--prune-static]) *)
  point_timeout : float option;
      (** per-point wall-clock budget in seconds: a point still running
          past it is aborted and flagged with a [Timeout] verdict
          instead of stalling its worker (CLI pool and serve shards) *)
  axes : axis list;
  corners : corner list;
}

val default : t
(** Empty spec: name ["sweep"], 1 sample, seed 0, [`Auto] mode,
    backward Euler, reference on, no axes or corners. *)

val diagnose : t -> Amsvp_diag.Diag.finding list
(** Structural checks, one finding per defect. Codes:
    - [AMS050] (error) — no axes and no corners;
    - [AMS051] (error) — malformed axis, corner or count (grid with
      [n < 1] or [lo > hi], empty values, negative sigma, cornerless
      bindings, non-positive samples / budget); [subject] names the
      axis parameter or corner where applicable;
    - [AMS052] (error) — duplicate axis parameter. *)

val validate : t -> (unit, string) result
(** [Error] with the first {!diagnose} finding's message, [Ok] when
    none. *)

val is_random : t -> bool
(** True when some axis is Monte Carlo ([Uniform]/[Normal]). *)

val point_count : t -> int
(** Number of scenario points the spec expands to (grid product x
    samples-if-random + corners). *)

val of_string : string -> (t, string) result
(** Parse the text form; the error message carries the line number. *)

val to_string : t -> string
(** Canonical text form; floats are printed with enough digits to
    round-trip, so [of_string (to_string s) = Ok s] for valid specs. *)

