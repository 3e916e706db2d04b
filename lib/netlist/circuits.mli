(** The test circuits of the paper's evaluation (§V-A, Fig. 8).

    - [RCn]: an n-order RC filter built by cascading n RC stages,
      R = 5 kΩ, C = 25 nF;
    - [2IN]: the two-input summing amplifier of Fig. 8.a,
      R1 = 3 kΩ, R2 = 14 kΩ, R3 = 10 kΩ;
    - [OA]: the operational amplifier of Fig. 8.b, R1 = 400 Ω,
      R2 = 1.6 kΩ, C1 = 40 nF, Rin = 1 MΩ, Rout = 20 Ω.

    Each test case carries the circuit, the output of interest
    [V(out,gnd)] and the square-wave stimuli of §V-A (1 ms period). *)

type testcase = {
  label : string;
  circuit : Circuit.t;
  output : Expr.var;  (** the output signal of interest *)
  stimuli : (string * Amsvp_util.Stimulus.t) list;
      (** input signal name -> waveform *)
}

val rc_ladder : ?r:float -> ?c:float -> int -> testcase
(** [rc_ladder n] is the RCn circuit; [n >= 1].
    @raise Invalid_argument otherwise. *)

val two_input : unit -> testcase
(** The 2IN summing amplifier; inputs ["in1"] (1 ms square) and
    ["in2"] (2 ms square). *)

val opamp : unit -> testcase
(** The OA active filter stage. *)

val rlc_series : ?r:float -> ?l:float -> unit -> testcase
(** A series RLC resonator (not in the paper's table, used to exercise
    the inductor path of every back-end): R = 100 Ω, L = 10 mH by
    default and C = 1 µF (f0 ≈ 1.6 kHz, damping ratio 0.5), driven by a
    1 ms square wave, output [V(out,gnd)] across the capacitor. *)

val rectifier : ?r:float -> ?g_on:float -> unit -> testcase
(** The half-wave rectifier of the piecewise-linear extension (§III-C,
    and [examples/rectifier.ml]): a 1 kHz sine through a series
    resistor (1 kΩ) into a two-segment PWL diode clamp (on 10 mS, off
    1 µS), output
    [V(out,gnd)] across the diode. The tolerance-sweep workhorse of
    the sweep engine. *)

val by_name : string -> testcase option
(** Lookup by the paper's labels: ["2IN"], ["RC1"], ["RC20"], ["OA"],
    and more generally ["RC<n>"]; plus the extras ["RLC"] and
    ["RECT"]. *)

val all_paper_cases : unit -> testcase list
(** [2IN; RC1; RC20; OA], the rows of Tables I–III. *)

