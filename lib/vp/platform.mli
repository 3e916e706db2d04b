(** The complete smart-system virtual platform of Table III.

    Digital side: the MIPS ISS running a polling/IO program out of RAM,
    a UART and an ADC bridge on the APB bus. Analog side: one of the
    paper's six integration bindings. The digital and analog sides
    advance together to [t_stop]; the run reports simulation statistics
    and the UART output so correctness is observable end-to-end.

    Bindings (one per Table III row):
    - [Cosim { rtl_grain = true; _ }] — Verilog-AMS co-simulation with
      the VP in Verilog: the digital side is clock-signal driven at RTL
      grain, the analog side is the SPICE-like stepper in a separate
      solver, synchronised in lock-step with value marshalling at every
      analog timestep (the Questa-ADMS cost structure).
    - [Cosim { rtl_grain = false; _ }] — same co-simulation with the
      VP in SystemC (lighter digital processes).
    - [Eln] — the linear network solved in-kernel (SystemC-AMS/ELN).
    - [Tdf] — the abstracted model in a TDF cluster (SystemC-AMS/TDF).
    - [De_model] — the abstracted model as a DE process (SystemC-DE).
    - [Cpp] — the whole platform as a plain loop, no kernel ("C++").

    The analog side of every kernel row runs the binding of
    [Amsvp_sysc.Wrap] for the same model of computation as Tables I–II
    ([Wrap.clocked] for the ELN, DE and co-simulation processes,
    [Wrap.tdf_chain] for TDF, [Wrap.model_step]/[Wrap.eln_step] for the
    model step), attached to the platform's kernel with the ADC bridge
    as sink; the co-simulation step adds the lock-step value exchange.
    The C++ row steps the model with [Wrap.model_step] in its loop. *)

type analog_binding =
  | Cosim of {
      rtl_grain : bool;
      substeps : int;
      iterations : int;
      fidelity : [ `Paper | `Fast ];
          (** solver cost model of the analog stepper: [`Paper] is the
              faithful re-stamp/re-factor SPICE structure, [`Fast]
              reuses sparse factors with Newton early-exit (see
              {!Amsvp_mna.Engine.spice_like}) *)
    }
  | Eln
  | Tdf
  | De_model
  | Cpp

val binding_label : analog_binding -> string
(** Row labels as in Table III. *)

type result = {
  uart_output : string;
  instructions : int;
  interrupts : int;  (** external interrupts taken by the CPU *)
  bus_transfers : int;
  analog_samples : int;
  cosim_syncs : int;  (** lock-step exchanges (0 for integrated rows) *)
  trace : Amsvp_util.Trace.t;  (** analog output as sampled by the ADC *)
  de_stats : Amsvp_sysc.De.stats option;
}

val run :
  ?cpu_hz:float ->
  ?asm_src:string ->
  testcase:Amsvp_netlist.Circuits.testcase ->
  program:Amsvp_sf.Sfprogram.t option ->
  binding:analog_binding ->
  dt:float ->
  t_stop:float ->
  unit ->
  result
(** [program] is required for the [Tdf], [De_model] and [Cpp] bindings
    (the abstracted model); [Cosim]/[Eln] simulate the conservative
    circuit directly. The abstracted model runs on the register
    bytecode.
    @raise Invalid_argument on a missing program, a program input with
    no stimulus in [testcase], or bad parameters. *)
