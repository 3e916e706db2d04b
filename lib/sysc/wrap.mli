(** Execution of analog models under each model of computation.

    One entry point per row family of the paper's Tables I–II:

    - {!run_cpp}: the generated model in a plain tight loop ("C++").
    - {!run_de}: the generated model as a discrete-event module —
      an SC_METHOD-like process self-clocked every [dt], computing its
      stimulus from the simulated time (the generator shares the MoC of
      the component under test, §V-A), stepping the model and driving
      an output signal through the kernel's request/update machinery.
    - {!run_tdf}: the generated model inside a TDF cluster — source,
      model and sink modules run by the static schedule, with
      per-sample time annotation, the cluster being re-activated
      through the DE kernel every timestep ("SC-AMS/TDF").
    - {!run_eln}: the conservative network solved by the fixed-step
      linear engine embedded in the kernel ("SC-AMS/ELN").

    Every runner returns the recorded output trace plus kernel
    statistics, so benches can report both wall-clock time and the
    mechanical work (activations, delta cycles) that explains it. *)

type result = {
  trace : Amsvp_util.Trace.t;
  de_stats : De.stats option;  (** [None] for the plain loop *)
}

val run_cpp :
  ?engine:Amsvp_sf.Sfprogram.Runner.engine ->
  ?reads:Expr.var list ->
  ?observe:(float -> (Expr.var -> float) -> unit) ->
  Amsvp_sf.Sfprogram.t ->
  stimuli:(string * Amsvp_util.Stimulus.t) list ->
  t_stop:float ->
  result
(** [engine] (on every model runner) selects the signal-flow execution
    engine — the default register bytecode or the reference [`Tree]
    interpreter; both produce bit-identical traces.

    [reads] (on every model runner) declares the quantities [observe]
    will read beyond the outputs; the model evaluates only what the
    outputs and [reads] depend on ({!Amsvp_sf.Sfprogram.Runner.create}).

    [observe] (on every runner) is called once per simulated step with
    the current time and a reader over the model's quantities — the
    attachment point for [Amsvp_probe] waveform taps. It costs one
    branch per step when absent. On a model runner the reader raises
    [Invalid_argument] on a quantity outside the outputs and [reads].
    @raise Invalid_argument if a program input has no stimulus. *)

val run_de :
  ?engine:Amsvp_sf.Sfprogram.Runner.engine ->
  ?reads:Expr.var list ->
  ?observe:(float -> (Expr.var -> float) -> unit) ->
  Amsvp_sf.Sfprogram.t ->
  stimuli:(string * Amsvp_util.Stimulus.t) list ->
  t_stop:float ->
  result

val run_tdf :
  ?engine:Amsvp_sf.Sfprogram.Runner.engine ->
  ?reads:Expr.var list ->
  ?observe:(float -> (Expr.var -> float) -> unit) ->
  Amsvp_sf.Sfprogram.t ->
  stimuli:(string * Amsvp_util.Stimulus.t) list ->
  t_stop:float ->
  result

val run_eln :
  ?observe:(float -> (Expr.var -> float) -> unit) ->
  Amsvp_netlist.Circuit.t ->
  inputs:(string * Amsvp_util.Stimulus.t) list ->
  output:Expr.var ->
  dt:float ->
  t_stop:float ->
  result

val stimuli_for :
  Amsvp_sf.Sfprogram.t ->
  (string * Amsvp_util.Stimulus.t) list ->
  Amsvp_util.Stimulus.t array
(** Order the stimuli as the program's input list.
    @raise Invalid_argument on a missing binding. *)
