(** Execution of analog models under each model of computation.

    One entry point per row family of the paper's Tables I–II:

    - {!run_cpp}: the generated model in a plain tight loop ("C++").
    - {!run_de}: the generated model as a discrete-event module —
      an SC_METHOD-like process self-clocked every [dt], computing its
      stimulus from the simulated time (the generator shares the MoC of
      the component under test, §V-A), stepping the model and driving
      an output signal through the kernel's request/update machinery.
    - {!run_tdf}: the generated model inside a TDF cluster — source,
      model and sink modules run by the static schedule, the cluster
      being re-activated through the DE kernel every timestep
      ("SC-AMS/TDF").
    - {!run_eln}: the conservative network solved by the fixed-step
      linear engine embedded in the kernel ("SC-AMS/ELN").

    Every runner returns the recorded output trace plus kernel
    statistics, so benches can report both wall-clock time and the
    mechanical work (activations, delta cycles) that explains it.

    The kernel-attached pieces these runners are built from
    ({!clocked}, {!tdf_chain} and the step closures {!model_step},
    {!eln_step}) are shared with the Table III virtual platform
    ([Amsvp_vp.Platform]), which binds the same model to its own
    kernel next to the digital side: each binding mechanism exists
    once. *)

type result = {
  trace : Amsvp_util.Trace.t;
  de_stats : De.stats option;  (** [None] for the plain loop *)
}

val run_cpp :
  ?engine:[ `Bytecode ] ->
  ?reads:Expr.var list ->
  ?observe:(float -> (Expr.var -> float) -> unit) ->
  Amsvp_sf.Sfprogram.t ->
  stimuli:(string * Amsvp_util.Stimulus.t) list ->
  t_stop:float ->
  result
(** Every model runner steps the program's register bytecode
    ({!Amsvp_sf.Sfprogram.Runner}). [engine] names that one engine,
    only so that callers passing [~engine:`Bytecode] still build.

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
  ?reads:Expr.var list ->
  ?observe:(float -> (Expr.var -> float) -> unit) ->
  Amsvp_sf.Sfprogram.t ->
  stimuli:(string * Amsvp_util.Stimulus.t) list ->
  t_stop:float ->
  result

val run_tdf :
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

(** {1 Kernel-attached bindings}

    The pieces each runner above attaches to its kernel, for callers
    that own a kernel with other processes on it. *)

val clocked :
  De.t -> name:string -> dt:float -> until_ps:int -> (float -> unit) -> unit
(** [clocked kernel ~name ~dt ~until_ps body] registers the
    self-clocked analog process [name] (an SC_METHOD sensitive to its
    own [name ^ ".tick"] event): its [k]-th activation, at [k * dt],
    runs [body (float k *. dt)] — the exact step multiple, not the
    kernel clock, so stimulus edges land on the same instants as in
    the fixed-step engines — and re-notifies itself while
    [now + dt <= until_ps]. The first activation is scheduled at [dt];
    the caller runs the kernel. *)

val tdf_chain :
  De.t ->
  dt:float ->
  until_ps:int ->
  Amsvp_sf.Sfprogram.Runner.t ->
  Amsvp_util.Stimulus.t array ->
  (float -> float -> unit) ->
  unit
(** [tdf_chain kernel ~dt ~until_ps runner stims sink] builds and
    starts the TDF cluster ["analog"] with timestep [dt]: a source
    module sampling [stims] at exact step multiples into one port per
    program input, a model module stepping [runner] on them, and a
    sink module calling [sink time output] with the kernel time of the
    activation. The output port is also exported to the DE signal
    ["y2de"]. The caller runs the kernel. *)

val sampler : Amsvp_util.Stimulus.t array -> float -> float array
(** [sampler stims t] samples every stimulus at [t] into one buffer
    owned by the sampler (overwritten by the next call). *)

val model_step :
  Amsvp_sf.Sfprogram.Runner.t -> Amsvp_util.Stimulus.t array -> float -> float
(** [model_step runner stims t] samples [stims] at [t], steps the
    signal-flow [runner] and returns its output 0. *)

val eln_step :
  Amsvp_mna.Engine.Eln_stepper.t ->
  Amsvp_util.Stimulus.t array ->
  float ->
  float
(** [eln_step stepper stims t]: the same for the linear network
    stepper; [stims] are in the stepper's input order. *)
