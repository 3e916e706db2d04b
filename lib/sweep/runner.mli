(** Sweep execution: expand a spec, run every point, aggregate.

    Each point applies its parameter overrides to the (probe-carrying)
    circuit, obtains a signal-flow program — through the {!Abscache}
    replay when possible, the full {!Flow.abstract_circuit} otherwise —
    simulates it with the tight-loop runner, and optionally runs the
    Newton-based MNA reference to report the NRMSE, as in the paper's
    Tables I–III but over a population of parameter variations.

    With [jobs = 1] the points run inline, in this process; with
    [jobs > 1] they run on a {!Pool} of that many forked worker
    processes, the executor the serve daemon uses too. All inputs to a
    point (its overrides, the shared plan, the stimuli) are computed
    before the fork, a raising point gets the same [Crashed] verdict
    on either path ({!Pool.guard}), and results cross the pipe in a
    byte-exact codec, so the per-point value results are a pure
    function of the spec: identical for any [jobs] and any batching
    of points into pool tasks.

    The per-point machinery is also exposed piecewise — {!prepare} once,
    {!run_point} many — so a long-running service can keep the prepared
    sweep (probed circuit, recorded plan, compiled bytecode template)
    warm across requests and hand {!session} its own executor. *)

type point_result = Point_result.t = {
  point : Sampler.point;
  out_final : float;
  out_rms : float;
  nrmse : float option;
  health : Amsvp_probe.Health.verdict;
  cached : bool;
  wall_s : float;
}
(** See {!Point_result.t}. *)

type summary = {
  spec : Spec.t;
  label : string;  (** circuit label *)
  jobs : int;
  points : point_result array;  (** in expansion order *)
  nrmse_stats : Stats.t option;
  wall_stats : Stats.t option;
  rms_stats : Stats.t option;
  unhealthy : int;  (** points whose health verdict flagged an issue *)
  pruned : int;
      (** points skipped by the static pruner (a subset of [unhealthy]:
          each carries a single [Pruned] issue) *)
  cache_hits : int;
  cache_misses : int;
  total_s : float;  (** wall-clock seconds for the whole sweep *)
}

val default_dt : float
val default_t_stop : float

val resolve : Spec.t -> (Amsvp_netlist.Circuits.testcase, string) result
(** The built-in test case named by the spec ([circuit] directive,
    default ["RECT"]). *)

(** {1 Prepared sweeps} *)

type ctx
(** A validated, fully prepared sweep over one test case: the probed
    circuit, resolved stimuli, the recorded abstraction plan with its
    compiled bytecode template, and the materialised point list.
    Inherited for free by forked worker processes. The only mutable
    part is per process: the first {!run_point} a process runs samples
    the stimuli at the run's step times and allocates one trace that
    every later point of this ctx records into, so a process runs the
    points of one ctx one at a time. *)

val prepare :
  ?jobs:int ->
  ?spans:Amsvp_core.Flow.spans Lazy.t ->
  Spec.t ->
  Amsvp_netlist.Circuits.testcase ->
  ctx
(** Validate the spec, record the abstraction plan
    ({!Abscache.build}) and expand the scenario points.  [jobs]
    defaults to the spec's [jobs] directive, then to 1.  [spans]
    locates the findings of a model read from source.
    @raise Invalid_argument on an invalid spec or output
    @raise Amsvp_diag.Diag.Rejected with the first error finding of the
    flow on a defective circuit. *)

val ctx_points : ctx -> Sampler.point array
(** Points in expansion order; [point.index] is the slot in this
    array. *)

val screen : ?werror:bool -> ctx -> Amsvp_diag.Diag.finding list
(** Value-range screen of the prepared sweep's representative program
    ({!Amsvp_analysis.Lint.absint_findings} with the spec's
    [amplitude_limit] as the AMS063 budget), sorted and upgraded by
    [Diag.apply { werror; suppress = [] }].  The serve daemon rejects
    a submit whose screen contains errors. *)

val run_point : ?timeout_s:float -> ctx -> Sampler.point -> point_result
(** Execute one point.  [timeout_s] (defaulting to the spec's
    [point_timeout]) bounds the point's wall clock: the simulation
    loops are aborted cooperatively once it expires and the result
    carries a [Timeout] health issue with NaN values instead of
    stalling the caller. *)

(** {1 Sweep sessions} *)

val session :
  ?checkpoint:[ `Fresh of string | `Resume of string ] ->
  ?prune:bool ->
  ?on_open:(int -> unit) ->
  ?on_point:(line:string -> point_result -> unit) ->
  ?execute:
    (on_result:(line:string -> point_result -> unit) ->
    on_batch:(unit -> unit) ->
    Sampler.point array ->
    unit) ->
  ctx ->
  (summary, string) result
(** Run the prepared sweep once, the one path [amsvp sweep] and the
    serve daemon share. In order:
    + open [checkpoint]: [`Fresh path] creates it, [`Resume path]
      goes through {!Checkpoint.resume} (a foreign header is [Error],
      before anything else happens);
    + [on_open] gets the number of recovered points, then [on_point]
      each of them, in expansion order;
    + with [prune] (default false), the points the {!Prune} pre-flight
      proves unhealthy (against the spec's [amplitude_limit] and the
      structural non-finite hazard — a MUST analysis, so no healthy
      point is skipped) get a pruned result: NaN values, one [Pruned]
      health issue, zero wall clock;
    + [execute] gets the remaining points and calls [on_result] in this
      process once per point it finishes, with the result's
      {!Point_result.to_line} bytes as [line], and [on_batch] whenever
      it has delivered what arrived together. It defaults to the ctx's
      own executor: inline for [jobs = 1] (a batch per point), else a
      {!Pool} of [jobs] workers forked and closed within the call;
    + each pruned or executed result's line is appended to the
      checkpoint once, then passed to [on_point] with the result; the
      checkpoint is flushed at every [on_batch];
    + the checkpoint is closed on every exit, a raise included, and the
      delivered points are summarised in expansion order, [total_s]
      timing [execute] alone.

    An executor may stop early (the daemon's drain): the summary then
    holds fewer points than the expansion, and resuming the checkpoint
    finishes the rest with a report byte-identical to an uninterrupted
    run's (wall clocks aside). *)

val run :
  ?jobs:int ->
  ?prune:bool ->
  ?on_point:(point_result -> unit) ->
  Spec.t ->
  Amsvp_netlist.Circuits.testcase ->
  summary
(** {!prepare} then {!session} without a checkpoint.
    @raise Invalid_argument on an invalid spec or output. *)
