(** Pre-flight static pruning of provably-unhealthy sweep points.

    Before any point is simulated, the abstract interpreter
    ({!Amsvp_analysis.Absint}) runs the bytecode of the sweep's
    representative program (the recorded plan replayed on the nominal
    circuit) over interval boxes of parameter space: that bytecode's
    constant pool, re-targeted at a point, is the entire
    value-dependence of the point, so the interval hull over the pools
    of a set of points covers every concrete execution in the set.
    When the exact (no-join) abstract step sequence proves the output
    definitely trips a health watchdog — non-finite, or beyond the
    spec's [amplitude_limit] — at some step, every member of the box
    would fail the same way and is skipped with a [Pruned] verdict.

    The proof is a MUST analysis: stimuli are sampled exactly (one
    singleton per step), so pruning never skips a point whose run
    would have been healthy.  Boxes that cannot be proven are bisected
    along the widest parameter axis down to single points; points that
    do not rebind onto the recorded plan are never pruned (they run
    normally). *)

type decision = {
  d_point : Sampler.point;
  d_bad : Amsvp_analysis.Absint.bad;
      (** why: first provably-unhealthy step of the {e box} the point
          was proven in (members may individually fail earlier) *)
}

val plan :
  cache:Abscache.t ->
  probed:Amsvp_netlist.Circuit.t ->
  stimuli:(string * Amsvp_util.Stimulus.t) list ->
  t_stop:float ->
  ?amplitude:float ->
  Sampler.point array ->
  decision list
(** [plan ~cache ~probed ~stimuli ~t_stop points] returns the points
    proven unhealthy, in no particular order.  [amplitude] is the
    watchdog budget ([AMS063]-style proofs need it; non-finite proofs
    do not). The proofs follow the sweep's own step count. *)
