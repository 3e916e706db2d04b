(** The result of one sweep point, and its one-line JSON codec.

    The codec is the format of a checkpoint file's point lines, of a
    worker process's answer to its parent ({!Pool}), and of the
    ["result"] payload of the serve protocol's point frames. Floats
    round-trip byte-exactly ({!Amsvp_util.Json.print}'s float rule), so
    a result that crossed a pipe or a checkpoint equals the one the
    point produced. *)

type t = {
  point : Sampler.point;
  out_final : float;  (** output value at [t_stop] *)
  out_rms : float;  (** RMS of the output trace *)
  nrmse : float option;  (** vs the MNA reference; [None] when off *)
  health : Amsvp_probe.Health.verdict;
      (** per-point watchdog verdict over the output trace: NaN/Inf,
          amplitude and stuck-at detection always run; the NRMSE-budget
          watchdog additionally runs when the spec enables the reference
          and sets [nrmse_budget].  A single bad Monte-Carlo point is
          identifiable from the report without rerunning.  A point
          aborted by the wall-clock budget carries a single [Timeout]
          issue (and NaN values) instead. *)
  cached : bool;  (** program obtained by cache replay *)
  wall_s : float;  (** wall-clock seconds for this point *)
}

val failed :
  signal:string ->
  Sampler.point ->
  Amsvp_probe.Health.kind ->
  time:float ->
  value:float ->
  wall_s:float ->
  t
(** A point that produced no trace: NaN values, no NRMSE, not cached,
    and an unhealthy verdict on [signal] with the single issue
    [{kind; time; value}]. *)

val row : t -> (string * Amsvp_util.Json.t) list -> Amsvp_util.Json.t
(** [row r tail]: the object every point row opens with — [index],
    [label], [overrides], [out_final], [out_rms] and [nrmse] when there
    is one — followed by the fields of [tail]. Both {!json} and the
    sweep report's per-point rows build on it. *)

val issue_json : Amsvp_probe.Health.issue -> Amsvp_util.Json.t
(** [{kind, time, value}]. *)

val json : t -> Amsvp_util.Json.t
(** The object {!to_line} prints. *)

val to_line : t -> string
(** One-line JSON object (no trailing newline). *)

val of_json : Amsvp_util.Json.t -> (t, string) Stdlib.result

val of_line : string -> (t, string) Stdlib.result
(** Parse + decode one line; total. *)
