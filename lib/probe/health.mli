(** Online numerical-health monitors for probed signals.

    A monitor consumes one sample per simulated step and keeps a set
    of watchdogs, in O(1) memory however long the run:

    - {b NaN/Inf} — always armed; fires on the first non-finite sample.
    - {b amplitude explosion} — fires when |value| exceeds
      [amplitude_limit].
    - {b stuck-at} — fires when [stuck_after] {e consecutive} samples
      are bitwise-identical (and finite). Pick a threshold larger than
      any legitimate start-up plateau: a circuit resting at its 0
      initial condition for k steps looks stuck for those k steps.
    - {b NRMSE budget} — for monitors fed through {!observe_ref}:
      fires when the streaming NRMSE against the reference (RMS error
      normalised by the reference peak-to-peak range, the same
      definition as [Amsvp_util.Metrics.nrmse]) exceeds [nrmse_budget]
      after a short warm-up.

    Each watchdog fires {e at most once} per monitor, at the first
    offending sample; the emitted {!issue} carries the signal name, the
    simulated time and the offending value. When the [Amsvp_obs]
    recorder is enabled, firing also emits a structured instant event
    (category ["health"], name ["health.<kind>"]) so breaches show up
    in Chrome traces next to the spans that produced them. *)

type kind =
  | Nan_or_inf
  | Amplitude
  | Stuck
  | Nrmse_budget
  | Timeout
      (** the point's wall-clock budget expired before the simulation
          finished (sweep worker pools; never fired by a monitor) *)
  | Crashed
      (** the worker executing the point died or raised (multi-process
          sweep service; never fired by a monitor) *)
  | Pruned
      (** the point was skipped: the abstract interpreter proved every
          run at its parameters trips a watchdog (sweep pre-flight
          pruning; never fired by a monitor) *)

val kind_label : kind -> string
(** ["nan"], ["amplitude"], ["stuck"], ["nrmse-budget"], ["timeout"],
    ["crashed"], ["pruned"]. *)

val kind_of_label : string -> kind option
(** Inverse of {!kind_label} — the checkpoint/protocol codecs read
    verdicts back from their serialised form. *)

type issue = { kind : kind; time : float; value : float }
(** [value] is the offending sample (for [Nrmse_budget], the streaming
    NRMSE at the moment of the breach). *)

type config = {
  amplitude_limit : float option;  (** None disables the watchdog *)
  stuck_after : int option;  (** must be >= 2 when given *)
  nrmse_budget : float option;
  nrmse_warmup : int;
      (** reference-fed samples ignored by the budget check (the first
          few steps of a transient are all start-up error) *)
}

val default_config : config
(** Only the NaN/Inf watchdog armed; [nrmse_warmup = 8]. *)

type t

val create : ?config:config -> string -> t
(** [create name] — a monitor for the signal called [name].
    @raise Invalid_argument on [stuck_after < 2] or a non-positive
    [amplitude_limit]/[nrmse_budget]. *)

val observe : t -> time:float -> float -> unit
(** Feed one sample. *)

val observe_ref : t -> time:float -> value:float -> reference:float -> unit
(** Feed one sample together with the reference-simulator value at the
    same instant; updates the streaming NRMSE in addition to everything
    {!observe} does. *)

val replay :
  t ->
  times:float array ->
  values:float array ->
  ?reference:float array ->
  int ->
  float
(** [replay m ~times ~values n] feeds samples [0 .. n-1] of a recorded
    trace: the same as {!observe} on each in turn (with [reference],
    {!observe_ref}), so the NRMSE and every fired issue — kind, time,
    value, order — are identical, but nothing is allocated per sample.
    It returns the sum of the squares of [values.(0 .. n-1)], added in
    index order (non-finite samples included), so a caller takes the
    trace's RMS from the same walk.
    @raise Invalid_argument when an array holds fewer than [n]
    samples. *)

val nrmse : t -> float option
(** Streaming NRMSE; [None] until {!observe_ref} has been fed, or when
    the reference range is still zero. *)

(** {1 Verdict} *)

val issues : t -> issue list
(** Fired watchdogs, in firing order (at most one per kind). *)

val healthy : t -> bool
(** [issues t = []]. *)

type verdict = { v_signal : string; v_healthy : bool; v_issues : issue list }
(** A monitor's final state, detached from the monitor itself — the
    form embedded in sweep reports. *)

val verdict : t -> verdict

