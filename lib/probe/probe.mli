(** Waveform probes: named taps over a running simulation.

    A probe set is attached to any runner exposing the generic observe
    hook ([Sfprogram.Runner.run ?observe], [Engine.spice_like ?observe],
    [Engine.eln_like ?observe], the [Amsvp_sysc.Wrap.run_*] kernels) by
    passing {!observer}. At every simulated step the hook samples each
    tapped variable through the runner's reader into a preallocated
    ring buffer, optionally decimated; afterwards the retained samples
    export as VCD (loadable in GTKWave / Surfer) or CSV.

    A ring buffer keeps the {e last} [capacity] retained samples: a run
    longer than the buffer drops the oldest samples, never the newest,
    and allocates nothing while stepping. *)

module Tap : sig
  type t


  val seen : t -> int
  (** Samples offered to the tap (before decimation and wrap-around). *)

  val count : t -> int
  (** Samples currently retained, [<= capacity]. *)

  val times : t -> float array
  (** Retained sample times, oldest first (fresh array). *)

  val values : t -> float array

end

type t
(** A set of taps sampled together, plus optional health monitors. *)

val create : ?capacity:int -> ?every:int -> unit -> t
(** Defaults for taps subsequently added to this set:
    [capacity = 65536] retained samples, [every = 1] (no decimation).
    @raise Invalid_argument on [capacity < 1] or [every < 1]. *)

val tap : t -> ?every:int -> Expr.var -> Tap.t
(** Attach a tap for a variable, named by [Expr.var_name], with the
    set's capacity; [every = k] retains one sample out of every [k]
    offered (default: the set's).
    @raise Invalid_argument on a variable tapped twice. *)

val watch : t -> ?config:Health.config -> Expr.var -> Health.t
(** Attach a health monitor fed by the same observe hook as the taps.
    The variable does not need a tap of its own. *)

val vars : t -> Expr.var list
(** Every variable {!sample} reads: tapped ones, then watched ones, in
    attachment order. A signal-flow runner evaluates only what its
    outputs depend on, so pass this as its [~reads]. *)

val sample : t -> time:float -> (Expr.var -> float) -> unit
(** Feed one step: reads every tapped / watched variable through the
    reader. Raises whatever the reader raises on an unknown variable
    (so a typo in a probe name fails loudly on the first step). *)

val observer : t -> float -> (Expr.var -> float) -> unit
(** [observer set] is [fun time read -> sample set ~time read] — the
    value to pass as [?observe] to a runner. *)

(** {1 Export} *)

val to_vcd : t -> string
(** All taps as a VCD document ({!Amsvp_util.Vcd}, 1 ns ticks).
    @raise Invalid_argument on an empty set. *)

val write_vcd : t -> string -> unit

val to_csv : t -> string
(** Long-format CSV, one row per retained sample:
    [signal,time,value] — unambiguous even when taps use different
    decimation. Rows are grouped by tap in attachment order. *)

val write_csv : t -> string -> unit
