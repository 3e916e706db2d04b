(** Stimulus waveform generators.

    The paper stimulates every model with a square-wave generator
    "modeled by using the same MoC of the component under test"
    (§V-A); these generators are shared by every back-end so that no
    MoC pays an artificial interface penalty. *)

type t = float -> float
(** A stimulus is a pure function of simulated time (seconds). *)

(** [square ~period ~low ~high t] is [high] during the first half of
    each period and [low] during the second half. [period] must be
    positive. *)
val square : period:float -> low:float -> high:float -> t

(** [sine ~freq ~amplitude] is a sinusoid starting at zero phase. *)
val sine : freq:float -> amplitude:float -> t

(** [step ~at ~low ~high] switches from [low] to [high] at time [at]. *)
val step : at:float -> low:float -> high:float -> t

(** [pwl points] linearly interpolates a piecewise-linear waveform given
    as [(time, value)] pairs sorted by time; constant extrapolation
    outside the span.
    @raise Invalid_argument on an empty or unsorted list. *)
val pwl : (float * float) list -> t

(** [constant v] is the constant waveform [v]. *)
val constant : float -> t

(** [sample f ~dt ~n] is [f (float_of_int i *. dt)] for [i = 0 .. n-1]:
    the waveform at the instants a fixed-step run of step [dt] visits,
    computed exactly as such a run computes them. *)
val sample : t -> dt:float -> n:int -> float array
