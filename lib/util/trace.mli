(** Sampled waveform traces.

    A trace is a growable record of [(time, value)] samples produced by a
    simulator. Traces are the common currency used to compare the output
    of the different simulation back-ends (conservative MNA engines,
    discrete-event models, tight-loop signal-flow models). *)

type t

(** [create ()] is an empty trace. [create ~capacity ()] pre-allocates
    room for [capacity] samples. *)
val create : ?capacity:int -> unit -> t

(** [add trace ~time ~value] appends one sample. Samples must be appended
    in non-decreasing time order.
    @raise Invalid_argument when [time] precedes the last sample. *)
val add : t -> time:float -> value:float -> unit

(** Number of samples recorded so far. *)
val length : t -> int

(** {2 In-place recording}

    A stepping loop that must not pay a call per sample writes into
    the trace's storage directly: [reserve tr n], fill samples
    [0 .. k-1] of the arrays {!buffers} returns, in non-decreasing
    time order, then [set_length tr k], which checks that order. *)

(** [reserve trace n] empties [trace] and makes room for [n] samples;
    the storage is reused when it is already large enough. *)
val reserve : t -> int -> unit

(** [buffers trace] is the trace's storage [(times, values)], valid
    until the next {!add} or {!reserve}. Only the first {!length}
    samples are recorded; readers must not write. *)
val buffers : t -> float array * float array

(** [set_length trace n] makes the first [n] stored samples the
    trace's contents. Their times must not decrease, as for {!add}.
    @raise Invalid_argument when [n] is negative or exceeds the
    storage, or when a stored time precedes the one before it; the
    trace is then left unchanged. *)
val set_length : t -> int -> unit

(** [time trace i] and [value trace i] read sample [i] (0-based).
    @raise Invalid_argument if [i] is out of bounds. *)
val time : t -> int -> float

val value : t -> int -> float

(** [last_value trace] is the most recent sample value.
    @raise Invalid_argument on an empty trace. *)
val last_value : t -> float

(** [sample_at trace t] linearly interpolates the trace value at time
    [t]. Before the first sample it returns the first value; past the
    last sample, the last value.
    @raise Invalid_argument on an empty trace. *)
val sample_at : t -> float -> float

(** [values trace] is a fresh array of all sample values in order. *)
val values : t -> float array

(** [times trace] is a fresh array of all sample times in order. *)
val times : t -> float array

(** [resample trace ~t0 ~dt ~n] returns [n] values interpolated at
    [t0, t0+dt, ...]; used to align traces produced with different
    internal steps before computing error metrics. *)
val resample : t -> t0:float -> dt:float -> n:int -> float array

(** [of_fun f ~t0 ~dt ~n] tabulates an analytic waveform, for tests. *)
val of_fun : (float -> float) -> t0:float -> dt:float -> n:int -> t

(** [pp] prints a short summary (sample count, time span, value range). *)
