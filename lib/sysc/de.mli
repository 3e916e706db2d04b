(** A SystemC-like discrete-event simulation kernel.

    Faithful to the SystemC-DE model of computation: processes are
    callbacks statically or dynamically sensitive to events; signals
    have request/update semantics (writes become visible one delta
    cycle later); simulated time advances to the next pending event
    once the delta loop drains. Time is integer picoseconds, so a
    50 ns analog timestep over 10 s of simulated time stays exact. *)

type t
(** A kernel instance. *)

val create : unit -> t

val now_ps : t -> int
(** Current simulated time in picoseconds. *)

val now : t -> float
(** Current simulated time in seconds. *)

val ps_of_seconds : float -> int

type process
(** An SC_METHOD-like process: a callback run by the kernel whenever an
    event it is sensitive to fires. *)

val spawn : t -> name:string -> (unit -> unit) -> process
(** Register an SC_METHOD-like process. It does not run until an event
    triggers it (use {!Event.notify_delta} on a sensitive event for
    time-zero activation). *)

module Event : sig
  type event

  val create : t -> string -> event

  val sensitize : process -> event -> unit
  (** Static sensitivity: the process runs whenever the event fires. *)

  val notify_delayed : event -> delay_ps:int -> unit
  (** Schedule the event [delay_ps] after the current time;
      [delay_ps >= 0]. Multiple notifications of the same event at the
      same instant collapse. *)

  val notify_delta : event -> unit
  (** Schedule for the next delta cycle of the current instant. *)
end

module Signal : sig
  type 'a signal

  val float_signal : t -> name:string -> float -> float signal
  val bool_signal : t -> name:string -> bool -> bool signal
  val int_signal : t -> name:string -> int -> int signal
  (** A signal with an initial value. A write that leaves the value
      equal changes nothing (change detection drives sensitivity). *)

  val read : 'a signal -> 'a
  (** The current (stable) value. *)

  val write : 'a signal -> 'a -> unit
  (** Request/update: the new value becomes visible at the next delta
      boundary; the signal's change event fires only if the value
      actually changed. *)

  val change_event : 'a signal -> Event.event
end

(** {1 Thread processes}

    SC_THREAD-like processes: a sequential body that suspends itself
    with [wait] calls, implemented with OCaml effects (one-shot
    continuations) — no OS threads involved. A thread starts at time
    zero and dies when its body returns. Each thread owns one timeout
    event and one resume process, which all its waits reuse. *)

module Thread : sig
  val spawn : t -> name:string -> (unit -> unit) -> unit
  (** Register a thread; its body begins executing in the first delta
      cycle of time zero. *)

  val wait_ps : t -> int -> unit
  (** Suspend the calling thread for the given simulated time
      ([>= 0]; 0 waits one delta cycle).
      @raise Invalid_argument when called outside a thread body. *)

  val wait_event : t -> Event.event -> unit
  (** Suspend until the event fires. *)
end

(** {1 Signal tracing}

    The [sc_trace] equivalent: registered float signals are sampled on
    every change and can be exported as a VCD document. *)

module Tracing : sig
  type recorder

  val create : t -> recorder

  val watch : recorder -> name:string -> float Signal.signal -> unit
  (** Record every value change of the signal (including its initial
      value at registration time). *)

  val to_vcd : recorder -> string
  (** Render all watched signals as a VCD document
      (see {!Amsvp_util.Vcd}). *)

  val traces : recorder -> (string * Amsvp_util.Trace.t) list
end

val run_until : t -> ps:int -> unit
(** Run the delta/time loop until simulated time would exceed [ps] (all
    activity at time [ps] included) or no events remain. *)

val run : t -> unit
(** Run until no events remain. *)

type stats = {
  activations : int;  (** process callback invocations *)
  delta_cycles : int;
  timed_notifications : int;
  signal_updates : int;
}

val stats : t -> stats
