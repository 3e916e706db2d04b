(** A SystemC-AMS-like timed data-flow (TDF) model of computation.

    Modules exchange tokens through fixed-rate ports; the schedule is
    computed statically from producer/consumer dependencies (§II-A) and
    replayed every cluster activation. The cluster is attached to the
    discrete-event kernel and re-activated every timestep through a
    kernel event — the AMS/DE synchronisation boundary whose cost is
    what distinguishes the SC-AMS/TDF rows from the SC-DE rows in the
    paper's tables. *)

type cluster

val create_cluster : De.t -> name:string -> timestep_ps:int -> cluster

type port
(** A single-producer token buffer carrying floats. *)

val port : cluster -> string -> rate:int -> port
(** A port exchanging [rate] tokens per activation. *)

type tdf_module

val add_module :
  cluster ->
  name:string ->
  reads:port list ->
  writes:port list ->
  (unit -> unit) ->
  tdf_module
(** Register a single-rate processing callback (each port is accessed
    at its declared rate, once per repetition). [reads]/[writes]
    declare the data dependencies used to compute the static
    schedule. *)

val add_module_rated :
  cluster ->
  name:string ->
  reads:(port * int) list ->
  writes:(port * int) list ->
  (int -> unit) ->
  tdf_module
(** Multirate registration: each connection carries its own rate. The
    scheduler solves the SDF balance equations
    ([producer_rate * reps(producer) = consumer_rate * reps(consumer)])
    for the repetition vector; the body receives its repetition index
    within the activation, and {!read}/{!write} index into that
    repetition's token window.
    @raise Invalid_argument on inconsistent rate systems. *)

val read : port -> int -> float
(** [read p i] is the i-th token of the current repetition's window. *)

val write : port -> int -> float -> unit

(** {1 DE boundary converters} *)

val to_de : cluster -> name:string -> port -> float De.Signal.signal
(** A converter module writing a rate-1 port into a kernel signal at
    every activation (one request/update per timestep — the sync
    overhead). *)

val start : cluster -> until_ps:int -> unit
(** Compute the repetition vector and the static schedule (topological
    order of the module graph), size the token buffers, attach the
    cluster to the kernel and schedule activations every timestep until
    [until_ps] (the caller still has to run the kernel).
    @raise Invalid_argument if the module graph has a combinational
    cycle, a port with several producers, a consumer-only port, or an
    inconsistent rate system. *)

type cluster_stats = {
  activations : int;
  modules : int;
  schedule_length : int;  (** total module firings per activation *)
}

val cluster_stats : cluster -> cluster_stats
