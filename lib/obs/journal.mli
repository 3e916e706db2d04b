(** Structured run journal: a bounded buffer of typed events, the third leg of the observability layer next to spans
    (wall-clock intervals) and metrics (monotone aggregates).

    A journal {e event} records something the solver decided or
    observed — a Newton convergence record, a near-singular pivot, a
    sweep point dispatched, a watchdog firing — with enough structure
    (category, severity, step, simulated time, typed payload) that a
    report tool can aggregate it without scraping logs.

    Cost model, mirroring {!Obs}:

    - Disabled (the default), {!emit} is one load and a branch; no
      payload should even be built (guard call sites with {!enabled}
      when assembling the payload costs anything).
    - Enabled, an event takes the next sequence number and is stored
      into a ring.

    The process keeps two rings, each holding the most recent
    [capacity] events (overwritten events are counted in {!dropped}):
    one for the events it emits, and one for the events it {!ingest}s
    from forked workers. The journal is not synchronised: the program
    runs one domain, and workers are processes with their own copy.
    {!events} merges both rings deterministically: by wall clock with
    [(origin, seq)] breaking ties, a total order that is stable across
    processes and consistent with each process's own program order. *)

(** {1 Enable flag and bounds} *)

val enabled : unit -> bool
val set_enabled : bool -> unit
val enable : unit -> unit
val disable : unit -> unit

val capacity : unit -> int

val set_capacity : int -> unit
(** Ring size (default 65536). A ring is sized when it is created, at
    its first event after start-up or after a {!reset}; raise it
    before enabling on a long run.
    @raise Invalid_argument on a non-positive capacity. *)

(** {1 Events} *)

type severity = Debug | Info | Warn | Error

(** Typed payload values, so the JSONL sink needs no stringly-typed
    round-trip and floats keep full precision. *)
type value = F of float | I of int | S of string | B of bool

type event = {
  seq : int;  (** sequence number, global within the emitting process *)
  origin : string;
      (** emitting process tag (see {!set_origin}); [""] for the
          anonymous single-process default *)
  cat : string;  (** subsystem: ["mna"], ["sf"], ["sweep"], ["health"]... *)
  name : string;  (** event kind within the category, e.g. ["newton.run"] *)
  severity : severity;
  step : int;  (** solver/reporting step, [-1] when not applicable *)
  time : float;  (** simulated seconds, [nan] when not applicable *)
  wall_ns : int;  (** {!Obs.now_ns} at record time *)
  payload : (string * value) list;
}

val emit :
  ?severity:severity ->
  ?step:int ->
  ?time:float ->
  cat:string ->
  string ->
  (string * value) list ->
  unit
(** [emit ~cat name payload] records one event (no-op when disabled).
    Defaults: [severity = Info], [step = -1], [time = nan]. *)

(** {1 Reading back} *)

val count : unit -> int
(** Events currently buffered, own and ingested. *)

val dropped : unit -> int
(** Events overwritten because a ring was full. *)

val events : unit -> event list
(** Every buffered event — this process's own and those {!ingest}ed
    from other processes — merged into one deterministic order: [wall_ns] first, ties broken by
    [(origin, seq)]. Within a single origin this is consistent with
    program order (both keys are nondecreasing per process), and the
    tie-break makes the merge independent of arrival order. *)

(** {1 Cross-process telemetry}

    A forked worker journals into its own copy of these rings; the
    serve layer drains them with {!events_after}, ships them over the
    worker pipe, and the parent {!ingest}s them so {!events} and the
    sink see one whole-service journal. *)

val set_origin : string -> unit
(** Tag every event this process emits from now on. The daemon sets
    ["daemon"]; each point-worker sets ["w<slot>:<pid>"] right after
    the fork. Default [""]. *)

val origin : unit -> string

val next_seq : unit -> int
(** The sequence number the next {!emit} will take — a drain
    watermark: record it, run work, then ship {!events_after} it. *)

val events_after : int -> event list
(** [events_after n]: this process's own events (origin equal to
    {!origin}, so inherited or ingested foreign events are never
    re-shipped) with [seq >= n], in seq order. *)

val ingest : event list -> unit
(** Push events received from another process into a dedicated
    foreign ring (so a burst cannot evict local events), preserving
    their [seq]/[origin]. No-op when disabled. Overflow counts
    toward {!dropped}. *)

val reset : unit -> unit
(** Clear both rings and the dropped counter (the enable flag and
    capacity are untouched; the next events get rings of the current
    capacity). The global sequence keeps counting, so
    events recorded after a reset still sort after everything that
    came before. *)

(** {1 JSONL sink} *)

val event_json : event -> Amsvp_util.Json.t
(** One event as a JSON object:
    [{"seq":..,"cat":..,"name":..,"sev":..,"origin":..,
      "step":..,"time":..,"wall_ns":..,"data":{...}}]. [sev] is
    ["debug"], ["info"], ["warn"] or ["error"]. [origin] is omitted
    when [""] (so single-process output is unchanged), [step] when
    [-1], [time] when not finite. Non-finite payload floats follow
    {!Amsvp_util.Json.print}'s float rule. *)

val event_to_json : event -> string
(** {!event_json} printed on a single line. *)

val to_jsonl : unit -> string
(** Every event of {!events}, one JSON object per line. When the rings
    lost events, one more line ends the dump:
    [{"cat":"obs","name":"journal.dropped","sev":"warn","data":{"count":n}}]
    with [n] = {!dropped}. *)

val write_jsonl : string -> unit
(** [write_jsonl path] dumps {!to_jsonl} to [path]. *)

(** {1 Incremental sink}

    {!write_jsonl} rewrites everything still buffered — right for a
    one-shot CLI run dumping at exit, wrong for a daemon: it never
    exits, and the bounded rings overwrite old events long before any
    [at_exit] dump. A daemon {!attach_sink}s once and calls {!flush}
    at natural barriers (end of request, end of point batch); each
    flush appends only events newer than the previous one. *)

val attach_sink : ?max_bytes:int -> ?keep:int -> string -> unit
(** [attach_sink path] directs {!flush} to append to [path] (truncated
    on attach — a previous run's log is not silently extended). When
    [max_bytes] is given, a flush that leaves the file at or past the
    limit rotates: [path] becomes [path.1], [path.1] becomes [path.2],
    ... keeping [keep] (default 3) rotated files; the oldest is
    dropped.
    @raise Invalid_argument on a non-positive [max_bytes] or negative
    [keep]. *)

val flush : unit -> unit
(** Append every event not yet written to the attached sink, then
    rotate if over the size limit. No-op without a sink. *)

val detach_sink : unit -> unit
(** Final {!flush}, then forget the sink. *)
