(** Structured instrumentation: spans, counters, gauges, histograms.

    Two halves, with different cost models:

    - {b Spans} — nested wall-clock intervals on the monotonic clock,
      recorded into a global in-memory buffer. Gated by a single enable
      flag: when the recorder is off, {!with_span} costs one branch and
      performs no clock read or allocation.
    - {b Metrics} — a process-wide registry of named counters, gauges
      and fixed-bucket histograms. Always live; an increment is a
      single unboxed field update, the same cost as the ad-hoc [ref]
      counters it replaces, so hot loops need no gating.

    Three sinks export the recorded data: {!chrome_trace} (trace-event
    JSON loadable in Perfetto / chrome://tracing), {!prometheus}
    (text exposition format) and {!summary} (human-readable).

    The state is process-wide and unsynchronised: the program runs one
    domain, and parallel sweep points run in forked worker processes
    ({!Amsvp_sweep.Pool}), each recording into its own copy. A worker
    ships its completed spans and counter deltas to the parent, which
    merges them with {!ingest_spans} and {!Counter.add}. *)

(** {1 Enable flag} *)

val enabled : unit -> bool
val enable : unit -> unit
val disable : unit -> unit

val now_ns : unit -> int
(** Monotonic nanoseconds since the first clock read (see {!Clock}). *)

(** {1 Spans} *)

type span = {
  name : string;
  cat : string;  (** Chrome trace-event category ("" shows as "amsvp") *)
  start_ns : int;
  dur_ns : int;  (** 0 for instant events *)
  depth : int;
      (** nesting depth at entry, outermost = 0; only meaningful
          between spans with the same [proc] *)
  proc : string;
      (** [""] for spans recorded in this process; spans received from
          another process via {!ingest_spans} carry that process's
          origin tag and get their own [pid] track in the Chrome
          sink. *)
  args : (string * string) list;
}

val with_span :
  ?cat:string -> ?args:(string * string) list -> string -> (unit -> 'a) -> 'a
(** [with_span name f] runs [f ()] inside a span. When the recorder is
    disabled this is just [f ()]. The span is recorded on completion,
    including exceptional exit (the exception is re-raised). *)

val timed : ?cat:string -> string -> (unit -> 'a) -> 'a * float
(** [timed name f] is [with_span name f] that {e always} measures and
    returns the elapsed seconds — even when the recorder is off — so
    callers can populate reports from one code path. The span event
    itself is only recorded when enabled. *)

val instant : ?cat:string -> ?args:(string * string) list -> string -> unit
(** Record a zero-duration event (no-op when disabled). *)

val span_count : unit -> int

val spans : unit -> span list
(** Completed spans, in completion order (a nested span precedes its
    parent). *)

val spans_from : int -> span list
(** [spans_from n]: spans recorded at buffer index [n] and later — a
    drain watermark for cross-process shipping: record {!span_count},
    run work, ship [spans_from] it. *)

val ingest_spans : proc:string -> span list -> unit
(** Push spans received from another process into the buffer (no-op
    when the recorder is disabled). Spans whose [proc] is [""] are
    stamped with [proc]. *)

type span_total = {
  calls : int;
  total_ns : int;
  self_ns : int;  (** total minus the time of direct child spans *)
}

val span_totals : lo:int -> hi:int -> (string * span_total) list
(** Per span name, in first-completion order: the spans recorded at
    buffer indices [lo] .. [hi - 1] ({!span_count} watermarks), instants
    left out. A span's self time is its duration minus the durations of
    its direct children (same [proc], one level deeper) completed in the
    range before it. The {!summary} and {!prometheus} sinks aggregate
    the whole buffer; a caller that records the watermarks around a
    region gets that region's profile. *)

(** {1 Metrics registry}

    Metrics are registered process-wide by series — name plus labels:
    [make] returns the existing instance when called twice with the
    same name and labels, and raises [Invalid_argument] if that series
    is already bound to a different metric kind. Two label sets of one
    name are distinct series of one metric family, Prometheus-style.

    [labels] are emitted by the {!prometheus} sink as
    [name{key="value"}]; values may contain any bytes — backslash,
    double quote and newline are escaped per the exposition format.
    Label {e keys} must be valid Prometheus label names; they are
    emitted as given. *)

module Counter : sig
  type t

  val make : ?help:string -> ?labels:(string * string) list -> string -> t
  val incr : t -> unit

  val add : t -> int -> unit
  (** @raise Invalid_argument on a negative increment. *)

  val value : t -> int
  val name : t -> string
end

module Gauge : sig
  type t

  val make : ?help:string -> ?labels:(string * string) list -> string -> t
  val set : t -> float -> unit
  val value : t -> float
end

module Histogram : sig
  type t

  val make :
    ?help:string ->
    ?buckets:float array ->
    string ->
    t
  (** [buckets] are ascending upper bounds (["le"] semantics, an
      implicit [+Inf] bucket is always appended). The default covers
      1 .. 10^6 in 1-2-5 steps.

      Boundary semantics: each bound is an {e inclusive} upper edge,
      Prometheus "less-or-equal" style. A value [v] lands in the first
      bucket whose bound [b] satisfies [v <= b]; in particular a value
      {e exactly equal} to a bound is counted in that bound's bucket,
      not the next one. Equivalently, bucket [i] covers the half-open
      interval (bounds[i-1], bounds[i]] — exclusive on the left,
      inclusive on the right — with bucket 0 covering (-inf, bounds[0]]
      and the implicit overflow bucket (bounds[n-1], +inf). NaN
      observations fall into the overflow bucket (every comparison with
      a bound is false) and still count towards [count] and [sum].
      @raise Invalid_argument if [buckets] is empty or not strictly
      ascending. *)

  val bucket : t -> float -> int
  (** The index of the bucket [observe] counts a value in, by the rule
      above: [0] .. [n-1] for the bounds, [n] for the overflow. *)

  val observe : t -> float -> unit
  val count : t -> int
  val sum : t -> float

  val bucket_counts : t -> (float * int) list
  (** Cumulative counts per upper bound, Prometheus-style; the final
      entry is [(infinity, count)]. *)
end

val counter_values : unit -> (string * (string * string) list * int) list
(** Every registered counter as [(name, labels, value)], in
    registration order — snapshot basis for shipping counter deltas
    across processes. *)

val reset : unit -> unit
(** Clear all recorded spans and zero every registered metric (the
    registrations themselves persist). Does not change the enable
    flag. *)

(** {1 Sinks} *)

val chrome_trace : unit -> string
(** The recorded spans as a Chrome trace-event JSON document
    ([{"traceEvents": [...]}]), timestamps in microseconds. Spans of
    this process render under pid 1 ("amsvp"); spans ingested from
    other processes get one pid (and a [process_name] metadata record
    naming their origin) per distinct [proc], so daemon and worker
    activity appear as separate tracks. Open in Perfetto
    ({:https://ui.perfetto.dev}) or chrome://tracing. *)

val prometheus : unit -> string
(** Every registered metric in the Prometheus text exposition format,
    followed by per-span-name aggregates
    ([amsvp_span_<name>_calls_total] / [..._seconds_total]). *)

val summary : unit -> string
(** Human-readable dump: span aggregates (calls, total, mean), then
    counters, gauges and histograms. *)

val write_file : string -> string -> unit
(** [write_file path contents] — tiny helper shared by the CLI sinks. *)
