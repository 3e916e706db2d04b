(** The worker-process pool that runs sweep points in parallel.

    [amsvp sweep --jobs N] ({!Runner.session} with [jobs > 1]) and the
    serve daemon both run points here. A pool forks {e worker
    processes}, which gives three things threads in one runtime could
    not: a crashed point (segfault, OOM kill, stack overflow) takes
    down only its worker, a hung point can be SIGKILLed, and forked
    children inherit the parent's prepared sweep copy-on-write for
    free. The parent stays single-threaded and multiplexes its workers
    with [select]; the program runs no other domain, which is what
    makes the fork safe.

    A pool is created once per work function and lives until {!close}.
    {!Runner.session} closes its pool when the sweep ends; the serve daemon
    keeps one per warm prepared sweep, so its workers are forked by the
    first submit of that sweep, serve every later submit of it, and
    exit when the sweep is evicted from the daemon's cache or the
    daemon shuts down. Workers are forked lazily, by the first {!run}
    that has work for their slot, and a dead worker's slot is refilled
    the same way.

    Each worker is a line-driven slave on a pipe pair: the parent
    writes task lines (point, retry count, request id), the child
    answers each with one {!Point_result} line, EOF on the task pipe
    shuts it down. Two tasks are in flight per worker: the head it is
    running and one queued behind it in the task pipe, so its next
    task is already waiting when the parent reads a result.

    Failure handling, per point:
    - a work function that raises — the point gets a [Crashed] verdict
      from {!guard}, the same one an inline run gives it;
    - worker death mid-point (EOF / signal) — the head is re-dispatched
      to a fresh worker up to [retries] times, then reported with a
      [Crashed] health verdict; a task queued behind it never started
      and goes back to pending without being charged a retry;
    - kill-deadline expiry (the in-child cooperative timeout is the
      primary mechanism; this slack parent-side backstop catches a
      worker hung outside the stepping loop) — worker SIGKILLed, head
      reported with a [Timeout] verdict, {e not} retried. A queued
      task's deadline starts when it becomes the head.

    Dispatch/kill/re-dispatch decisions are journaled in category
    ["serve"] (["shard.redispatch"], ["shard.kill"],
    ["shard.crashed"]), tagged with the request id when one is given.

    {b Telemetry.} Each child tags its process with the journal origin
    ["w<slot>:<pid>"] and, after every task, ships its new journal
    events, completed spans, and positive counter deltas as
    {!telemetry} lines on the result pipe (before the result line).
    The parent ingests them into its own journal/span buffer/metric
    registry, so after [run] the parent's
    {!Amsvp_obs.Journal.events} and {!Amsvp_obs.Obs.chrome_trace}
    cover the whole pool. Torn telemetry frames are dropped and
    counted, never fatal to the connection. A child's journal and
    metrics switches are the parent's at fork time. *)

type t
(** A pool of worker processes bound to one work function. *)

(** Worker-outcome tally, mutated as events happen; hand the same
    record to successive runs to accumulate service totals. *)
type tally = {
  mutable t_spawned : int;  (** worker processes forked *)
  mutable t_crashed : int;  (** points exhausted their retries *)
  mutable t_timeouts : int;  (** parent kill-deadline expiries *)
  mutable t_redispatched : int;  (** re-dispatches after worker death *)
  mutable t_torn : int;  (** telemetry frames dropped as torn *)
}

val make_tally : unit -> tally

(** {1 Telemetry frames}

    Workers interleave telemetry lines with result lines on their pipe
    to the parent: drained journal events, completed spans, and counter
    deltas, each tagged with the worker's origin. The frames are
    self-announcing — every telemetry line starts with
    {!telemetry_prefix}, which no task or result line can produce — so
    the pool can classify a line {e before} parsing it and a torn
    telemetry frame is dropped (and counted) without costing the
    worker its connection, while a torn result line still means the
    worker died mid-write. *)

type telemetry =
  | Tel_journal of Amsvp_obs.Journal.event list
      (** events carry their own [origin]/[seq] *)
  | Tel_spans of { origin : string; spans : Amsvp_obs.Obs.span list }
  | Tel_counters of {
      origin : string;
      counters : (string * (string * string) list * int) list;
          (** [(name, labels, delta)] — positive increments since the
              worker's previous ship *)
    }

val telemetry_prefix : string
(** The byte prefix every encoded telemetry line starts with. *)

val encode_telemetry : telemetry -> string
(** One line, no trailing newline; starts with {!telemetry_prefix}. *)

val decode_telemetry :
  string -> [ `Telemetry of telemetry | `Torn of string | `Not_telemetry ]
(** Total classifier for one pipe line. [`Telemetry] — a well-formed
    frame. [`Torn] — the line announces itself as telemetry (it starts
    with {!telemetry_prefix}, or is a nonempty prefix of it) but does
    not decode; the connection is still healthy, drop and count it.
    [`Not_telemetry] — not a telemetry line at all (e.g. a result
    line); hand it to the next codec. *)

val ingest_telemetry_line : ?tally:tally -> ?request_id:int -> string -> bool
(** Absorb one pipe line if it is a telemetry frame: well-formed
    frames are ingested into this process's journal / span buffer /
    counters, torn frames are dropped, counted in [tally] and
    journaled (["telemetry.torn"]). Returns [false] iff the line is
    not telemetry at all. Exposed for tests. *)

val register_parent_fd : Unix.file_descr -> unit
(** Add a descriptor to the process-wide set every worker forked from
    now on closes first thing (the daemon registers its listening
    socket and each client connection). The parent-side pipe ends of
    every live worker of every pool are in the set already. *)

val unregister_parent_fd : Unix.file_descr -> unit
(** Remove a descriptor from that set; call it before closing the
    descriptor. *)

val guard : (Sampler.point -> Point_result.t) -> Sampler.point -> Point_result.t
(** [guard f p] is [f p], or, when [f] raises, a [Crashed] verdict whose
    signal names the exception (NaN values, zero wall clock). Workers
    run every task through it, and so does {!Runner.session}'s inline
    path, so a raising point reports the same for any [jobs]. *)

val create :
  workers:int ->
  ?timeout_s:float ->
  (retry:int -> Sampler.point -> Point_result.t) ->
  t
(** [create ~workers f] makes a pool of [workers] slots running [f];
    nothing is forked yet. [f] receives the point's dispatch attempt
    as [retry] (0 first time) — production callers ignore it; tests
    use it to crash deterministically. [f] runs under {!guard}, and
    should apply the cooperative timeout itself (e.g.
    [Runner.run_point ?timeout_s]);
    [timeout_s] here only arms the parent's kill-deadline backstop.
    @raise Invalid_argument on [workers < 1]. *)

val run :
  t ->
  ?retries:int ->
  ?signal:string ->
  ?request_id:int ->
  ?tally:tally ->
  ?on_result:(Point_result.t -> unit) ->
  ?should_stop:(unit -> bool) ->
  Sampler.point array ->
  Point_result.t option array
(** [run pool points] executes every point on the pool's workers and
    returns results indexed like [points]; it returns with every
    worker idle. [retries] (default 1) bounds re-dispatches per point.
    [signal] names the swept output in synthesised
    [Timeout]/[Crashed] verdicts. [on_result] runs in the parent as
    each result arrives (checkpoint append / streaming). [should_stop]
    is polled between dispatches: once true, no new point is
    dispatched, points already written to a worker (the head and the
    one queued behind it) finish and are delivered through
    [on_result], and undispatched slots come back [None].
    [request_id] is stamped on the children's ["task.begin"] journal
    events and the parent's shard events; [tally] receives
    worker-outcome counts as they happen. If [run] raises (e.g. from
    [on_result]), workers still holding tasks are killed.
    @raise Invalid_argument on a closed pool. *)

val close : t -> unit
(** EOF on every worker's task pipe, then [waitpid] on each. Idempotent;
    the pool cannot run again. *)
