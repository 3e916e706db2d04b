(** Process-sharded point execution.

    The {!Amsvp_sweep.Pool} runs points on domains inside one runtime;
    this pool forks {e worker processes} instead, which buys the
    service three things domains cannot give it: a crashed point
    (segfault, OOM kill, stack overflow) takes down only its worker,
    a hung point can be SIGKILLed, and forked children inherit the
    parent's warm prepared sweep copy-on-write for free.

    A pool is created once per work function and lives until {!close}:
    the serve daemon keeps one per warm prepared sweep, so its workers
    are forked by the first submit of that sweep, serve every later
    submit of it, and exit when the sweep is evicted from the daemon's
    cache or the daemon shuts down. Workers are forked lazily, by the
    first {!run} that has work for their slot, and a dead worker's
    slot is refilled the same way.

    Each worker is a line-driven slave on a pipe pair: the parent
    writes task lines (point, retry count, request id), the child
    answers each with one result line in the checkpoint codec, EOF on
    the task pipe shuts it down. Two tasks are in flight per worker:
    the head it is running and one queued behind it in the task pipe,
    so its next task is already waiting when the parent reads a
    result. The parent multiplexes all workers with [select] — it
    stays single-threaded and, critically for fork safety, must not be
    running other domains.

    Failure handling, per point:
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
    {!Protocol.telemetry} lines on the result pipe (before the result
    line). The parent ingests them into its own journal/span
    buffer/metric registry, so after [run] the parent's
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

val create :
  workers:int ->
  ?timeout_s:float ->
  (retry:int -> Amsvp_sweep.Sampler.point -> Amsvp_sweep.Runner.point_result) ->
  t
(** [create ~workers f] makes a pool of [workers] slots running [f];
    nothing is forked yet. [f] receives the point's dispatch attempt
    as [retry] (0 first time) — production callers ignore it; tests
    use it to crash deterministically. [f] should apply the
    cooperative timeout itself (e.g. [Runner.run_point ?timeout_s]);
    [timeout_s] here only arms the parent's kill-deadline backstop.
    @raise Invalid_argument on [workers < 1]. *)

val run :
  t ->
  ?retries:int ->
  ?signal:string ->
  ?request_id:int ->
  ?tally:tally ->
  ?on_result:(Amsvp_sweep.Runner.point_result -> unit) ->
  ?should_stop:(unit -> bool) ->
  Amsvp_sweep.Sampler.point array ->
  Amsvp_sweep.Runner.point_result option array
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
