(** Process-sharded point execution.

    The {!Amsvp_sweep.Pool} runs points on domains inside one runtime;
    this pool forks {e worker processes} instead, which buys the
    service three things domains cannot give it: a crashed point
    (segfault, OOM kill, stack overflow) takes down only its worker,
    a hung point can be SIGKILLed, and forked children inherit the
    parent's warm abstraction cache copy-on-write for free.

    Each worker is a line-driven slave on a pipe pair: the parent
    writes one task line (point + retry count), the child answers one
    result line in the checkpoint codec, EOF on the task pipe shuts it
    down. The parent multiplexes all workers with [select] — it stays
    single-threaded and, critically for fork safety, must not be
    running other domains.

    Failure handling, per point:
    - worker death mid-point (EOF / signal) — re-dispatched to a fresh
      worker up to [retries] times, then reported with a [Crashed]
      health verdict;
    - kill-deadline expiry (the in-child cooperative timeout is the
      primary mechanism; this slack parent-side backstop catches a
      worker hung outside the stepping loop) — worker SIGKILLed, point
      reported with a [Timeout] verdict, {e not} retried.

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
    counted, never fatal to the connection. *)

(** Worker-outcome tally for one [run], mutated as events happen; hand
    the same record to successive runs to accumulate service totals. *)
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

val run :
  workers:int ->
  ?timeout_s:float ->
  ?retries:int ->
  ?signal:string ->
  ?request_id:int ->
  ?tally:tally ->
  ?on_result:(Amsvp_sweep.Runner.point_result -> unit) ->
  ?should_stop:(unit -> bool) ->
  (retry:int -> Amsvp_sweep.Sampler.point -> Amsvp_sweep.Runner.point_result) ->
  Amsvp_sweep.Sampler.point array ->
  Amsvp_sweep.Runner.point_result option array
(** [run ~workers f points] executes every point through [f] in forked
    workers and returns results indexed like [points]. [f] receives the
    point's dispatch attempt as [retry] (0 first time) — production
    callers ignore it; tests use it to crash deterministically. [f]
    should apply the cooperative timeout itself (e.g.
    [Runner.run_point ?timeout_s]); [timeout_s] here only arms the
    parent's kill-deadline backstop. [retries] (default 1) bounds
    re-dispatches per point. [signal] names the swept output in
    synthesised [Timeout]/[Crashed] verdicts. [on_result] runs in the
    parent as each result arrives (checkpoint append / streaming).
    [should_stop] is polled between dispatches: once true, no new point
    is dispatched, in-flight points finish, and undispatched slots come
    back [None]. [request_id] is stamped on the children's
    ["task.begin"] journal events and the parent's shard events;
    [tally] receives worker-outcome counts as they happen.
    @raise Invalid_argument on [workers < 1]. *)
