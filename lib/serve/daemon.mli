(** The sweep service: a long-running daemon on a Unix-domain socket.

    One-shot [amsvp sweep] pays the whole Fig.-4 abstraction flow —
    acquisition, enrichment, assembly, bytecode compilation — on every
    invocation. The daemon pays it once: prepared sweeps
    ({!Amsvp_sweep.Runner.ctx}, which bundle the probed circuit and the
    recorded plan) stay warm in an LRU cache keyed by the canonical
    spec text, so a repeated request skips straight to point execution.
    Each cached sweep owns a {!Amsvp_sweep.Pool}, the executor
    [amsvp sweep --jobs N] uses too: its workers are forked by the
    first submit that runs the sweep, inherit the warm cache
    copy-on-write, serve every later submit of the same spec, and are
    closed when the sweep is evicted or the daemon shuts down.

    Requests are served one client at a time over the line-delimited
    JSON {!Protocol}; within a sweep, points are sharded across
    [workers] processes, whatever the spec's [jobs] directive says (the
    directive is cleared, so it splits neither the cache nor the
    checkpoint identity). With [checkpoint_dir] set, every completed
    point is appended to a per-sweep checkpoint file, so a daemon
    killed mid-sweep resumes on resubmit, streaming recovered points
    first and executing only the remainder. A submit runs
    {!Amsvp_sweep.Runner.session} on the warm pool, the session
    [amsvp sweep --resume] runs too: a foreign checkpoint fails the
    submit, and a completed one is deleted.

    The daemon journals under origin ["daemon"] and ingests each
    worker's journal events, spans, and counter deltas shipped over
    the pool's telemetry frames, so the attached journal sink
    and the shutdown trace cover the whole service; worker outcome
    counters (spawned/crashed/timeouts/re-dispatches/torn telemetry),
    in-flight points, journal drops, and GC heap words are surfaced in
    the [Stats] reply.

    SIGTERM / SIGINT (or a [Shutdown] request) drain gracefully: no new
    point is dispatched, points already handed to a worker (at most two
    per worker) finish and are checkpointed, the client gets a [Done]
    with [complete = false], every worker pool is closed, the journal
    sink is flushed and the socket unlinked.

    The point workers are forked, so the caller must not run other
    domains. *)

type config = {
  socket_path : string;
  workers : int;  (** forked point-worker processes per sweep *)
  checkpoint_dir : string option;
  point_timeout_s : float option;
      (** default per-point budget for specs that set none *)
  retries : int;  (** re-dispatches per crashed point *)
  ctx_cache_max : int;
      (** warm prepared sweeps kept, each with its live worker pool;
          least recently used evicted first (at least one is kept) *)
  metrics_out : string option;
      (** Prometheus textfile the daemon rewrites atomically
          (write-to-temp + rename) every [metrics_every_s], on each
          completed request, and at startup/shutdown *)
  metrics_every_s : float;
  trace_out : string option;
      (** Chrome trace written at shutdown: daemon request spans plus
          every worker span ingested over the telemetry frames, one
          [pid] track per process *)
  werror : bool;
      (** upgrade value-range screen warnings (AMS061/AMS063…) to
          errors: a submit whose screen then contains any error is
          answered with [Protocol.Rejected] instead of running *)
  fidelity : Amsvp_core.Solve.fidelity option;
      (** default reference-engine fidelity for submitted specs that do
          not carry a [fidelity] directive themselves (the directive
          always wins); [None] keeps the paper default *)
}

val default_config : socket_path:string -> config
(** 2 workers, no checkpointing, no timeout, 1 retry, 8 cached sweeps,
    no metrics/trace files, metrics every 2 s, no [werror]. *)

val serve : config -> unit
(** Bind, listen and serve until drained. Blocks.
    @raise Unix.Unix_error when the socket cannot be bound,
    @raise Invalid_argument on [workers < 1]. *)
