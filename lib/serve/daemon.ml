module Spec = Amsvp_sweep.Spec
module Runner = Amsvp_sweep.Runner
module Diag = Amsvp_diag.Diag
module Pool = Amsvp_sweep.Pool
module Health = Amsvp_probe.Health
module Circuits = Amsvp_netlist.Circuits
module Obs = Amsvp_obs.Obs
module Journal = Amsvp_obs.Journal

type config = {
  socket_path : string;
  workers : int;
  checkpoint_dir : string option;
  point_timeout_s : float option;
  retries : int;
  ctx_cache_max : int;
  metrics_out : string option;
  metrics_every_s : float;
  trace_out : string option;
  werror : bool;
  fidelity : Amsvp_core.Solve.fidelity option;
      (* default reference fidelity injected into submitted specs that
         do not pin one themselves (a spec-level [fidelity] directive
         always wins) *)
}

let default_config ~socket_path =
  {
    socket_path;
    workers = 2;
    checkpoint_dir = None;
    point_timeout_s = None;
    retries = 1;
    ctx_cache_max = 8;
    metrics_out = None;
    metrics_every_s = 2.0;
    trace_out = None;
    werror = false;
    fidelity = None;
  }

let c_requests =
  Obs.Counter.make ~help:"serve requests handled" "amsvp_serve_requests_total"

let c_ctx_hits =
  Obs.Counter.make ~help:"submits served by a warm prepared sweep"
    "amsvp_serve_ctx_hits_total"

let c_ctx_misses =
  Obs.Counter.make ~help:"submits that had to prepare from cold"
    "amsvp_serve_ctx_misses_total"

let g_in_flight =
  Obs.Gauge.make ~help:"points dispatched but not yet resolved"
    "amsvp_serve_in_flight"

(* A warm prepared sweep, the worker pool that runs its points, the
   value-range screen's findings and the checkpoint path. All are
   fixed at creation, which is sound because each is a function of the
   spec and the daemon config, both fixed by the cache key. *)
type warm = {
  ctx : Runner.ctx;
  pool : Pool.t;
  findings : Diag.finding list;
  checkpoint : string option;
}

(* Daemon state. One instance per [serve] call; the signal handlers
   write only the [draining] flag (the single async-signal-safe thing
   to do), the main loop polls it. *)
type state = {
  cfg : config;
  draining : bool ref;
  (* warm prepared sweeps, keyed by canonical spec text + circuit; LRU
     by use order in [ctx_order], most recent first *)
  ctxs : (string, warm) Hashtbl.t;
  mutable ctx_order : string list;
  mutable requests : int;
  mutable points_run : int;
  mutable ctx_hits : int;
  mutable ctx_misses : int;
  (* worker outcomes, from point verdicts (covers in-child cooperative
     timeouts and parent-synthesised kills alike) *)
  mutable crashed : int;
  mutable timeouts : int;
  mutable in_flight : int;
  tally : Pool.tally;
  mutable metrics_last_ns : int;
  started_ns : int;
}

let jlog ?req st name payload =
  ignore st;
  if Journal.enabled () then
    let payload =
      match req with
      | Some id -> ("id", Journal.I id) :: payload
      | None -> payload
    in
    Journal.emit ~cat:"serve" name payload

(* Rewrite the Prometheus textfile atomically: a scraper (or the CI
   assertion) must never read a half-written exposition. *)
let write_metrics_file path =
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  output_string oc (Obs.prometheus ());
  close_out oc;
  Sys.rename tmp path

let tick_metrics ?(force = false) st =
  match st.cfg.metrics_out with
  | None -> ()
  | Some path ->
      let now = Obs.now_ns () in
      let every_ns = int_of_float (st.cfg.metrics_every_s *. 1e9) in
      if force || now - st.metrics_last_ns >= every_ns then begin
        st.metrics_last_ns <- now;
        try write_metrics_file path with Sys_error _ -> ()
      end

(* A client gone mid-stream does not stop the sweep: it still runs to
   the checkpoint, the writes just stop landing anywhere. *)
let flush_frames conn = try Lineio.flush conn with Unix.Unix_error _ -> ()

(* Queued point frames go out first, in order. *)
let send conn resp =
  Lineio.queue_line conn (Protocol.encode_response resp);
  flush_frames conn

let ctx_key spec circuit = Spec.to_string spec ^ "@" ^ circuit

let point_timeout st spec =
  match spec.Spec.point_timeout with
  | Some _ as t -> t
  | None -> st.cfg.point_timeout_s

(* Evicting a sweep closes its pool: EOF to its workers, then waitpid.
   No run is in progress here, since requests are served one at a
   time. *)
let evict st key =
  Option.iter (fun w -> Pool.close w.pool) (Hashtbl.find_opt st.ctxs key);
  Hashtbl.remove st.ctxs key;
  st.ctx_order <- List.filter (( <> ) key) st.ctx_order

let checkpoint_path st spec ~circuit =
  Option.map
    (fun dir ->
      Filename.concat dir
        (Printf.sprintf "%s-%s.ckpt.jsonl" spec.Spec.name
           (Amsvp_sweep.Checkpoint.digest spec ~circuit)))
    st.cfg.checkpoint_dir

let ctx_for ~id st spec (tc : Circuits.testcase) =
  let key = ctx_key spec tc.Circuits.label in
  match Hashtbl.find_opt st.ctxs key with
  | Some warm ->
      st.ctx_hits <- st.ctx_hits + 1;
      Obs.Counter.incr c_ctx_hits;
      jlog ~req:id st "ctx.hit" [ ("sweep", Journal.S spec.Spec.name) ];
      st.ctx_order <- key :: List.filter (( <> ) key) st.ctx_order;
      warm
  | None ->
      st.ctx_misses <- st.ctx_misses + 1;
      Obs.Counter.incr c_ctx_misses;
      jlog ~req:id st "ctx.miss" [ ("sweep", Journal.S spec.Spec.name) ];
      let ctx =
        Obs.with_span ~cat:"serve" "serve.prepare" @@ fun () ->
        Runner.prepare spec tc
      in
      let findings = Runner.screen ~werror:st.cfg.werror ctx in
      (* Make room first, so the sweep about to run is never the one
         evicted (a cache of size 0 behaves as size 1). *)
      (match List.rev st.ctx_order with
      | oldest :: _
        when List.length st.ctx_order >= max 1 st.cfg.ctx_cache_max ->
          evict st oldest
      | _ -> ());
      let timeout_s = point_timeout st spec in
      let pool =
        Pool.create ~workers:st.cfg.workers ?timeout_s
          ~points:(Runner.ctx_points ctx)
          (fun ~retry:_ p -> Runner.run_point ?timeout_s ctx p)
      in
      let warm =
        {
          ctx;
          pool;
          findings;
          checkpoint = checkpoint_path st spec ~circuit:tc.Circuits.label;
        }
      in
      Hashtbl.replace st.ctxs key warm;
      st.ctx_order <- key :: st.ctx_order;
      warm

(* One accepted submit: the sweep session on the warm pool, streamed
   to the client frame by frame. *)
let run_submit st conn ~id spec (tc : Circuits.testcase) warm =
  Obs.with_span ~cat:"serve"
    ~args:[ ("sweep", spec.Spec.name); ("id", string_of_int id) ]
    "serve.request"
  @@ fun () ->
  let circuit = tc.Circuits.label in
  let ctx = warm.ctx and ckpt = warm.checkpoint in
  let total = Array.length (Runner.ctx_points ctx) in
  let signal =
    match spec.Spec.output with
    | Some s -> s
    | None -> Expr.var_name tc.Circuits.output
  in
  let set_in_flight n =
    st.in_flight <- n;
    Obs.Gauge.set g_in_flight (float_of_int n)
  in
  (* The session appends each result line to the checkpoint and queues
     its frame through [on_point]; the daemon's own bookkeeping wraps
     that. Once a batch is delivered the session flushes the checkpoint
     and the queued frames go out in one write. *)
  let execute ~on_result ~on_batch pending =
    set_in_flight (Array.length pending);
    flush_frames conn;
    ignore
      (Pool.run warm.pool ~retries:st.cfg.retries ~signal ~request_id:id
         ~tally:st.tally
         ~on_batch:(fun () ->
           on_batch ();
           flush_frames conn)
         ~on_result:(fun ~line r ->
           st.points_run <- st.points_run + 1;
           set_in_flight (st.in_flight - 1);
           let has k =
             List.exists
               (fun i -> i.Health.kind = k)
               r.Runner.health.Health.v_issues
           in
           if has Health.Timeout then st.timeouts <- st.timeouts + 1
           else if has Health.Crashed then st.crashed <- st.crashed + 1;
           on_result ~line r;
           (* The worker streams its own journal through the telemetry
              frames; this parent-side record is the dispatch
              bookkeeping view of the same point. *)
           jlog ~req:id st "shard.result"
             [
               ("point", Journal.S r.Runner.point.Amsvp_sweep.Sampler.label);
               ("cached", Journal.B r.Runner.cached);
               ("healthy", Journal.B r.Runner.health.Health.v_healthy);
               ("wall_s", Journal.F r.Runner.wall_s);
             ];
           tick_metrics st;
           if st.points_run land 31 = 0 then Journal.flush ())
         ~should_stop:(fun () -> !(st.draining))
         pending);
    set_in_flight 0
  in
  match
    Runner.session
      ?checkpoint:(Option.map (fun p -> `Resume p) ckpt)
      ~on_open:(fun resumed ->
        send conn
          (Protocol.Accepted
             { id; sweep = spec.Spec.name; circuit; points = total; resumed }))
      ~on_point:(fun ~line _ ->
        Lineio.queue_line conn (Protocol.point_frame ~id line))
      ~execute ctx
  with
  | Error message -> send conn (Protocol.Failed { message })
  | Ok s ->
      let delivered = Array.length s.Runner.points in
      let complete = delivered = total in
      (* A finished sweep's checkpoint has served its purpose; dropping
         it keeps a resubmit a fresh (warm-ctx) run rather than an
         instant replay of stale results. *)
      (match ckpt with
      | Some path when complete && Sys.file_exists path -> Sys.remove path
      | _ -> ());
      send conn
        (Protocol.Done
           {
             id;
             points = delivered;
             unhealthy = s.Runner.unhealthy;
             cache_hits = s.Runner.cache_hits;
             cache_misses = s.Runner.cache_misses;
             total_s = s.Runner.total_s;
             complete;
           });
      jlog ~req:id st "request.done"
        [
          ("sweep", Journal.S spec.Spec.name);
          ("points", Journal.I delivered);
          ("complete", Journal.B complete);
          ("total_s", Journal.F s.Runner.total_s);
        ];
      Journal.flush ();
      tick_metrics ~force:true st

let handle_submit st conn ~id ~spec_text =
  match Spec.of_string spec_text with
  | Error m -> send conn (Protocol.Failed { message = "bad spec: " ^ m })
  | Ok spec -> (
      (* Points run on the daemon's [workers] processes whatever the
         spec says, so a [jobs] directive must not split the warm-sweep
         cache or the checkpoint identity. *)
      let spec = { spec with Spec.jobs = None } in
      let spec =
        (* The daemon default applies only when the spec itself does not
           pin a fidelity, so submitted spec texts stay authoritative. *)
        match (spec.Spec.fidelity, st.cfg.fidelity) with
        | None, (Some _ as f) -> { spec with Spec.fidelity = f }
        | _ -> spec
      in
      match Runner.resolve spec with
      | Error m -> send conn (Protocol.Failed { message = m })
      | Ok tc -> (
          match ctx_for ~id st spec tc with
          | exception Diag.Rejected f ->
              (* The flow inside [Runner.prepare] refused the circuit:
                 a structured reply, not a dead worker. *)
              jlog ~req:id st "submit.rejected"
                [ ("sweep", Journal.S spec.Spec.name);
                  ("code", Journal.S f.Diag.code) ];
              send conn
                (Protocol.Rejected { message = f.Diag.message; findings = [ f ] })
          | exception e ->
              send conn
                (Protocol.Failed { message = Printexc.to_string e })
          | warm -> (
              match Diag.error_count warm.findings with
              | 0 -> run_submit st conn ~id spec tc warm
              | errors ->
                  (* Value-range screen (AMS06x): errors — native AMS060
                     or anything upgraded by the daemon's [werror] —
                     reject the submit with the full diagnostics list. *)
                  jlog ~req:id st "submit.rejected"
                    [ ("sweep", Journal.S spec.Spec.name);
                      ("errors", Journal.I errors) ];
                  send conn
                    (Protocol.Rejected
                       {
                         message =
                           Printf.sprintf
                             "value-range screen rejected the sweep: %d \
                              error(s)"
                             errors;
                         findings = warm.findings;
                       }))))

let stats_reply st =
  Protocol.Stats_reply
    {
      st_requests = st.requests;
      st_points = st.points_run;
      st_ctx_hits = st.ctx_hits;
      st_ctx_misses = st.ctx_misses;
      st_uptime_s = float_of_int (Obs.now_ns () - st.started_ns) *. 1e-9;
      st_in_flight = st.in_flight;
      st_workers = st.cfg.workers;
      st_spawned = st.tally.Pool.t_spawned;
      st_crashed = st.crashed;
      st_timeouts = st.timeouts;
      st_redispatched = st.tally.Pool.t_redispatched;
      st_telemetry_torn = st.tally.Pool.t_torn;
      st_journal_dropped = Journal.dropped ();
      st_heap_words = (Gc.quick_stat ()).Gc.heap_words;
    }

let serve_client st fd =
  (* A worker forked while this client is connected must not hold the
     connection open after the daemon closes it. *)
  Pool.register_parent_fd fd;
  let conn = Lineio.make fd in
  let rec loop () =
    if !(st.draining) then ()
    else
      match Lineio.read_line conn with
      | `Eof -> ()
      | `Eof_partial ->
          send conn (Protocol.Failed { message = "truncated frame at EOF" })
      | `Intr -> loop ()
      | `Line line ->
          st.requests <- st.requests + 1;
          Obs.Counter.incr c_requests;
          (match Protocol.decode_request line with
          | Error m -> send conn (Protocol.Failed { message = m })
          | Ok Protocol.Ping -> send conn Protocol.Pong
          | Ok Protocol.Stats -> send conn (stats_reply st)
          | Ok Protocol.Shutdown ->
              send conn Protocol.Bye;
              st.draining := true
          | Ok (Protocol.Submit { spec_text }) ->
              let id = st.requests in
              handle_submit st conn ~id ~spec_text);
          loop ()
  in
  loop ();
  Pool.unregister_parent_fd fd;
  try Unix.close fd with Unix.Unix_error _ -> ()

let serve cfg =
  if cfg.workers < 1 then invalid_arg "Daemon.serve: workers < 1";
  Journal.set_origin "daemon";
  let draining = ref false in
  let st =
    {
      cfg;
      draining;
      ctxs = Hashtbl.create 8;
      ctx_order = [];
      requests = 0;
      points_run = 0;
      ctx_hits = 0;
      ctx_misses = 0;
      crashed = 0;
      timeouts = 0;
      in_flight = 0;
      tally = Pool.make_tally ();
      metrics_last_ns = 0;
      started_ns = Obs.now_ns ();
    }
  in
  let prev_term =
    Sys.signal Sys.sigterm (Sys.Signal_handle (fun _ -> draining := true))
  in
  let prev_int =
    Sys.signal Sys.sigint (Sys.Signal_handle (fun _ -> draining := true))
  in
  let prev_pipe = Sys.signal Sys.sigpipe Sys.Signal_ignore in
  let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let bound_path =
    Filename.concat
      (Filename.dirname cfg.socket_path)
      (Printf.sprintf ".amsvp-%d.sock" (Unix.getpid ()))
  in
  Pool.register_parent_fd sock;
  Fun.protect
    ~finally:(fun () ->
      List.iter (evict st) st.ctx_order;
      Pool.unregister_parent_fd sock;
      (try Unix.close sock with Unix.Unix_error _ -> ());
      List.iter
        (fun path -> try Sys.remove path with Sys_error _ -> ())
        [ bound_path; cfg.socket_path ];
      Journal.flush ();
      tick_metrics ~force:true st;
      (match cfg.trace_out with
      | Some path -> (
          try Obs.write_file path (Obs.chrome_trace ())
          with Sys_error _ -> ())
      | None -> ());
      Sys.set_signal Sys.sigterm prev_term;
      Sys.set_signal Sys.sigint prev_int;
      Sys.set_signal Sys.sigpipe prev_pipe)
  @@ fun () ->
  (* Bound and listening under a temporary name, then renamed into
     place: a client that connects as soon as the path exists is never
     refused. *)
  if Sys.file_exists bound_path then Sys.remove bound_path;
  Unix.bind sock (Unix.ADDR_UNIX bound_path);
  Unix.listen sock 8;
  Unix.rename bound_path cfg.socket_path;
  jlog st "up"
    [
      ("socket", Journal.S cfg.socket_path);
      ("workers", Journal.I cfg.workers);
    ];
  Journal.flush ();
  tick_metrics ~force:true st;
  (* One client at a time: requests are serialised, parallelism lives
     in the per-sweep worker processes. The accept loop polls the
     drain flag between (short) select timeouts. *)
  let rec accept_loop () =
    if !draining then ()
    else begin
      (match Unix.select [ sock ] [] [] 0.25 with
      | [], _, _ -> ()
      | _ :: _, _, _ -> (
          match Unix.accept sock with
          | fd, _ -> serve_client st fd
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> ())
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
      tick_metrics st;
      accept_loop ()
    end
  in
  accept_loop ();
  jlog st "down" [ ("requests", Journal.I st.requests) ]
