module Runner = Amsvp_sweep.Runner
module Sampler = Amsvp_sweep.Sampler
module Checkpoint = Amsvp_sweep.Checkpoint
module Json = Amsvp_util.Json
module Journal = Amsvp_obs.Journal
module Obs = Amsvp_obs.Obs
module Health = Amsvp_probe.Health

(* Worker lifecycle counters: always live (metrics are unconditional),
   aggregated service-wide because worker deltas ingested from
   telemetry frames land in this same registry. *)
let c_spawned =
  Obs.Counter.make ~help:"worker processes forked"
    "amsvp_procpool_spawned_total"

let c_crashed =
  Obs.Counter.make ~help:"points resolved with a crashed verdict"
    "amsvp_procpool_crashed_total"

let c_kills =
  Obs.Counter.make ~help:"workers SIGKILLed past the parent deadline"
    "amsvp_procpool_kills_total"

let c_redispatch =
  Obs.Counter.make ~help:"points re-dispatched after a worker death"
    "amsvp_procpool_redispatch_total"

let c_torn =
  Obs.Counter.make ~help:"telemetry frames dropped as torn"
    "amsvp_procpool_telemetry_torn_total"

(* Per-run outcome tally a caller (the daemon) can hand in to surface
   worker outcomes in its status reply without scraping the journal. *)
type tally = {
  mutable t_spawned : int;
  mutable t_crashed : int;
  mutable t_timeouts : int;
  mutable t_redispatched : int;
  mutable t_torn : int;
}

let make_tally () =
  { t_spawned = 0; t_crashed = 0; t_timeouts = 0; t_redispatched = 0;
    t_torn = 0 }

(* ---- task codec (parent -> child), one line per dispatch ---- *)

let encode_task (p : Sampler.point) ~retry =
  let open Json in
  print
    (Obj
       [ ("index", Num (float_of_int p.Sampler.index));
         ("label", Str p.Sampler.label);
         ("overrides", Obj (List.map (fun (k, v) -> (k, Num v)) p.overrides));
         ("retry", Num (float_of_int retry)) ])

let decode_task line =
  match Json.parse line with
  | j -> (
      match
        ( Option.map int_of_float (Json.mem_float "index" j),
          Json.mem_string "label" j,
          Json.member "overrides" j,
          Option.map int_of_float (Json.mem_float "retry" j) )
      with
      | Some index, Some label, Some (Json.Obj fields), Some retry ->
          let overrides =
            List.filter_map
              (fun (k, v) -> Option.map (fun f -> (k, f)) (Json.to_float v))
              fields
          in
          Some ({ Sampler.index; label; overrides }, retry)
      | _ -> None)
  | exception Json.Parse_error _ -> None

(* ---- child side ---- *)

(* ---- child-side telemetry shipping ----

   A worker inherits the parent's journal rings, span buffer, and
   counters copy-on-write, so cross-process observability is a drain
   problem: after each task the child ships everything it produced
   since its previous ship — its own journal events (the origin filter
   in [events_after] keeps inherited parent events from being
   re-shipped), newly completed spans, and positive counter deltas —
   as telemetry lines on the result pipe, before the result line, in
   one flush. *)

let counter_lookup base (name, labels, _) =
  match
    List.find_opt (fun (n, ls, _) -> n = name && ls = labels) base
  with
  | Some (_, _, v) -> v
  | None -> 0

let make_shipper oc =
  let jmark = ref (Journal.next_seq ()) in
  let smark = ref (Obs.span_count ()) in
  let cbase = ref (Obs.counter_values ()) in
  fun () ->
    let send t =
      output_string oc (Protocol.encode_telemetry t);
      output_char oc '\n'
    in
    if Journal.enabled () then begin
      match Journal.events_after !jmark with
      | [] -> ()
      | evs ->
          jmark :=
            1 + List.fold_left (fun m e -> max m e.Journal.seq) !jmark evs;
          send (Protocol.Tel_journal evs)
    end;
    if Obs.enabled () then begin
      let origin = Journal.origin () in
      (match Obs.spans_from !smark with
      | [] -> ()
      | spans ->
          smark := !smark + List.length spans;
          send (Protocol.Tel_spans { origin; spans }));
      let current = Obs.counter_values () in
      let deltas =
        List.filter_map
          (fun ((name, labels, v) as c) ->
            let d = v - counter_lookup !cbase c in
            if d > 0 then Some (name, labels, d) else None)
          current
      in
      cbase := current;
      if deltas <> [] then
        send (Protocol.Tel_counters { origin; counters = deltas })
    end

(* The child is a line-driven slave: read one task, run it, write one
   result, repeat; EOF on the task pipe is the shutdown signal. All
   exits go through [Unix._exit] — the fork duplicated the parent's
   buffered channels and an [exit] would flush them a second time. *)
let child_loop ~slot ?request_id f task_r res_w =
  let ic = Unix.in_channel_of_descr task_r in
  let oc = Unix.out_channel_of_descr res_w in
  Journal.set_origin (Printf.sprintf "w%d:%d" slot (Unix.getpid ()));
  let ship = make_shipper oc in
  let req_payload =
    match request_id with
    | Some id -> [ ("id", Journal.I id) ]
    | None -> []
  in
  let rec loop () =
    match input_line ic with
    | exception End_of_file -> Unix._exit 0
    | line -> (
        match decode_task line with
        | None -> Unix._exit 3
        | Some (point, retry) ->
            if Journal.enabled () then
              Journal.emit ~cat:"serve" "task.begin"
                (req_payload
                @ [
                    ("point", Journal.S point.Sampler.label);
                    ("index", Journal.I point.Sampler.index);
                    ("retry", Journal.I retry);
                  ]);
            let result =
              try f ~retry point
              with e ->
                (* A raising work function is a defect in the point, not
                   the pool: report it as a crashed point rather than
                   dying and burning a re-dispatch on a deterministic
                   failure. *)
                {
                  Runner.point;
                  out_final = nan;
                  out_rms = nan;
                  nrmse = None;
                  health =
                    {
                      Health.v_signal = Printexc.to_string e;
                      v_healthy = false;
                      v_issues =
                        [ { Health.kind = Health.Crashed; time = nan;
                            value = nan } ];
                    };
                  cached = false;
                  wall_s = 0.0;
                }
            in
            ship ();
            output_string oc (Checkpoint.result_to_json result);
            output_char oc '\n';
            flush oc;
            loop ())
  in
  loop ()

(* ---- parent side ---- *)

type worker = {
  slot : int;  (* stable position in the pool; part of the origin tag *)
  mutable pid : int;
  mutable to_child : Unix.file_descr;
  mutable from_child : Unix.file_descr;
  mutable buf : Buffer.t;
  mutable current : (int * float) option;  (* point slot, kill deadline *)
  mutable alive : bool;
}

(* [sibling_fds] are the parent-side pipe ends of every other live
   worker: a fork inherits them all, and a child holding a sibling's
   task-pipe write end would keep that sibling alive past the parent's
   close (no EOF), deadlocking shutdown — so each child closes them
   first thing. *)
let spawn ~slot ?request_id ~sibling_fds f =
  let task_r, task_w = Unix.pipe ~cloexec:false () in
  let res_r, res_w = Unix.pipe ~cloexec:false () in
  match Unix.fork () with
  | 0 ->
      List.iter
        (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
        sibling_fds;
      Unix.close task_w;
      Unix.close res_r;
      child_loop ~slot ?request_id f task_r res_w
  | pid ->
      Unix.close task_r;
      Unix.close res_w;
      {
        slot;
        pid;
        to_child = task_w;
        from_child = res_r;
        buf = Buffer.create 256;
        current = None;
        alive = true;
      }

let write_all fd s =
  let b = Bytes.of_string s in
  let n = Bytes.length b in
  let rec go off =
    if off < n then
      let k = Unix.write fd b off (n - off) in
      go (off + k)
  in
  go 0

let synth ctx_signal (p : Sampler.point) kind ~wall_s =
  {
    Runner.point = p;
    out_final = nan;
    out_rms = nan;
    nrmse = None;
    health =
      {
        Health.v_signal = ctx_signal;
        v_healthy = false;
        v_issues = [ { Health.kind; time = nan; value = wall_s } ];
      };
    cached = false;
    wall_s;
  }

let jlog ?req name payload =
  if Journal.enabled () then
    let payload =
      match req with
      | Some id -> ("id", Journal.I id) :: payload
      | None -> payload
    in
    Journal.emit ~severity:Journal.Warn ~cat:"serve" name payload

(* Classify and absorb one pipe line if it is telemetry. Returns false
   when the line is not a telemetry frame (the caller then treats it
   as a result line). A torn frame is absorbed too — dropped, counted,
   journaled — because a worker that managed to write a recognisable
   telemetry prefix is still alive and its connection still carries
   ordered lines; only result-line corruption implies death. *)
let ingest_telemetry_line ?tally ?request_id line =
  match Protocol.decode_telemetry line with
  | `Telemetry (Protocol.Tel_journal evs) ->
      Journal.ingest evs;
      true
  | `Telemetry (Protocol.Tel_spans { origin; spans }) ->
      Obs.ingest_spans ~proc:origin spans;
      true
  | `Telemetry (Protocol.Tel_counters { origin = _; counters }) ->
      List.iter
        (fun (name, labels, d) ->
          (* A kind clash (the name is a gauge here) or a hostile
             negative delta must not take the pool down: telemetry is
             advisory. *)
          match Obs.Counter.make ~labels name with
          | c -> ( try Obs.Counter.add c d with Invalid_argument _ -> ())
          | exception Invalid_argument _ -> ())
        counters;
      true
  | `Torn reason ->
      (match tally with Some t -> t.t_torn <- t.t_torn + 1 | None -> ());
      Obs.Counter.incr c_torn;
      jlog ?req:request_id "telemetry.torn" [ ("reason", Journal.S reason) ];
      true
  | `Not_telemetry -> false

let run ~workers ?timeout_s ?(retries = 1) ?(signal = "") ?request_id ?tally
    ?on_result ?(should_stop = fun () -> false) f
    (points : Sampler.point array) =
  if workers < 1 then invalid_arg "Procpool.run: workers < 1";
  let n = Array.length points in
  let results : Runner.point_result option array = Array.make n None in
  if n = 0 then results
  else begin
    let prev_pipe = Sys.signal Sys.sigpipe Sys.Signal_ignore in
    Fun.protect
      ~finally:(fun () -> Sys.set_signal Sys.sigpipe prev_pipe)
    @@ fun () ->
    let retry_count = Array.make n 0 in
    let requeue = Queue.create () in
    let next = ref 0 in
    let done_count = ref 0 in
    let stop = ref false in
    let live_fds = ref [] in
    let spawn_tracked slot =
      let w = spawn ~slot ?request_id ~sibling_fds:!live_fds f in
      Obs.Counter.incr c_spawned;
      (match tally with Some t -> t.t_spawned <- t.t_spawned + 1 | None -> ());
      live_fds := w.to_child :: w.from_child :: !live_fds;
      w
    in
    let forget_fds w =
      live_fds :=
        List.filter
          (fun fd -> fd <> w.to_child && fd <> w.from_child)
          !live_fds
    in
    let ws = Array.init (min workers n) (fun i -> spawn_tracked i) in
    let dispatch_times = Array.make n 0.0 in
    (* The child runs the cooperative in-simulation timeout itself; the
       parent's kill deadline is the backstop for a worker that hangs
       outside the stepping loop, so it is deliberately slack. *)
    let kill_deadline now =
      match timeout_s with
      | Some t -> now +. (1.5 *. t) +. 0.5
      | None -> infinity
    in
    let finish slot r =
      results.(slot) <- Some r;
      incr done_count;
      match on_result with Some cb -> cb r | None -> ()
    in
    let pending_available () = (not (Queue.is_empty requeue)) || !next < n in
    let pop_pending () =
      if not (Queue.is_empty requeue) then Queue.pop requeue
      else begin
        let s = !next in
        incr next;
        s
      end
    in
    let reap w =
      (* Close the task pipe first: an idle child is blocked on it and
         the EOF is what lets it exit before the (blocking) waitpid.
         Dropping the fds from [live_fds] at close time also keeps a
         later child from closing an unrelated reuse of the number. *)
      forget_fds w;
      (try Unix.close w.to_child with Unix.Unix_error _ -> ());
      (try Unix.close w.from_child with Unix.Unix_error _ -> ());
      (try ignore (Unix.waitpid [] w.pid) with Unix.Unix_error _ -> ());
      w.alive <- false
    in
    let respawn w =
      let fresh = spawn_tracked w.slot in
      w.pid <- fresh.pid;
      w.to_child <- fresh.to_child;
      w.from_child <- fresh.from_child;
      w.buf <- Buffer.create 256;
      w.current <- None;
      w.alive <- true
    in
    (* A worker died (EOF / kill). Its in-flight point either gets
       re-dispatched — bounded by [retries] — or a synthesised verdict
       so the sweep can still complete. *)
    let handle_death ?(timed_out = false) w =
      (match w.current with
      | None -> ()
      | Some (slot, _) ->
          let wall_s = Unix.gettimeofday () -. dispatch_times.(slot) in
          let p = points.(slot) in
          if timed_out then begin
            Obs.Counter.incr c_kills;
            (match tally with
            | Some t -> t.t_timeouts <- t.t_timeouts + 1
            | None -> ());
            jlog ?req:request_id "shard.kill"
              [
                ("point", Journal.S p.Sampler.label);
                ("wall_s", Journal.F wall_s);
              ];
            finish slot (synth signal p Health.Timeout ~wall_s)
          end
          else if retry_count.(slot) < retries then begin
            retry_count.(slot) <- retry_count.(slot) + 1;
            Obs.Counter.incr c_redispatch;
            (match tally with
            | Some t -> t.t_redispatched <- t.t_redispatched + 1
            | None -> ());
            jlog ?req:request_id "shard.redispatch"
              [
                ("point", Journal.S p.Sampler.label);
                ("retry", Journal.I retry_count.(slot));
              ];
            Queue.push slot requeue
          end
          else begin
            Obs.Counter.incr c_crashed;
            (match tally with
            | Some t -> t.t_crashed <- t.t_crashed + 1
            | None -> ());
            jlog ?req:request_id "shard.crashed"
              [
                ("point", Journal.S p.Sampler.label);
                ("retries", Journal.I retry_count.(slot));
              ];
            finish slot (synth signal p Health.Crashed ~wall_s)
          end;
          w.current <- None);
      reap w;
      if (not !stop) && pending_available () then respawn w
    in
    let handle_line w line =
      if ingest_telemetry_line ?tally ?request_id line then ()
      else
        match Checkpoint.result_of_line line with
        | Ok r -> (
            match w.current with
            | Some (slot, _) ->
                w.current <- None;
                finish slot r
            | None -> () (* stray line after a re-dispatch; drop *))
        | Error _ ->
            (* A torn result is indistinguishable from a crash. *)
            (try Unix.kill w.pid Sys.sigkill with Unix.Unix_error _ -> ());
            handle_death w
    in
    let handle_readable w =
      let chunk = Bytes.create 4096 in
      match Unix.read w.from_child chunk 0 4096 with
      | 0 -> handle_death w
      | k ->
          Buffer.add_subbytes w.buf chunk 0 k;
          let s = Buffer.contents w.buf in
          let parts = String.split_on_char '\n' s in
          let rec go = function
            | [] -> ()
            | [ tail ] ->
                Buffer.clear w.buf;
                Buffer.add_string w.buf tail
            | line :: rest ->
                handle_line w line;
                go rest
          in
          go parts
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    in
    let dispatch () =
      Array.iter
        (fun w ->
          if w.alive && w.current = None && (not !stop) && pending_available ()
          then begin
            let slot = pop_pending () in
            let now = Unix.gettimeofday () in
            dispatch_times.(slot) <- now;
            let line =
              encode_task points.(slot) ~retry:retry_count.(slot) ^ "\n"
            in
            match write_all w.to_child line with
            | () -> w.current <- Some (slot, kill_deadline now)
            | exception Unix.Unix_error _ ->
                (* Pipe already broken: the EOF on the result pipe will
                   reap it; put the point back. *)
                Queue.push slot requeue
          end)
        ws
    in
    let rec loop () =
      if should_stop () then stop := true;
      dispatch ();
      let in_flight = Array.exists (fun w -> w.current <> None) ws in
      if
        (not in_flight)
        && (!stop || !done_count = n || not (pending_available ()))
      then ()
      else begin
        let now = Unix.gettimeofday () in
        let tick =
          Array.fold_left
            (fun acc w ->
              match w.current with
              | Some (_, dl) when dl < infinity ->
                  Float.min acc (Float.max 0.01 (dl -. now))
              | _ -> acc)
            0.25 ws
        in
        let fds =
          Array.to_list ws
          |> List.filter_map (fun w ->
                 if w.alive then Some w.from_child else None)
        in
        (match Unix.select fds [] [] tick with
        | readable, _, _ ->
            Array.iter
              (fun w ->
                if w.alive && List.mem w.from_child readable then
                  handle_readable w)
              ws
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
        (* Kill-deadline check: a worker stuck past the backstop is
           SIGKILLed and its point reported as timed out. *)
        let now = Unix.gettimeofday () in
        Array.iter
          (fun w ->
            match w.current with
            | Some (_, dl) when w.alive && now > dl ->
                (try Unix.kill w.pid Sys.sigkill
                 with Unix.Unix_error _ -> ());
                handle_death ~timed_out:true w
            | _ -> ())
          ws;
        loop ()
      end
    in
    loop ();
    Array.iter (fun w -> if w.alive then reap w) ws;
    results
  end
