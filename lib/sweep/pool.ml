module Json = Amsvp_util.Json
module Journal = Amsvp_obs.Journal
module Obs = Amsvp_obs.Obs
module Health = Amsvp_probe.Health

(* Worker lifecycle counters: always live (metrics are unconditional),
   aggregated service-wide because worker deltas ingested from
   telemetry frames land in this same registry. *)
let c_spawned =
  Obs.Counter.make ~help:"worker processes forked"
    "amsvp_pool_spawned_total"

let c_crashed =
  Obs.Counter.make ~help:"points resolved with a crashed verdict"
    "amsvp_pool_crashed_total"

let c_kills =
  Obs.Counter.make ~help:"workers SIGKILLed past the parent deadline"
    "amsvp_pool_kills_total"

let c_redispatch =
  Obs.Counter.make ~help:"points re-dispatched after a worker death"
    "amsvp_pool_redispatch_total"

let c_torn =
  Obs.Counter.make ~help:"telemetry frames dropped as torn"
    "amsvp_pool_telemetry_torn_total"

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

(* ---- task codec (parent -> child), one line per task ----

   A task names its points by index into the point table the child
   inherited at fork, each with its dispatch attempt; labels and
   overrides never travel. Workers outlive the request they were forked
   in, so the request id travels with each task rather than being fixed
   in the child. *)
let encode_task ?request_id (batch : (int * int) array) =
  let b = Buffer.create (24 + (12 * Array.length batch)) in
  Buffer.add_string b "{\"points\":[";
  Array.iteri
    (fun i (index, retry) ->
      if i > 0 then Buffer.add_char b ',';
      Printf.bprintf b "[%d,%d]" index retry)
    batch;
  Buffer.add_char b ']';
  Option.iter (Printf.bprintf b ",\"req\":%d") request_id;
  Buffer.add_string b "}\n";
  Buffer.contents b

let opt_all f l =
  List.fold_right
    (fun x acc ->
      match (f x, acc) with Some y, Some tl -> Some (y :: tl) | _ -> None)
    l (Some [])

let decode_task line =
  match Json.parse line with
  | j -> (
      let pair = function
        | Json.Arr [ Json.Num index; Json.Num retry ] ->
            Some (int_of_float index, int_of_float retry)
        | _ -> None
      in
      match opt_all pair (Json.mem_list "points" j) with
      | None | Some [] -> None
      | Some batch ->
          Some (batch, Option.map int_of_float (Json.mem_float "req" j)))
  | exception Json.Parse_error _ -> None

(* ---- telemetry frames (child -> parent, on the result pipe) ----

   A worker interleaves telemetry lines with result lines on its one
   pipe. Telemetry is advisory: the parent must be able to tell "this
   is telemetry, possibly torn" from "this is (supposed to be) a
   result line", because a torn result still means the worker died
   mid-write whereas a torn telemetry frame must never cost a point.
   The discriminator is the frame prefix [telemetry_prefix]: the
   encoders below always start a telemetry line with it, and the task
   codec / point-result codec never emit a "tel" key. The frames carry
   the serve protocol's version field, [{"v":1}]. *)

type telemetry =
  | Tel_journal of Journal.event list
  | Tel_spans of { origin : string; spans : Obs.span list }
  | Tel_counters of {
      origin : string;
      counters : (string * (string * string) list * int) list;
    }

let int i = Json.Num (float_of_int i)
let frame fields = Json.print (Json.Obj (("v", int 1) :: fields))

(* Pinned by a test to the bytes {!encode_telemetry}'s frames open with. *)
let telemetry_prefix = "{\"v\":1,\"tel\":\""

let string_pairs_json pairs =
  Json.Obj (List.map (fun (k, v) -> (k, Json.Str v)) pairs)

let span_json (s : Obs.span) =
  let open Json in
  Obj
    ([ ("name", Str s.Obs.name); ("cat", Str s.Obs.cat);
       ("start_ns", int s.Obs.start_ns); ("dur_ns", int s.Obs.dur_ns);
       ("depth", int s.Obs.depth) ]
    @ (if s.Obs.proc <> "" then [ ("proc", Str s.Obs.proc) ] else [])
    @ if s.Obs.args <> [] then [ ("args", string_pairs_json s.Obs.args) ]
      else [])

let counter_json (name, labels, value) =
  Json.Obj
    ([ ("name", Json.Str name) ]
    @ (if labels <> [] then [ ("labels", string_pairs_json labels) ] else [])
    @ [ ("value", int value) ])

let encode_telemetry t =
  let open Json in
  let tel kind fields = frame (("tel", Str kind) :: fields) in
  match t with
  | Tel_journal events ->
      tel "journal" [ ("events", Arr (List.map Journal.event_json events)) ]
  | Tel_spans { origin; spans } ->
      tel "spans"
        [ ("origin", Str origin); ("spans", Arr (List.map span_json spans)) ]
  | Tel_counters { origin; counters } ->
      tel "counters"
        [ ("origin", Str origin);
          ("counters", Arr (List.map counter_json counters)) ]

(* Decoding back into journal values. Numbers decode to [I] when they
   are integral and inside the range the [I] encoder can have produced
   (so the round-trip is canonical: what re-encodes identically);
   everything else stays [F]. The journal's non-finite string encoding
   maps back to the floats it names — a payload [S "NaN"] encodes to
   the same bytes as [F nan], so decoding either spelling to [F nan]
   keeps re-encoding stable. *)
let value_of_json = function
  | Json.Bool b -> Some (Journal.B b)
  | Json.Num v ->
      if
        Float.is_integer v
        && Float.abs v <= 1e15
        && not (v = 0.0 && 1.0 /. v < 0.0) (* -0. must stay a float *)
      then Some (Journal.I (int_of_float v))
      else Some (Journal.F v)
  | Json.Str "NaN" -> Some (Journal.F nan)
  | Json.Str "Infinity" -> Some (Journal.F infinity)
  | Json.Str "-Infinity" -> Some (Journal.F neg_infinity)
  | Json.Str s -> Some (Journal.S s)
  | _ -> None

let severity_of_label = function
  | "debug" -> Some Journal.Debug
  | "info" -> Some Journal.Info
  | "warn" -> Some Journal.Warn
  | "error" -> Some Journal.Error
  | _ -> None

let string_pairs = function
  | Json.Obj fields ->
      opt_all
        (fun (k, v) -> Option.map (fun s -> (k, s)) (Json.to_string v))
        fields
  | _ -> None

let event_of_json j =
  let ( let* ) = Option.bind in
  let int k = Option.map int_of_float (Json.mem_float k j) in
  let* seq = int "seq" in
  let* cat = Json.mem_string "cat" j in
  let* name = Json.mem_string "name" j in
  let* severity = Option.bind (Json.mem_string "sev" j) severity_of_label in
  let* wall_ns = int "wall_ns" in
  let origin = Option.value ~default:"" (Json.mem_string "origin" j) in
  let step = Option.value ~default:(-1) (int "step") in
  let time = Option.value ~default:nan (Json.mem_float "time" j) in
  let* payload =
    match Json.member "data" j with
    | Some (Json.Obj fields) ->
        opt_all
          (fun (k, v) -> Option.map (fun x -> (k, x)) (value_of_json v))
          fields
    | _ -> None
  in
  Some
    { Journal.seq; origin; cat; name; severity; step; time; wall_ns; payload }

let span_of_json j =
  let ( let* ) = Option.bind in
  let int k = Option.map int_of_float (Json.mem_float k j) in
  let* name = Json.mem_string "name" j in
  let* cat = Json.mem_string "cat" j in
  let* start_ns = int "start_ns" in
  let* dur_ns = int "dur_ns" in
  let* depth = int "depth" in
  let proc = Option.value ~default:"" (Json.mem_string "proc" j) in
  let* args =
    match Json.member "args" j with
    | None -> Some []
    | Some o -> string_pairs o
  in
  Some { Obs.name; cat; start_ns; dur_ns; depth; proc; args }

let counter_of_json j =
  let ( let* ) = Option.bind in
  let* name = Json.mem_string "name" j in
  let* value = Option.map int_of_float (Json.mem_float "value" j) in
  let* labels =
    match Json.member "labels" j with
    | None -> Some []
    | Some o -> string_pairs o
  in
  Some (name, labels, value)

let is_prefix ~prefix s =
  String.length s >= String.length prefix
  && String.equal (String.sub s 0 (String.length prefix)) prefix

let decode_telemetry line =
  if is_prefix ~prefix:telemetry_prefix line then begin
    let torn reason = `Torn reason in
    match Json.parse line with
    | exception Json.Parse_error (m, off) ->
        torn (Printf.sprintf "torn telemetry frame at offset %d: %s" off m)
    | j -> (
        let decoded =
          let ( let* ) = Option.bind in
          let* kind = Json.mem_string "tel" j in
          match kind with
          | "journal" ->
              let* events =
                opt_all event_of_json (Json.mem_list "events" j)
              in
              Some (Tel_journal events)
          | "spans" ->
              let* origin = Json.mem_string "origin" j in
              let* spans = opt_all span_of_json (Json.mem_list "spans" j) in
              Some (Tel_spans { origin; spans })
          | "counters" ->
              let* origin = Json.mem_string "origin" j in
              let* counters =
                opt_all counter_of_json (Json.mem_list "counters" j)
              in
              Some (Tel_counters { origin; counters })
          | _ -> None
        in
        match decoded with
        | Some t -> `Telemetry t
        | None -> torn "malformed telemetry frame")
  end
  else if
    line <> ""
    && String.length line < String.length telemetry_prefix
    && is_prefix ~prefix:line telemetry_prefix
  then
    (* The line is a proper prefix of the telemetry prefix itself: a
       telemetry frame cut off before it even finished announcing — a
       truncated result line can never look like this because result
       lines never start with the prefix. *)
    `Torn "truncated telemetry frame"
  else `Not_telemetry

(* ---- child side ---- *)

(* A raising work function is a defect in the point, not the pool: the
   point gets a crashed verdict, inline or in a worker alike, instead of
   killing its worker and burning a re-dispatch on a deterministic
   failure. *)
let guard f point =
  try f point
  with e ->
    Point_result.failed ~signal:(Printexc.to_string e) point Health.Crashed
      ~time:nan ~value:nan ~wall_s:0.0

(* ---- child-side telemetry shipping ----

   A worker inherits the parent's journal rings, span buffer, and
   counters copy-on-write, so cross-process observability is a drain
   problem: after each task the child ships everything it produced
   since its previous ship — its own journal events (the origin filter
   in [events_after] keeps inherited parent events from being
   re-shipped), its completed spans, and its positive counter values —
   as telemetry lines on the result pipe, before the result line, in
   one flush. The span buffer and counters are cleared at fork and
   after every ship, so each ship carries exactly what is new and a
   worker that lives as long as its pool does not accumulate what it
   has already shipped. *)

let make_shipper oc =
  let jmark = ref (Journal.next_seq ()) in
  Obs.reset ();
  fun () ->
    let send t =
      output_string oc (encode_telemetry t);
      output_char oc '\n'
    in
    if Journal.enabled () then begin
      match Journal.events_after !jmark with
      | [] -> ()
      | evs ->
          jmark :=
            1 + List.fold_left (fun m e -> max m e.Journal.seq) !jmark evs;
          send (Tel_journal evs)
    end;
    if Obs.enabled () then begin
      let origin = Journal.origin () in
      (match Obs.spans () with
      | [] -> ()
      | spans -> send (Tel_spans { origin; spans }));
      (match List.filter (fun (_, _, v) -> v > 0) (Obs.counter_values ()) with
      | [] -> ()
      | counters -> send (Tel_counters { origin; counters }));
      Obs.reset ()
    end

(* A result waits in the child's buffer at most this long (plus one
   point) before the batch ends, so a worker killed mid-batch loses
   little work and a slow point's result still streams on its own. *)
let flush_s = 5e-3

(* The child is a line-driven slave: read one task, run its points in
   order, write one result per point and flush once the task is done;
   EOF on the task pipe is the shutdown signal. All exits go through
   [Unix._exit] — the fork duplicated the parent's buffered channels and
   an [exit] would flush them a second time. *)
let child_loop ~slot ~points f task_r res_w =
  let ic = Unix.in_channel_of_descr task_r in
  let oc = Unix.out_channel_of_descr res_w in
  Journal.set_origin (Printf.sprintf "w%d:%d" slot (Unix.getpid ()));
  let ship = make_shipper oc in
  let n = Array.length points in
  let run_one request_id (index, retry) =
    if index < 0 || index >= n then Unix._exit 3;
    let point = points.(index) in
    if Journal.enabled () then
      Journal.emit ~cat:"serve" "task.begin"
        ((match request_id with
         | Some id -> [ ("id", Journal.I id) ]
         | None -> [])
        @ [
            ("point", Journal.S point.Sampler.label);
            ("index", Journal.I index);
            ("retry", Journal.I retry);
          ]);
    let result = guard (f ~retry) point in
    ship ();
    output_string oc (Point_result.to_line result);
    output_char oc '\n'
  in
  let rec loop () =
    match input_line ic with
    | exception End_of_file -> Unix._exit 0
    | line -> (
        match decode_task line with
        | None -> Unix._exit 3
        | Some (batch, request_id) ->
            let last = ref (Unix.gettimeofday ()) in
            List.iter
              (fun entry ->
                run_one request_id entry;
                let now = Unix.gettimeofday () in
                if now -. !last >= flush_s then begin
                  flush oc;
                  last := now
                end)
              batch;
            flush oc;
            loop ())
  in
  (* A parent gone mid-write (EPIPE) must not unwind into [exit]. *)
  try loop () with _ -> Unix._exit 2

(* ---- parent side ---- *)

(* Every descriptor a freshly forked worker must close first thing: the
   parent-side pipe ends of every live worker in every pool, plus what
   the embedding process registers (the daemon's listening socket and
   client connection). One registry for the whole process, because a
   child holding another worker's task-pipe write end would keep that
   worker from seeing EOF when its pool is closed, and [close] would
   hang in [waitpid]. *)
let parent_fds : Unix.file_descr list ref = ref []

let register_parent_fd fd = parent_fds := fd :: !parent_fds

let unregister_parent_fd fd =
  parent_fds := List.filter (fun f -> f <> fd) !parent_fds

(* Tasks a worker holds at once: the head it is running and one queued
   behind it in its task pipe, so its next task is already waiting when
   the parent reads a result. *)
let depth = 2

(* The work a task should carry: enough points that the per-task
   round trip is paid once per ~millisecond of simulation. *)
let task_s = 1e-3

(* Points written to a worker in one task line, in order, as slots of
   the run's point array; [answered] of them have come back. *)
type task = { slots : int array; mutable answered : int }

type worker = {
  slot : int;  (* stable position in the pool; part of the origin tag *)
  pid : int;
  to_child : Unix.file_descr;
  from_child : Unix.file_descr;
  buf : Buffer.t;  (* a result line cut by the end of a read *)
  tasks : task Queue.t;  (* tasks written to the child, head first *)
  mutable head_started : float;
  mutable head_deadline : float;  (* kill deadline of the head *)
  mutable alive : bool;
}

type t = {
  work : retry:int -> Sampler.point -> Point_result.t;
  points : Sampler.point array;  (* what task indices name *)
  timeout_s : float option;
  chunk : Bytes.t;  (* one read from a worker *)
  ws : worker option array;  (* [None]: not forked yet, or reaped *)
  mutable closed : bool;
}

let create ~workers ?timeout_s ~points work =
  if workers < 1 then invalid_arg "Pool.create: workers < 1";
  {
    work;
    points;
    timeout_s;
    chunk = Bytes.create 16384;
    ws = Array.make workers None;
    closed = false;
  }

let spawn pool ~slot =
  let task_r, task_w = Unix.pipe ~cloexec:false () in
  let res_r, res_w = Unix.pipe ~cloexec:false () in
  match Unix.fork () with
  | 0 ->
      List.iter
        (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
        !parent_fds;
      Unix.close task_w;
      Unix.close res_r;
      child_loop ~slot ~points:pool.points pool.work task_r res_w
  | pid ->
      Unix.close task_r;
      Unix.close res_w;
      register_parent_fd task_w;
      register_parent_fd res_r;
      let w =
        {
          slot;
          pid;
          to_child = task_w;
          from_child = res_r;
          buf = Buffer.create 256;
          tasks = Queue.create ();
          head_started = 0.0;
          head_deadline = infinity;
          alive = true;
        }
      in
      pool.ws.(slot) <- Some w;
      w

(* Close the task pipe first: an idle child is blocked on it and the
   EOF is what lets it exit before the (blocking) waitpid. Dropping
   the fds from the registry at close time keeps a later child from
   closing an unrelated reuse of the number. *)
let close_task_pipe w =
  unregister_parent_fd w.to_child;
  try Unix.close w.to_child with Unix.Unix_error _ -> ()

let finish_reap pool w =
  unregister_parent_fd w.from_child;
  (try Unix.close w.from_child with Unix.Unix_error _ -> ());
  (try ignore (Unix.waitpid [] w.pid) with Unix.Unix_error _ -> ());
  w.alive <- false;
  pool.ws.(w.slot) <- None

let reap pool w =
  close_task_pipe w;
  finish_reap pool w

let close pool =
  if not pool.closed then begin
    pool.closed <- true;
    let live = Array.to_list pool.ws |> List.filter_map Fun.id in
    (* Every child sees its EOF before the first waitpid, so they exit
       concurrently. *)
    List.iter close_task_pipe live;
    List.iter (finish_reap pool) live
  end

let write_all fd s =
  let n = String.length s in
  let rec go off =
    if off < n then
      let k = Unix.write_substring fd s off (n - off) in
      go (off + k)
  in
  go 0

let synth signal p kind ~wall_s =
  Point_result.failed ~signal p kind ~time:nan ~value:wall_s ~wall_s

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
  match decode_telemetry line with
  | `Telemetry (Tel_journal evs) ->
      Journal.ingest evs;
      true
  | `Telemetry (Tel_spans { origin; spans }) ->
      Obs.ingest_spans ~proc:origin spans;
      true
  | `Telemetry (Tel_counters { origin = _; counters }) ->
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

let run pool ?(retries = 1) ?(signal = "") ?request_id ?tally ?on_result
    ?on_batch ?(should_stop = fun () -> false)
    (points : Sampler.point array) =
  if pool.closed then invalid_arg "Pool.run: pool closed";
  Array.iter
    (fun (p : Sampler.point) ->
      let i = p.Sampler.index in
      if i < 0 || i >= Array.length pool.points
         || not (pool.points.(i) == p || pool.points.(i) = p)
      then invalid_arg "Pool.run: a point is not in the pool's table")
    points;
  let n = Array.length points in
  let results : Point_result.t option array = Array.make n None in
  if n = 0 then results
  else begin
    let prev_pipe = Sys.signal Sys.sigpipe Sys.Signal_ignore in
    Fun.protect
      ~finally:(fun () -> Sys.set_signal Sys.sigpipe prev_pipe)
    @@ fun () ->
    let retry_count = Array.make n 0 in
    (* A point that was in flight when its worker died runs alone from
       then on, so whatever it does is charged to it alone. *)
    let solo = Array.make n false in
    let requeue = Queue.create () in
    let next = ref 0 in
    let stop = ref false in
    let delivered = ref false in
    (* Worker-reported wall clock of this run's points, for sizing. *)
    let timed = ref 0 and wall_sum = ref 0.0 in
    let count f = match tally with Some t -> f t | None -> () in
    (* The child runs the cooperative in-simulation timeout itself; the
       parent's kill deadline is the backstop for a worker that hangs
       outside the stepping loop, so it is deliberately slack, and a
       batch gets one allowance per point it has yet to answer. *)
    let kill_deadline now ~left =
      match pool.timeout_s with
      | Some t -> now +. (1.5 *. t *. float_of_int left) +. 0.5
      | None -> infinity
    in
    let start_head w now =
      w.head_started <- now;
      match Queue.peek_opt w.tasks with
      | Some t ->
          w.head_deadline <-
            kill_deadline now ~left:(Array.length t.slots - t.answered)
      | None -> w.head_deadline <- infinity
    in
    let finish ~line slot r =
      results.(slot) <- Some r;
      delivered := true;
      match on_result with Some cb -> cb ~line r | None -> ()
    in
    let verdict slot r = finish ~line:(Point_result.to_line r) slot r in
    let pending_available () = (not (Queue.is_empty requeue)) || !next < n in
    let pop_pending () =
      if not (Queue.is_empty requeue) then Queue.pop requeue
      else begin
        let s = !next in
        incr next;
        s
      end
    in
    let peek_pending () =
      if Queue.is_empty requeue then !next else Queue.peek requeue
    in
    (* k is 1 until two results are timed (a worker's first point also
       pays its fork and first touches), then enough points for
       [task_s] of work, but never more than an even share of what is
       left for every task slot of the pool, so a short sweep still
       spreads over all workers. *)
    let task_size () =
      if !timed < 2 then 1
      else
        let per = Array.length pool.ws * depth in
        let left = Queue.length requeue + n - !next in
        let cap = max 1 ((left + per - 1) / per) in
        let mean = !wall_sum /. float_of_int !timed in
        if mean *. float_of_int cap <= task_s then cap
        else max 1 (int_of_float (Float.ceil (task_s /. mean)))
    in
    let take_task () =
      let first = pop_pending () in
      if solo.(first) then { slots = [| first |]; answered = 0 }
      else begin
        let k = task_size () in
        let acc = ref [ first ] and len = ref 1 in
        while !len < k && pending_available () && not solo.(peek_pending ()) do
          acc := pop_pending () :: !acc;
          incr len
        done;
        { slots = Array.of_list (List.rev !acc); answered = 0 }
      end
    in
    let live () = Array.to_list pool.ws |> List.filter_map Fun.id in
    let busy w = not (Queue.is_empty w.tasks) in
    (* A worker died (EOF / kill). A single-point head is re-dispatched
       — bounded by [retries] — or gets a synthesised verdict so the
       sweep can still complete. A batch head's unanswered points go
       back uncharged, each to run alone. Tasks queued behind the head
       never started and go back to pending uncharged. *)
    let handle_death ?(timed_out = false) w =
      (match Queue.take_opt w.tasks with
      | None -> ()
      | Some { slots = [| slot |]; _ } ->
          let wall_s = Unix.gettimeofday () -. w.head_started in
          let p = points.(slot) in
          if timed_out then begin
            Obs.Counter.incr c_kills;
            count (fun t -> t.t_timeouts <- t.t_timeouts + 1);
            jlog ?req:request_id "shard.kill"
              [
                ("point", Journal.S p.Sampler.label);
                ("wall_s", Journal.F wall_s);
              ];
            verdict slot (synth signal p Health.Timeout ~wall_s)
          end
          else if retry_count.(slot) < retries then begin
            retry_count.(slot) <- retry_count.(slot) + 1;
            Obs.Counter.incr c_redispatch;
            count (fun t -> t.t_redispatched <- t.t_redispatched + 1);
            jlog ?req:request_id "shard.redispatch"
              [
                ("point", Journal.S p.Sampler.label);
                ("retry", Journal.I retry_count.(slot));
              ];
            solo.(slot) <- true;
            Queue.push slot requeue
          end
          else begin
            Obs.Counter.incr c_crashed;
            count (fun t -> t.t_crashed <- t.t_crashed + 1);
            jlog ?req:request_id "shard.crashed"
              [
                ("point", Journal.S p.Sampler.label);
                ("retries", Journal.I retry_count.(slot));
              ];
            verdict slot (synth signal p Health.Crashed ~wall_s)
          end
      | Some head ->
          if timed_out then Obs.Counter.incr c_kills;
          let left =
            Array.sub head.slots head.answered
              (Array.length head.slots - head.answered)
          in
          jlog ?req:request_id "shard.split"
            [
              ("points", Journal.I (Array.length left));
              ("reason", Journal.S (if timed_out then "deadline" else "death"));
            ];
          Array.iter
            (fun slot ->
              solo.(slot) <- true;
              Queue.push slot requeue)
            left);
      Queue.iter (fun t -> Array.iter (fun s -> Queue.push s requeue) t.slots)
        w.tasks;
      Queue.clear w.tasks;
      reap pool w
    in
    let kill w = try Unix.kill w.pid Sys.sigkill with Unix.Unix_error _ -> () in
    let handle_line w line =
      if ingest_telemetry_line ?tally ?request_id line then ()
      else
        match (Point_result.of_line line, Queue.peek_opt w.tasks) with
        | Ok r, Some head
          when r.Point_result.point.Sampler.index
               = points.(head.slots.(head.answered)).Sampler.index ->
            let slot = head.slots.(head.answered) in
            head.answered <- head.answered + 1;
            let now = Unix.gettimeofday () in
            if head.answered = Array.length head.slots then begin
              ignore (Queue.pop w.tasks);
              (* The queued task becomes the head now: its kill deadline
                 starts here, not when it was written. *)
              start_head w now
            end
            else
              w.head_deadline <-
                kill_deadline now
                  ~left:(Array.length head.slots - head.answered);
            if Float.is_finite r.wall_s && r.wall_s >= 0.0 then begin
              incr timed;
              wall_sum := !wall_sum +. r.wall_s
            end;
            finish ~line slot r
        | _ ->
            (* A torn result, or one for a point this worker was not
               running, is indistinguishable from a crash. *)
            kill w;
            handle_death w
    in
    let chunk = pool.chunk in
    let handle_readable w =
      match Unix.read w.from_child chunk 0 (Bytes.length chunk) with
      | 0 -> handle_death w
      | k ->
          let rec eol i =
            if i >= k then None
            else if Bytes.get chunk i = '\n' then Some i
            else eol (i + 1)
          in
          let rec go start =
            match eol start with
            | Some e when w.alive ->
                let line =
                  if Buffer.length w.buf = 0 then
                    Bytes.sub_string chunk start (e - start)
                  else begin
                    Buffer.add_subbytes w.buf chunk start (e - start);
                    let l = Buffer.contents w.buf in
                    Buffer.clear w.buf;
                    l
                  end
                in
                handle_line w line;
                go (e + 1)
            | _ ->
                if w.alive then
                  Buffer.add_subbytes w.buf chunk start (k - start)
          in
          go 0
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    in
    let send w task =
      let line =
        encode_task ?request_id
          (Array.map
             (fun s -> (points.(s).Sampler.index, retry_count.(s)))
             task.slots)
      in
      match write_all w.to_child line with
      | () ->
          Queue.push task w.tasks;
          if Queue.length w.tasks = 1 then start_head w (Unix.gettimeofday ())
      | exception Unix.Unix_error _ ->
          (* Pipe already broken: the EOF on the result pipe will reap
             it; put the points back. *)
          Array.iter (fun s -> Queue.push s requeue) task.slots
    in
    (* Breadth first: every slot gets a head (forking the ones not
       running) before any gets a queued task, so a short sweep still
       spreads over the whole pool. *)
    let dispatch () =
      for level = 1 to depth do
        Array.iteri
          (fun slot w ->
            if (not !stop) && pending_available () then
              match w with
              | Some w when Queue.length w.tasks < level ->
                  send w (take_task ())
              | None when level = 1 ->
                  let w = spawn pool ~slot in
                  Obs.Counter.incr c_spawned;
                  count (fun t -> t.t_spawned <- t.t_spawned + 1);
                  send w (take_task ())
              | _ -> ())
          pool.ws
      done
    in
    let rec loop () =
      if should_stop () then stop := true;
      dispatch ();
      let ws = live () in
      if
        (not (List.exists busy ws))
        && (!stop || not (pending_available ()))
      then ()
      else begin
        let now = Unix.gettimeofday () in
        let tick =
          List.fold_left
            (fun acc w ->
              if busy w && w.head_deadline < infinity then
                Float.min acc (Float.max 0.01 (w.head_deadline -. now))
              else acc)
            0.25 ws
        in
        (match Unix.select (List.map (fun w -> w.from_child) ws) [] [] tick with
        | readable, _, _ ->
            List.iter
              (fun w ->
                if w.alive && List.mem w.from_child readable then
                  handle_readable w)
              ws
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
        (* Kill-deadline check: a worker stuck past the backstop is
           SIGKILLed; a single-point head is reported as timed out. *)
        let now = Unix.gettimeofday () in
        List.iter
          (fun w ->
            if w.alive && busy w && now > w.head_deadline then begin
              kill w;
              handle_death ~timed_out:true w
            end)
          ws;
        (* Everything this wake-up delivered is out: the caller writes
           it on in one go before the pool blocks again. *)
        if !delivered then begin
          delivered := false;
          Option.iter (fun f -> f ()) on_batch
        end;
        loop ()
      end
    in
    match loop () with
    | () -> results
    | exception e ->
        (* Workers still holding tasks would answer them into the next
           run: kill them, so the pool only ever keeps idle workers. *)
        List.iter
          (fun w ->
            if busy w then begin
              kill w;
              reap pool w
            end)
          (live ());
        raise e
  end
