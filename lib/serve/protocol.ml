module Json = Amsvp_util.Json
module Checkpoint = Amsvp_sweep.Checkpoint
module Runner = Amsvp_sweep.Runner
module Journal = Amsvp_obs.Journal
module Obs = Amsvp_obs.Obs

let version = 1

type request =
  | Submit of { spec_text : string; jobs : int option }
  | Ping
  | Stats
  | Shutdown

type stats = {
  st_requests : int;
  st_points : int;
  st_ctx_hits : int;
  st_ctx_misses : int;
  st_uptime_s : float;
  st_in_flight : int;
  st_workers : int;
  st_spawned : int;
  st_crashed : int;
  st_timeouts : int;
  st_redispatched : int;
  st_telemetry_torn : int;
  st_journal_dropped : int;
  st_heap_words : int;
}

type response =
  | Accepted of {
      id : int;
      sweep : string;
      circuit : string;
      points : int;
      resumed : int;
    }
  | Point of { id : int; result : Runner.point_result }
  | Done of {
      id : int;
      points : int;
      unhealthy : int;
      cache_hits : int;
      cache_misses : int;
      total_s : float;
      complete : bool;
    }
  | Failed of { message : string }
  | Rejected of {
      message : string;
      findings : Amsvp_diag.Diag.finding list;
    }
  | Pong
  | Stats_reply of stats
  | Bye

(* ---- encoders: one line, no trailing newline ---- *)

let int i = Json.Num (float_of_int i)

(* Every frame opens with the protocol version. *)
let frame fields = Json.print (Json.Obj (("v", int version) :: fields))

let encode_request = function
  | Submit { spec_text; jobs } ->
      frame
        ([ ("req", Json.Str "submit"); ("spec", Json.Str spec_text) ]
        @ match jobs with Some j -> [ ("jobs", int j) ] | None -> [])
  | Ping -> frame [ ("req", Json.Str "ping") ]
  | Stats -> frame [ ("req", Json.Str "stats") ]
  | Shutdown -> frame [ ("req", Json.Str "shutdown") ]

let encode_response r =
  let open Json in
  let ev name fields = frame (("ev", Str name) :: fields) in
  match r with
  | Accepted { id; sweep; circuit; points; resumed } ->
      ev "accepted"
        [ ("id", int id); ("sweep", Str sweep); ("circuit", Str circuit);
          ("points", int points); ("resumed", int resumed) ]
  | Point { id; result } ->
      ev "point" [ ("id", int id); ("result", Checkpoint.result_json result) ]
  | Done { id; points; unhealthy; cache_hits; cache_misses; total_s; complete }
    ->
      ev "done"
        [ ("id", int id); ("points", int points); ("unhealthy", int unhealthy);
          ("cache_hits", int cache_hits); ("cache_misses", int cache_misses);
          ("total_s", Num total_s); ("complete", Bool complete) ]
  | Failed { message } -> ev "error" [ ("message", Str message) ]
  | Rejected { message; findings } ->
      ev "rejected"
        [ ("message", Str message);
          ("findings", Arr (List.map Amsvp_diag.Diag.finding_json findings)) ]
  | Pong -> ev "pong" []
  | Stats_reply s ->
      ev "stats"
        [ ("requests", int s.st_requests); ("points", int s.st_points);
          ("ctx_hits", int s.st_ctx_hits); ("ctx_misses", int s.st_ctx_misses);
          ("uptime_s", Num s.st_uptime_s); ("in_flight", int s.st_in_flight);
          ("workers", int s.st_workers); ("spawned", int s.st_spawned);
          ("crashed", int s.st_crashed); ("timeouts", int s.st_timeouts);
          ("redispatched", int s.st_redispatched);
          ("telemetry_torn", int s.st_telemetry_torn);
          ("journal_dropped", int s.st_journal_dropped);
          ("heap_words", int s.st_heap_words) ]
  | Bye -> ev "bye" []

(* ---- decoders: total, never raise ---- *)

let parse_frame line =
  match Json.parse line with
  | j -> (
      match Json.mem_float "v" j with
      | Some v when int_of_float v = version -> Ok j
      | Some v ->
          Error
            (Printf.sprintf "unsupported protocol version %d (want %d)"
               (int_of_float v) version)
      | None -> Error "frame has no \"v\" field")
  | exception Json.Parse_error (m, off) ->
      Error (Printf.sprintf "malformed frame at offset %d: %s" off m)

let decode_request line =
  match parse_frame line with
  | Error _ as e -> e
  | Ok j -> (
      match Json.mem_string "req" j with
      | Some "submit" -> (
          match Json.mem_string "spec" j with
          | Some spec_text ->
              let jobs = Option.map int_of_float (Json.mem_float "jobs" j) in
              Ok (Submit { spec_text; jobs })
          | None -> Error "submit frame has no \"spec\" field")
      | Some "ping" -> Ok Ping
      | Some "stats" -> Ok Stats
      | Some "shutdown" -> Ok Shutdown
      | Some other -> Error (Printf.sprintf "unknown request %S" other)
      | None -> Error "frame has no \"req\" field")

let decode_response line =
  let ( let* ) o f =
    match o with Some v -> f v | None -> Error "malformed response frame"
  in
  let int k j = Option.map int_of_float (Json.mem_float k j) in
  match parse_frame line with
  | Error _ as e -> e
  | Ok j -> (
      match Json.mem_string "ev" j with
      | Some "accepted" ->
          let* id = int "id" j in
          let* sweep = Json.mem_string "sweep" j in
          let* circuit = Json.mem_string "circuit" j in
          let* points = int "points" j in
          let* resumed = int "resumed" j in
          Ok (Accepted { id; sweep; circuit; points; resumed })
      | Some "point" -> (
          let* id = int "id" j in
          let* rj = Json.member "result" j in
          match Checkpoint.result_of_json rj with
          | Ok result -> Ok (Point { id; result })
          | Error _ as e -> e)
      | Some "done" ->
          let* id = int "id" j in
          let* points = int "points" j in
          let* unhealthy = int "unhealthy" j in
          let* cache_hits = int "cache_hits" j in
          let* cache_misses = int "cache_misses" j in
          let* total_s = Json.mem_float "total_s" j in
          let* complete = Json.mem_bool "complete" j in
          Ok
            (Done
               {
                 id;
                 points;
                 unhealthy;
                 cache_hits;
                 cache_misses;
                 total_s;
                 complete;
               })
      | Some "error" ->
          let* message = Json.mem_string "message" j in
          Ok (Failed { message })
      | Some "rejected" -> (
          let* message = Json.mem_string "message" j in
          match
            List.fold_right
              (fun fj acc ->
                match (Amsvp_diag.Diag.finding_of_json fj, acc) with
                | Some f, Some tl -> Some (f :: tl)
                | _ -> None)
              (Json.mem_list "findings" j)
              (Some [])
          with
          | Some findings -> Ok (Rejected { message; findings })
          | None -> Error "malformed response frame")
      | Some "pong" -> Ok Pong
      | Some "stats" ->
          let* st_requests = int "requests" j in
          let* st_points = int "points" j in
          let* st_ctx_hits = int "ctx_hits" j in
          let* st_ctx_misses = int "ctx_misses" j in
          let* st_uptime_s = Json.mem_float "uptime_s" j in
          let* st_in_flight = int "in_flight" j in
          let* st_workers = int "workers" j in
          let* st_spawned = int "spawned" j in
          let* st_crashed = int "crashed" j in
          let* st_timeouts = int "timeouts" j in
          let* st_redispatched = int "redispatched" j in
          let* st_telemetry_torn = int "telemetry_torn" j in
          let* st_journal_dropped = int "journal_dropped" j in
          let* st_heap_words = int "heap_words" j in
          Ok
            (Stats_reply
               { st_requests; st_points; st_ctx_hits; st_ctx_misses;
                 st_uptime_s; st_in_flight; st_workers; st_spawned;
                 st_crashed; st_timeouts; st_redispatched;
                 st_telemetry_torn; st_journal_dropped; st_heap_words })
      | Some "bye" -> Ok Bye
      | Some other -> Error (Printf.sprintf "unknown event %S" other)
      | None -> Error "frame has no \"ev\" field")

(* ---- telemetry frames (worker -> parent, on the result pipe) ----

   A worker interleaves telemetry lines with result lines on its one
   pipe. Telemetry is advisory: the parent must be able to tell "this
   is telemetry, possibly torn" from "this is (supposed to be) a
   result line", because a torn result still means the worker died
   mid-write whereas a torn telemetry frame must never cost a point.
   The discriminator is the frame prefix [telemetry_prefix]: the
   encoders below always start a telemetry line with it, and the task
   codec / checkpoint result codec never emit a "tel" key. *)

type telemetry =
  | Tel_journal of Journal.event list
  | Tel_spans of { origin : string; spans : Obs.span list }
  | Tel_counters of {
      origin : string;
      counters : (string * (string * string) list * int) list;
    }

(* Pinned by a test to the bytes {!encode_telemetry}'s frames open with. *)
let telemetry_prefix = Printf.sprintf "{\"v\":%d,\"tel\":\"" version

let string_pairs_json pairs =
  Json.Obj (List.map (fun (k, v) -> (k, Json.Str v)) pairs)

let span_json (s : Obs.span) =
  let open Json in
  Obj
    ([ ("name", Str s.Obs.name); ("cat", Str s.Obs.cat);
       ("start_ns", int s.Obs.start_ns); ("dur_ns", int s.Obs.dur_ns);
       ("depth", int s.Obs.depth); ("dom", int s.Obs.dom) ]
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

let opt_all f l =
  List.fold_right
    (fun x acc ->
      match (f x, acc) with Some y, Some tl -> Some (y :: tl) | _ -> None)
    l (Some [])

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
  let* dom = int "dom" in
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
    { Journal.seq; origin; dom; cat; name; severity; step; time; wall_ns;
      payload }

let span_of_json j =
  let ( let* ) = Option.bind in
  let int k = Option.map int_of_float (Json.mem_float k j) in
  let* name = Json.mem_string "name" j in
  let* cat = Json.mem_string "cat" j in
  let* start_ns = int "start_ns" in
  let* dur_ns = int "dur_ns" in
  let* depth = int "depth" in
  let* dom = int "dom" in
  let proc = Option.value ~default:"" (Json.mem_string "proc" j) in
  let* args =
    match Json.member "args" j with
    | None -> Some []
    | Some o -> string_pairs o
  in
  Some { Obs.name; cat; start_ns; dur_ns; depth; dom; proc; args }

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
