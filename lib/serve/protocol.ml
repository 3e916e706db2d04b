module Json = Amsvp_util.Json
module Point_result = Amsvp_sweep.Point_result

let version = 1

type request =
  | Submit of { spec_text : string }
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
  | Point of { id : int; result : Point_result.t }
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
  | Submit { spec_text } ->
      frame [ ("req", Json.Str "submit"); ("spec", Json.Str spec_text) ]
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
      ev "point" [ ("id", int id); ("result", Point_result.json result) ]
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
          | Some spec_text -> Ok (Submit { spec_text })
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
          match Point_result.of_json rj with
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
