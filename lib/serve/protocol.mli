(** Wire protocol of the sweep service: versioned line-delimited JSON.

    Every frame is one JSON object on one line, carrying [{"v":1}].
    Requests name an operation in ["req"]; responses name an event in
    ["ev"]. Point results reuse the point-result codec
    ({!Amsvp_sweep.Point_result.json}) verbatim as the ["result"]
    payload, so a client that can read a checkpoint file can read the
    stream. Every frame is printed by
    {!Amsvp_util.Json.print}.

    Decoders are total: a malformed, truncated or wrong-version frame
    yields [Error] with a human-readable reason, never an exception —
    a confused client cannot take the daemon down. *)

val version : int
(** Current protocol version, [1]. *)

type request =
  | Submit of { spec_text : string }
      (** run a sweep; [spec_text] is the {!Amsvp_sweep.Spec} text form.
          Its points run on the daemon's [--workers] processes; a [jobs]
          directive in it changes nothing. *)
  | Ping
  | Stats
  | Shutdown  (** answer [Bye], then drain and exit *)

type stats = {
  st_requests : int;
  st_points : int;  (** points executed since start (resumed excluded) *)
  st_ctx_hits : int;  (** submits served by a warm prepared sweep *)
  st_ctx_misses : int;
  st_uptime_s : float;
  st_in_flight : int;  (** points dispatched but not yet resolved *)
  st_workers : int;  (** configured worker count *)
  st_spawned : int;  (** worker processes forked since start *)
  st_crashed : int;  (** points resolved with a [Crashed] verdict *)
  st_timeouts : int;  (** points resolved with a [Timeout] verdict *)
  st_redispatched : int;  (** re-dispatches after a worker death *)
  st_telemetry_torn : int;  (** telemetry frames dropped as torn *)
  st_journal_dropped : int;  (** journal ring overwrites ({!Amsvp_obs.Journal.dropped}) *)
  st_heap_words : int;  (** [Gc.quick_stat] major heap words *)
}

type response =
  | Accepted of {
      id : int;  (** request id; echoed on every event of this sweep *)
      sweep : string;
      circuit : string;
      points : int;  (** full expansion size *)
      resumed : int;  (** recovered from the checkpoint, streamed first *)
    }
  | Point of { id : int; result : Amsvp_sweep.Point_result.t }
  | Done of {
      id : int;
      points : int;  (** results delivered (= expansion when complete) *)
      unhealthy : int;
      cache_hits : int;
      cache_misses : int;
      total_s : float;
      complete : bool;  (** [false] when a drain interrupted the sweep *)
    }
  | Failed of { message : string }
  | Rejected of {
      message : string;
      findings : Amsvp_diag.Diag.finding list;
          (** the diagnostics that rejected the submit: pre-flight gate
              findings ([Diag.Rejected]) or value-range screen errors
              (AMS06x, upgraded under the daemon's [werror]); each
              carries its code, severity, message and span *)
    }
  | Pong
  | Stats_reply of stats
  | Bye

val encode_request : request -> string
(** One line, no trailing newline. *)

val encode_response : response -> string

val point_frame : id:int -> string -> string
(** [point_frame ~id line] is [encode_response (Point { id; result })]
    for the result [line] encodes ({!Amsvp_sweep.Point_result.to_line}),
    built around [line] without decoding or printing it again. *)

val decode_request : string -> (request, string) result
val decode_response : string -> (response, string) result
