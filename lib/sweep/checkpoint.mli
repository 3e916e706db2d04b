(** Durable per-point progress for sweeps, and the point-result wire
    codec.

    A checkpoint is a JSONL file: a header line binding the file to one
    spec + circuit (via an MD5 of the spec's canonical text form), then
    one self-contained JSON object per {e completed} point, appended and
    flushed as points finish.  Killing the process — SIGKILL included —
    loses at most the line being written; {!load} recovers every intact
    result and a resumed run ({!Runner.run}'s [completed] argument)
    reruns only the missing points.

    Floats round-trip byte-exactly ({!Amsvp_util.Json.print}'s float
    rule), so a resumed sweep's report equals the uninterrupted one's.

    The per-result codec ({!result_to_json} / {!result_of_json}) is also
    the payload format the {e serve} protocol streams to clients. *)

val digest : Spec.t -> circuit:string -> string
(** Hex MD5 of the spec's canonical text form plus the circuit label —
    the identity a checkpoint header records. *)

(** {1 Point-result codec} *)

val point_json :
  Runner.point_result -> (string * Amsvp_util.Json.t) list -> Amsvp_util.Json.t
(** [point_json r tail]: the object every point row opens with —
    [index], [label], [overrides], [out_final], [out_rms] and [nrmse]
    when there is one — followed by the fields of [tail]. Both
    {!result_json} and the sweep report's per-point rows build on it. *)

val issue_json : Amsvp_probe.Health.issue -> Amsvp_util.Json.t
(** [{kind, time, value}]. *)

val result_json : Runner.point_result -> Amsvp_util.Json.t
(** The JSON object {!result_to_json} prints; the service protocol
    embeds it in its point frames. *)

val result_to_json : Runner.point_result -> string
(** One-line JSON object (no trailing newline). *)

val result_of_json : Amsvp_util.Json.t -> (Runner.point_result, string) result

val result_of_line : string -> (Runner.point_result, string) result
(** Parse + decode one line; total. *)

(** {1 Checkpoint files} *)

type writer

val create :
  path:string -> Spec.t -> circuit:string -> points:int -> writer
(** Truncate [path] and write the header line. *)

val append : writer -> Runner.point_result -> unit
(** Append one result line and flush. Serialised internally — safe to
    call from {!Runner.run}'s [on_point] on any worker domain. *)

val close : writer -> unit

val load :
  path:string ->
  Spec.t ->
  circuit:string ->
  (Runner.point_result list, string) result
(** Recovered results, in file order. [Ok []] when the file is missing
    or empty; [Error] when it exists but its header does not match this
    spec + circuit. A torn final line (kill mid-write) is silently
    dropped. *)

val open_resume :
  path:string ->
  Spec.t ->
  circuit:string ->
  points:int ->
  Runner.point_result list * writer
(** [load] then reopen for appending: recovered results plus a writer
    positioned after them. A missing, empty or {e mismatched} file is
    truncated to a fresh checkpoint (callers wanting to refuse a
    mismatch should {!load} first and check). *)
