(** Durable per-point progress for sweeps.

    A checkpoint is a JSONL file: a header line binding the file to one
    spec + circuit (via an MD5 of the spec's canonical text form), then
    one {!Point_result} line per {e completed} point, appended and
    flushed as points finish.  Killing the process — SIGKILL included —
    loses at most the line being written; {!load} recovers every intact
    result and a resumed run ({!Runner.run}'s [completed] argument)
    reruns only the missing points.

    Floats round-trip byte-exactly ({!Amsvp_util.Json.print}'s float
    rule), so a resumed sweep's report equals the uninterrupted one's. *)

val digest : Spec.t -> circuit:string -> string
(** Hex MD5 of the spec's canonical text form plus the circuit label —
    the identity a checkpoint header records. *)

(** {1 Checkpoint files} *)

type writer

val create :
  path:string -> Spec.t -> circuit:string -> points:int -> writer
(** Truncate [path] and write the header line. *)

val append : writer -> Point_result.t -> unit
(** Append one result line and flush. *)

val close : writer -> unit

val load :
  path:string ->
  Spec.t ->
  circuit:string ->
  (Point_result.t list, string) result
(** Recovered results, in file order. [Ok []] when the file is missing
    or empty; [Error] when it exists but its header does not match this
    spec + circuit. A torn final line (kill mid-write) is silently
    dropped. *)

val open_resume :
  path:string ->
  Spec.t ->
  circuit:string ->
  points:int ->
  Point_result.t list * writer
(** [load] then reopen for appending: recovered results plus a writer
    positioned after them. A missing, empty or {e mismatched} file is
    truncated to a fresh checkpoint (callers wanting to refuse a
    mismatch should {!load} first and check). *)
