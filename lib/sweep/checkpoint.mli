(** Durable per-point progress for sweeps.

    A checkpoint is a JSONL file: a header line binding the file to one
    spec + circuit (via an MD5 of the spec's canonical text form), then
    one {!Point_result} line per {e completed} point, appended and
    flushed as points finish.  Killing the process — SIGKILL included —
    loses at most the line being written: {!resume} recovers every
    intact result, cuts the torn tail off, and {!Runner.session} reruns
    only the missing points.

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
(** The results {!resume} would recover, in file order, without
    touching the file. *)

val resume :
  path:string ->
  Spec.t ->
  circuit:string ->
  points:int ->
  (Point_result.t list * writer, string) result
(** Reopen a checkpoint for appending: its intact results, in file
    order, and a writer positioned after them.
    - A file with no complete first line — missing, empty, or killed
      inside {!create} — holds nothing: it is {!create}d afresh.
    - A complete header that does not match this spec + circuit is
      [Error]; the file is left alone.
    - Results are kept up to the first line that is torn (no newline)
      or does not decode; the file is truncated there, so appended
      lines start on a line of their own. *)
