(** Durable per-point progress for sweeps.

    A checkpoint is a JSONL file: a header line binding the file to one
    spec + circuit (via an MD5 of the spec's canonical text form), then
    one {!Point_result} line per {e completed} point, appended as points
    finish and flushed once per delivered batch.  Killing the process —
    SIGKILL included — loses at most the batch being written: {!resume}
    recovers every intact result, cuts the torn tail off, and
    {!Runner.session} reruns only the missing points.

    Floats round-trip byte-exactly ({!Amsvp_util.Json.print}'s float
    rule), so a resumed sweep's report equals the uninterrupted one's. *)

val digest : Spec.t -> circuit:string -> string
(** Hex MD5 of the spec's canonical text form, [jobs] cleared, plus
    the circuit label — the identity a checkpoint header records. A
    checkpoint written under one [jobs] resumes under any other. *)

(** {1 Checkpoint files} *)

type writer

val create :
  path:string -> Spec.t -> circuit:string -> points:int -> writer
(** Truncate [path] and write the header line. *)

val append : writer -> string -> unit
(** Append one result line: {!Point_result.to_line} of a result, or the
    same bytes as a worker sent them. The line is buffered until
    {!flush} or {!close}; {!Runner.session} flushes once per delivered
    batch, so a kill loses at most that batch, which a resume
    recomputes. *)

val flush : writer -> unit

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
