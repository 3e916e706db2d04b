(** Blocking line-delimited IO over a file descriptor with partial-read
    buffering — the transport under both ends of the protocol. *)

type t

val make : Unix.file_descr -> t
val fd : t -> Unix.file_descr

val read_line : t -> [ `Line of string | `Eof | `Eof_partial | `Intr ]
(** Next complete line (without the newline). [`Eof_partial] means the
    peer closed with an unterminated trailing fragment — a truncated
    frame, which callers should treat as an error, not silently drop.
    [`Intr] surfaces EINTR so daemons can poll their drain flag. *)

val queue_line : t -> string -> unit
(** Append [line ^ "\n"] to the lines waiting for {!flush}. *)

val flush : t -> unit
(** Write every queued line, in one [write] unless it comes back
    short, and forget them even when the write fails.
    @raise Unix.Unix_error (e.g. [EPIPE]) when the peer is gone. *)

val write_line : t -> string -> unit
(** {!queue_line} then {!flush}: lines queued earlier go first. *)
