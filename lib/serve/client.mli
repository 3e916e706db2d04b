(** Client side of the sweep service protocol. *)

type t

val connect : string -> t
(** Connect to the daemon's Unix-domain socket.
    @raise Unix.Unix_error when the daemon is not there. *)

val close : t -> unit
val send : t -> Protocol.request -> unit

val recv : t -> (Protocol.response, string) result
(** Next response frame; blocks. [Error] on a malformed frame or a
    closed/truncated connection. *)

val submit :
  t ->
  spec_text:string ->
  ?on_event:(Protocol.response -> unit) ->
  unit ->
  (Protocol.response, string) result
(** Submit a sweep and stream it: [on_event] sees every frame
    ([Accepted], each [Point], the [Done]) as it arrives; returns the
    final [Done] — or the [Rejected] carrying the diagnostics that
    refused the submit — or [Error] on a protocol failure. *)
