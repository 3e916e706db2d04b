type t = { io : Lineio.t }

let connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX path) with
  | () -> { io = Lineio.make fd }
  | exception e ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      raise e

let close t = try Unix.close (Lineio.fd t.io) with Unix.Unix_error _ -> ()

let send t req = Lineio.write_line t.io (Protocol.encode_request req)

let rec recv t =
  match Lineio.read_line t.io with
  | `Line line -> Protocol.decode_response line
  | `Intr -> recv t
  | `Eof -> Error "connection closed"
  | `Eof_partial -> Error "connection closed mid-frame (truncated frame)"

let submit t ~spec_text ?(on_event = fun (_ : Protocol.response) -> ()) () =
  send t (Protocol.Submit { spec_text });
  let rec drain () =
    match recv t with
    | Error _ as e -> e
    | Ok resp -> (
        on_event resp;
        match resp with
        | Protocol.Done _ | Protocol.Rejected _ -> Ok resp
        | Protocol.Failed { message } -> Error message
        | _ -> drain ())
  in
  drain ()
