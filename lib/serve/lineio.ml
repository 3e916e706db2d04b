(* Blocking line-delimited IO over a file descriptor, with a partial
   read buffer: TCP-ish socket reads hand back arbitrary chunks, the
   protocol wants whole lines. Writes may be queued and sent together. *)

type t = { fd : Unix.file_descr; buf : Buffer.t; out : Buffer.t }

let make fd = { fd; buf = Buffer.create 512; out = Buffer.create 512 }
let fd t = t.fd

let take_line t =
  let s = Buffer.contents t.buf in
  match String.index_opt s '\n' with
  | None -> None
  | Some i ->
      Buffer.clear t.buf;
      Buffer.add_string t.buf
        (String.sub s (i + 1) (String.length s - i - 1));
      Some (String.sub s 0 i)

let rec read_line t =
  match take_line t with
  | Some line -> `Line line
  | None -> (
      let chunk = Bytes.create 4096 in
      match Unix.read t.fd chunk 0 4096 with
      | 0 -> if Buffer.length t.buf > 0 then `Eof_partial else `Eof
      | k ->
          Buffer.add_subbytes t.buf chunk 0 k;
          read_line t
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> `Intr
      | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) ->
          `Eof)

let queue_line t line =
  Buffer.add_string t.out line;
  Buffer.add_char t.out '\n'

let flush t =
  let s = Buffer.contents t.out in
  Buffer.clear t.out;
  let n = String.length s in
  let rec go off =
    if off < n then
      match Unix.write_substring t.fd s off (n - off) with
      | k -> go (off + k)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
  in
  go 0

let write_line t line =
  queue_line t line;
  flush t
