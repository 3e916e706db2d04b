module Json = Amsvp_util.Json

let version = 1
let kind = "amsvp-sweep-checkpoint"

(* How many processes run the points changes no result: [jobs] is no
   part of a sweep's identity. *)
let digest (spec : Spec.t) ~circuit =
  let spec = { spec with Spec.jobs = None } in
  Digest.to_hex (Digest.string (Spec.to_string spec ^ "\ncircuit " ^ circuit))

(* ---- checkpoint files ---- *)

let header_line spec ~circuit ~points =
  let open Json in
  print
    (Obj
       [ ("v", Num (float_of_int version)); ("kind", Str kind);
         ("sweep", Str spec.Spec.name); ("circuit", Str circuit);
         ("spec_sha", Str (digest spec ~circuit));
         ("points", Num (float_of_int points)) ])

(* The point count a header for this spec + circuit records; [None] for
   any other line. *)
let header_points spec ~circuit line =
  match Json.parse line with
  | j
    when Json.mem_float "v" j = Some (float_of_int version)
         && Json.mem_string "kind" j = Some kind
         && Json.mem_string "spec_sha" j = Some (digest spec ~circuit) ->
      Option.map int_of_float (Json.mem_float "points" j)
  | _ | (exception Json.Parse_error _) -> None

type writer = out_channel

let create ~path spec ~circuit ~points =
  let oc = open_out path in
  output_string oc (header_line spec ~circuit ~points);
  output_char oc '\n';
  flush oc;
  oc

(* Buffered: the session flushes once per delivered batch, so a
   SIGKILL loses at most that batch — [scan] discards a torn tail and a
   resume recomputes the points it lost. *)
let append oc line =
  output_string oc line;
  output_char oc '\n'

let flush = flush

let close = close_out

(* What a file holds for this spec + circuit. A file without one
   complete line (missing, empty, or killed inside [create]) holds
   nothing; a complete header for another sweep is [`Foreign]. After
   the header, results are recovered up to the first line that is not
   newline-terminated, does not decode, or names a point outside the
   header's count — a kill tears at most the final line — and
   [`Intact] carries them in file order with the byte length of the
   intact prefix. *)
let scan ~path spec ~circuit =
  let text =
    if not (Sys.file_exists path) then ""
    else In_channel.with_open_bin path In_channel.input_all
  in
  match String.index_opt text '\n' with
  | None -> `Torn_header
  | Some eol -> (
      match header_points spec ~circuit (String.sub text 0 eol) with
      | None -> `Foreign
      | Some points ->
          let rec go acc pos =
            let stop () = `Intact (List.rev acc, pos) in
            match String.index_from_opt text pos '\n' with
            | None -> stop ()
            | Some e -> (
                let line = String.sub text pos (e - pos) in
                if String.trim line = "" then go acc (e + 1)
                else
                  match Point_result.of_line line with
                  | Ok r
                    when r.Point_result.point.Sampler.index >= 0
                         && r.Point_result.point.Sampler.index < points ->
                      go (r :: acc) (e + 1)
                  | Ok _ | Error _ -> stop ())
          in
          go [] (eol + 1))

let foreign path =
  Error
    (Printf.sprintf
       "checkpoint %s does not match this sweep (stale or foreign file); \
        delete it or pick another path"
       path)

let load ~path spec ~circuit =
  match scan ~path spec ~circuit with
  | `Torn_header -> Ok []
  | `Foreign -> foreign path
  | `Intact (results, _) -> Ok results

let resume ~path spec ~circuit ~points =
  match scan ~path spec ~circuit with
  | `Torn_header -> Ok ([], create ~path spec ~circuit ~points)
  | `Foreign -> foreign path
  | `Intact (results, length) ->
      (* Cut the torn tail before appending, so the next line starts on
         a line of its own and a later resume recovers it too. *)
      Unix.truncate path length;
      Ok (results, open_out_gen [ Open_append; Open_wronly ] 0o644 path)
