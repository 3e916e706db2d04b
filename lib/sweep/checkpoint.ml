module Json = Amsvp_util.Json

let version = 1
let kind = "amsvp-sweep-checkpoint"

let digest (spec : Spec.t) ~circuit =
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

let header_matches spec ~circuit line =
  match Json.parse line with
  | j ->
      Json.mem_float "v" j = Some (float_of_int version)
      && Json.mem_string "kind" j = Some kind
      && Json.mem_string "spec_sha" j = Some (digest spec ~circuit)
  | exception Json.Parse_error _ -> false

type writer = out_channel

let create ~path spec ~circuit ~points =
  let oc = open_out path in
  output_string oc (header_line spec ~circuit ~points);
  output_char oc '\n';
  flush oc;
  oc

let append oc r =
  output_string oc (Point_result.to_line r);
  output_char oc '\n';
  (* One flush per point: a SIGKILL loses at most the line being
     written, and [load] discards a torn tail. *)
  flush oc

let close = close_out

let read_lines path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec go acc =
        match input_line ic with
        | line -> go (line :: acc)
        | exception End_of_file -> List.rev acc
      in
      go [])

let load ~path spec ~circuit =
  if not (Sys.file_exists path) then Ok []
  else
    match read_lines path with
    | [] -> Ok []
    | header :: rest ->
        if not (header_matches spec ~circuit header) then
          Error
            (Printf.sprintf
               "checkpoint %s does not match this sweep (stale or foreign \
                file); delete it or pick another path"
               path)
        else
          (* A kill can tear the final line mid-write: results are
             recovered up to the first malformed line, the tail is
             dropped and those points simply rerun. *)
          let rec go acc = function
            | [] -> List.rev acc
            | line :: rest when String.trim line = "" -> go acc rest
            | line :: rest -> (
                match Point_result.of_line line with
                | Ok r -> go (r :: acc) rest
                | Error _ -> List.rev acc)
          in
          Ok (go [] rest)

let open_resume ~path spec ~circuit ~points =
  match load ~path spec ~circuit with
  | Error _ | Ok [] ->
      (* Fresh (or foreign) checkpoint: truncate and start over. *)
      ([], create ~path spec ~circuit ~points)
  | Ok completed ->
      (* Reopen in append mode and rewrite nothing: the recovered
         results stay on disk and fresh points extend the log. *)
      (completed, open_out_gen [ Open_append; Open_creat; Open_wronly ] 0o644 path)
