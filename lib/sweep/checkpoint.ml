module Json = Amsvp_util.Json
module Health = Amsvp_probe.Health

let version = 1
let kind = "amsvp-sweep-checkpoint"

let digest (spec : Spec.t) ~circuit =
  Digest.to_hex (Digest.string (Spec.to_string spec ^ "\ncircuit " ^ circuit))

(* ---- point-result codec (one JSON object per line) ---- *)

(* Floats must survive the trip byte-exactly — a resumed sweep's report
   has to equal the uninterrupted one's — which {!Json.print}'s float
   rule guarantees. *)
let issue_json (i : Health.issue) =
  let open Json in
  Obj
    [ ("kind", Str (Health.kind_label i.Health.kind));
      ("time", Num i.Health.time); ("value", Num i.Health.value) ]

let point_json (r : Runner.point_result) tail =
  let open Json in
  let p = r.point in
  Obj
    ([ ("index", Num (float_of_int p.Sampler.index));
       ("label", Str p.Sampler.label);
       ("overrides", Obj (List.map (fun (k, v) -> (k, Num v)) p.overrides));
       ("out_final", Num r.out_final); ("out_rms", Num r.out_rms) ]
    @ (match r.nrmse with Some e -> [ ("nrmse", Num e) ] | None -> [])
    @ tail)

let result_json (r : Runner.point_result) =
  let open Json in
  let h = r.health in
  point_json r
    [ ("signal", Str h.Health.v_signal); ("healthy", Bool h.Health.v_healthy);
      ("issues", Arr (List.map issue_json h.Health.v_issues));
      ("cached", Bool r.cached); ("wall_s", Num r.wall_s) ]

let result_to_json r = Json.print (result_json r)

let result_of_json (j : Json.t) =
  let ( let* ) o f =
    match o with Some v -> f v | None -> Error "malformed point result"
  in
  let* index = Option.map int_of_float (Json.mem_float "index" j) in
  let* label = Json.mem_string "label" j in
  let* overrides =
    match Json.member "overrides" j with
    | Some (Json.Obj fields) ->
        List.fold_left
          (fun acc (k, v) ->
            match (acc, Json.to_float v) with
            | Some acc, Some f -> Some ((k, f) :: acc)
            | _ -> None)
          (Some []) fields
        |> Option.map List.rev
    | _ -> None
  in
  let* out_final = Json.mem_float "out_final" j in
  let* out_rms = Json.mem_float "out_rms" j in
  let nrmse = Json.mem_float "nrmse" j in
  let* signal = Json.mem_string "signal" j in
  let* healthy = Json.mem_bool "healthy" j in
  let* issues =
    List.fold_left
      (fun acc i ->
        match acc with
        | None -> None
        | Some acc -> (
            match
              ( Option.bind (Json.mem_string "kind" i) Health.kind_of_label,
                Json.mem_float "time" i,
                Json.mem_float "value" i )
            with
            | Some kind, Some time, Some value ->
                Some ({ Health.kind; time; value } :: acc)
            | _ -> None))
      (Some [])
      (Json.mem_list "issues" j)
    |> Option.map List.rev
  in
  let* cached = Json.mem_bool "cached" j in
  let* wall_s = Json.mem_float "wall_s" j in
  Ok
    {
      Runner.point = { Sampler.index; label; overrides };
      out_final;
      out_rms;
      nrmse;
      health = { Health.v_signal = signal; v_healthy = healthy; v_issues = issues };
      cached;
      wall_s;
    }

let result_of_line line =
  match Json.parse line with
  | j -> result_of_json j
  | exception Json.Parse_error (m, off) ->
      Error (Printf.sprintf "parse error at offset %d: %s" off m)

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

type writer = { oc : out_channel; lock : Mutex.t }

let create ~path spec ~circuit ~points =
  let oc = open_out path in
  output_string oc (header_line spec ~circuit ~points);
  output_char oc '\n';
  flush oc;
  { oc; lock = Mutex.create () }

let append w r =
  Mutex.lock w.lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock w.lock)
    (fun () ->
      output_string w.oc (result_to_json r);
      output_char w.oc '\n';
      (* One flush per point: a SIGKILL loses at most the line being
         written, and [load] discards a torn tail. *)
      flush w.oc)

let close w = close_out w.oc

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
                match result_of_line line with
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
      let oc =
        open_out_gen [ Open_append; Open_creat; Open_wronly ] 0o644 path
      in
      (completed, { oc; lock = Mutex.create () })
