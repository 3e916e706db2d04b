module Json = Amsvp_util.Json
module Health = Amsvp_probe.Health

type t = {
  point : Sampler.point;
  out_final : float;
  out_rms : float;
  nrmse : float option;
  health : Health.verdict;
  cached : bool;
  wall_s : float;
}

let failed ~signal point kind ~time ~value ~wall_s =
  {
    point;
    out_final = nan;
    out_rms = nan;
    nrmse = None;
    health =
      {
        Health.v_signal = signal;
        v_healthy = false;
        v_issues = [ { Health.kind; time; value } ];
      };
    cached = false;
    wall_s;
  }

(* Floats must survive the trip byte-exactly — a resumed sweep's report
   has to equal the uninterrupted one's — which {!Json.print}'s float
   rule guarantees. *)
let issue_json (i : Health.issue) =
  let open Json in
  Obj
    [ ("kind", Str (Health.kind_label i.Health.kind));
      ("time", Num i.Health.time); ("value", Num i.Health.value) ]

let row r tail =
  let open Json in
  let p = r.point in
  Obj
    ([ ("index", Num (float_of_int p.Sampler.index));
       ("label", Str p.Sampler.label);
       ("overrides", Obj (List.map (fun (k, v) -> (k, Num v)) p.overrides));
       ("out_final", Num r.out_final); ("out_rms", Num r.out_rms) ]
    @ (match r.nrmse with Some e -> [ ("nrmse", Num e) ] | None -> [])
    @ tail)

let json r =
  let open Json in
  let h = r.health in
  row r
    [ ("signal", Str h.Health.v_signal); ("healthy", Bool h.Health.v_healthy);
      ("issues", Arr (List.map issue_json h.Health.v_issues));
      ("cached", Bool r.cached); ("wall_s", Num r.wall_s) ]

let to_line r = Json.print (json r)

let of_json (j : Json.t) =
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
      point = { Sampler.index; label; overrides };
      out_final;
      out_rms;
      nrmse;
      health = { Health.v_signal = signal; v_healthy = healthy; v_issues = issues };
      cached;
      wall_s;
    }

let of_line line =
  match Json.parse line with
  | j -> of_json j
  | exception Json.Parse_error (m, off) ->
      Error (Printf.sprintf "parse error at offset %d: %s" off m)
