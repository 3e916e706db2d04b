module Solve = Amsvp_core.Solve

type range =
  | Grid of { lo : float; hi : float; n : int }
  | Values of float list
  | Uniform of { lo : float; hi : float }
  | Normal of { mean : float; sigma : float }

type axis = { param : string; range : range }

type corner = { corner_name : string; binds : (string * float) list }

type stimulus =
  | Square of { period : float; low : float; high : float }
  | Sine of { freq : float; amplitude : float }

type t = {
  name : string;
  circuit : string option;
  output : string option;
  stimulus : stimulus option;
  t_stop : float option;
  dt : float option;
  mode : [ `Auto | `Exact | `Relaxed ];
  integration : [ `Backward_euler | `Trapezoidal ];
  samples : int;
  seed : int;
  jobs : int option;
  reference : bool;
  fidelity : Amsvp_core.Solve.fidelity option;
      (* reference-engine cost model; [None] keeps the paper default and
         is omitted from the text form, so existing spec texts (and the
         daemon context keys / checkpoint digests derived from them)
         are unchanged *)
  nrmse_budget : float option;
  amplitude_limit : float option;
  point_timeout : float option;
  axes : axis list;
  corners : corner list;
}

let default =
  {
    name = "sweep";
    circuit = None;
    output = None;
    stimulus = None;
    t_stop = None;
    dt = None;
    mode = `Auto;
    integration = `Backward_euler;
    samples = 1;
    seed = 0;
    jobs = None;
    reference = true;
    fidelity = None;
    nrmse_budget = None;
    amplitude_limit = None;
    point_timeout = None;
    axes = [];
    corners = [];
  }

let is_random s =
  List.exists
    (fun a -> match a.range with Uniform _ | Normal _ -> true | _ -> false)
    s.axes

let grid_size s =
  List.fold_left
    (fun acc a ->
      match a.range with
      | Grid { n; _ } -> acc * n
      | Values vs -> acc * List.length vs
      | Uniform _ | Normal _ -> acc)
    1 s.axes

let point_count s =
  let per_grid = if is_random s then s.samples else 1 in
  (grid_size s * per_grid) + List.length s.corners

(* Structural diagnosis, one finding per defect so a sweep file with
   several mistakes reports them all at once. [validate] keeps the
   first-error result shape for existing callers. *)
let diagnose s =
  let module Diag = Amsvp_diag.Diag in
  let err ?subject code fmt =
    Printf.ksprintf (fun m -> Some (Diag.error ?subject code m)) fmt
  in
  let empty =
    if s.axes = [] && s.corners = [] then
      err ~subject:s.name "AMS050" "sweep spec %s has no axes and no corners"
        s.name
    else None
  in
  let counts =
    [
      (if s.samples < 1 then err "AMS051" "samples must be >= 1" else None);
      (match s.nrmse_budget with
      | Some b when not (b > 0.0) ->
          err "AMS051" "nrmse_budget must be positive"
      | Some _ | None -> None);
      (match s.amplitude_limit with
      | Some l when not (l > 0.0) ->
          err "AMS051" "amplitude_limit must be positive"
      | Some _ | None -> None);
      (match s.point_timeout with
      | Some t when not (t > 0.0) ->
          err "AMS051" "point_timeout must be positive"
      | Some _ | None -> None);
    ]
  in
  let axes =
    List.map
      (fun a ->
        match a.range with
        | Grid { n; _ } when n < 1 ->
            err ~subject:a.param "AMS051" "grid axis %s: n < 1" a.param
        | Grid { lo; hi; _ } when lo > hi ->
            err ~subject:a.param "AMS051" "grid axis %s: lo > hi" a.param
        | Values [] ->
            err ~subject:a.param "AMS051" "values axis %s is empty" a.param
        | Uniform { lo; hi } when lo > hi ->
            err ~subject:a.param "AMS051" "uniform axis %s: lo > hi" a.param
        | Normal { sigma; _ } when sigma < 0.0 ->
            err ~subject:a.param "AMS051" "normal axis %s: negative sigma"
              a.param
        | Grid _ | Values _ | Uniform _ | Normal _ -> None)
      s.axes
  in
  let duplicates =
    let rec go seen = function
      | [] -> []
      | a :: rest ->
          if List.mem a.param seen then
            err ~subject:a.param "AMS052" "duplicate axis parameter %s" a.param
            :: go seen rest
          else go (a.param :: seen) rest
    in
    go [] s.axes
  in
  let corners =
    List.map
      (fun c ->
        if c.binds = [] then
          err ~subject:c.corner_name "AMS051" "corner %s of %s has no bindings"
            c.corner_name s.name
        else None)
      s.corners
  in
  List.filter_map
    (fun x -> x)
    ((empty :: counts) @ axes @ duplicates @ corners)

let validate s =
  match diagnose s with
  | [] -> Ok ()
  | f :: _ -> Error f.Amsvp_diag.Diag.message

(* ---- text form ---- *)

let fl v = Printf.sprintf "%.17g" v

let range_to_string = function
  | Grid { lo; hi; n } -> Printf.sprintf "grid %s %s %d" (fl lo) (fl hi) n
  | Values vs -> "values " ^ String.concat " " (List.map fl vs)
  | Uniform { lo; hi } -> Printf.sprintf "uniform %s %s" (fl lo) (fl hi)
  | Normal { mean; sigma } -> Printf.sprintf "normal %s %s" (fl mean) (fl sigma)

let stimulus_to_string = function
  | Square { period; low; high } ->
      Printf.sprintf "square %s %s %s" (fl period) (fl low) (fl high)
  | Sine { freq; amplitude } ->
      Printf.sprintf "sine %s %s" (fl freq) (fl amplitude)

let to_string s =
  let b = Buffer.create 512 in
  let line fmt = Printf.ksprintf (fun l -> Buffer.add_string b (l ^ "\n")) fmt in
  line "sweep %s" s.name;
  (match s.circuit with Some c -> line "circuit %s" c | None -> ());
  (match s.output with Some o -> line "output %s" o | None -> ());
  (match s.stimulus with
  | Some st -> line "stimulus %s" (stimulus_to_string st)
  | None -> ());
  (match s.t_stop with Some v -> line "t_stop %s" (fl v) | None -> ());
  (match s.dt with Some v -> line "dt %s" (fl v) | None -> ());
  if s.mode <> default.mode then line "mode %s" (Solve.(name_of modes) s.mode);
  if s.integration <> default.integration then
    line "integration %s" (Solve.(name_of integrations) s.integration);
  if s.samples <> default.samples then line "samples %d" s.samples;
  if s.seed <> default.seed then line "seed %d" s.seed;
  (match s.jobs with Some j -> line "jobs %d" j | None -> ());
  if s.reference <> default.reference then
    line "reference %s" (if s.reference then "on" else "off");
  (match s.fidelity with
  | Some f -> line "fidelity %s" (Solve.(name_of fidelities) f)
  | None -> ());
  (match s.nrmse_budget with
  | Some v -> line "nrmse_budget %s" (fl v)
  | None -> ());
  (match s.amplitude_limit with
  | Some v -> line "amplitude_limit %s" (fl v)
  | None -> ());
  (match s.point_timeout with
  | Some v -> line "point_timeout %s" (fl v)
  | None -> ());
  List.iter
    (fun a -> line "param %s %s" a.param (range_to_string a.range))
    s.axes;
  List.iter
    (fun c ->
      line "corner %s %s" c.corner_name
        (String.concat " "
           (List.map (fun (k, v) -> Printf.sprintf "%s=%s" k (fl v)) c.binds)))
    s.corners;
  Buffer.contents b

(* Parser: one directive per line, '#' starts a comment, blank lines
   ignored. Errors carry the 1-based line number. *)

exception Bad of string

let failf fmt = Printf.ksprintf (fun m -> raise (Bad m)) fmt

let enum what table v =
  match List.assoc_opt v table with
  | Some x -> x
  | None ->
      failf "bad %s %S (%s)" what v (String.concat "|" (List.map fst table))

let float_of tok =
  match float_of_string_opt tok with
  | Some v -> v
  | None -> failf "not a number: %S" tok

let int_of tok =
  match int_of_string_opt tok with
  | Some v -> v
  | None -> failf "not an integer: %S" tok

let parse_range = function
  | "grid" :: lo :: hi :: n :: [] ->
      Grid { lo = float_of lo; hi = float_of hi; n = int_of n }
  | "values" :: (_ :: _ as vs) -> Values (List.map float_of vs)
  | "uniform" :: lo :: hi :: [] ->
      Uniform { lo = float_of lo; hi = float_of hi }
  | "normal" :: mean :: sigma :: [] ->
      Normal { mean = float_of mean; sigma = float_of sigma }
  | kind :: _ -> failf "bad range %S (grid|values|uniform|normal)" kind
  | [] -> failf "missing range"

let parse_stimulus = function
  | "square" :: period :: low :: high :: [] ->
      Square
        { period = float_of period; low = float_of low; high = float_of high }
  | "sine" :: freq :: amplitude :: [] ->
      Sine { freq = float_of freq; amplitude = float_of amplitude }
  | kind :: _ -> failf "bad stimulus %S (square|sine)" kind
  | [] -> failf "missing stimulus"

let parse_bind tok =
  match String.index_opt tok '=' with
  | Some i when i > 0 && i < String.length tok - 1 ->
      ( String.sub tok 0 i,
        float_of (String.sub tok (i + 1) (String.length tok - i - 1)) )
  | Some _ | None -> failf "bad binding %S (want dev.param=value)" tok

let parse_line spec tokens =
  match tokens with
  | [] -> spec
  | "sweep" :: name :: [] -> { spec with name }
  | "circuit" :: c :: [] -> { spec with circuit = Some c }
  | "output" :: o :: [] -> { spec with output = Some o }
  | "stimulus" :: rest -> { spec with stimulus = Some (parse_stimulus rest) }
  | "t_stop" :: v :: [] -> { spec with t_stop = Some (float_of v) }
  | "dt" :: v :: [] -> { spec with dt = Some (float_of v) }
  | "mode" :: m :: [] -> { spec with mode = enum "mode" Solve.modes m }
  | "integration" :: i :: [] ->
      { spec with integration = enum "integration" Solve.integrations i }
  | "samples" :: v :: [] -> { spec with samples = int_of v }
  | "seed" :: v :: [] -> { spec with seed = int_of v }
  | "jobs" :: v :: [] -> { spec with jobs = Some (int_of v) }
  | "reference" :: v :: [] ->
      let reference =
        match v with
        | "on" -> true
        | "off" -> false
        | _ -> failf "bad reference %S (on|off)" v
      in
      { spec with reference }
  | "fidelity" :: f :: [] ->
      { spec with fidelity = Some (enum "fidelity" Solve.fidelities f) }
  | "nrmse_budget" :: v :: [] -> { spec with nrmse_budget = Some (float_of v) }
  | "amplitude_limit" :: v :: [] ->
      { spec with amplitude_limit = Some (float_of v) }
  | "point_timeout" :: v :: [] ->
      { spec with point_timeout = Some (float_of v) }
  | "param" :: param :: range ->
      { spec with axes = spec.axes @ [ { param; range = parse_range range } ] }
  | "corner" :: corner_name :: (_ :: _ as binds) ->
      {
        spec with
        corners =
          spec.corners @ [ { corner_name; binds = List.map parse_bind binds } ];
      }
  | directive :: _ -> failf "bad directive %S" directive

let of_string text =
  let strip_comment l =
    match String.index_opt l '#' with
    | Some i -> String.sub l 0 i
    | None -> l
  in
  let lines = String.split_on_char '\n' text in
  let rec go spec lineno = function
    | [] -> Ok spec
    | l :: rest -> (
        let tokens =
          strip_comment l |> String.split_on_char ' '
          |> List.concat_map (String.split_on_char '\t')
          |> List.filter (fun t -> t <> "")
        in
        match parse_line spec tokens with
        | spec -> go spec (lineno + 1) rest
        | exception Bad msg -> Error (Printf.sprintf "line %d: %s" lineno msg))
  in
  go default 1 lines
