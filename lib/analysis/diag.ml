module Json = Amsvp_util.Json

type severity = Error | Warning | Info

type span = { file : string; line : int; col : int }

let span ?(file = "<input>") line col = { file; line; col }


type finding = {
  code : string;
  severity : severity;
  message : string;
  span : span option;
  subject : string option;
}

exception Rejected of finding

type code_info = { id : string; default_severity : severity; title : string }

(* The registry is the single source of truth: the README table is
   generated from it and [finding] refuses unknown codes, so a typo in
   a pass cannot silently mint a new code. *)
let codes =
  [
    { id = "AMS001"; default_severity = Error; title = "lexical error" };
    { id = "AMS002"; default_severity = Error; title = "syntax error" };
    { id = "AMS003"; default_severity = Error; title = "elaboration error" };
    { id = "AMS010"; default_severity = Warning; title = "undeclared net" };
    { id = "AMS011"; default_severity = Warning; title = "unused declaration" };
    {
      id = "AMS012";
      default_severity = Error;
      title = "discipline or direction mismatch";
    };
    {
      id = "AMS013";
      default_severity = Warning;
      title = "duplicate contribution";
    };
    {
      id = "AMS014";
      default_severity = Warning;
      title = "self-referential contribution";
    };
    {
      id = "AMS015";
      default_severity = Error;
      title = "nested ddt/idt beyond first order";
    };
    {
      id = "AMS016";
      default_severity = Error;
      title = "parameter with zero default used as divisor";
    };
    { id = "AMS020"; default_severity = Error; title = "floating node" };
    {
      id = "AMS021";
      default_severity = Error;
      title = "devices unreachable from ground";
    };
    { id = "AMS022"; default_severity = Error; title = "voltage-source loop" };
    {
      id = "AMS023";
      default_severity = Error;
      title = "current-source cutset";
    };
    { id = "AMS024"; default_severity = Error; title = "empty circuit" };
    {
      id = "AMS025";
      default_severity = Error;
      title = "no DC operating point";
    };
    {
      id = "AMS030";
      default_severity = Error;
      title = "under-determined system";
    };
    {
      id = "AMS031";
      default_severity = Warning;
      title = "over-determined system";
    };
    {
      id = "AMS040";
      default_severity = Warning;
      title = "zero-delay algebraic loop";
    };
    {
      id = "AMS041";
      default_severity = Warning;
      title = "timestep exceeds estimated time constant";
    };
    {
      id = "AMS042";
      default_severity = Error;
      title = "nonlinear definition outside the linear scope";
    };
    { id = "AMS050"; default_severity = Error; title = "empty sweep spec" };
    {
      id = "AMS051";
      default_severity = Error;
      title = "malformed sweep axis or corner";
    };
    {
      id = "AMS052";
      default_severity = Error;
      title = "duplicate sweep axis parameter";
    };
    {
      id = "AMS060";
      default_severity = Error;
      title = "guaranteed division by zero";
    };
    {
      id = "AMS061";
      default_severity = Warning;
      title = "possible non-finite value reaches an output";
    };
    {
      id = "AMS062";
      default_severity = Info;
      title = "proven-constant or dead contribution";
    };
    {
      id = "AMS063";
      default_severity = Warning;
      title = "proven output bound exceeds amplitude budget";
    };
  ]

let is_code id = List.exists (fun c -> c.id = id) codes

let finding ?span ?subject severity code message =
  if not (is_code code) then
    invalid_arg (Printf.sprintf "Diag.finding: unregistered code %s" code);
  { code; severity; message; span; subject }

let error ?span ?subject code message =
  finding ?span ?subject Error code message

let warning ?span ?subject code message =
  finding ?span ?subject Warning code message

let info ?subject code message = finding ?subject Info code message

let with_span f s = match f.span with Some _ -> f | None -> { f with span = Some s }

type config = { werror : bool; suppress : string list }

let default_config = { werror = false; suppress = [] }

let apply cfg findings =
  let kept =
    List.filter (fun f -> not (List.mem f.code cfg.suppress)) findings
  in
  let kept =
    if cfg.werror then
      List.map
        (fun f ->
          match f.severity with
          | Warning -> { f with severity = Error }
          | Error | Info -> f)
        kept
    else kept
  in
  List.stable_sort
    (fun a b ->
      let key f =
        match f.span with
        | Some s -> (s.file, s.line, s.col, f.code)
        | None -> ("~", max_int, max_int, f.code)
      in
      compare (key a) (key b))
    kept

let count sev findings =
  List.length (List.filter (fun f -> f.severity = sev) findings)

let error_count findings = count Error findings

let severity_name = function
  | Error -> "error"
  | Warning -> "warning"
  | Info -> "info"

let to_text f =
  let loc =
    match f.span with
    | Some s -> Printf.sprintf "%s:%d:%d: " s.file s.line s.col
    | None -> ""
  in
  Printf.sprintf "%s%s[%s]: %s" loc (severity_name f.severity) f.code f.message

let report_to_text findings =
  let b = Buffer.create 256 in
  List.iter
    (fun f ->
      Buffer.add_string b (to_text f);
      Buffer.add_char b '\n')
    findings;
  Printf.bprintf b "%d error(s), %d warning(s), %d info\n"
    (count Error findings) (count Warning findings) (count Info findings);
  Buffer.contents b

let finding_json f =
  let open Json in
  Obj
    ([ ("code", Str f.code); ("severity", Str (severity_name f.severity));
       ("message", Str f.message) ]
    @ (match f.span with
      | Some s ->
          [ ("file", Str s.file); ("line", Num (float_of_int s.line));
            ("col", Num (float_of_int s.col)) ]
      | None -> [])
    @ match f.subject with Some s -> [ ("subject", Str s) ] | None -> [])

let finding_of_json j =
  let ( let* ) = Option.bind in
  let* code = Json.mem_string "code" j in
  let* name = Json.mem_string "severity" j in
  let* severity =
    List.find_opt (fun s -> severity_name s = name) [ Error; Warning; Info ]
  in
  let* message = Json.mem_string "message" j in
  let span =
    match
      (Json.mem_string "file" j, Json.mem_float "line" j, Json.mem_float "col" j)
    with
    | Some file, Some line, Some col ->
        Some { file; line = int_of_float line; col = int_of_float col }
    | _ -> None
  in
  Some { code; severity; message; span; subject = Json.mem_string "subject" j }

let report_to_json ?file findings =
  let open Json in
  print
    (Obj
       ((match file with Some f -> [ ("file", Str f) ] | None -> [])
       @ [ ("findings", Arr (List.map finding_json findings));
           ("errors", Num (float_of_int (count Error findings)));
           ("warnings", Num (float_of_int (count Warning findings))) ]))

let report_to_sarif findings =
  let open Json in
  let level = function
    | Error -> "error"
    | Warning -> "warning"
    | Info -> "note"
  in
  let rule id =
    let title =
      match List.find_opt (fun c -> c.id = id) codes with
      | Some c -> c.title
      | None -> id
    in
    Obj [ ("id", Str id); ("shortDescription", Obj [ ("text", Str title) ]) ]
  in
  let location s =
    let region =
      [ ("startLine", Num (float_of_int s.line));
        ("startColumn", Num (float_of_int s.col)) ]
    in
    Obj
      [ ( "physicalLocation",
          Obj
            [ ("artifactLocation", Obj [ ("uri", Str s.file) ]);
              ("region", Obj region) ] ) ]
  in
  let result f =
    Obj
      ([ ("ruleId", Str f.code); ("level", Str (level f.severity));
         ("message", Obj [ ("text", Str f.message) ]) ]
      @
      match f.span with
      | Some s -> [ ("locations", Arr [ location s ]) ]
      | None -> [])
  in
  (* Only the rules actually fired, sorted by id, each once. *)
  let fired = List.sort_uniq compare (List.map (fun f -> f.code) findings) in
  let driver =
    [ ("name", Str "amsvp"); ("version", Str "0.1.0");
      ("rules", Arr (List.map rule fired)) ]
  in
  print
    (Obj
       [ ("version", Str "2.1.0");
         ("$schema", Str "https://json.schemastore.org/sarif-2.1.0.json");
         ( "runs",
           Arr
             [ Obj
                 [ ("tool", Obj [ ("driver", Obj driver) ]);
                   ("results", Arr (List.map result findings)) ] ] ) ])
