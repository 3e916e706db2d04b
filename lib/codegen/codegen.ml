module Sfprogram = Amsvp_sf.Sfprogram
module Compile = Amsvp_sf.Compile

type target = Cpp | Systemc_de | Systemc_ams_tdf

let target_name = function
  | Cpp -> "C++"
  | Systemc_de -> "SC-DE"
  | Systemc_ams_tdf -> "SC-AMS/TDF"

(* A C++ identifier: other characters become '_', and a leading digit
   (the paper's "2IN") gets an "m_" prefix. *)
let sanitize_ident s =
  let s =
    String.map
      (fun c ->
        if (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
        then c
        else '_')
      s
  in
  if s = "" || (s.[0] >= '0' && s.[0] <= '9') then "m_" ^ s else s

(* A C++ expression that evaluates to exactly [c]: the shortest decimal
   that reads back to the same double, or a <cmath> spelling of the
   non-finite values (a NaN keeps its payload). A negative value is
   parenthesised, so it can stand after any operator. *)
let c_literal c =
  let a = Float.abs c in
  let s =
    if Float.is_nan c then
      let bits = Int64.bits_of_float c in
      let quiet = Int64.logand bits 0x8_0000_0000_0000L <> 0L in
      Printf.sprintf "%s(\"0x%Lx\")"
        (if quiet then "std::nan" else "__builtin_nans")
        (Int64.logand bits 0x7_ffff_ffff_ffffL)
    else if a = Float.infinity then "HUGE_VAL"
    else
      let s =
        List.find
          (fun s -> Float.equal (float_of_string s) a)
          (List.map (fun p -> Printf.sprintf "%.*g" p a) [ 15; 16; 17 ])
      in
      if String.exists (fun ch -> ch = '.' || ch = 'e') s then s else s ^ ".0"
  in
  if Float.sign_bit c then "(-" ^ s ^ ")" else s

let input_c_name s = Expr.var_c_name (Expr.signal s)

(* The statements of one step of the plan: its compiled artifact, history
   rotations included. Slots are named after their variables, the
   current sample of input [s] [input s]; constants are literals and
   temporaries [tN], declared first. Also returns the set of names the
   statements read or write. *)
let step_body ~input (p : Sfprogram.t) (pl : Sfprogram.plan) =
  let lay = pl.Sfprogram.layout in
  let names = Array.map Expr.var_c_name (Sfprogram.layout_vars lay) in
  let input_slots = Sfprogram.layout_input_slots lay in
  List.iteri (fun k s -> names.(input_slots.(k)) <- input s) p.Sfprogram.inputs;
  let used = Hashtbl.create 16 in
  let use s =
    Hashtbl.replace used s ();
    s
  in
  let slot i = use names.(i) in
  let n_temps = ref 0 in
  let temp i =
    n_temps := max !n_temps (i + 1);
    Printf.sprintf "t%d" i
  in
  let code =
    Format.asprintf "@[<v>%a@]"
      (Compile.pp_code ~slot ~const:(fun _ c -> c_literal c) ~temp)
      (Sfprogram.compile_plan pl)
  in
  let temps =
    if !n_temps = 0 then []
    else
      [ "double " ^ String.concat ", " (List.init !n_temps (Printf.sprintf "t%d")) ^ ";" ]
  in
  ((temps @ if code = "" then [] else [ code ]), used)

(* Lines (possibly multi-line strings), each indented by [n]. *)
let block n lines =
  let pad = String.make n ' ' in
  String.concat ""
    (List.concat_map
       (fun text ->
         List.map
           (fun l -> if l = "" then "\n" else pad ^ l ^ "\n")
           (String.split_on_char '\n' text))
       lines)

let emit_step_body p =
  block 0 (fst (step_body ~input:input_c_name p (Sfprogram.plan p)))

(* One skeleton for all targets; only the header, ports, input reads,
   output writes, timestep and constructor depend on the target. *)
let emit target (p : Sfprogram.t) =
  let pl = Sfprogram.plan p in
  let cname = sanitize_ident p.Sfprogram.name in
  let dt = c_literal p.Sfprogram.dt in
  (* SystemC ports carry the signal names; their samples are locals. *)
  let input s = if target = Cpp then input_c_name s else input_c_name s ^ "_v" in
  let body, used = step_body ~input p pl in
  let inputs = List.map input_c_name p.Sfprogram.inputs in
  let outputs = List.map Expr.var_c_name p.Sfprogram.outputs in
  let input_slots = Sfprogram.layout_input_slots pl.Sfprogram.layout in
  let members =
    Sfprogram.layout_vars pl.Sfprogram.layout
    |> Array.to_list
    |> List.filteri (fun i _ ->
           pl.Sfprogram.readable.(i) && not (Array.mem i input_slots))
    |> List.map (fun v -> Printf.sprintf "double %s = 0.0;" (Expr.var_c_name v))
  in
  let ports kind =
    List.map (Printf.sprintf "%s_in<double> %s;" kind) inputs
    @ List.map (Printf.sprintf "%s_out<double> %s_out;" kind) outputs
  in
  let reads =
    List.filter_map
      (fun s ->
        if Hashtbl.mem used (input s) then
          Some
            (Printf.sprintf "const double %s = %s.read();" (input s)
               (input_c_name s))
        else None)
      p.Sfprogram.inputs
  in
  let writes =
    List.map (fun o -> Printf.sprintf "%s_out.write(%s);" o o) outputs
  in
  let include_, open_, ports, step_head, pre, post, tail =
    match target with
    | Cpp ->
        ( [],
          Printf.sprintf "class %s {\npublic:" cname,
          [],
          Printf.sprintf "void step(%s) {"
            (String.concat ", " (List.map (( ^ ) "double ") inputs)),
          [],
          [],
          List.map
            (fun o ->
              Printf.sprintf "double %s_value() const { return %s; }"
                (sanitize_ident o) o)
            outputs )
    | Systemc_de ->
        ( [ "#include <systemc>" ],
          Printf.sprintf "SC_MODULE(%s) {" cname,
          ports "sc_core::sc",
          "void step() {",
          reads,
          writes
          @ [
              Printf.sprintf
                "next_trigger(sc_core::sc_time(%s, sc_core::SC_SEC));" dt;
            ],
          [ Printf.sprintf "SC_CTOR(%s) {\n  SC_METHOD(step);\n}" cname ] )
    | Systemc_ams_tdf ->
        ( [ "#include <systemc-ams>" ],
          Printf.sprintf "SCA_TDF_MODULE(%s) {" cname,
          ports "sca_tdf::sca",
          Printf.sprintf
            "void set_attributes() {\n  set_timestep(%s, sc_core::SC_SEC);\n}\n\n\
             void processing() {"
            dt,
          reads,
          writes,
          [ Printf.sprintf "SCA_CTOR(%s) {}" cname ] )
  in
  String.concat ""
    [
      block 0
        ([
           Printf.sprintf
             "// %s model generated from '%s' by the abstraction flow"
             (target_name target) p.Sfprogram.name;
           Printf.sprintf
             "// (conservative -> signal-flow, discrete time, dt = %s s)" dt;
           "#include <cmath>";
         ]
        @ include_ @ [ ""; open_ ]);
      block 2 (ports @ members @ [ ""; step_head ]);
      block 4 (pre @ body @ post);
      block 2 ([ "}"; "" ] @ tail);
      "};\n";
    ]
