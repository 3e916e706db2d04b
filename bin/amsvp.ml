(* amsvp: the command-line front-end of the abstraction tool.

   Subcommands:
     abstract  -- Verilog-AMS -> C++/SystemC-DE/SystemC-AMS-TDF source
     simulate  -- run a model under a chosen MoC and dump samples
     report    -- abstraction statistics (Fig. 4 pipeline timings)
     lint      -- multi-pass static analysis with located diagnostics

   Examples:
     amsvp abstract model.vams --top rc1 --out 'V(out,gnd)' --target cpp
     amsvp simulate model.vams --top rc1 --out 'V(out,gnd)' \
           --moc eln --t-stop 2e-3 --square 1e-3,0,1 *)

open Cmdliner

module Velaborate = Amsvp_vhdlams.Velaborate
module Vparser = Amsvp_vhdlams.Vparser
module Ac = Amsvp_mna.Ac
module Elaborate = Amsvp_vams.Elaborate
module Parser = Amsvp_vams.Parser
module Codegen = Amsvp_codegen.Codegen
module Flow = Amsvp_core.Flow
module Explain = Amsvp_core.Explain
module Solve = Amsvp_core.Solve
module Sfprogram = Amsvp_sf.Sfprogram
module Wrap = Amsvp_sysc.Wrap
module Engine = Amsvp_mna.Engine
module System = Amsvp_mna.System
module Probe = Amsvp_probe.Probe
module Stimulus = Amsvp_util.Stimulus
module Trace = Amsvp_util.Trace
module Obs = Amsvp_obs.Obs
module Journal = Amsvp_obs.Journal
module Json = Amsvp_util.Json
module Runreport = Amsvp_report.Runreport
module Diag = Amsvp_diag.Diag
module Lint = Amsvp_analysis.Lint

(* Observability flags, shared by the flow-running subcommands: --obs
   prints a summary to stderr on exit, --trace-out/--metrics-out write
   the Chrome trace / Prometheus dumps, --journal-out writes the
   structured run journal as JSONL (each implies recording its
   layer). *)
let obs_flags =
  let obs =
    Arg.(value & flag
         & info [ "obs" ]
             ~doc:"Record spans and metrics; print a summary to stderr on \
                   exit.")
  in
  let trace_out =
    Arg.(value & opt (some string) None
         & info [ "trace-out" ] ~docv:"FILE"
             ~doc:"Write a Chrome trace-event JSON (open in Perfetto or \
                   chrome://tracing) to $(docv). Implies recording.")
  in
  let metrics_out =
    Arg.(value & opt (some string) None
         & info [ "metrics-out" ] ~docv:"FILE"
             ~doc:"Write a Prometheus-style metrics dump to $(docv). Implies \
                   recording.")
  in
  let journal_out =
    Arg.(value & opt (some string) None
         & info [ "journal-out" ] ~docv:"FILE"
             ~doc:"Record the structured run journal (solver convergence, \
                   sweep dispatch, health events) and write it as JSONL to \
                   $(docv); render it with $(b,amsvp report --journal).")
  in
  Term.(const (fun obs trace_out metrics_out journal_out ->
            (obs, trace_out, metrics_out, journal_out))
        $ obs $ trace_out $ metrics_out $ journal_out)

let with_obs (obs, trace_out, metrics_out, journal_out) f =
  if obs || trace_out <> None || metrics_out <> None then Obs.enable ();
  if journal_out <> None then Journal.enable ();
  (* The sinks dump even when [f] fails, but a sink-write failure must
     not mask [f]'s outcome — report it cleanly and exit non-zero. *)
  let write_failed = ref false in
  let dump path contents =
    try Obs.write_file path contents
    with Sys_error msg ->
      Printf.eprintf "amsvp: cannot write %s: %s\n" path msg;
      write_failed := true
  in
  let dumped = ref false in
  let flush_sinks () =
    if not !dumped then begin
      dumped := true;
      (match trace_out with
      | Some path -> dump path (Obs.chrome_trace ())
      | None -> ());
      (match metrics_out with
      | Some path -> dump path (Obs.prometheus ())
      | None -> ());
      (match journal_out with
      | Some path -> dump path (Journal.to_jsonl ())
      | None -> ());
      if obs then prerr_string (Obs.summary ())
    end
  in
  (* [Stdlib.exit] does not unwind the stack, so a rejection rendered
     by [fatal_finding] mid-run would skip a [Fun.protect] finaliser
     and lose everything recorded up to the defect — the sinks flush
     from [at_exit] instead, which runs on every exit path; the
     [dumped] flag keeps the normal path from dumping twice. *)
  at_exit flush_sinks;
  let result = Fun.protect f ~finally:flush_sinks in
  if !write_failed then exit 1;
  result

let output_conv =
  Arg.conv
    ( (fun s -> Result.map_error (fun m -> `Msg m) (Expr.access_of_string s)),
      fun ppf v -> Format.pp_print_string ppf (Expr.var_name v) )

(* [base] restricted to the values [ok] accepts: anything else is a
   usage error naming the requirement [what]. *)
let checked base ~what ok =
  let parse s =
    match Arg.conv_parser base s with
    | Ok v when ok v -> Ok v
    | Ok _ -> Error (`Msg (Printf.sprintf "invalid value '%s', expected %s" s what))
    | Error _ as e -> e
  in
  Arg.conv ~docv:(Arg.conv_docv base) (parse, Arg.conv_printer base)

let positive_float =
  checked Arg.float ~what:"a positive number" (fun v ->
      v > 0.0 && Float.is_finite v)

let int_at_least n =
  checked Arg.int ~what:(Printf.sprintf "an integer >= %d" n) (fun v -> v >= n)

let file_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE"
       ~doc:"Verilog-AMS source file.")

let top_arg =
  Arg.(required & opt (some string) None & info [ "top" ] ~docv:"MODULE"
       ~doc:"Top module to elaborate.")

let out_arg =
  Arg.(value & opt (some output_conv) None
       & info [ "out" ] ~docv:"ACCESS"
         ~doc:"Output signal of interest, e.g. 'V(out,gnd)'. Defaults to \
               the potential of the top's single output port (for \
               VHDL-AMS, the one port not listed in $(b,--inputs)).")

let dt_arg =
  Arg.(value & opt positive_float 50e-9 & info [ "dt" ] ~docv:"SECONDS"
       ~doc:"Discretisation time step (default 50 ns, as in the paper).")

let mode_arg =
  Arg.(value & opt (enum Solve.modes) `Auto & info [ "mode" ]
       ~doc:"Solve mode: $(b,auto), $(b,exact) or $(b,relaxed).")

let integration_arg =
  Arg.(value & opt (enum Solve.integrations) `Backward_euler
       & info [ "integration" ]
       ~doc:"Integration rule: $(b,backward-euler) or $(b,trapezoidal).")

let fidelity_arg =
  Arg.(value & opt (enum Solve.fidelities) `Paper & info [ "fidelity" ]
       ~doc:"Conservative solver cost model: $(b,paper) (faithful SPICE \
             structure, bit-identical to previous releases) or $(b,fast) \
             (reused sparse factors, Newton early-exit, adaptive \
             substepping; bounded error, much faster).")

let lang_arg =
  let langs = [ ("verilog-ams", `Verilog_ams); ("vhdl-ams", `Vhdl_ams) ] in
  Arg.(value & opt (enum langs) `Verilog_ams & info [ "lang" ]
       ~doc:"Input language: $(b,verilog-ams) or $(b,vhdl-ams).")

let inputs_arg =
  Arg.(value & opt (list string) [] & info [ "inputs" ] ~docv:"PORTS"
       ~doc:"Externally driven ports of a VHDL-AMS top entity (VHDL \
             terminals carry no direction; ignored for Verilog-AMS).")

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* Front-end errors and flow rejections render as one located
   diagnostic line: the same finding `amsvp lint` reports. *)
let fatal_finding f =
  prerr_endline (Diag.to_text f);
  exit 1

let die fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("error: " ^ msg);
      exit 1)
    fmt

let with_frontend_errors ?file f =
  match Elaborate.front_end ?file f with
  | Ok v -> v
  | Error finding | (exception Diag.Rejected finding) -> fatal_finding finding
  | exception Invalid_argument msg -> die "%s" msg

let flatten_any lang src ~file top inputs =
  match lang with
  | `Verilog_ams -> Elaborate.flatten (Parser.parse ~file src) ~top
  | `Vhdl_ams -> Velaborate.flatten (Vparser.parse ~file src) ~top ~inputs

(* The network of a conservative model, for the commands that simulate
   or analyse one ([what] names the command in the refusal of a
   signal-flow model), with the flat model it came from. *)
let conservative_circuit ~what lang file top inputs =
  let flat = flatten_any lang (read_file file) ~file top inputs in
  match Elaborate.classify flat with
  | `Conservative -> (flat, Elaborate.to_circuit flat)
  | `Signal_flow ->
      die "%s is a signal-flow model; %s needs a network" top what

(* [--out], else the top's single output port. *)
let resolve_output out flat =
  match out with Some v -> v | None -> Elaborate.output_port flat

let abstract_model file top output dt mode integration lang inputs =
  with_frontend_errors ~file (fun () ->
      let flat = flatten_any lang (read_file file) ~file top inputs in
      Elaborate.abstract ~mode ~integration flat
        ~outputs:[ resolve_output output flat ] ~dt)

(* abstract *)

let target_arg =
  let targets =
    [ ("cpp", `Codegen Codegen.Cpp); ("sc-de", `Codegen Codegen.Systemc_de);
      ("sc-tdf", `Codegen Codegen.Systemc_ams_tdf); ("program", `Program) ]
  in
  Arg.(value & opt (enum targets) (`Codegen Codegen.Cpp) & info [ "target" ]
       ~doc:"Output: $(b,cpp), $(b,sc-de), $(b,sc-tdf) source, or the \
             reloadable $(b,program) text format.")

let abstract_cmd =
  let run obscfg file top output dt mode integration lang inputs target =
    with_obs obscfg (fun () ->
        let report =
          abstract_model file top output dt mode integration lang inputs
        in
        match target with
        | `Codegen t -> print_string (Codegen.emit t report.Flow.program)
        | `Program ->
            print_string
              (Amsvp_sf.Serialize.program_to_string report.Flow.program))
  in
  Cmd.v
    (Cmd.info "abstract"
       ~doc:"Abstract a Verilog-AMS or VHDL-AMS model and emit C++/SystemC \
             source.")
    Term.(const run $ obs_flags $ file_arg $ top_arg $ out_arg $ dt_arg
          $ mode_arg $ integration_arg $ lang_arg $ inputs_arg $ target_arg)

(* simulate *)

let moc_arg =
  let mocs =
    [ ("cpp", `Cpp); ("de", `De); ("tdf", `Tdf); ("eln", `Eln); ("vams", `Vams) ]
  in
  Arg.(value & opt (enum mocs) `Cpp & info [ "moc" ]
       ~doc:"Model of computation: $(b,cpp), $(b,de), $(b,tdf), $(b,eln) or \
             $(b,vams).")

let t_stop_arg =
  Arg.(value & opt positive_float 2e-3 & info [ "t-stop" ] ~docv:"SECONDS"
       ~doc:"Simulated duration.")

let square_arg =
  Arg.(value & opt (t3 float float float) (1e-3, 0.0, 1.0)
       & info [ "square" ] ~docv:"PERIOD,LOW,HIGH"
         ~doc:"Square-wave stimulus applied to every input port.")

let samples_arg =
  Arg.(value & opt (int_at_least 2) 20 & info [ "samples" ]
       ~doc:"Number of equally spaced samples to print (at least 2: the \
             first at time 0, the last at $(b,--t-stop)).")

let from_program_arg =
  Arg.(value & opt (some file) None & info [ "from-program" ] ~docv:"FILE"
       ~doc:"Skip the abstraction flow and load a serialised program \
             (written by $(b,abstract --target program)).")

let probe_args =
  let probe =
    Arg.(value & opt_all string []
         & info [ "probe" ] ~docv:"SIG"
             ~doc:"Tap a signal for waveform capture: $(b,V(a,b)), \
                   $(b,I(a,b)) or a bare quantity name. Repeatable. \
                   Defaults to the $(b,--out) signal when only \
                   $(b,--vcd-out)/$(b,--wave-out) is given.")
  in
  let vcd_out =
    Arg.(value & opt (some string) None
         & info [ "vcd-out" ] ~docv:"FILE"
             ~doc:"Write the tapped waveforms as a VCD file (GTKWave, \
                   Surfer).")
  in
  let wave_out =
    Arg.(value & opt (some string) None
         & info [ "wave-out" ] ~docv:"FILE"
             ~doc:"Write the tapped waveforms as long-format CSV \
                   (signal,time,value).")
  in
  let every =
    Arg.(value & opt (int_at_least 1) 1
         & info [ "probe-every" ] ~docv:"N"
             ~doc:"Retain one probe sample out of every $(docv) steps.")
  in
  Term.(const (fun probe vcd_out wave_out every ->
            (probe, vcd_out, wave_out, every))
        $ probe $ vcd_out $ wave_out $ every)

(* Build the probe set for [--probe]/[--vcd-out]/[--wave-out]: [None]
   when nothing was asked for, so the runners take their probe-free
   fast path. *)
let probe_set (sigs, vcd_out, wave_out, every) ~default =
  if sigs = [] && vcd_out = None && wave_out = None then None
  else begin
    let set = Probe.create ~every () in
    let sigs = if sigs = [] then [ default ] else sigs in
    List.iter
      (fun s ->
        match Expr.access_of_string s with
        | Ok v -> ignore (Probe.tap set v)
        | Error m -> die "%s" m)
      sigs;
    Some set
  end

let probe_export (_, vcd_out, wave_out, _) = function
  | None -> ()
  | Some set ->
      (match vcd_out with
      | Some path -> Probe.write_vcd set path
      | None -> ());
      (match wave_out with
      | Some path -> Probe.write_csv set path
      | None -> ())

let simulate_cmd =
  let run obscfg file top output dt mode integration fidelity lang inputs
      from_program moc t_stop (period, low, high) samples probecfg =
    with_obs obscfg @@ fun () ->
    with_frontend_errors ~file (fun () ->
        let p =
          match from_program with
          | Some path -> (
              try Amsvp_sf.Serialize.program_of_string (read_file path)
              with Amsvp_sf.Serialize.Parse_error (msg, line) ->
                Printf.eprintf "program parse error at line %d: %s\n" line msg;
                exit 1)
          | None ->
              (abstract_model file top output dt mode integration lang inputs)
                .Flow.program
        in
        let output =
          Option.value output ~default:(List.hd p.Sfprogram.outputs)
        in
        let probes = probe_set probecfg ~default:(Expr.var_name output) in
        (* every engine reads only its own quantities: a probe naming
           anything else is a finding before the run, whose text
           [refusal v] gives *)
        let check_probes refusal =
          Option.iter
            (fun set ->
              List.iter
                (fun v ->
                  Option.iter
                    (fun msg ->
                      fatal_finding
                        (Diag.error ~subject:(Expr.var_name v) "AMS030" msg))
                    (refusal v))
                (Probe.vars set))
            probes
        in
        (match moc with
        | `Cpp | `De | `Tdf ->
            let vars = Sfprogram.layout_vars (Sfprogram.layout_of p) in
            check_probes (fun v ->
                if Array.mem v vars then None
                else
                  Some
                    (Printf.sprintf
                       "probe %s names no quantity of the signal-flow \
                        program %s"
                       (Expr.var_name v) p.Sfprogram.name))
        | `Eln | `Vams -> ());
        let observe = Option.map Probe.observer probes in
        let reads = Option.map Probe.vars probes in
        let stim = Stimulus.square ~period ~low ~high in
        let stimuli = List.map (fun n -> (n, stim)) p.Sfprogram.inputs in
        let trace =
          match moc with
          | `Cpp ->
              (Wrap.run_cpp ?reads ?observe p ~stimuli ~t_stop)
                .Wrap.trace
          | `De ->
              (Wrap.run_de ?reads ?observe p ~stimuli ~t_stop)
                .Wrap.trace
          | `Tdf ->
              (Wrap.run_tdf ?reads ?observe p ~stimuli ~t_stop)
                .Wrap.trace
          | `Eln | `Vams -> (
              let _, circuit =
                conservative_circuit ~what:"the conservative solver" lang
                  file top inputs
              in
              let circuit = Flow.insert_probes circuit ~outputs:[ output ] in
              check_probes
                (System.probe_refusal (System.build circuit) ~circuit:top);
              let inputs =
                List.map
                  (fun n -> (n, stim))
                  (Amsvp_netlist.Circuit.input_signals circuit)
              in
              match moc with
              | `Eln ->
                  (Wrap.run_eln ?observe circuit ~inputs ~output ~dt ~t_stop)
                    .Wrap.trace
              | _ ->
                  (Engine.spice_like ~fidelity ?observe circuit ~inputs
                     ~output ~dt ~t_stop)
                    .Engine.trace)
        in
        probe_export probecfg probes;
        Printf.printf "# time(s)  %s\n" (Expr.var_name output);
        for i = 0 to samples - 1 do
          let t = t_stop *. float_of_int i /. float_of_int (samples - 1) in
          Printf.printf "%.9e  %.9e\n" t (Trace.sample_at trace t)
        done)
  in
  Cmd.v
    (Cmd.info "simulate"
       ~doc:"Simulate a Verilog-AMS or VHDL-AMS model under a chosen MoC.")
    Term.(const run $ obs_flags $ file_arg $ top_arg $ out_arg $ dt_arg
          $ mode_arg $ integration_arg $ fidelity_arg $ lang_arg $ inputs_arg
          $ from_program_arg $ moc_arg $ t_stop_arg $ square_arg
          $ samples_arg $ probe_args)

(* report *)

(* "--threshold 15%" or "--threshold 0.15" -> 0.15 *)
let parse_threshold s =
  let s = String.trim s in
  let pct = String.length s > 0 && s.[String.length s - 1] = '%' in
  let body = if pct then String.sub s 0 (String.length s - 1) else s in
  match float_of_string_opt body with
  | Some v when v >= 0.0 -> Ok (if pct then v /. 100.0 else v)
  | Some _ | None ->
      Error (`Msg (Printf.sprintf "cannot parse threshold %S" s))

let threshold_conv =
  Arg.conv
    (parse_threshold, fun ppf v -> Format.fprintf ppf "%g%%" (v *. 100.0))

let report_cmd =
  let parse_json path =
    try Json.parse (read_file path) with
    | Json.Parse_error (msg, off) ->
        Printf.eprintf "%s: JSON parse error at offset %d: %s\n" path off msg;
        exit 1
    | Sys_error msg ->
        Printf.eprintf "amsvp: %s\n" msg;
        exit 1
  in
  let parse_journal path =
    try Json.parse_lines (read_file path) with
    | Json.Parse_error (msg, off) ->
        Printf.eprintf "%s: journal parse error at offset %d: %s\n" path off
          msg;
        exit 1
    | Sys_error msg ->
        Printf.eprintf "amsvp: %s\n" msg;
        exit 1
  in
  let run obscfg file top output dt mode integration lang inputs journal_file
      bench_file compare_file threshold top_n json out_file =
    let run_report =
      journal_file <> None || bench_file <> None || compare_file <> None
    in
    match (run_report, compare_file, file) with
    | false, _, Some file ->
        (* Original form: the abstraction pipeline report of a model. *)
        let top =
          match top with
          | Some t -> t
          | None ->
              Printf.eprintf "amsvp report: the pipeline report needs --top\n";
              exit 2
        in
        with_obs obscfg (fun () ->
            let report =
              abstract_model file top output dt mode integration lang inputs
            in
            Format.printf "%a@." Flow.pp_report report)
    | false, _, None ->
        Printf.eprintf
          "amsvp report: give a model FILE for the pipeline report, or \
           --journal/--bench/--compare for a run report\n";
        exit 2
    | true, Some baseline_path, _ ->
        (* Regression gate: compare the current bench results against a
           committed baseline; non-zero exit when any per-section
           metric regressed past the threshold. *)
        let current =
          match bench_file with
          | Some p -> parse_json p
          | None ->
              Printf.eprintf
                "amsvp report --compare: needs --bench CURRENT.json\n";
              exit 2
        in
        let baseline = parse_json baseline_path in
        let regs = Runreport.compare_bench ~baseline ~current ~threshold in
        let compared = Runreport.compared_metrics ~baseline ~current in
        print_string (Runreport.regressions_to_text ~threshold ~compared regs);
        if regs <> [] then exit 1
    | true, None, _ ->
        let journal =
          match journal_file with
          | Some p -> parse_journal p
          | None -> []
        in
        let bench = Option.map parse_json bench_file in
        let r = Runreport.build ~top:top_n ~journal ?bench () in
        let contents =
          if json then Runreport.to_json r ^ "\n" else Runreport.to_text r
        in
        (match out_file with
        | Some path -> Obs.write_file path contents
        | None -> print_string contents)
  in
  let report_file_arg =
    Arg.(value & pos 0 (some file) None & info [] ~docv:"FILE"
         ~doc:"Verilog-AMS source file (pipeline-report form).")
  in
  let report_top_arg =
    Arg.(value & opt (some string) None & info [ "top" ] ~docv:"MODULE"
         ~doc:"Top module to elaborate (pipeline-report form).")
  in
  let journal_arg =
    Arg.(value & opt (some file) None & info [ "journal" ] ~docv:"FILE"
         ~doc:"Journal JSONL written by $(b,--journal-out): renders \
               convergence histograms, sweep cache hit rates and the health \
               rollup.")
  in
  let bench_arg =
    Arg.(value & opt (some file) None & info [ "bench" ] ~docv:"FILE"
         ~doc:"BENCH_results.json written by the bench harness: renders the \
               self-time profile; with $(b,--compare), the current side of \
               the regression check.")
  in
  let compare_arg =
    Arg.(value & opt (some file) None & info [ "compare" ] ~docv:"BASELINE"
         ~doc:"Compare $(b,--bench) against this baseline \
               BENCH_results.json; exit non-zero when any per-section metric \
               regressed past $(b,--threshold).")
  in
  let threshold_arg =
    Arg.(value & opt threshold_conv 0.15 & info [ "threshold" ] ~docv:"PCT"
         ~doc:"Regression threshold for $(b,--compare), e.g. $(b,15%) or \
               $(b,0.15) (default 15%).")
  in
  let top_arg_n =
    Arg.(value & opt int 15 & info [ "top-spans" ] ~docv:"N"
         ~doc:"Number of hot spans in the self-time profile (run-report \
               form).")
  in
  let json_arg =
    Arg.(value & flag
         & info [ "json" ] ~doc:"Emit the run report as JSON.")
  in
  let out_file_arg =
    Arg.(value & opt (some string) None & info [ "out-file" ] ~docv:"FILE"
         ~doc:"Write the run report to $(docv) instead of stdout.")
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:"Print the abstraction pipeline report of a model, render a \
             run's journal and bench results into a profile (run-report \
             form), or gate on per-section perf regressions with \
             $(b,--compare).")
    Term.(const run $ obs_flags $ report_file_arg $ report_top_arg $ out_arg
          $ dt_arg $ mode_arg $ integration_arg $ lang_arg $ inputs_arg
          $ journal_arg $ bench_arg $ compare_arg $ threshold_arg $ top_arg_n
          $ json_arg $ out_file_arg)

(* explain *)

let explain_cmd =
  let run obscfg file top output dt mode integration lang inputs json out =
    with_obs obscfg (fun () ->
        let report =
          abstract_model file top output dt mode integration lang inputs
        in
        let contents =
          if json then Explain.to_json report.Flow.explain ^ "\n"
          else Explain.to_text report.Flow.explain ^ "\n"
        in
        match out with
        | Some path -> Obs.write_file path contents
        | None -> print_string contents)
  in
  let json_arg =
    Arg.(value & flag
         & info [ "json" ]
             ~doc:"Emit the plan as JSON instead of pretty text.")
  in
  let out_file_arg =
    Arg.(value & opt (some string) None
         & info [ "out-file" ] ~docv:"FILE"
             ~doc:"Write the plan to $(docv) instead of stdout.")
  in
  Cmd.v
    (Cmd.info "explain"
       ~doc:"Explain the abstraction plan: the defining equation chosen \
             for each solved variable, the disabled members of its \
             equivalence class, discretisation and elimination decisions, \
             and the cone of influence.")
    Term.(const run $ obs_flags $ file_arg $ top_arg $ out_arg $ dt_arg
          $ mode_arg $ integration_arg $ lang_arg $ inputs_arg $ json_arg
          $ out_file_arg)

(* op / netlist *)

let op_cmd =
  let run file top lang inputs levels =
    with_frontend_errors ~file (fun () ->
        let _, circuit = conservative_circuit ~what:"op" lang file top inputs in
        match Amsvp_mna.Dc.operating_point ~inputs:levels circuit with
        | sol -> Format.printf "%a@." Amsvp_mna.Dc.pp sol
        | exception Amsvp_mna.Dc.No_fixed_point passes ->
            fatal_finding
              (Diag.error "AMS025"
                 (Printf.sprintf
                    "piecewise-linear regions do not settle after %d passes"
                    passes)))
  in
  let levels =
    Arg.(value & opt (list (pair ~sep:'=' string float)) []
         & info [ "set" ] ~docv:"IN=LEVEL"
           ~doc:"DC level of each external input, e.g. --set in=1.0.")
  in
  Cmd.v
    (Cmd.info "op" ~doc:"DC operating-point analysis (.op).")
    Term.(const run $ file_arg $ top_arg $ lang_arg $ inputs_arg $ levels)

let netlist_cmd =
  let run file top lang inputs =
    with_frontend_errors ~file (fun () ->
        let _, circuit =
          conservative_circuit ~what:"netlist" lang file top inputs
        in
        print_string (Amsvp_netlist.Export.to_spice ~title:top circuit))
  in
  Cmd.v
    (Cmd.info "netlist"
       ~doc:"Export the elaborated network as a SPICE deck.")
    Term.(const run $ file_arg $ top_arg $ lang_arg $ inputs_arg)

(* sweep *)

module Spec = Amsvp_sweep.Spec
module Sweep_runner = Amsvp_sweep.Runner
module Sweep_report = Amsvp_sweep.Report
module Daemon = Amsvp_serve.Daemon
module Serve_client = Amsvp_serve.Client
module Serve_protocol = Amsvp_serve.Protocol

(* "dev.p:grid:1e3,2e3,5" | "dev.p:values:1,2,3" | "dev.p:uniform:1,2"
   | "dev.p:normal:1e3,50" *)
let parse_axis s =
  let fail () = Error (`Msg (Printf.sprintf "cannot parse axis %S" s)) in
  let float_or_fail t =
    match float_of_string_opt t with Some v -> v | None -> raise Exit
  in
  match String.split_on_char ':' s with
  | [ param; kind; args ] -> (
      try
        let args = List.map float_or_fail (String.split_on_char ',' args) in
        match (kind, args) with
        | "grid", [ lo; hi; n ] ->
            Ok { Spec.param; range = Spec.Grid { lo; hi; n = int_of_float n } }
        | "values", (_ :: _ as vs) -> Ok { Spec.param; range = Spec.Values vs }
        | "uniform", [ lo; hi ] ->
            Ok { Spec.param; range = Spec.Uniform { lo; hi } }
        | "normal", [ mean; sigma ] ->
            Ok { Spec.param; range = Spec.Normal { mean; sigma } }
        | _ -> fail ()
      with Exit -> fail ())
  | _ -> fail ()

let axis_conv =
  Arg.conv
    ( parse_axis,
      fun ppf (a : Spec.axis) -> Format.pp_print_string ppf a.Spec.param )

let fidelity_opt_arg =
  Arg.(value & opt (some (enum Solve.fidelities)) None & info [ "fidelity" ]
       ~doc:"Reference-engine cost model: $(b,paper) (faithful) or $(b,fast) \
             (reused sparse factors, Newton early-exit; bounded error). \
             Overrides the spec's $(b,fidelity) directive; defaults to the \
             spec (and ultimately to paper).")

let sweep_cmd =
  let run obscfg spec_file circuit file top lang inputs out_str axes samples
      seed jobs t_stop dt square sine mode integration fidelity no_reference
      report_out checkpoint resume point_timeout prune_static amplitude_limit
      =
    with_obs obscfg @@ fun () ->
    with_frontend_errors ?file @@ fun () ->
    let spec =
      match spec_file with
      | None -> Spec.default
      | Some path -> (
          match Spec.of_string (read_file path) with
          | Ok s -> s
          | Error msg ->
              Printf.eprintf "%s: %s\n" path msg;
              exit 1)
    in
    let opt_override v current = match v with Some _ -> v | None -> current in
    let stimulus =
      match (square, sine) with
      | Some (period, low, high), _ -> Some (Spec.Square { period; low; high })
      | None, Some (freq, amplitude) -> Some (Spec.Sine { freq; amplitude })
      | None, None -> spec.Spec.stimulus
    in
    let spec =
      {
        spec with
        Spec.circuit = opt_override circuit spec.Spec.circuit;
        output = opt_override out_str spec.Spec.output;
        stimulus;
        t_stop = opt_override t_stop spec.Spec.t_stop;
        dt = opt_override dt spec.Spec.dt;
        mode = (match mode with Some m -> m | None -> spec.Spec.mode);
        integration =
          (match integration with
          | Some i -> i
          | None -> spec.Spec.integration);
        samples =
          (match samples with Some n -> n | None -> spec.Spec.samples);
        seed = (match seed with Some n -> n | None -> spec.Spec.seed);
        jobs = opt_override jobs spec.Spec.jobs;
        reference = (if no_reference then false else spec.Spec.reference);
        fidelity = opt_override fidelity spec.Spec.fidelity;
        amplitude_limit =
          opt_override amplitude_limit spec.Spec.amplitude_limit;
        point_timeout = opt_override point_timeout spec.Spec.point_timeout;
        axes = spec.Spec.axes @ axes;
      }
    in
    if resume && checkpoint = None then begin
      die "--resume needs --checkpoint"
    end;
    let tc, spans =
      match file with
      | Some path ->
          let top =
            match top with
            | Some t -> t
            | None -> die "--file needs --top"
          in
          let flat, circuit =
            conservative_circuit ~what:"a sweep" lang path top inputs
          in
          let output =
            resolve_output
              (Option.map
                 (fun s ->
                   match Expr.access_of_string s with
                   | Ok v -> v
                   | Error m -> die "%s" m)
                 spec.Spec.output)
              flat
          in
          let stim = Stimulus.square ~period:1e-3 ~low:0.0 ~high:1.0 in
          ( {
              Amsvp_netlist.Circuits.label = top;
              circuit;
              output;
              stimuli =
                List.map
                  (fun n -> (n, stim))
                  (Amsvp_netlist.Circuit.input_signals circuit);
            },
            Some (lazy (Elaborate.spans flat)) )
      | None -> (
          match Sweep_runner.resolve spec with
          | Ok tc -> (tc, None)
          | Error m -> die "%s" m)
    in
    let checkpoint =
      Option.map (fun p -> if resume then `Resume p else `Fresh p) checkpoint
    in
    let summary =
      match
        Sweep_runner.session ?checkpoint ~prune:prune_static
          ~on_open:(fun n ->
            if n > 0 then
              Printf.printf
                "resuming: %d point(s) recovered from the checkpoint\n" n)
          (Sweep_runner.prepare ?spans spec tc)
      with
      | Ok summary -> summary
      | Error m -> die "%s" m
    in
    (match report_out with
    | Some basename ->
        List.iter
          (fun p -> Printf.printf "report written to %s\n" p)
          (Sweep_report.write ~basename summary)
    | None -> ());
    Printf.printf
      "sweep %s over %s: %d points, jobs=%d, %.3fs (cache: %d replayed, %d \
       full)\n"
      spec.Spec.name summary.Sweep_runner.label
      (Array.length summary.Sweep_runner.points)
      summary.Sweep_runner.jobs summary.Sweep_runner.total_s
      summary.Sweep_runner.cache_hits summary.Sweep_runner.cache_misses;
    if summary.Sweep_runner.pruned > 0 then
      Printf.printf
        "  pruned: %d point(s) proven unhealthy statically and skipped\n"
        summary.Sweep_runner.pruned;
    if summary.Sweep_runner.unhealthy > 0 then
      Printf.printf "  UNHEALTHY: %d point(s) flagged by the watchdogs (see \
                     the report's health column)\n"
        summary.Sweep_runner.unhealthy;
    let show name = function
      | Some st -> Format.printf "  %-8s %a@." name Amsvp_sweep.Stats.pp st
      | None -> ()
    in
    show "nrmse" summary.Sweep_runner.nrmse_stats;
    show "out_rms" summary.Sweep_runner.rms_stats;
    show "wall_s" summary.Sweep_runner.wall_stats
  in
  let spec_file_arg =
    Arg.(value & opt (some file) None & info [ "spec" ] ~docv:"FILE"
         ~doc:"Sweep specification file (see lib/sweep/spec.mli).")
  in
  let circuit_arg =
    Arg.(value & opt (some string) None & info [ "circuit" ] ~docv:"LABEL"
         ~doc:"Built-in test case: $(b,RECT), $(b,RC<n>), $(b,2IN), \
               $(b,OA), $(b,RLC).")
  in
  let sweep_file_arg =
    Arg.(value & opt (some file) None & info [ "file" ] ~docv:"FILE"
         ~doc:"Sweep an elaborated Verilog-AMS/VHDL-AMS model instead of a \
               built-in test case (needs $(b,--top)).")
  in
  let sweep_top_arg =
    Arg.(value & opt (some string) None & info [ "top" ] ~docv:"MODULE"
         ~doc:"Top module to elaborate (with $(b,--file)).")
  in
  let sweep_out_arg =
    Arg.(value & opt (some string) None & info [ "out" ] ~docv:"ACCESS"
         ~doc:"Output of interest, e.g. 'V(out,gnd)'.")
  in
  let params_arg =
    Arg.(value & opt_all axis_conv [] & info [ "param" ] ~docv:"AXIS"
         ~doc:"Sweep axis: $(i,dev.p):$(b,grid):$(i,lo,hi,n), \
               $(b,values):$(i,v1,v2,...), $(b,uniform):$(i,lo,hi) or \
               $(b,normal):$(i,mean,sigma). Repeatable; grid axes combine \
               by cartesian product.")
  in
  let samples_arg =
    Arg.(value & opt (some int) None & info [ "samples" ] ~docv:"N"
         ~doc:"Monte Carlo draws per grid point.")
  in
  let seed_arg =
    Arg.(value & opt (some int) None & info [ "seed" ] ~docv:"N"
         ~doc:"RNG seed; results are byte-identical for a fixed seed, \
               independent of $(b,--jobs).")
  in
  let jobs_arg =
    Arg.(value & opt (some int) None & info [ "jobs"; "j" ] ~docv:"N"
         ~doc:"Worker processes executing the points; 1 (the default) \
               runs them in-process, without forking.")
  in
  let t_stop_opt =
    Arg.(value & opt (some positive_float) None & info [ "t-stop" ] ~docv:"SECONDS"
         ~doc:"Simulated duration per point.")
  in
  let dt_opt =
    Arg.(value & opt (some positive_float) None & info [ "dt" ] ~docv:"SECONDS"
         ~doc:"Discretisation step.")
  in
  let square_opt =
    Arg.(value & opt (some (t3 float float float)) None
         & info [ "square" ] ~docv:"PERIOD,LOW,HIGH"
           ~doc:"Square-wave stimulus applied to every input.")
  in
  let sine_opt =
    Arg.(value & opt (some (pair float float)) None
         & info [ "sine" ] ~docv:"FREQ,AMPLITUDE"
           ~doc:"Sine stimulus applied to every input.")
  in
  let mode_opt =
    Arg.(value & opt (some (enum Solve.modes)) None & info [ "mode" ]
         ~doc:"Solve mode: $(b,auto), $(b,exact) or $(b,relaxed).")
  in
  let integration_opt =
    Arg.(value & opt (some (enum Solve.integrations)) None
         & info [ "integration" ] ~doc:"Integration rule.")
  in
  let no_reference_arg =
    Arg.(value & flag
         & info [ "no-reference" ]
             ~doc:"Skip the MNA reference simulation (no NRMSE).")
  in
  let report_out_arg =
    Arg.(value & opt (some string) None & info [ "report-out" ] ~docv:"BASE"
         ~doc:"Write $(docv).json and $(docv).csv reports.")
  in
  let checkpoint_arg =
    Arg.(value & opt (some string) None & info [ "checkpoint" ] ~docv:"FILE"
         ~doc:"Append each completed point to $(docv) (JSONL) as it \
               finishes, so a killed sweep can be picked up with \
               $(b,--resume).")
  in
  let resume_arg =
    Arg.(value & flag
         & info [ "resume" ]
             ~doc:"Recover completed points from $(b,--checkpoint) and run \
                   only the remainder; the merged report is identical to an \
                   uninterrupted run.")
  in
  let point_timeout_arg =
    Arg.(value & opt (some float) None
         & info [ "point-timeout" ] ~docv:"SECONDS"
             ~doc:"Per-point wall-clock budget: a point still running past \
                   it is aborted and flagged $(b,timeout) in the health \
                   column instead of stalling its worker.")
  in
  let prune_static_arg =
    Arg.(value & flag
         & info [ "prune-static" ]
             ~doc:"Pre-flight static pruning: the abstract interpreter \
                   proves parameter sub-regions unhealthy (non-finite \
                   output, or beyond $(b,--amplitude-limit)) and their \
                   points are skipped with a $(b,pruned) verdict instead \
                   of being simulated. Surviving points are untouched.")
  in
  let amplitude_limit_arg =
    Arg.(value & opt (some float) None
         & info [ "amplitude-limit" ] ~docv:"V"
             ~doc:"Amplitude watchdog: flag a point whose |output| exceeds \
                   $(docv); also the budget $(b,--prune-static) proves \
                   against.")
  in
  Cmd.v
    (Cmd.info "sweep"
       ~doc:"Run a parameter sweep (grid, Monte Carlo, corners) over a \
             circuit across worker processes.")
    Term.(const run $ obs_flags $ spec_file_arg $ circuit_arg $ sweep_file_arg
          $ sweep_top_arg $ lang_arg $ inputs_arg $ sweep_out_arg $ params_arg
          $ samples_arg $ seed_arg $ jobs_arg $ t_stop_opt $ dt_opt
          $ square_opt $ sine_opt $ mode_opt $ integration_opt
          $ fidelity_opt_arg $ no_reference_arg $ report_out_arg
          $ checkpoint_arg $ resume_arg $ point_timeout_arg $ prune_static_arg
          $ amplitude_limit_arg)

(* serve / submit *)

let serve_cmd =
  let run socket workers checkpoint_dir point_timeout retries journal_out
      journal_max_bytes journal_keep obs metrics_out metrics_every trace_out
      werror fidelity =
    if obs || metrics_out <> None || trace_out <> None then Obs.enable ();
    (match journal_out with
    | Some path ->
        Journal.enable ();
        (* The daemon never exits in the at_exit sense, and its ring
           buffers overwrite old events: attach the incremental,
           size-rotated sink instead of the one-shot dump. *)
        Journal.attach_sink ~max_bytes:journal_max_bytes ~keep:journal_keep
          path
    | None -> ());
    (match checkpoint_dir with
    | Some dir when not (Sys.file_exists dir) -> Unix.mkdir dir 0o755
    | _ -> ());
    let cfg =
      {
        Daemon.socket_path = socket;
        workers;
        checkpoint_dir;
        point_timeout_s = point_timeout;
        retries;
        ctx_cache_max = 8;
        metrics_out;
        metrics_every_s = metrics_every;
        trace_out;
        werror;
        fidelity;
      }
    in
    Daemon.serve cfg;
    if journal_out <> None then Journal.detach_sink ();
    if obs then prerr_string (Obs.summary ())
  in
  let socket_arg =
    Arg.(required & opt (some string) None & info [ "socket" ] ~docv:"PATH"
         ~doc:"Unix-domain socket to listen on (created, unlinked on \
               shutdown).")
  in
  let workers_arg =
    Arg.(value & opt int 2 & info [ "workers" ] ~docv:"N"
         ~doc:"Point-worker processes forked per sweep; each inherits the \
               warm abstraction cache.")
  in
  let checkpoint_dir_arg =
    Arg.(value & opt (some string) None
         & info [ "checkpoint-dir" ] ~docv:"DIR"
           ~doc:"Checkpoint every sweep into $(docv) (created if missing); \
                 a daemon killed mid-sweep resumes on resubmit.")
  in
  let point_timeout_arg =
    Arg.(value & opt (some float) None
         & info [ "point-timeout" ] ~docv:"SECONDS"
           ~doc:"Default per-point wall-clock budget for specs that set \
                 none.")
  in
  let retries_arg =
    Arg.(value & opt int 1 & info [ "retries" ] ~docv:"N"
         ~doc:"Re-dispatches per point whose worker crashed, before the \
               point is reported with a $(b,crashed) verdict.")
  in
  let journal_out_arg =
    Arg.(value & opt (some string) None
         & info [ "journal-out" ] ~docv:"FILE"
           ~doc:"Record the structured run journal and flush it to $(docv) \
                 incrementally (per request and every 32 points).")
  in
  let journal_max_bytes_arg =
    Arg.(value & opt int (8 * 1024 * 1024)
         & info [ "journal-max-bytes" ] ~docv:"BYTES"
           ~doc:"Rotate the journal once the live file passes $(docv).")
  in
  let journal_keep_arg =
    Arg.(value & opt int 3 & info [ "journal-keep" ] ~docv:"N"
         ~doc:"Rotated journal files kept ($(i,FILE.1) newest).")
  in
  let obs_arg =
    Arg.(value & flag
         & info [ "obs" ]
             ~doc:"Record spans/metrics; print a summary to stderr on \
                   shutdown.")
  in
  let metrics_out_arg =
    Arg.(value & opt (some string) None
         & info [ "metrics-out" ] ~docv:"FILE"
           ~doc:"Rewrite a Prometheus textfile at $(docv) atomically every \
                 $(b,--metrics-every) seconds, after each request, and at \
                 startup/shutdown (node_exporter textfile-collector style). \
                 Implies span/metric recording.")
  in
  let metrics_every_arg =
    Arg.(value & opt float 2.0
         & info [ "metrics-every" ] ~docv:"SECONDS"
           ~doc:"Minimum interval between $(b,--metrics-out) rewrites.")
  in
  let trace_out_arg =
    Arg.(value & opt (some string) None
         & info [ "trace-out" ] ~docv:"FILE"
           ~doc:"Write a Chrome trace to $(docv) on shutdown: daemon \
                 request spans plus worker solver spans shipped over the \
                 telemetry frames, one process track each. Implies \
                 recording.")
  in
  let serve_werror_arg =
    Arg.(value & flag
         & info [ "werror" ]
             ~doc:"Treat value-range screen warnings (AMS061/AMS063) as \
                   errors: submits whose screen then errors are answered \
                   with a structured $(b,rejected) reply instead of \
                   running.")
  in
  let serve_fidelity_arg =
    Arg.(value & opt (some (enum Solve.fidelities)) None & info [ "fidelity" ]
         ~doc:"Default reference-engine cost model for submitted specs that \
               carry no $(b,fidelity) directive of their own (the directive \
               always wins): $(b,paper) or $(b,fast).")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Run the sweep service: a daemon on a Unix-domain socket that \
             keeps abstraction plans and compiled bytecode warm across \
             requests, shards points over worker processes, checkpoints \
             progress and drains cleanly on SIGTERM.")
    Term.(const run $ socket_arg $ workers_arg $ checkpoint_dir_arg
          $ point_timeout_arg $ retries_arg $ journal_out_arg
          $ journal_max_bytes_arg $ journal_keep_arg $ obs_arg
          $ metrics_out_arg $ metrics_every_arg $ trace_out_arg
          $ serve_werror_arg $ serve_fidelity_arg)

let submit_cmd =
  (* One human-readable status line from a stats reply, for --watch. *)
  let status_line (s : Serve_protocol.stats) =
    Printf.sprintf
      "up %7.1fs | req %d | pts %d (%d in flight) | ctx %d/%d hit/miss | \
       workers %d (spawned %d, crashed %d, timeout %d, redisp %d) | \
       torn %d, jdrop %d | heap %.1f MB"
      s.Serve_protocol.st_uptime_s s.Serve_protocol.st_requests
      s.Serve_protocol.st_points s.Serve_protocol.st_in_flight
      s.Serve_protocol.st_ctx_hits s.Serve_protocol.st_ctx_misses
      s.Serve_protocol.st_workers s.Serve_protocol.st_spawned
      s.Serve_protocol.st_crashed s.Serve_protocol.st_timeouts
      s.Serve_protocol.st_redispatched s.Serve_protocol.st_telemetry_torn
      s.Serve_protocol.st_journal_dropped
      (float_of_int s.Serve_protocol.st_heap_words *. 8.0 /. 1048576.0)
  in
  let run socket spec_file ping stats shutdown watch every quiet =
    let connect () =
      try Some (Serve_client.connect socket) with Unix.Unix_error _ -> None
    in
    let client =
      match connect () with
      | Some c -> c
      | None -> die "cannot connect to %s" socket
    in
    let show resp =
      if not quiet then
        print_endline (Serve_protocol.encode_response resp)
    in
    let rc = ref 0 in
    let simple req =
      Serve_client.send client req;
      match Serve_client.recv client with
      | Ok resp -> show resp
      | Error m ->
          Printf.eprintf "error: %s\n" m;
          rc := 1
    in
    if ping then simple Serve_protocol.Ping;
    if stats && watch && spec_file = None then begin
      (* Live status: one sample per refresh over a fresh connection —
         the daemon serves one client at a time, so holding the
         connection open between refreshes would starve real work. *)
      let sample c =
        Serve_client.send c Serve_protocol.Stats;
        match Serve_client.recv c with
        | Ok (Serve_protocol.Stats_reply s) ->
            print_endline (status_line s);
            true
        | Ok _ | Error _ -> false
      in
      let first = sample client in
      Serve_client.close client;
      if not first then die "no stats reply from %s" socket;
      let rec loop () =
        Unix.sleepf every;
        match connect () with
        | None -> prerr_endline "watch: daemon gone"
        | Some c ->
            let ok = sample c in
            Serve_client.close c;
            if ok then loop () else prerr_endline "watch: daemon gone"
      in
      loop ();
      exit 0
    end;
    if stats then simple Serve_protocol.Stats;
    (match spec_file with
    | Some path -> (
        let spec_text = read_file path in
        (* --watch on a submit: a throttled progress line on stderr,
           fed from the same streamed frames that (unless --quiet) are
           still printed to stdout. *)
        let progress =
          if not watch then fun _ -> ()
          else begin
            let total = ref 0 and got = ref 0 and bad = ref 0 in
            let t0 = Unix.gettimeofday () in
            let last = ref 0.0 in
            fun resp ->
              (match resp with
              | Serve_protocol.Accepted { points; resumed; _ } ->
                  total := points;
                  got := resumed
              | Serve_protocol.Point { result; _ } ->
                  incr got;
                  if
                    not
                      result.Sweep_runner.health
                        .Amsvp_probe.Health.v_healthy
                  then incr bad
              | _ -> ());
              let now = Unix.gettimeofday () in
              let final =
                match resp with Serve_protocol.Done _ -> true | _ -> false
              in
              if final || now -. !last >= 0.5 then begin
                last := now;
                let dt = now -. t0 in
                Printf.eprintf "\r%d/%d points, %d unhealthy, %.1f pt/s%!"
                  !got !total !bad
                  (if dt > 0.0 then float_of_int !got /. dt else 0.0);
                if final then prerr_newline ()
              end
          end
        in
        let on_event resp =
          show resp;
          progress resp
        in
        match Serve_client.submit client ~spec_text ~on_event () with
        | Ok (Serve_protocol.Done { complete; points; unhealthy; _ }) ->
            if quiet then
              Printf.printf "done: %d point(s), %d unhealthy%s\n" points
                unhealthy
                (if complete then "" else " (INCOMPLETE: daemon drained)");
            if not complete then rc := 4
        | Ok (Serve_protocol.Rejected { message; findings }) ->
            Printf.eprintf "rejected: %s\n" message;
            List.iter
              (fun (f : Diag.finding) ->
                Printf.eprintf "  %s\n" (Diag.to_text f))
              findings;
            rc := 3
        | Ok _ -> ()
        | Error m ->
            Printf.eprintf "error: %s\n" m;
            rc := 2)
    | None -> ());
    if shutdown then simple Serve_protocol.Shutdown;
    Serve_client.close client;
    if ping || stats || spec_file <> None || shutdown then exit !rc
    else begin
      Printf.eprintf
        "error: nothing to do (want --spec, --ping, --stats or --shutdown)\n";
      exit 1
    end
  in
  let socket_arg =
    Arg.(required & opt (some string) None & info [ "socket" ] ~docv:"PATH"
         ~doc:"Daemon socket to connect to.")
  in
  let spec_arg =
    Arg.(value & opt (some file) None & info [ "spec" ] ~docv:"FILE"
         ~doc:"Sweep specification to submit; every streamed frame is \
               printed as one JSON line.")
  in
  let ping_arg =
    Arg.(value & flag & info [ "ping" ] ~doc:"Health-check the daemon.")
  in
  let stats_arg =
    Arg.(value & flag & info [ "stats" ] ~doc:"Print daemon statistics.")
  in
  let shutdown_arg =
    Arg.(value & flag
         & info [ "shutdown" ]
             ~doc:"Ask the daemon to drain and exit (after any submit).")
  in
  let watch_arg =
    Arg.(value & flag
         & info [ "watch"; "w" ]
             ~doc:"With $(b,--stats): refresh the daemon status every \
                   $(b,--every) seconds (one line per sample, fresh \
                   connection each time) until the daemon goes away. With \
                   $(b,--spec): show a live progress line on stderr while \
                   the sweep streams.")
  in
  let every_arg =
    Arg.(value & opt float 2.0
         & info [ "every" ] ~docv:"SECONDS"
             ~doc:"Refresh interval for $(b,--watch).")
  in
  let quiet_arg =
    Arg.(value & flag
         & info [ "quiet"; "q" ]
             ~doc:"Suppress per-frame output; print a one-line summary.")
  in
  Cmd.v
    (Cmd.info "submit"
       ~doc:"Submit a sweep to a running $(b,amsvp serve) daemon and stream \
             its per-point results.")
    Term.(const run $ socket_arg $ spec_arg $ ping_arg $ stats_arg
          $ shutdown_arg $ watch_arg $ every_arg $ quiet_arg)

(* lint *)

let lint_cmd =
  let run file top lang inputs dt format werror suppress amplitude_budget
      input_bound =
    let findings =
      Lint.lint ~lang ?top ~inputs ~dt ?amplitude_budget ?input_bound ~file
        (read_file file)
    in
    let config = { Diag.werror; suppress } in
    let findings = Diag.apply config findings in
    (match format with
    | `Text -> print_string (Diag.report_to_text findings)
    | `Json -> print_endline (Diag.report_to_json ~file findings)
    | `Sarif -> print_endline (Diag.report_to_sarif findings));
    if Diag.error_count findings > 0 then exit 1
  in
  let top_opt =
    Arg.(value & opt (some string) None & info [ "top" ] ~docv:"MODULE"
         ~doc:"Top module (entity) for the elaboration passes; defaults to \
               the last one in the file. AST passes always cover every \
               module.")
  in
  let format_arg =
    let formats = [ ("text", `Text); ("json", `Json); ("sarif", `Sarif) ] in
    Arg.(value & opt (enum formats) `Text & info [ "format" ]
         ~doc:"Report format: $(b,text) (compiler-style lines), \
               $(b,json), or $(b,sarif) (SARIF 2.1.0 for code-scanning \
               upload).")
  in
  let werror_arg =
    Arg.(value & flag
         & info [ "werror" ] ~doc:"Treat warnings as errors.")
  in
  let suppress_arg =
    Arg.(value & opt_all string []
         & info [ "suppress" ] ~docv:"CODE"
             ~doc:"Drop findings with this code (e.g. AMS011). Repeatable.")
  in
  let amplitude_budget_arg =
    Arg.(value & opt (some float) None
         & info [ "amplitude-budget" ] ~docv:"V"
             ~doc:"Declared |output| budget for the value-range pass: \
                   AMS063 fires when a proven output bound exceeds it.")
  in
  let input_bound_arg =
    Arg.(value & opt (some float) None
         & info [ "input-bound" ] ~docv:"V"
             ~doc:"Confine every input signal to [-V, V] for the \
                   value-range pass (default 1).")
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:"Statically analyse an AMS model: front-end, AST, topology, \
             structural-solvability, abstraction-safety and value-range \
             passes, reported as source-located diagnostics. Exits \
             non-zero when any error-severity finding remains.")
    Term.(const run $ file_arg $ top_opt $ lang_arg $ inputs_arg $ dt_arg
          $ format_arg $ werror_arg $ suppress_arg $ amplitude_budget_arg
          $ input_bound_arg)

(* ac *)

let ac_cmd =
  let run file top output lang inputs input fstart fstop points =
    with_frontend_errors ~file (fun () ->
        let flat, circuit =
          conservative_circuit ~what:"AC analysis" lang file top inputs
        in
        let output = resolve_output output flat in
        let circuit =
          match Flow.insert_probes circuit ~outputs:[ output ] with
          | circuit -> circuit
          | exception Invalid_argument msg ->
              (* the finding [Flow.run] reports for the same output *)
              fatal_finding (Diag.error "AMS030" msg)
        in
        let input =
          match input with
          | Some i -> i
          | None -> (
              match Amsvp_netlist.Circuit.input_signals circuit with
              | [ i ] -> i
              | _ ->
                  Printf.eprintf
                    "error: several inputs; choose one with --input\n";
                  exit 1)
        in
        let freqs =
          List.init points (fun i ->
              fstart
              *. ((fstop /. fstart)
                 ** (float_of_int i /. float_of_int (max 1 (points - 1)))))
        in
        let pts = Ac.analyze circuit ~input ~output ~freqs in
        Printf.printf "# freq(Hz)  |H|(dB)  phase(deg)\n";
        List.iter
          (fun p ->
            Printf.printf "%12.3f  %9.3f  %9.3f\n" p.Ac.freq_hz
              (Ac.magnitude_db p) (Ac.phase_deg p))
          pts)
  in
  let input_opt =
    Arg.(value & opt (some string) None & info [ "input" ]
         ~doc:"Input signal carrying the AC excitation.")
  in
  let fstart =
    Arg.(value & opt float 10.0 & info [ "fstart" ] ~doc:"Start frequency (Hz).")
  in
  let fstop =
    Arg.(value & opt float 1e6 & info [ "fstop" ] ~doc:"Stop frequency (Hz).")
  in
  let points =
    Arg.(value & opt int 25 & info [ "points" ] ~doc:"Points (log-spaced).")
  in
  Cmd.v
    (Cmd.info "ac"
       ~doc:"Small-signal AC analysis (Bode table) of a conservative model.")
    Term.(const run $ file_arg $ top_arg $ out_arg $ lang_arg $ inputs_arg
          $ input_opt $ fstart $ fstop $ points)

let () =
  let doc =
    "integration of mixed-signal components into virtual platforms \
     (Fraccaroli et al., DATE 2016)"
  in
  exit
    (Cmd.eval
       (Cmd.group (Cmd.info "amsvp" ~version:"1.0.0" ~doc)
          [ abstract_cmd; simulate_cmd; report_cmd; explain_cmd; lint_cmd;
            sweep_cmd; serve_cmd; submit_cmd; ac_cmd; op_cmd; netlist_cmd ]))
