(* Benchmark harness reproducing every table and figure of the paper's
   evaluation (Section V), plus the ablations called out in DESIGN.md.

   Usage:
     dune exec bench/main.exe                  -- everything, default scale
     dune exec bench/main.exe -- table1 table3 -- selected sections
     dune exec bench/main.exe -- --quick       -- reduced simulated times

   Simulated durations are scaled down from the paper's (100 ms / 10 s /
   100 ms) so the whole suite runs in minutes; the scale multiplies all
   rows of a table equally, so the orderings and ratios the paper
   reports are preserved. Paper values are printed next to measured
   ones; EXPERIMENTS.md records the comparison. *)

module Circuits = Amsvp_netlist.Circuits
module Engine = Amsvp_mna.Engine
module Flow = Amsvp_core.Flow
module Assemble = Amsvp_core.Assemble
module Acquisition = Amsvp_core.Acquisition
module Enrich = Amsvp_core.Enrich
module Solve = Amsvp_core.Solve
module Eqmap = Amsvp_core.Eqmap
module Sfprogram = Amsvp_sf.Sfprogram
module Wrap = Amsvp_sysc.Wrap
module De = Amsvp_sysc.De
module Codegen = Amsvp_codegen.Codegen
module Platform = Amsvp_vp.Platform
module Trace = Amsvp_util.Trace
module Json = Amsvp_util.Json
module Metrics = Amsvp_util.Metrics
module Sources = Amsvp_vams.Sources
module Elaborate = Amsvp_vams.Elaborate
module Obs = Amsvp_obs.Obs
module Journal = Amsvp_obs.Journal
module Probe = Amsvp_probe.Probe

let dt = 50e-9 (* the paper's time step (Section V-A) *)

(* Everything the harness reports is a row of BENCH_results.json,
   keyed by (table, comp, target, method), so the perf trajectory can be
   compared across commits without scraping the human-readable tables.
   [time_s] is wall seconds; for a side of a {!paired} comparison it is
   that side's minimum over the rounds. Section evidence rides along as
   optional fields:
   - [ratio]: a paired comparison's median per-round ratio, on the row
     of the variant under test;
   - [nrmse]: error against the section's reference trace;
   - [factorizations]: MNA factorisations of the run;
   - [max_ulp]: worst ulp distance between the two engines' traces;
   - [steps], [newton_iters], [wasted_iters]: Newton totals of a
     journaled SPICE-like run;
   - [points], [pruned]: sweep size and statically pruned points. *)
type bench_row = {
  table : string;
  comp : string;
  target : string;
  meth : string;
  time_s : float;
  nrmse : float option;
  ratio : float option;
  factorizations : int option;
  max_ulp : int option;
  steps : int option;
  newton_iters : int option;
  wasted_iters : int option;
  points : int option;
  pruned : int option;
}

let bench_rows : bench_row list ref = ref []

let row ~table ~comp ~target ?(meth = "") ?nrmse ?ratio ?factorizations
    ?max_ulp ?steps ?newton_iters ?wasted_iters ?points ?pruned time_s =
  { table; comp; target; meth; time_s; nrmse; ratio; factorizations; max_ulp;
    steps; newton_iters; wasted_iters; points; pruned }

let record r = bench_rows := r :: !bench_rows

let row_json r =
  let open Json in
  let opt name f = function Some v -> [ (name, Num (f v)) ] | None -> [] in
  let int name = opt name float_of_int in
  Obj
    ([ ("table", Str r.table); ("comp", Str r.comp); ("target", Str r.target);
       ("method", Str r.meth); ("time_s", Num r.time_s) ]
    @ (match r.nrmse with
      | Some e when Float.is_finite e -> [ ("nrmse", Num e) ]
      | Some _ | None -> [])
    @ opt "ratio" Fun.id r.ratio
    @ int "factorizations" r.factorizations
    @ int "max_ulp" r.max_ulp @ int "steps" r.steps
    @ int "newton_iters" r.newton_iters
    @ int "wasted_iters" r.wasted_iters @ int "points" r.points
    @ int "pruned" r.pruned)

(* Per-section span accounting, written as "sections" in
   BENCH_results.json. The recorder runs for the whole harness; each
   section remembers the [Obs.span_count] interval it produced. Self
   time is a span's duration minus the total duration of its direct
   children, computed over the completion-ordered span list with a
   per-(process, depth) pending table -- a child always completes
   before its parent, and depth only nests within one process. *)
let section_spans : (string * int * int) list ref = ref []

let self_times (spans : Obs.span array) =
  let pending : (string * int, int) Hashtbl.t = Hashtbl.create 32 in
  let get k = Option.value ~default:0 (Hashtbl.find_opt pending k) in
  Array.map
    (fun (s : Obs.span) ->
      let child = (s.Obs.proc, s.Obs.depth + 1) in
      let self = s.Obs.dur_ns - get child in
      Hashtbl.remove pending child;
      let mine = (s.Obs.proc, s.Obs.depth) in
      Hashtbl.replace pending mine (get mine + s.Obs.dur_ns);
      self)
    spans

let sections_json () =
  let open Json in
  let spans = Array.of_list (Obs.spans ()) in
  let selfs = self_times spans in
  let section (name, lo, hi) =
    let agg : (string, int * int * int) Hashtbl.t = Hashtbl.create 16 in
    let order = ref [] in
    for j = lo to min hi (Array.length spans) - 1 do
      let s = spans.(j) in
      if s.Obs.dur_ns > 0 then begin
        let calls, tot, slf =
          Option.value ~default:(0, 0, 0) (Hashtbl.find_opt agg s.Obs.name)
        in
        if calls = 0 then order := s.Obs.name :: !order;
        Hashtbl.replace agg s.Obs.name
          (calls + 1, tot + s.Obs.dur_ns, slf + selfs.(j))
      end
    done;
    let span n =
      let calls, tot, slf = Hashtbl.find agg n in
      Obj
        [ ("name", Str n); ("calls", Num (float_of_int calls));
          ("total_s", Num (float_of_int tot *. 1e-9));
          ("self_s", Num (float_of_int slf *. 1e-9)) ]
    in
    Obj [ ("section", Str name); ("spans", Arr (List.rev_map span !order)) ]
  in
  Arr (List.rev_map section !section_spans)

let results_json ~quick ~total_wall_s =
  let open Json in
  (* rows and sections are recorded newest first *)
  print
    (Obj
       [ ("bench", Str "amsvp"); ("quick", Bool quick); ("dt", Num dt);
         ("total_wall_s", Num total_wall_s);
         ("rows", Arr (List.rev_map row_json !bench_rows));
         ("sections", sections_json ()) ])

let wall f =
  let t0 = Unix.gettimeofday () in
  let y = f () in
  (y, Unix.gettimeofday () -. t0)

(* The one A/B timer: [rounds] rounds of one [a] and one [b] run back
   to back, alternating which goes first. A fixed order would charge
   clock drift and heap growth to whichever side always runs second;
   running the two in the same window makes ambient load shift both
   samples of a round together, and the median per-round ratio then
   discards rounds where a burst landed between them (min-vs-min would
   compare floors from two different windows). Returns each side's last
   result and minimum wall time, and the median of t_b / t_a. *)
type ('a, 'b) paired = {
  a : 'a;
  b : 'b;
  a_s : float;
  b_s : float;
  b_over_a : float;
}

let paired ~rounds a b =
  let last_a = ref None and last_b = ref None in
  let time last f =
    let y, t = wall f in
    last := Some y;
    t
  in
  let pairs =
    Array.init rounds (fun i ->
        if i land 1 = 0 then
          let ta = time last_a a in
          (ta, time last_b b)
        else
          let tb = time last_b b in
          (time last_a a, tb))
  in
  let ratios = Array.map (fun (ta, tb) -> tb /. ta) pairs in
  Array.sort compare ratios;
  let least f = Array.fold_left (fun m p -> Float.min m (f p)) infinity pairs in
  {
    a = Option.get !last_a;
    b = Option.get !last_b;
    a_s = least fst;
    b_s = least snd;
    b_over_a = (ratios.((rounds - 1) / 2) +. ratios.(rounds / 2)) /. 2.0;
  }

let line () = print_endline (String.make 100 '-')

let header title =
  print_newline ();
  line ();
  print_endline title;
  line ()

let nrmse_against ~reference trace ~t_stop =
  let n = 999 in
  let grid = t_stop /. float_of_int (n + 1) in
  Metrics.nrmse_traces ~reference trace ~t0:0.0 ~dt:grid ~n

(* Paper values. Table I: (time_s, nrmse); Table II: time_s;
   Table III: times in row order. *)
let paper_table1 =
  [
    ("2IN", [ ("Verilog-AMS", (525.76, 0.0)); ("SC-AMS/ELN", (3.15, 2.19e-8));
              ("SC-AMS/TDF", (2.40, 2.41e-8)); ("SC-DE", (1.84, 2.41e-8));
              ("C++", (0.04, 2.41e-8)) ]);
    ("RC1", [ ("Verilog-AMS", (505.95, 0.0)); ("SC-AMS/ELN", (2.16, 2.10e-9));
              ("SC-AMS/TDF", (1.60, 4.61e-7)); ("SC-DE", (1.55, 4.61e-7));
              ("C++", (0.04, 4.61e-7)) ]);
    ("RC20", [ ("Verilog-AMS", (596.44, 0.0)); ("SC-AMS/ELN", (5.88, 4.93e-7));
               ("SC-AMS/TDF", (4.16, 1.06e-5)); ("SC-DE", (4.21, 1.01e-5));
               ("C++", (0.14, 1.01e-5)) ]);
    ("OA", [ ("Verilog-AMS", (543.23, 0.0)); ("SC-AMS/ELN", (2.57, 2.44e-7));
             ("SC-AMS/TDF", (1.87, 1.04e-5)); ("SC-DE", (1.72, 1.04e-5));
             ("C++", (0.05, 1.04e-5)) ]);
  ]

let paper_table2 =
  [
    ("2IN", [ ("SC-AMS/ELN", 31.11); ("SC-AMS/TDF", 25.02); ("SC-DE", 19.00);
              ("C++", 0.54) ]);
    ("RC1", [ ("SC-AMS/ELN", 21.35); ("SC-AMS/TDF", 16.27); ("SC-DE", 15.70);
              ("C++", 0.44) ]);
    ("RC20", [ ("SC-AMS/ELN", 60.15); ("SC-AMS/TDF", 42.99); ("SC-DE", 42.02);
               ("C++", 1.33) ]);
    ("OA", [ ("SC-AMS/ELN", 25.84); ("SC-AMS/TDF", 19.34); ("SC-DE", 18.51);
             ("C++", 0.49) ]);
  ]

let paper_table3 =
  [
    ("2IN", [ 1067.33; 729.01; 57.76; 54.40; 49.19; 24.62 ]);
    ("RC1", [ 1082.35; 734.16; 56.43; 53.25; 48.85; 26.96 ]);
    ("RC20", [ 1242.29; 818.94; 65.91; 54.22; 51.44; 28.08 ]);
    ("OA", [ 1165.52; 743.54; 57.23; 51.96; 50.86; 27.72 ]);
  ]

let measure_rows ~table (tc : Circuits.testcase) ~t_stop ~with_vams =
  let rep = Flow.abstract_testcase tc ~dt in
  let p = rep.Flow.program in
  let vams =
    if with_vams then begin
      let r, t = wall (fun () -> Engine.run_testcase_spice tc ~dt ~t_stop) in
      Some (r.Engine.trace, t)
    end
    else None
  in
  let eln, t_eln =
    wall (fun () ->
        Wrap.run_eln tc.Circuits.circuit ~inputs:tc.Circuits.stimuli
          ~output:tc.Circuits.output ~dt ~t_stop)
  in
  let tdf, t_tdf =
    wall (fun () -> Wrap.run_tdf p ~stimuli:tc.Circuits.stimuli ~t_stop)
  in
  let de, t_de =
    wall (fun () -> Wrap.run_de p ~stimuli:tc.Circuits.stimuli ~t_stop)
  in
  let cpp, t_cpp =
    wall (fun () -> Wrap.run_cpp p ~stimuli:tc.Circuits.stimuli ~t_stop)
  in
  let reference =
    match vams with Some (tr, _) -> tr | None -> eln.Wrap.trace
  in
  let row = row ~table ~comp:tc.Circuits.label in
  let err (r : Wrap.result) = nrmse_against ~reference r.Wrap.trace ~t_stop in
  (match vams with
  | Some (_, t) -> [ row ~target:"Verilog-AMS" ~meth:"manual" ~nrmse:0.0 t ]
  | None -> [])
  @ [
      row ~target:"SC-AMS/ELN" ~meth:"manual" ~nrmse:(err eln) t_eln;
      row ~target:"SC-AMS/TDF" ~meth:"algo" ~nrmse:(err tdf) t_tdf;
      row ~target:"SC-DE" ~meth:"algo" ~nrmse:(err de) t_de;
      row ~target:"C++" ~meth:"algo" ~nrmse:(err cpp) t_cpp;
    ]

let table1 ~t_stop () =
  header
    (Printf.sprintf
       "TABLE I -- performance and accuracy, models in isolation (simulated \
        %g ms; paper: 100 ms; dt = 50 ns; 1 ms square wave)"
       (t_stop *. 1e3));
  Printf.printf "%-6s %-12s %-7s %10s %9s %11s | %10s %10s %12s\n" "Comp."
    "Target" "Method" "Time(s)" "Speedup" "NRMSE" "Paper(s)" "PaperSpd"
    "PaperNRMSE";
  List.iter
    (fun (tc : Circuits.testcase) ->
      let rows = measure_rows ~table:"table1" tc ~t_stop ~with_vams:true in
      List.iter record rows;
      let base = (List.hd rows).time_s in
      let paper_rows =
        Option.value ~default:[] (List.assoc_opt tc.Circuits.label paper_table1)
      in
      let paper_base =
        match List.assoc_opt "Verilog-AMS" paper_rows with
        | Some (t, _) -> t
        | None -> nan
      in
      List.iter
        (fun r ->
          let speedup =
            if r.target = "Verilog-AMS" then "0x"
            else Printf.sprintf "%.0fx" (base /. r.time_s)
          in
          let paper_t, paper_spd, paper_err =
            match List.assoc_opt r.target paper_rows with
            | Some (t, e) ->
                ( Printf.sprintf "%.2f" t,
                  (if r.target = "Verilog-AMS" then "0x"
                   else Printf.sprintf "%.0fx" (paper_base /. t)),
                  Printf.sprintf "%.2e" e )
            | None -> ("-", "-", "-")
          in
          Printf.printf "%-6s %-12s %-7s %10.3f %9s %11s | %10s %10s %12s\n"
            tc.Circuits.label r.target r.meth r.time_s speedup
            (match r.nrmse with
            | Some e -> Printf.sprintf "%.2e" e
            | None -> "-")
            paper_t paper_spd paper_err)
        rows;
      print_newline ())
    (Circuits.all_paper_cases ())

let table2 ~t_stop () =
  header
    (Printf.sprintf
       "TABLE II -- abstracted models vs SystemC-AMS/ELN, longer run \
        (simulated %g ms; paper: 10 s)"
       (t_stop *. 1e3));
  Printf.printf "%-6s %-12s %-7s %10s %9s | %10s %10s\n" "Comp." "Target"
    "Method" "Time(s)" "Speedup" "Paper(s)" "PaperSpd";
  List.iter
    (fun (tc : Circuits.testcase) ->
      let rows = measure_rows ~table:"table2" tc ~t_stop ~with_vams:false in
      List.iter record rows;
      let base = (List.hd rows).time_s in
      let paper_rows =
        Option.value ~default:[] (List.assoc_opt tc.Circuits.label paper_table2)
      in
      let paper_base =
        Option.value ~default:nan (List.assoc_opt "SC-AMS/ELN" paper_rows)
      in
      List.iter
        (fun r ->
          let speedup =
            if r.target = "SC-AMS/ELN" then "0x"
            else Printf.sprintf "%.2fx" (base /. r.time_s)
          in
          let paper_t, paper_spd =
            match List.assoc_opt r.target paper_rows with
            | Some t ->
                ( Printf.sprintf "%.2f" t,
                  if r.target = "SC-AMS/ELN" then "0x"
                  else Printf.sprintf "%.2fx" (paper_base /. t) )
            | None -> ("-", "-")
          in
          Printf.printf "%-6s %-12s %-7s %10.3f %9s | %10s %10s\n"
            tc.Circuits.label r.target r.meth r.time_s speedup paper_t
            paper_spd)
        rows;
      print_newline ())
    (Circuits.all_paper_cases ());
  let tc = Circuits.rc_ladder 20 in
  let rep, t = wall (fun () -> Flow.abstract_testcase tc ~dt) in
  record
    (row ~table:"table2" ~comp:tc.Circuits.label ~target:"abstraction-tool" t);
  Printf.printf
    "Abstraction tool on RC20 (%d nodes, %d branches): %.4f s wall (paper: \
     7.67 s on the authors' machine)\n"
    rep.Flow.nodes rep.Flow.branches t

let table3 ~t_stop () =
  header
    (Printf.sprintf
       "TABLE III -- analog models integrated in the virtual platform \
        (simulated %g ms; paper: 100 ms; MIPS @ 200 MHz polling the ADC over \
        the APB bus, UART logging)"
       (t_stop *. 1e3));
  Printf.printf "%-6s %-36s %10s %9s | %10s %10s\n" "Comp."
    "Component model / VP binding" "Time(s)" "Speedup" "Paper(s)" "PaperSpd";
  let bindings =
    [
      Platform.Cosim { rtl_grain = true; substeps = 8; iterations = 3; fidelity = `Paper };
      Platform.Cosim { rtl_grain = false; substeps = 8; iterations = 3; fidelity = `Paper };
      Platform.Eln;
      Platform.Tdf;
      Platform.De_model;
      Platform.Cpp;
    ]
  in
  List.iter
    (fun (tc : Circuits.testcase) ->
      let rep = Flow.abstract_testcase tc ~dt in
      let program = Some rep.Flow.program in
      let paper_rows =
        Option.value ~default:[] (List.assoc_opt tc.Circuits.label paper_table3)
      in
      let paper_base = match paper_rows with [] -> nan | t :: _ -> t in
      let times =
        List.map
          (fun binding ->
            let r, t =
              wall (fun () ->
                  Platform.run ~cpu_hz:2e8 ~testcase:tc ~program ~binding ~dt
                    ~t_stop ())
            in
            ignore r.Platform.uart_output;
            record
              (row ~table:"table3" ~comp:tc.Circuits.label
                 ~target:(Platform.binding_label binding) t);
            (binding, t))
          bindings
      in
      let base = snd (List.hd times) in
      List.iteri
        (fun i (binding, t) ->
          let paper_t = List.nth_opt paper_rows i in
          Printf.printf "%-6s %-36s %10.3f %8.2fx | %10s %10s\n"
            tc.Circuits.label
            (Platform.binding_label binding)
            t (base /. t)
            (match paper_t with Some v -> Printf.sprintf "%.2f" v | None -> "-")
            (match paper_t with
            | Some v -> Printf.sprintf "%.2fx" (paper_base /. v)
            | None -> "-"))
        times;
      print_newline ())
    (Circuits.all_paper_cases ())

let tool_time () =
  header
    "TOOL PROCESSING TIME -- abstraction flow cost vs circuit size (paper \
     Section V-B: 7.67 s for RC20 on the authors' machine)";
  Printf.printf "%-6s %6s %8s %8s %6s %11s %11s %12s %10s\n" "Comp." "nodes"
    "branches" "classes" "defs" "acquire(ms)" "enrich(ms)" "assemble(ms)"
    "solve(ms)";
  List.iter
    (fun n ->
      let tc = Circuits.rc_ladder n in
      let rep = Flow.abstract_testcase tc ~dt in
      record
        (row ~table:"tooltime" ~comp:tc.Circuits.label
           ~target:"abstraction-flow" (Flow.total_seconds rep));
      Printf.printf "%-6s %6d %8d %8d %6d %11.3f %11.3f %12.3f %10.3f\n"
        tc.Circuits.label rep.Flow.nodes rep.Flow.branches rep.Flow.classes
        rep.Flow.definitions
        (rep.Flow.acquisition_s *. 1e3)
        (rep.Flow.enrichment_s *. 1e3)
        (rep.Flow.assemble_s *. 1e3)
        (rep.Flow.solve_s *. 1e3))
    [ 1; 2; 4; 8; 16; 20; 32; 48; 64 ]

let ablation ~t_stop () =
  header
    "ABLATION 1 -- solve mode: exact elimination vs relaxed state \
     decoupling (RCn sweep)";
  Printf.printf "%-6s %6s | %11s %12s | %11s %12s | %13s\n" "Comp." "defs"
    "exact(ms)" "run(ns/step)" "relax(ms)" "run(ns/step)" "NRMSE(rel-ex)";
  List.iter
    (fun n ->
      let tc = Circuits.rc_ladder n in
      let acq = Acquisition.of_circuit tc.Circuits.circuit in
      let map, _ = Enrich.enrich acq in
      let asm =
        Assemble.assemble map ~inputs:[ "in" ] ~outputs:[ tc.Circuits.output ]
      in
      let solve mode = wall (fun () -> Solve.solve ~mode ~name:"a" ~dt asm) in
      let p_exact, t_exact = solve `Exact in
      let p_relax, t_relax = solve `Relaxed in
      let run p =
        let r, t =
          wall (fun () -> Wrap.run_cpp p ~stimuli:tc.Circuits.stimuli ~t_stop)
        in
        (r.Wrap.trace, t /. (t_stop /. dt) *. 1e9)
      in
      let tr_e, ns_e = run p_exact in
      let tr_r, ns_r = run p_relax in
      let err = nrmse_against ~reference:tr_e tr_r ~t_stop in
      Printf.printf "%-6s %6d | %11.2f %12.1f | %11.2f %12.1f | %13.2e\n"
        tc.Circuits.label
        (List.length asm.Assemble.defs)
        (t_exact *. 1e3) ns_e (t_relax *. 1e3) ns_r err)
    [ 1; 4; 8; 16; 24; 32 ];
  header
    "ABLATION 2 -- SPICE-engine cost model: device re-evaluation and \
     re-factorisation per solver pass (RC20)";
  Printf.printf "%-10s %-10s %12s %10s\n" "substeps" "iterations" "time(s)"
    "vs (1,1)";
  let tc = Circuits.rc_ladder 20 in
  let short = t_stop /. 4.0 in
  let base = ref nan in
  List.iter
    (fun (substeps, iterations) ->
      let _, t =
        wall (fun () ->
            Engine.run_testcase_spice ~substeps ~iterations tc ~dt
              ~t_stop:short)
      in
      if Float.is_nan !base then base := t;
      Printf.printf "%-10d %-10d %12.3f %9.1fx\n" substeps iterations t
        (t /. !base))
    [ (1, 1); (2, 1); (4, 1); (8, 1); (8, 3); (16, 3) ];
  header
    "ABLATION 3 -- kernel machinery per model step (same abstracted RC1 \
     model under each MoC)";
  Printf.printf "%-10s %12s %14s %14s %14s\n" "MoC" "ns/step" "activations"
    "delta cycles" "sig updates";
  let tc = Circuits.rc_ladder 1 in
  let p = (Flow.abstract_testcase tc ~dt).Flow.program in
  let steps = t_stop /. dt in
  let report name (r : Wrap.result) t =
    let st = r.Wrap.de_stats in
    Printf.printf "%-10s %12.1f %14s %14s %14s\n" name
      (t /. steps *. 1e9)
      (match st with Some s -> string_of_int s.De.activations | None -> "-")
      (match st with Some s -> string_of_int s.De.delta_cycles | None -> "-")
      (match st with Some s -> string_of_int s.De.signal_updates | None -> "-")
  in
  let r, t = wall (fun () -> Wrap.run_cpp p ~stimuli:tc.Circuits.stimuli ~t_stop) in
  report "C++" r t;
  let r, t = wall (fun () -> Wrap.run_de p ~stimuli:tc.Circuits.stimuli ~t_stop) in
  report "SC-DE" r t;
  let r, t = wall (fun () -> Wrap.run_tdf p ~stimuli:tc.Circuits.stimuli ~t_stop) in
  report "SC-AMS/TDF" r t;
  let r, t =
    wall (fun () ->
        Wrap.run_eln tc.Circuits.circuit ~inputs:tc.Circuits.stimuli
          ~output:tc.Circuits.output ~dt ~t_stop)
  in
  report "SC-AMS/ELN" r t

let ablation_integration ~t_stop () =
  header
    "ABLATION 4 -- integration rule of the generated model (coarse step, \
     smooth stimulus, error vs fine conservative reference)";
  Printf.printf "%-6s %10s | %14s %14s | %8s\n" "Comp." "dt" "BE NRMSE"
    "Trap NRMSE" "gain";
  let sine = Amsvp_util.Stimulus.sine ~freq:1e3 ~amplitude:1.0 in
  List.iter
    (fun (label, coarse) ->
      let tc = Option.get (Circuits.by_name label) in
      let reference =
        Engine.spice_like ~substeps:64 ~iterations:1 tc.Circuits.circuit
          ~inputs:(List.map (fun (n, _) -> (n, sine)) tc.Circuits.stimuli)
          ~output:tc.Circuits.output ~dt:coarse ~t_stop
      in
      let err integration =
        let rep =
          Flow.abstract_testcase ~mode:`Exact ~integration tc ~dt:coarse
        in
        let runner = Sfprogram.Runner.create rep.Flow.program in
        let stimuli =
          Array.make (List.length tc.Circuits.stimuli) sine
        in
        let tr = Sfprogram.Runner.run runner ~stimuli ~t_stop () in
        nrmse_against ~reference:reference.Engine.trace tr ~t_stop
      in
      let be = err `Backward_euler and trap = err `Trapezoidal in
      Printf.printf "%-6s %10.2e | %14.3e %14.3e | %7.1fx\n" label coarse be
        trap (be /. trap))
    [ ("RC1", 5e-6); ("RC1", 1e-6); ("OA", 1e-6); ("RC4", 2e-6) ]

let ablation_sparse () =
  header
    "ABLATION 5 -- dense vs sparse LU on the network matrix (the \
     sparse-solver bottleneck of Section III-B): factor once, then per-step \
     substitution cost";
  Printf.printf "%-7s %6s | %11s %11s | %12s %12s | %8s\n" "Comp." "n"
    "dense f(us)" "sparse f(us)" "dense s(ns)" "sparse s(ns)" "nnz";
  List.iter
    (fun n ->
      let tc = Circuits.rc_ladder n in
      let sys = Amsvp_mna.System.build tc.Circuits.circuit in
      let size = Amsvp_mna.System.size sys in
      let m = Amsvp_mna.System.stamp_matrix sys ~h:dt in
      let trips = Amsvp_mna.System.stamp_triplets sys ~h:dt in
      let reps = 50 in
      let dense_lu = ref None in
      let _, tdf =
        wall (fun () ->
            for _ = 1 to reps do
              dense_lu := Some (Amsvp_mna.Matrix.lu_factor m)
            done)
      in
      let sparse_lu = ref None in
      let _, tsf =
        wall (fun () ->
            for _ = 1 to reps do
              sparse_lu := Some (Amsvp_mna.Sparse.lu_factor ~n:size trips)
            done)
      in
      let dense_lu = Option.get !dense_lu and sparse_lu = Option.get !sparse_lu in
      let b = Array.init size (fun i -> float_of_int (i mod 5)) in
      let x = Array.make size 0.0 in
      let solve_reps = 2000 in
      let _, tds =
        wall (fun () ->
            for _ = 1 to solve_reps do
              Amsvp_mna.Matrix.lu_solve_into dense_lu ~b ~x
            done)
      in
      let _, tss =
        wall (fun () ->
            for _ = 1 to solve_reps do
              Amsvp_mna.Sparse.lu_solve_into sparse_lu ~b ~x
            done)
      in
      Printf.printf "%-7s %6d | %11.1f %11.1f | %12.1f %12.1f | %8d\n"
        tc.Circuits.label size
        (tdf /. float_of_int reps *. 1e6)
        (tsf /. float_of_int reps *. 1e6)
        (tds /. float_of_int solve_reps *. 1e9)
        (tss /. float_of_int solve_reps *. 1e9)
        (Amsvp_mna.Sparse.nnz sparse_lu))
    [ 5; 10; 20; 40; 80; 160 ]

let figures () =
  header "FIGURE 2 -- Verilog-AMS description with the three block kinds";
  let design = Amsvp_vams.Parser.parse Sources.active_filter in
  let flat = Elaborate.flatten design ~top:"active_filter" in
  Printf.printf
    "parsed %d modules; active_filter flattens to %d branch contributions \
     over %d nets; classification: %s\n"
    (List.length design)
    (List.length flat.Elaborate.contributions)
    (List.length flat.Elaborate.nets)
    (match Elaborate.classify flat with
    | `Conservative -> "conservative (Equation 2)"
    | `Signal_flow -> "signal flow (Equation 1)");
  let tc = Circuits.rc_ladder 1 in
  let acq = Acquisition.of_circuit tc.Circuits.circuit in
  let map, _ = Enrich.enrich acq in
  header "FIGURE 5 -- enriched equation multimap with dependency classes (RC1)";
  Format.printf "%a@." Eqmap.pp map;
  let asm =
    Assemble.assemble map ~inputs:[ "in" ] ~outputs:[ tc.Circuits.output ]
  in
  header
    "FIGURE 6 -- assembled equation tree for V(out,gnd) (note the \
     occurrences of the output on the right-hand side)";
  let tree = Assemble.inline_tree asm tc.Circuits.output in
  Format.printf "V(out,gnd) =@.%a@." Expr.pp_tree tree;
  header "FIGURE 7 -- solved update rules and generated C++";
  List.iter
    (fun (v, e) ->
      Format.printf "%s := %s@." (Expr.var_name v) (Expr.to_string e))
    (Solve.solved_assignments ~dt asm);
  print_newline ();
  let p = Solve.solve ~name:"RC1" ~dt asm in
  print_string (Codegen.emit Codegen.Cpp p)

module Spec = Amsvp_sweep.Spec
module Sweep_runner = Amsvp_sweep.Runner
module Pool = Amsvp_sweep.Pool
module Sweep_stats = Amsvp_sweep.Stats

let sweep_bench ~t_stop ~seed ~jobs () =
  let max_jobs =
    match jobs with
    | Some j -> j
    | None -> min 4 (Domain.recommended_domain_count ())
  in
  header
    (Printf.sprintf
       "SWEEP -- 64-point Monte Carlo tolerance sweep of the rectifier \
        (seed %d): worker-process scaling, 1 vs %d workers, plan-replay \
        abstraction cache"
       seed max_jobs);
  let spec =
    {
      Spec.default with
      Spec.name = "rect_mc";
      circuit = Some "RECT";
      t_stop = Some t_stop;
      samples = 64;
      seed;
      axes =
        [
          { Spec.param = "d1.g_on";
            range = Spec.Uniform { lo = 5e-3; hi = 2e-2 } };
          { Spec.param = "r1.r"; range = Spec.Normal { mean = 1e3; sigma = 50.0 } };
        ];
    }
  in
  let tc = Option.get (Circuits.by_name "RECT") in
  let run jobs = Sweep_runner.run ~jobs spec tc in
  Printf.printf "%-8s %10s %12s %14s %12s\n" "jobs" "time(s)" "points/s"
    "cache hit/miss" "NRMSE mean";
  let report (s : Sweep_runner.summary) =
    record
      (row ~table:"sweep" ~comp:"RECT"
         ~target:(Printf.sprintf "jobs%d" s.Sweep_runner.jobs)
         ?nrmse:
           (Option.map
              (fun (st : Sweep_stats.t) -> st.Sweep_stats.mean)
              s.Sweep_runner.nrmse_stats)
         ~points:(Array.length s.Sweep_runner.points)
         s.Sweep_runner.total_s);
    Printf.printf "%-8d %10.3f %12.1f %8d/%-5d %12s\n" s.Sweep_runner.jobs
      s.Sweep_runner.total_s
      (float_of_int (Array.length s.Sweep_runner.points)
      /. s.Sweep_runner.total_s)
      s.Sweep_runner.cache_hits s.Sweep_runner.cache_misses
      (match s.Sweep_runner.nrmse_stats with
      | Some st -> Printf.sprintf "%.3e" st.Sweep_stats.mean
      | None -> "-")
  in
  let s1 = run 1 in
  report s1;
  let sn = if max_jobs > 1 then run max_jobs else s1 in
  if max_jobs > 1 then report sn;
  (* Value results must not depend on the worker count. *)
  let values (s : Sweep_runner.summary) =
    Array.map
      (fun (r : Sweep_runner.point_result) ->
        (r.Sweep_runner.point.Amsvp_sweep.Sampler.overrides,
         r.Sweep_runner.out_final, r.Sweep_runner.out_rms,
         r.Sweep_runner.nrmse))
      s.Sweep_runner.points
  in
  Printf.printf "determinism (jobs=1 vs jobs=%d): %s\n" sn.Sweep_runner.jobs
    (if values s1 = values sn then "byte-identical point results"
     else "MISMATCH")

(* ---- Service mode: cold vs warm prepared-sweep request latency ---- *)

let serve_bench ~t_stop ~seed () =
  header
    (Printf.sprintf
       "SERVE -- request latency of the sweep service (simulated %g ms per \
        point): a cold submit pays prepare (probe + gate + plan + compile + \
        expand) before the first point; a warm resubmit replays the cached \
        prepared sweep"
       (t_stop *. 1e3));
  (* RC20: the one circuit whose preparation (the full abstraction
     flow) is expensive enough to matter per request. Reference off —
     the serve rows measure request overhead, not MNA cost. *)
  let spec =
    {
      Spec.default with
      Spec.name = "serve_mc";
      circuit = Some "RC20";
      t_stop = Some t_stop;
      samples = 8;
      seed;
      reference = false;
      axes =
        [
          { Spec.param = "r1.r";
            range = Spec.Uniform { lo = 900.0; hi = 1100.0 } };
        ];
    }
  in
  let tc = Option.get (Circuits.by_name "RC20") in
  let run_all ctx () =
    Array.iter
      (fun p -> ignore (Sweep_runner.run_point ctx p))
      (Sweep_runner.ctx_points ctx)
  in
  let ctx, prepare_s = wall (fun () -> Sweep_runner.prepare spec tc) in
  let points = Array.length (Sweep_runner.ctx_points ctx) in
  run_all ctx () (* warm-up *);
  (* Warm request: the same points against the kept context. Cold
     request: prepare + execute, as the daemon's first submit of a spec
     does. *)
  let p =
    paired ~rounds:2 (run_all ctx) (fun () ->
        run_all (Sweep_runner.prepare spec tc) ())
  in
  let row = row ~table:"serve" ~comp:"RC20" in
  record (row ~target:"request" ~meth:"cold" ~points p.b_s);
  record
    (row ~target:"request" ~meth:"warm" ~points ~ratio:p.b_over_a p.a_s);
  record (row ~target:"prepare" prepare_s);
  let per t = t /. float_of_int (max 1 points) *. 1e3 in
  Printf.printf
    "%-8s %3d points   prepare: %.4f s\n\
     cold submit: %.4f s (%.3f ms/point)   warm resubmit: %.4f s (%.3f \
     ms/point)   warm speedup: %.2fx\n"
    "RC20" points prepare_s p.b_s (per p.b_s) p.a_s (per p.a_s) p.b_over_a

(* Per-point cost of the cross-process telemetry pipeline: the same
   forked-pool sweep with the journal off (workers ship nothing) vs on
   (every worker drains its events/spans over the result pipe and the
   parent ingests them). Fork/dispatch cost is identical in both runs,
   so the delta isolates the telemetry. *)
let obs_serve_bench ~t_stop ~seed () =
  header
    "OBS_SERVE -- telemetry shipping overhead (forked pool, journal off vs \
     on; budget 5%)";
  let spec =
    {
      Spec.default with
      Spec.name = "obs_serve_mc";
      circuit = Some "RC20";
      t_stop = Some t_stop;
      samples = 48;
      seed;
      reference = false;
      axes =
        [
          { Spec.param = "r1.r";
            range = Spec.Uniform { lo = 900.0; hi = 1100.0 } };
        ];
    }
  in
  let tc = Option.get (Circuits.by_name "RC20") in
  let ctx = Sweep_runner.prepare spec tc in
  let points = Sweep_runner.ctx_points ctx in
  let n_points = Array.length points in
  (* A fresh pool per sample: workers take the journal switch they are
     forked under, so each sample forks its own. *)
  let run_pool () =
    let pool =
      Pool.create ~workers:2 ~points (fun ~retry:_ p ->
          Sweep_runner.run_point ctx p)
    in
    Fun.protect
      ~finally:(fun () -> Pool.close pool)
      (fun () -> ignore (Pool.run pool points))
  in
  let journal_was = Journal.enabled () in
  Journal.disable ();
  run_pool () (* warm-up: page in the pool machinery once *);
  (* A pool run is ~0.2 s and fork cost grows with the parent heap, so
     the order-alternating pairs of [paired] matter most here. *)
  let sample enabled () =
    Journal.set_enabled enabled;
    run_pool ()
  in
  let p = paired ~rounds:7 (sample false) (sample true) in
  Journal.set_enabled journal_was;
  let overhead_pct = (p.b_over_a -. 1.0) *. 100.0 in
  let row =
    row ~table:"obs_serve" ~comp:"RC20" ~target:"pool" ~points:n_points
  in
  record (row ~meth:"telemetry_off" p.a_s);
  record (row ~meth:"telemetry_on" ~ratio:p.b_over_a p.b_s);
  let per t = t /. float_of_int (max 1 n_points) *. 1e3 in
  Printf.printf
    "%-8s %3d points   telemetry off: %.4f s (%.3f ms/point)   on: %.4f s \
     (%.3f ms/point)   overhead: %+.2f%% %s\n"
    "RC20" n_points p.a_s (per p.a_s) p.b_s (per p.b_s) overhead_pct
    (if overhead_pct <= 5.0 then "(within budget)" else "(OVER 5% BUDGET)")

module Absint = Amsvp_analysis.Absint
module Lint = Amsvp_analysis.Lint

(* The "absint" section: what the value-range engine costs and what it
   buys. Costs: the MAY fixpoint per circuit (the pass every lint run
   and daemon screen pays) and a full source-to-findings lint of the
   shipped Verilog-AMS example. Buys: a poisoned RC1 grid -- the
   high-resistance decades provably breach a 0.5 amplitude budget on a
   unit sine -- run in full vs with static pruning, same spec. *)
let absint_bench ~t_stop () =
  header "ABSINT -- value-range analysis wall and static-prune economics";
  (* One-sided best-of-3: [paired] against a no-op. *)
  let best f = (paired ~rounds:3 f ignore).a_s in
  let row = row ~table:"absint" in
  List.iter
    (fun label ->
      let tc = Option.get (Circuits.by_name label) in
      let p = (Flow.abstract_testcase tc ~dt).Flow.program in
      let analyze_s = best (fun () -> ignore (Absint.analyze p)) in
      let a = Absint.analyze p in
      record (row ~comp:label ~target:"analyze" analyze_s);
      Printf.printf
        "%-8s analyze: %8.4f ms   abstract steps: %2d%s   constant facts: %d\n"
        label (analyze_s *. 1e3) a.Absint.a_steps
        (if a.Absint.a_widened then " (widened)" else "")
        (List.length (Absint.constant_facts a)))
    [ "2IN"; "RC1"; "RC20"; "OA" ];
  (* Full front-end wall (parse + elaborate + every pass) on the
     shipped example, when run from the repo root where it lives. *)
  let example = "examples/rc_lowpass.vams" in
  if Sys.file_exists example then begin
    let src = In_channel.with_open_text example In_channel.input_all in
    let lint_s = best (fun () -> ignore (Lint.lint ~file:example src)) in
    record (row ~comp:"rc_lowpass" ~target:"lint" lint_s);
    Printf.printf "%-8s full lint: %8.4f ms\n" "rc_low" (lint_s *. 1e3)
  end
  else Printf.printf "(%s not found -- lint row skipped)\n" example;
  (* RC1 is a 5 kOhm / 25 nF lowpass (f_c ~ 1.27 kHz). On a 2 kHz unit
     sine, grid points below ~5.5 kOhm provably exceed a 0.5 amplitude
     budget -- half this grid. Reference on: a pruned point skips the
     MNA reference too, which is where a sweep's wall clock actually
     goes. *)
  let spec =
    {
      Spec.default with
      Spec.name = "rc_poison";
      circuit = Some "RC1";
      stimulus = Some (Spec.Sine { freq = 2e3; amplitude = 1.0 });
      t_stop = Some t_stop;
      reference = true;
      amplitude_limit = Some 0.5;
      axes =
        [
          { Spec.param = "r1.r";
            range = Spec.Grid { lo = 1e3; hi = 1e4; n = 10 } };
        ];
    }
  in
  let tc = Option.get (Circuits.by_name "RC1") in
  let p =
    paired ~rounds:1
      (fun () -> Sweep_runner.run ~jobs:1 ~prune:true spec tc)
      (fun () -> Sweep_runner.run ~jobs:1 spec tc)
  in
  let points = Array.length p.b.Sweep_runner.points in
  let pruned = p.a.Sweep_runner.pruned in
  let row = row ~comp:"RC1" ~target:"poisoned-sweep" ~points in
  record (row ~meth:"plain" p.b_s);
  record (row ~meth:"pruned" ~pruned ~ratio:p.b_over_a p.a_s);
  Printf.printf
    "%-8s %2d points   plain: %.4f s   with --prune-static: %.4f s   (%d/%d \
     points proven unhealthy, %.2fx)\n"
    "RC1" points p.b_s p.a_s pruned points p.b_over_a

let micro () =
  header "MICRO -- Bechamel per-step benchmarks (one group per table)";
  let tc = Circuits.rc_ladder 1 in
  let p = (Flow.abstract_testcase tc ~dt).Flow.program in
  let runner = Sfprogram.Runner.create p in
  let inputs = [| 1.0 |] in
  let eln_stepper =
    Engine.Eln_stepper.create tc.Circuits.circuit ~inputs:[ "in" ]
      ~output:tc.Circuits.output ~dt
  in
  let spice_stepper =
    Engine.Spice_stepper.create tc.Circuits.circuit ~inputs:[ "in" ]
      ~output:tc.Circuits.output ~dt
  in
  let open Bechamel in
  let tests =
    Test.make_grouped ~name:"paper"
      [
        Test.make ~name:"table1/cpp_model_step"
          (Staged.stage (fun () -> Sfprogram.Runner.step runner ~inputs));
        Test.make ~name:"table1/eln_solver_step"
          (Staged.stage (fun () ->
               ignore (Engine.Eln_stepper.step eln_stepper ~input_values:inputs)));
        Test.make ~name:"table1/vams_solver_step"
          (Staged.stage (fun () ->
               ignore
                 (Engine.Spice_stepper.step spice_stepper ~input_values:inputs)));
        Test.make ~name:"table2/abstraction_flow_rc4"
          (Staged.stage (fun () ->
               ignore (Flow.abstract_testcase (Circuits.rc_ladder 4) ~dt)));
        Test.make ~name:"table3/platform_slice_cpp"
          (Staged.stage (fun () ->
               ignore
                 (Platform.run ~cpu_hz:2e8 ~testcase:tc ~program:(Some p)
                    ~binding:Platform.Cpp ~dt ~t_stop:(dt *. 200.0) ())));
      ]
  in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~limit:300 ~quota:(Time.second 0.3) () in
  let raw = Benchmark.all cfg [ instance ] tests in
  let ols =
    Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols instance raw in
  let rows =
    Hashtbl.fold
      (fun name r acc ->
        match Analyze.OLS.estimates r with
        | Some (e :: _) -> (name, e) :: acc
        | Some [] | None -> acc)
      results []
  in
  List.iter
    (fun (name, e) -> Printf.printf "%-40s %14.1f ns/iter\n" name e)
    (List.sort compare rows)

let probe_overhead ~t_stop () =
  header
    (Printf.sprintf
       "PROBE OVERHEAD -- abstracted RC1 hot loop (Table II row, simulated \
        %g ms): observe hook absent vs a tap + health monitor attached"
       (t_stop *. 1e3));
  let tc = Circuits.rc_ladder 1 in
  let p = (Flow.abstract_testcase tc ~dt).Flow.program in
  let run ?observe () =
    ignore (Wrap.run_cpp ?observe p ~stimuli:tc.Circuits.stimuli ~t_stop)
  in
  run ();
  let p =
    paired ~rounds:5 run (fun () ->
        let probes = Probe.create ~capacity:4096 () in
        ignore (Probe.tap probes tc.Circuits.output);
        ignore (Probe.watch probes tc.Circuits.output);
        run ~observe:(Probe.observer probes) ())
  in
  let row = row ~table:"probes" ~comp:tc.Circuits.label in
  record (row ~target:"probes-off" p.a_s);
  record (row ~target:"probes-on" ~ratio:p.b_over_a p.b_s);
  Printf.printf
    "%-6s probes off: %.4f s   probes on (1 tap + 1 monitor): %.4f s   \
     attached cost: %+.2f%%\n"
    tc.Circuits.label p.a_s p.b_s
    ((p.b_over_a -. 1.0) *. 100.0)

(* ---- Convergence telemetry: journal overhead + Newton stats ---- *)

let convergence ~t_stop () =
  header
    (Printf.sprintf
       "CONVERGENCE -- solver telemetry on the RC20 SPICE-like run \
        (simulated %g ms): journal off vs on, Newton residual/waste stats \
        from the journaled run (budget: <= 5%% overhead)"
       (t_stop *. 1e3));
  let tc = Circuits.rc_ladder 20 in
  let was_enabled = Journal.enabled () in
  let run journal () =
    Journal.set_enabled journal;
    Engine.run_testcase_spice tc ~dt ~t_stop
  in
  ignore (run was_enabled ());
  (* Overhead = the median per-round ratio: an off-vs-off control showed
     that the drift a fixed off-then-on order folds into the second side
     can alone exceed the budget. *)
  let p = paired ~rounds:11 (run false) (run true) in
  Journal.set_enabled was_enabled;
  let overhead = (p.b_over_a -. 1.0) *. 100.0 in
  let nw = p.b.Engine.newton in
  let newton f = Option.map f nw in
  let row = row ~table:"convergence" ~comp:tc.Circuits.label in
  record (row ~target:"journal-off" p.a_s);
  record
    (row ~target:"journal-on" ~ratio:p.b_over_a
       ~steps:p.b.Engine.stats.Engine.steps
       ?newton_iters:(newton (fun n -> n.Engine.total_iters))
       ?wasted_iters:(newton (fun n -> n.Engine.wasted_iters))
       p.b_s);
  Printf.printf
    "%-6s journal off: %.4f s   journal on: %.4f s   overhead: %+.2f%% \
     (budget 5%%: %s)\n"
    tc.Circuits.label p.a_s p.b_s overhead
    (if overhead <= 5.0 then "PASS" else "OVER");
  match nw with
  | Some nw ->
      Printf.printf
        "%-6s steps: %d   newton passes: %d   wasted: %d (%.1f%%)   max \
         residual: %.2e   pivot ratio: %.2e   stressed substeps: %d\n"
        tc.Circuits.label p.b.Engine.stats.Engine.steps nw.Engine.total_iters
        nw.Engine.wasted_iters
        (100.0
        *. float_of_int nw.Engine.wasted_iters
        /. float_of_int (max 1 nw.Engine.total_iters))
        nw.Engine.max_residual
        (if nw.Engine.pivot_min > 0.0 then
           nw.Engine.pivot_max /. nw.Engine.pivot_min
         else infinity)
        nw.Engine.stressed_substeps
  | None ->
      print_endline "convergence: no Newton telemetry captured (unexpected)"

(* ---- Fast-fidelity conservative engine vs the paper cost model ---- *)

let mna_fast ~t_stop () =
  header
    (Printf.sprintf
       "MNA_FAST -- fast-fidelity SPICE-like engine (simulated %g ms at the \
        paper's dt): sparse symbolic reuse + factor caching + Newton \
        early-exit + adaptive substepping vs the paper cost model (gate: >= \
        5x per row, NRMSE <= 5e-3)"
       (t_stop *. 1e3));
  let cases =
    [ Circuits.rc_ladder 20; Circuits.opamp (); Circuits.rectifier () ]
  in
  List.iter
    (fun (tc : Circuits.testcase) ->
      let run fidelity () =
        Engine.run_testcase_spice ~fidelity tc ~dt ~t_stop
      in
      (* The accuracy evidence reuses the traces of the timed runs. *)
      let p = paired ~rounds:3 (run `Fast) (run `Paper) in
      let fast = p.a and paper = p.b and speedup = p.b_over_a in
      let nrmse =
        nrmse_against ~reference:paper.Engine.trace fast.Engine.trace ~t_stop
      in
      let row = row ~table:"mna_fast" ~comp:tc.Circuits.label in
      record
        (row ~target:"paper" ~factorizations:paper.Engine.stats.factorizations
           p.b_s);
      record
        (row ~target:"fast" ~nrmse ~ratio:speedup
           ~factorizations:fast.Engine.stats.factorizations p.a_s);
      Printf.printf
        "%-6s paper: %.4f s (%d factorizations)   fast: %.4f s (%d)   \
         speedup: %.1fx   nrmse: %.2e   gate: %s\n"
        tc.Circuits.label p.b_s paper.Engine.stats.factorizations p.a_s
        fast.Engine.stats.factorizations speedup nrmse
        (if speedup >= 5.0 && nrmse <= 5e-3 then "PASS" else "FAIL"))
    cases

(* ---- Execution engines: tree interpreter vs register bytecode ---- *)

let engines ~t_stop () =
  header
    (Printf.sprintf
       "ENGINES -- per-step cost of the abstracted models (simulated %g ms): \
        tree interpreter vs register bytecode, identical outputs required"
       (t_stop *. 1e3));
  Printf.printf "%-6s %7s %7s %6s %12s %14s %14s %9s %8s\n" "" "assign"
    "instrs" "regs" "compile(us)" "tree(ns/step)" "byte(ns/step)" "speedup"
    "max-ulp";
  List.iter
    (fun label ->
      let tc = Option.get (Circuits.by_name label) in
      let p = (Flow.abstract_testcase tc ~dt).Flow.program in
      let compiled, compile_s = wall (fun () -> Sfprogram.compile p) in
      (* Identical outputs first: the speed comparison is meaningless
         if the engines disagree anywhere along the trace. *)
      let stimuli = Wrap.stimuli_for p tc.Circuits.stimuli in
      let run runner = Sfprogram.Runner.run runner ~stimuli ~t_stop () in
      let tr_tree = run (Sfprogram.Runner.create ~engine:`Tree p) in
      let tr_byte = run (Sfprogram.Runner.create ~compiled p) in
      let max_ulp = ref 0L in
      for i = 0 to Trace.length tr_tree - 1 do
        let d =
          Metrics.ulp_distance (Trace.value tr_tree i) (Trace.value tr_byte i)
        in
        if Int64.compare d !max_ulp > 0 then max_ulp := d
      done;
      if Int64.compare !max_ulp 1L > 0 then
        failwith
          (Printf.sprintf "engines disagree on %s: max ulp distance %Ld" label
             !max_ulp);
      (* Per-step cost: the bare hot loop, stimulus sampling excluded,
         input values toggled so piecewise-linear models exercise both
         branches. Five rounds of the whole loop under each engine. *)
      let steps = max 1000 (int_of_float (t_stop /. dt)) in
      let inputs = Array.make (max 1 (List.length p.Sfprogram.inputs)) 0.0 in
      let pass runner () =
        Sfprogram.Runner.reset runner;
        for i = 1 to steps do
          Array.fill inputs 0 (Array.length inputs)
            (if i land 31 < 16 then 0.0 else 1.0);
          Sfprogram.Runner.step runner ~inputs
        done
      in
      let t =
        paired ~rounds:5
          (pass (Sfprogram.Runner.create ~compiled p))
          (pass (Sfprogram.Runner.create ~engine:`Tree p))
      in
      let per_step s = s /. float_of_int steps in
      let tree_s = per_step t.b_s and byte_s = per_step t.a_s in
      let max_ulp = Int64.to_int !max_ulp in
      let row = row ~table:"engines" ~comp:label in
      record (row ~target:"step" ~meth:"tree" tree_s);
      record
        (row ~target:"step" ~meth:"bytecode" ~ratio:t.b_over_a ~max_ulp byte_s);
      record (row ~target:"compile" compile_s);
      Printf.printf "%-6s %7d %7d %6d %12.2f %14.1f %14.1f %8.2fx %8d\n"
        label
        (List.length p.Sfprogram.assignments)
        (Amsvp_sf.Compile.n_instrs compiled)
        (Amsvp_sf.Compile.n_regs compiled)
        (compile_s *. 1e6) (tree_s *. 1e9) (byte_s *. 1e9) t.b_over_a max_ulp)
    [ "2IN"; "RC1"; "RC20"; "OA"; "RECT" ]

type cli = {
  quick : bool;
  obs : bool;
  trace_out : string option;
  metrics_out : string option;
  journal_out : string option;
  results_out : string option;
  seed : int;
  jobs : int option;
  sections : string list;
}

let all_sections =
  [ "table1"; "table2"; "table3"; "tooltime"; "ablation"; "obs_serve"; "sweep";
    "probes"; "convergence"; "mna_fast"; "engines"; "serve"; "absint";
    "figures"; "micro" ]

let parse_cli argv =
  let usage () =
    prerr_endline
      "usage: bench [--quick] [--obs] [--trace-out FILE] [--metrics-out \
       FILE]\n\
      \             [--journal-out FILE] [--results-out FILE | --no-results]\n\
      \             [--seed N] [--jobs N] [SECTION...]\n\
       sections: table1 table2 table3 tooltime ablation obs_serve sweep \
       probes convergence mna_fast engines serve absint figures micro";
    exit 2
  in
  let int_arg name v rest k =
    match int_of_string_opt v with
    | Some n -> k n rest
    | None ->
        Printf.eprintf "bench: %s requires an integer argument\n" name;
        usage ()
  in
  let rec go acc = function
    | [] -> acc
    | "--quick" :: rest -> go { acc with quick = true } rest
    | "--obs" :: rest -> go { acc with obs = true } rest
    | "--trace-out" :: f :: rest -> go { acc with trace_out = Some f } rest
    | "--metrics-out" :: f :: rest -> go { acc with metrics_out = Some f } rest
    | "--journal-out" :: f :: rest -> go { acc with journal_out = Some f } rest
    | "--results-out" :: f :: rest -> go { acc with results_out = Some f } rest
    | "--seed" :: v :: rest ->
        int_arg "--seed" v rest (fun n rest -> go { acc with seed = n } rest)
    | "--jobs" :: v :: rest ->
        int_arg "--jobs" v rest (fun n rest ->
            go { acc with jobs = Some n } rest)
    | [ (("--trace-out" | "--metrics-out" | "--journal-out" | "--results-out"
         | "--seed" | "--jobs") as a) ] ->
        Printf.eprintf "bench: %s requires an argument\n" a;
        usage ()
    | "--no-results" :: rest -> go { acc with results_out = None } rest
    | ("--help" | "-h") :: _ -> usage ()
    | a :: _ when String.length a > 1 && a.[0] = '-' ->
        Printf.eprintf "bench: unknown option %s\n" a;
        usage ()
    | a :: rest when List.mem a all_sections ->
        go { acc with sections = acc.sections @ [ a ] } rest
    | a :: _ ->
        Printf.eprintf "bench: unknown section %s\n" a;
        usage ()
  in
  go
    {
      quick = false;
      obs = false;
      trace_out = None;
      metrics_out = None;
      journal_out = None;
      results_out = Some "BENCH_results.json";
      seed = 0;
      jobs = None;
      sections = [];
    }
    (Array.to_list argv |> List.tl)

let () =
  let cli = parse_cli Sys.argv in
  let quick = cli.quick in
  (* Always on: the "sections" block of BENCH_results.json is built
     from recorded spans. Library spans are per run, not per step, so
     the recorder does not perturb the hot loops being measured. *)
  Obs.enable ();
  (* The journal is opt-in: per-run solver events would be noise for a
     plain bench run, but with --journal-out they become the raw input
     of `amsvp report`. Enabled before any section so every run lands
     in the ring (bounded: oldest events drop past the capacity). *)
  if cli.journal_out <> None then Journal.enable ();
  let want s = cli.sections = [] || List.mem s cli.sections in
  let section name f =
    if want name then begin
      let before = Obs.span_count () in
      Obs.with_span ~cat:"bench" ("bench." ^ name) f;
      section_spans := (name, before, Obs.span_count ()) :: !section_spans
    end
  in
  let scale x = if quick then x /. 10.0 else x in
  let t1 = scale 10e-3 and t2 = scale 50e-3 and t3 = scale 1e-3 in
  let wall_start = Unix.gettimeofday () in
  Printf.printf "amsvp benchmark harness -- Fraccaroli et al., DATE 2016\n";
  section "table1" (fun () -> table1 ~t_stop:t1 ());
  section "table2" (fun () -> table2 ~t_stop:t2 ());
  section "table3" (fun () -> table3 ~t_stop:t3 ());
  section "tooltime" (fun () -> tool_time ());
  section "ablation" (fun () ->
      ablation ~t_stop:(scale 5e-3) ();
      ablation_integration ~t_stop:2e-3 ();
      ablation_sparse ());
  (* Fixed simulated time: the telemetry cost per task is fixed (a few
     frames), so the budget is judged against a realistically sized
     point (the sweep section's t_stop), not against fork overhead on a
     toy point. *)
  section "obs_serve" (fun () ->
      obs_serve_bench ~t_stop:2e-3 ~seed:cli.seed ());
  section "sweep" (fun () ->
      sweep_bench ~t_stop:(scale 2e-3) ~seed:cli.seed ~jobs:cli.jobs ());
  section "probes" (fun () -> probe_overhead ~t_stop:(scale 50e-3) ());
  section "convergence" (fun () -> convergence ~t_stop:(scale 1e-3) ());
  (* Fixed simulated time: the NRMSE evidence normalises by the
     reference trace's value range, and the RC20 output needs the full
     window to move — scaling t_stop down shrinks the range, not the
     error, and turns the accuracy gate into noise. *)
  section "mna_fast" (fun () -> mna_fast ~t_stop:1e-3 ());
  section "engines" (fun () -> engines ~t_stop:t1 ());
  (* Fixed simulated time: the serve rows measure per-request
     overhead (prepare vs replay), which scaling t_stop would only
     dilute. *)
  section "serve" (fun () -> serve_bench ~t_stop:1e-4 ~seed:cli.seed ());
  (* Fixed simulated time: the prune economics depend on where the
     breach lands in the horizon, so scaling t_stop would change the
     story, not just its magnitude. *)
  section "absint" (fun () -> absint_bench ~t_stop:2e-3 ());
  section "figures" (fun () -> figures ());
  section "micro" (fun () -> micro ());
  let total_wall_s = Unix.gettimeofday () -. wall_start in
  (match cli.results_out with
  | Some path ->
      Obs.write_file path (results_json ~quick ~total_wall_s);
      Printf.printf "bench results written to %s\n" path
  | None -> ());
  (match cli.trace_out with
  | Some path ->
      Obs.write_file path (Obs.chrome_trace ());
      Printf.printf "chrome trace written to %s\n" path
  | None -> ());
  (match cli.metrics_out with
  | Some path ->
      Obs.write_file path (Obs.prometheus ());
      Printf.printf "metrics written to %s\n" path
  | None -> ());
  (match cli.journal_out with
  | Some path ->
      Journal.write_jsonl path;
      Printf.printf "journal written to %s (%d event(s), %d dropped)\n" path
        (Journal.count ()) (Journal.dropped ())
  | None -> ());
  if cli.obs then prerr_string (Obs.summary ());
  print_newline ();
  line ();
  print_endline "benchmark harness done.";
  line ()
