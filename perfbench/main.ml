(* The repository benchmark: four closed-loop workloads over the paths
   users run (simulate a model file, the Table III virtual platform, a
   fast-reference sweep, a submit through the sweep daemon). One client,
   one op at a time, every op of a run identical in size and kind.

     main.exe --workload NAME --seed N --seconds S --trace 0|1
              [--amsvp PATH] [--work-dir DIR]

   With --trace 0 the last stdout line is the end-to-end result; with
   --trace 1 half the ops run with the span recorder on and the last
   line carries the per-layer ledger. See perfbench/README.md. *)

module Obs = Amsvp_obs.Obs
module Expr = Amsvp_expr.Expr
module Trace = Amsvp_util.Trace
module Metrics = Amsvp_util.Metrics
module Stimulus = Amsvp_util.Stimulus
module Circuit = Amsvp_netlist.Circuit
module Circuits = Amsvp_netlist.Circuits
module Flow = Amsvp_core.Flow
module Sfprogram = Amsvp_sf.Sfprogram
module Wrap = Amsvp_sysc.Wrap
module Platform = Amsvp_vp.Platform
module Elaborate = Amsvp_vams.Elaborate
module Runner = Amsvp_sweep.Runner
module Spec = Amsvp_sweep.Spec
module Health = Amsvp_probe.Health
module Client = Amsvp_serve.Client
module Protocol = Amsvp_serve.Protocol

exception Check_failed of string

let fail fmt = Printf.ksprintf (fun s -> raise (Check_failed s)) fmt

(* What one op leaves behind once its timer has stopped. *)
type outcome = {
  steps : int;  (** simulated model timesteps *)
  nrmse : float;  (** worst output NRMSE against the reference *)
  busy : (string * int) list;
      (** layer busy time spent in other processes, ns *)
  extra : (string * float) list;  (** per-layer quantities of this op *)
}

(* A prepared workload. [op i] runs the i-th op and returns the output
   check, which the driver calls after stopping the op's timer: it
   raises [Check_failed] on a wrong output. *)
type workload = {
  op : int -> unit -> outcome;
  cycle : int;
      (** ops per input cycle; exact counts are averaged over the first
          cycle so they repeat across runs at one seed *)
  after_op : unit -> (string * float) list;
      (** untimed, after every op: per-op counters of other processes *)
  heap_words : unit -> int;
      (** major heap of the process doing the work, read after [after_op] *)
  finish : unit -> unit;  (** end-of-run checks and cleanup *)
}

let dt = 50e-9
let stim = Stimulus.square ~period:1e-3 ~low:0.0 ~high:1.0
let steps_of ~dt ~t_stop = int_of_float (Float.round (t_stop /. dt))

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path s =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc s)

let own_heap_words () = (Gc.quick_stat ()).Gc.heap_words

let same_bits a b =
  Array.length a = Array.length b
  && Array.for_all2
       (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
       a b

(* ---------------------------------------------------------------- *)
(* simulate_file: the `amsvp simulate` path at CLI defaults.          *)

let sim_t_stop = 2e-3
let sim_output = Expr.potential "tout" "gnd"

(* Budget on the abstracted model's NRMSE against the ELN solve. *)
let sim_nrmse_budget = 1e-3

let sim_ladders = 4

let ladder_file ~dir k lang =
  Filename.concat dir
    (Printf.sprintf "rc20_%d.%s" k (match lang with `Verilog -> "vams" | `Vhdl -> "vhd"))

let write_ladders ~dir ~seed =
  for k = 0 to sim_ladders - 1 do
    let values = Gen.ladder_values ~seed ~variant:k in
    write_file (ladder_file ~dir k `Verilog) (Gen.verilog values);
    write_file (ladder_file ~dir k `Vhdl) (Gen.vhdl values)
  done

let elaborate file lang =
  let name = match lang with `Verilog -> "vams.parse" | `Vhdl -> "vhdlams.parse" in
  Ledger.span name (fun () ->
      let src = read_file file in
      let flat =
        match lang with
        | `Verilog -> Elaborate.flatten (Amsvp_vams.Parser.parse ~file src) ~top:Gen.top
        | `Vhdl ->
            Amsvp_vhdlams.Velaborate.flatten
              (Amsvp_vhdlams.Vparser.parse ~file src)
              ~top:Gen.top ~inputs:[ "tin" ]
      in
      if Elaborate.classify flat <> `Conservative then
        fail "%s did not elaborate to a conservative model" file;
      Elaborate.to_circuit flat)

(* parse -> elaborate -> Flow.abstract_circuit -> Wrap.run_cpp, with the
   simulate command's defaults (2 ms, dt 50 ns, bytecode engine). *)
let simulate file lang =
  let circuit = elaborate file lang in
  let rep =
    Flow.abstract_circuit ~name:Gen.top ~mode:`Auto ~integration:`Backward_euler
      circuit ~outputs:[ sim_output ] ~dt
  in
  let p = rep.Flow.program in
  let stimuli = List.map (fun n -> (n, stim)) p.Sfprogram.inputs in
  (Wrap.run_cpp ~engine:`Bytecode p ~stimuli ~t_stop:sim_t_stop).Wrap.trace

let sim_lang i = if i land 1 = 0 then `Verilog else `Vhdl
let sim_ladder i = i / 2 mod sim_ladders

let timed_ns f =
  let t0 = Obs.now_ns () in
  ignore (f ());
  Obs.now_ns () - t0

let simulate_setup ~dir () =
  timed_ns (fun () -> simulate (ladder_file ~dir 0 `Verilog) `Verilog)

let simulate_workload ~dir =
  let references =
    Array.init sim_ladders (fun k ->
        let circuit = elaborate (ladder_file ~dir k `Verilog) `Verilog in
        let circuit = Flow.insert_probes circuit ~outputs:[ sim_output ] in
        let inputs =
          List.map (fun n -> (n, stim)) (Circuit.input_signals circuit)
        in
        (Wrap.run_eln circuit ~inputs ~output:sim_output ~dt ~t_stop:sim_t_stop)
          .Wrap.trace)
  in
  let verilog_trace = Array.make sim_ladders None in
  let op i =
    let k = sim_ladder i and lang = sim_lang i in
    let trace = simulate (ladder_file ~dir k lang) lang in
    fun () ->
      let values = Trace.values trace in
      (match (lang, verilog_trace.(k)) with
      | `Verilog, _ -> verilog_trace.(k) <- Some values
      | `Vhdl, Some v ->
          if not (same_bits v values) then
            fail "ladder %d: VHDL-AMS trace differs from Verilog-AMS" k
      | `Vhdl, None -> fail "ladder %d: no Verilog-AMS trace to compare" k);
      let nrmse =
        Metrics.nrmse_traces ~reference:references.(k) trace ~t0:0.0
          ~dt:(sim_t_stop /. 1000.0) ~n:999
      in
      if not (nrmse <= sim_nrmse_budget) then
        fail "ladder %d: NRMSE %g against ELN over budget" k nrmse;
      { steps = steps_of ~dt ~t_stop:sim_t_stop; nrmse; busy = []; extra = [] }
  in
  { op; cycle = 2 * sim_ladders; after_op = (fun () -> []);
    heap_words = own_heap_words; finish = ignore }

(* ---------------------------------------------------------------- *)
(* vp_table3: the Table III smart-system platform under six bindings. *)

let vp_t_stop = 0.2e-3
let vp_cpu_hz = 2e8

let cosim ~rtl_grain fidelity =
  Platform.Cosim { rtl_grain; substeps = 8; iterations = 3; fidelity }

let vp_bindings =
  [
    ("cosim_rtl", cosim ~rtl_grain:true `Fast);
    ("cosim_sc", cosim ~rtl_grain:false `Fast);
    ("eln", Platform.Eln);
    ("tdf", Platform.Tdf);
    ("de", Platform.De_model);
    ("cpp", Platform.Cpp);
  ]

(* Simulated statistics of one 0.2 ms run. They depend on the firmware,
   the timing and the binding's digital grain only, so they are pinned
   for every seed. The RC20 output stays near 0 V for 0.2 ms, so every
   reported byte is 0; at RTL grain the last UART frame is still on the
   serial line at t_stop, and the plain C++ loop issues two fewer bus
   transfers. *)
let vp_instructions = 40_000
let vp_adc_samples = 4_000
let vp_interrupts = 0
let vp_cosim_syncs = 8_000
let vp_uart_bytes ~rtl_grain = if rtl_grain then 14 else 15
let vp_bus_transfers = function Platform.Cpp -> 53_981 | _ -> 53_983
let vp_nrmse_budget = 1e-2

let vp_testcase ~seed =
  let r, c = Gen.vp_rc ~seed in
  Circuits.rc_ladder ~r ~c Gen.stages

let vp_run tc program binding =
  Platform.run ~cpu_hz:vp_cpu_hz ~testcase:tc ~program ~binding ~dt
    ~t_stop:vp_t_stop ()

(* Abstraction of the model plus the first (cold) op under every
   binding: a fresh process pays both before its first timed op. *)
let vp_setup ~seed () =
  let tc = vp_testcase ~seed in
  timed_ns (fun () ->
      let program = Some (Flow.abstract_testcase tc ~dt).Flow.program in
      List.iter (fun (_, binding) -> ignore (vp_run tc program binding)) vp_bindings)

let vp_workload ~seed =
  let tc = vp_testcase ~seed in
  let program = Some (Flow.abstract_testcase tc ~dt).Flow.program in
  let reference = vp_run tc program (cosim ~rtl_grain:false `Paper) in
  let op _ =
    let runs =
      List.map
        (fun (label, binding) ->
          let before = Ledger.snapshot () in
          let t0 = Obs.now_ns () in
          let r = vp_run tc program binding in
          let ns = Obs.now_ns () - t0 in
          (label, binding, r, ns, Ledger.diff before (Ledger.snapshot ())))
        vp_bindings
    in
    fun () ->
      let nrmse = ref 0.0 and extra = ref [] in
      List.iter
        (fun (label, binding, (r : Platform.result), ns, counts) ->
          let rtl_grain, syncs =
            match binding with
            | Platform.Cosim { rtl_grain; _ } -> (rtl_grain, vp_cosim_syncs)
            | _ -> (false, 0)
          in
          let check what got want =
            if got <> want then fail "%s: %s = %d, expected %d" label what got want
          in
          check "instructions" r.instructions vp_instructions;
          check "ADC samples" r.analog_samples vp_adc_samples;
          check "bus transfers" r.bus_transfers (vp_bus_transfers binding);
          check "interrupts" r.interrupts vp_interrupts;
          check "co-sim syncs" r.cosim_syncs syncs;
          let uart = String.make (vp_uart_bytes ~rtl_grain) '\000' in
          if r.uart_output <> uart then
            fail "%s: UART text %S, expected %S" label r.uart_output uart;
          let e =
            Metrics.nrmse_traces ~reference:reference.Platform.trace r.trace
              ~t0:0.0 ~dt:(vp_t_stop /. 1000.0) ~n:999
          in
          if not (e <= vp_nrmse_budget) then
            fail "%s: NRMSE %g against the paper co-simulation" label e;
          nrmse := Float.max !nrmse e;
          extra := (Printf.sprintf "vp.%s_ms" label, Ledger.ms_of_ns ns) :: !extra;
          match label with
          | "de" ->
              let acts = Ledger.get counts "amsvp_de_activations_total" in
              if acts > 0 then
                extra :=
                  ("sysc.ns_per_de_activation", float_of_int ns /. float_of_int acts)
                  :: !extra
          | "cpp" ->
              extra :=
                ("vp.ns_per_instruction", float_of_int ns /. float_of_int r.instructions)
                :: !extra
          | _ -> ())
        runs;
      {
        steps = List.length vp_bindings * steps_of ~dt ~t_stop:vp_t_stop;
        nrmse = !nrmse;
        busy = [];
        extra = !extra;
      }
  in
  { op; cycle = 1; after_op = (fun () -> []); heap_words = own_heap_words;
    finish = ignore }

(* ---------------------------------------------------------------- *)
(* sweep_reference: the rect_tolerance sweep with the fast reference.  *)

let parse_spec text =
  match Spec.of_string text with
  | Error m -> fail "spec: %s" m
  | Ok spec -> (
      match Runner.resolve spec with
      | Error m -> fail "spec circuit: %s" m
      | Ok tc -> (spec, tc))

let sweep_steps (spec : Spec.t) =
  Spec.point_count spec
  * steps_of
      ~dt:(Option.value spec.Spec.dt ~default:Runner.default_dt)
      ~t_stop:(Option.value spec.Spec.t_stop ~default:Runner.default_t_stop)

let sweep_spec ~seed i =
  parse_spec (Gen.rect_spec ~spec_seed:(Gen.sweep_spec_seed ~seed i) ~reference:true)

let sweep_setup ~seed () =
  let spec, tc = sweep_spec ~seed 0 in
  timed_ns (fun () -> Runner.run ~jobs:1 spec tc)

let sweep_workload ~seed =
  let specs = Array.init Gen.sweep_cycle (sweep_spec ~seed) in
  let op i =
    let spec, tc = specs.(i mod Gen.sweep_cycle) in
    let s = Ledger.span "sweep.run" (fun () -> Runner.run ~jobs:1 spec tc) in
    fun () ->
      let n = Array.length s.Runner.points in
      if n <> Spec.point_count spec then fail "sweep returned %d points" n;
      let nrmse = ref 0.0 in
      Array.iter
        (fun (r : Runner.point_result) ->
          if not r.health.Health.v_healthy then
            fail "point %s unhealthy" r.point.Amsvp_sweep.Sampler.label;
          match r.nrmse with
          | Some e -> nrmse := Float.max !nrmse e
          | None -> fail "point %s has no NRMSE" r.point.Amsvp_sweep.Sampler.label)
        s.Runner.points;
      let walls = Array.map (fun (r : Runner.point_result) -> r.wall_s *. 1e3) s.Runner.points in
      {
        steps = sweep_steps spec;
        nrmse = !nrmse;
        busy = [];
        extra = [ ("sweep.point_ms", Ledger.median walls) ];
      }
  in
  { op; cycle = Gen.sweep_cycle; after_op = (fun () -> []);
    heap_words = own_heap_words; finish = ignore }

(* ---------------------------------------------------------------- *)
(* serve_submit: client -> daemon -> worker -> stream.                *)

type daemon = { pid : int; socket : string }

let rec connect_retry socket deadline =
  match Client.connect socket with
  | c -> c
  | exception (Unix.Unix_error _ as e) ->
      if Unix.gettimeofday () > deadline then raise e;
      Unix.sleepf 0.002;
      connect_retry socket deadline

let request socket req =
  let c = Client.connect socket in
  Fun.protect
    ~finally:(fun () -> Client.close c)
    (fun () ->
      Client.send c req;
      match Client.recv c with Ok r -> r | Error m -> fail "daemon: %s" m)

let clear_dir dir =
  if Sys.file_exists dir then
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir)
  else Sys.mkdir dir 0o755

(* Boot [amsvp serve] and wait until it answers Ping. The journal stays
   off: with [--journal-out] the daemon's heap grows past 1.5 GB before
   its 65536-event ring wraps (~330 submits of this spec), so no run
   could reach a steady heap within its time limit. *)
let boot ~amsvp ~dir ~tag =
  let socket = Filename.concat dir (tag ^ ".sock") in
  let ckpt = Filename.concat dir (tag ^ "-ckpt") in
  if Sys.file_exists socket then Sys.remove socket;
  clear_dir ckpt;
  let pid =
    Unix.create_process amsvp
      [| amsvp; "serve"; "--socket"; socket; "--workers"; "1";
         "--checkpoint-dir"; ckpt |]
      Unix.stdin Unix.stderr Unix.stderr
  in
  let d = { pid; socket } in
  let deadline = Unix.gettimeofday () +. 30.0 in
  let rec ping () =
    let c = connect_retry socket deadline in
    Client.send c Protocol.Ping;
    let r = Client.recv c in
    Client.close c;
    match r with
    | Ok Protocol.Pong -> ()
    | _ when Unix.gettimeofday () < deadline -> ping ()
    | _ -> fail "daemon did not answer ping"
  in
  ping ();
  d

let shutdown d =
  (try ignore (request d.socket Protocol.Shutdown)
   with _ -> (try Unix.kill d.pid Sys.sigterm with Unix.Unix_error _ -> ()));
  ignore (Unix.waitpid [] d.pid)

let stats d =
  match request d.socket Protocol.Stats with
  | Protocol.Stats_reply s -> s
  | _ -> fail "daemon: no stats reply"

type submitted = {
  accept_ns : int;
  first_point_ns : int;
  results : Runner.point_result array;
  done_ : Protocol.response;
}

let submit socket ~spec_text ~points =
  let t0 = Obs.now_ns () in
  let accept_ns = ref 0 and first_ns = ref 0 in
  let results = Array.make points None in
  let c = Client.connect socket in
  let r =
    Fun.protect
      ~finally:(fun () -> Client.close c)
      (fun () ->
        Client.submit c ~spec_text
          ~on_event:(function
            | Protocol.Accepted _ -> accept_ns := Obs.now_ns () - t0
            | Protocol.Point { result; _ } ->
                if !first_ns = 0 then first_ns := Obs.now_ns () - t0;
                let i = result.Runner.point.Amsvp_sweep.Sampler.index in
                if i >= 0 && i < points then results.(i) <- Some result
            | _ -> ())
          ())
  in
  match r with
  | Error m -> fail "submit: %s" m
  | Ok done_ ->
      let results =
        Array.mapi
          (fun i -> function Some r -> r | None -> fail "point %d not streamed" i)
          results
      in
      { accept_ns = !accept_ns; first_point_ns = !first_ns; results; done_ }

let serve_spec ~seed ~reference =
  Gen.rect_spec ~spec_seed:(Gen.serve_spec_seed ~seed) ~reference

let serve_setup ~amsvp ~dir ~seed () =
  let spec_text = serve_spec ~seed ~reference:false in
  let points = Spec.point_count (fst (parse_spec spec_text)) in
  let t0 = Obs.now_ns () in
  let d = boot ~amsvp ~dir ~tag:"setup" in
  Fun.protect
    ~finally:(fun () -> shutdown d)
    (fun () ->
      ignore (submit d.socket ~spec_text ~points);
      Obs.now_ns () - t0)

let serve_workload ~seed d =
  let spec_text = serve_spec ~seed ~reference:false in
  let spec, tc = parse_spec spec_text in
  let points = Spec.point_count spec in
  (* The in-process results the stream must reproduce, and the NRMSE
     of those same outputs against the fast MNA reference. *)
  let ctx = Runner.prepare ~jobs:1 spec tc in
  let expected = Array.map (Runner.run_point ctx) (Runner.ctx_points ctx) in
  let ref_spec, ref_tc = parse_spec (serve_spec ~seed ~reference:true) in
  let with_ref = Runner.run ~jobs:1 ref_spec ref_tc in
  let nrmse_max =
    Array.fold_left
      (fun acc (r : Runner.point_result) ->
        Float.max acc (Option.value r.nrmse ~default:nan))
      0.0 with_ref.Runner.points
  in
  Array.iteri
    (fun i (e : Runner.point_result) ->
      let r = with_ref.Runner.points.(i) in
      if not (same_bits [| e.out_final; e.out_rms |] [| r.out_final; r.out_rms |])
      then fail "reference-on run differs from reference-off at point %d" i)
    expected;
  let start = stats d in
  let last = ref start in
  let op _ =
    let t0 = Obs.now_ns () in
    let s = submit d.socket ~spec_text ~points in
    let wall_ns = Obs.now_ns () - t0 in
    fun () ->
      (match s.done_ with
      | Protocol.Done { complete = true; points = n; _ } when n = points -> ()
      | Protocol.Done { complete; points = n; _ } ->
          fail "done: complete=%b points=%d" complete n
      | _ -> fail "submit did not end with Done");
      let worker_ns = ref 0 in
      Array.iteri
        (fun i (r : Runner.point_result) ->
          let e = expected.(i) in
          if not (same_bits [| r.out_final; r.out_rms |] [| e.out_final; e.out_rms |])
             || r.health.Health.v_healthy <> e.health.Health.v_healthy
          then fail "point %d: streamed value differs from run_point" i;
          worker_ns := !worker_ns + int_of_float (r.wall_s *. 1e9))
        s.results;
      {
        steps = sweep_steps spec;
        nrmse = nrmse_max;
        busy = [ ("serve", s.accept_ns); ("sweep", !worker_ns) ];
        extra =
          [
            ("serve.accept_ms", Ledger.ms_of_ns s.accept_ns);
            ("serve.first_point_ms", Ledger.ms_of_ns s.first_point_ns);
            ( "serve.overhead_ms_per_point",
              Ledger.ms_of_ns (wall_ns - !worker_ns) /. float_of_int points );
            ( "sweep.point_ms",
              Ledger.median
                (Array.map (fun (r : Runner.point_result) -> r.wall_s *. 1e3) s.results) );
          ];
      }
  in
  let after_op () =
    let s = stats d and p = !last in
    last := s;
    let hits = s.Protocol.st_ctx_hits - p.Protocol.st_ctx_hits
    and misses = s.st_ctx_misses - p.st_ctx_misses in
    [
      ("serve.ctx_hit_ratio", float_of_int hits /. float_of_int (max 1 (hits + misses)));
      ("serve.workers_spawned", float_of_int (s.st_spawned - p.st_spawned));
      ("serve.telemetry_torn", float_of_int (s.st_telemetry_torn - p.st_telemetry_torn));
      ("obs.journal_dropped", float_of_int (s.st_journal_dropped - p.st_journal_dropped));
    ]
  in
  let finish () =
    let s = !last in
    if s.st_telemetry_torn <> start.st_telemetry_torn then
      fail "daemon dropped %d torn telemetry frames"
        (s.st_telemetry_torn - start.st_telemetry_torn);
    if s.st_crashed <> start.st_crashed then fail "a worker crashed"
  in
  { op; cycle = 1; after_op; heap_words = (fun () -> !last.st_heap_words); finish }

(* ---------------------------------------------------------------- *)
(* Driver.                                                            *)

(* A fixed allocation-heavy kernel owned by the benchmark, timed at the
   start and the end of every run: a slow reading shows that the run
   coincided with a slow period of the host. Nothing is normalised by
   it. Its garbage dies young, so it leaves the major heap alone. *)
let host_probe () =
  let t0 = Obs.now_ns () in
  let acc = ref 0 in
  for round = 1 to 300 do
    let l = List.init 2000 (fun i -> ((i * 7919) + round) mod 10007) in
    acc := !acc + List.hd (List.sort compare l)
  done;
  ignore (Sys.opaque_identity !acc);
  Ledger.ms_of_ns (Obs.now_ns () - t0)

let workloads = [ "simulate_file"; "vp_table3"; "sweep_reference"; "serve_submit" ]

type config = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  setup_only : bool;
  amsvp : string;
  dir : string;
}

(* Ops per run: at least this many, so ten lie beyond p90. *)
let min_ops = 100
let setup_reps = 15

(* NRMSE below this is floating-point roundoff (the rectifier's signal-
   flow model and fast reference agree to ~5e-17) and reads as the
   floor, so a reordered sum does not count as an accuracy change. *)
let nrmse_floor = 1e-12

(* Runs the workload's one-time set-up in this (fresh) process and
   returns its duration in ns. *)
let setup_once cfg =
  match cfg.workload with
  | "simulate_file" -> simulate_setup ~dir:cfg.dir ()
  | "vp_table3" -> vp_setup ~seed:cfg.seed ()
  | "sweep_reference" -> sweep_setup ~seed:cfg.seed ()
  | _ -> serve_setup ~amsvp:cfg.amsvp ~dir:cfg.dir ~seed:cfg.seed ()

(* One cold set-up in a fresh process, in seconds. setup_s is the
   median of [setup_reps] of them, taken between timed ops across the
   whole run, so that a slow burst of the host (see README, Known
   limits) meets only a few of them. *)
let cold_setup cfg =
  let exe = Sys.executable_name in
  let ic =
    Unix.open_process_args_in exe
      [| exe; "--workload"; cfg.workload; "--seed"; string_of_int cfg.seed;
         "--setup-only"; "--amsvp"; cfg.amsvp; "--work-dir"; cfg.dir |]
  in
  let line = try input_line ic with End_of_file -> "" in
  match (Unix.close_process_in ic, String.split_on_char ' ' line) with
  | Unix.WEXITED 0, [ "setup_ns"; n ] -> float_of_string n *. 1e-9
  | _ -> fail "set-up process failed (%S)" line

(* Run ops until lazy set-up is done and the working process's major
   heap has stopped growing: five ops in a row that leave it no larger
   than its peak so far. For serve_submit this also warms the daemon's
   prepared-sweep cache. *)
let warm_up w =
  let deadline = Unix.gettimeofday () +. 4.0 in
  let rec go i peak stable =
    ignore (w.op i ());
    ignore (w.after_op ());
    let heap = w.heap_words () in
    let stable = if heap <= peak then stable + 1 else 0 in
    if stable >= 5 || Unix.gettimeofday () > deadline then i + 1
    else go (i + 1) (max peak heap) stable
  in
  go 0 0 0

type op_rec = {
  index : int;
  wall_ns : int;
  traced : bool;
  result : (outcome, string) result;
  counts : Ledger.counts option;
  tally : Ledger.tally option;
  remote : (string * float) list;
  heap : int;  (** major heap words of the working process after the op *)
}

let describe = function
  | Check_failed m -> m
  | e -> Printexc.to_string e

(* Times ops for [cfg.seconds] of op time. Between ops it calls
   [between] [setup_reps] times, spread evenly over the op time (any
   left over when the loop ends run after it); the time spent there
   does not count against [cfg.seconds]. *)
let timed_loop cfg w ~between =
  let start = Obs.now_ns () in
  let budget = int_of_float (cfg.seconds *. 1e9) in
  let hard = start + 150_000_000_000 in
  let paused = ref 0 and calls = ref 0 in
  let call () =
    let t0 = Obs.now_ns () in
    between ();
    incr calls;
    paused := !paused + (Obs.now_ns () - t0)
  in
  let rec go i acc =
    if !calls < setup_reps && (Obs.now_ns () - start - !paused) * setup_reps >= !calls * budget
    then call ();
    let now = Obs.now_ns () in
    if (now - start - !paused >= budget && i >= min_ops) || now >= hard then begin
      while !calls < setup_reps do call () done;
      List.rev acc
    end
    else begin
      (* Half the ops are traced, in the pattern 0110 0110 ..., so that
         both members of an alternating pair (the two languages of
         simulate_file) get traced. *)
      let traced = cfg.trace && ((i lsr 1) + i) land 1 = 1 in
      let before = if cfg.trace then Some (Ledger.snapshot ()) else None in
      let n0 = Obs.span_count () in
      if traced then Obs.enable ();
      let t0 = Obs.now_ns () in
      let check = try Ok (w.op i) with e -> Error (describe e) in
      let wall_ns = Obs.now_ns () - t0 in
      if traced then Obs.disable ();
      let counts = Option.map (fun b -> Ledger.diff b (Ledger.snapshot ())) before in
      let tally = if traced then Some (Ledger.tally (Obs.spans_from n0)) else None in
      let result =
        match check with
        | Ok c -> (try Ok (c ()) with e -> Error (describe e))
        | Error m -> Error m
      in
      let remote = w.after_op () in
      let heap = w.heap_words () in
      go (i + 1)
        ({ index = i; wall_ns; traced; result; counts; tally; remote; heap } :: acc)
    end
  in
  go 0 []

(* {1 Per-layer metrics} *)

let exact_counters =
  [
    ("sysc.de_activations", "amsvp_de_activations_total");
    ("sysc.de_delta_cycles", "amsvp_de_delta_cycles_total");
    ("sysc.de_signal_updates", "amsvp_de_signal_updates_total");
    ("sysc.tdf_cluster_activations", "amsvp_tdf_cluster_activations_total");
    ("vp.instructions", "amsvp_vp_instructions_retired_total");
    ("vp.bus_transfers", "amsvp_vp_bus_transfers_total");
    ("vp.interrupts", "amsvp_vp_interrupts_total");
    ("vp.adc_samples", "amsvp_vp_adc_samples_total");
    ("vp.cosim_syncs", "amsvp_vp_cosim_syncs_total");
    ("vp.uart_bytes", "amsvp_vp_uart_bytes_total");
    ("mna.factorizations", "amsvp_mna_factorizations_total");
    ("mna.solves", "amsvp_mna_solves_total");
    ("mna.device_evals", "amsvp_mna_device_evals_total");
    ("mna.wasted_newton_iters", "amsvp_mna_wasted_newton_iters_total");
  ]

(* Every per-layer metric with its unit, in BENCHMARK.json order; a
   workload that does not run a layer reports 0 for it. *)
let per_layer =
  [
    ("vams.parse_ms", "ms"); ("vhdlams.parse_ms", "ms"); ("core.flow_ms", "ms");
    ("core.acquisition_ms", "ms"); ("core.enrichment_ms", "ms");
    ("core.assemble_ms", "ms"); ("core.solve_ms", "ms");
    ("signalflow.run_ms", "ms"); ("signalflow.ops_per_step", "ratio");
    ("signalflow.ns_per_op", "ns"); ("sysc.de_activations", "count");
    ("sysc.de_delta_cycles", "count"); ("sysc.de_signal_updates", "count");
    ("sysc.tdf_cluster_activations", "count");
    ("sysc.ns_per_de_activation", "ns"); ("vp.cosim_rtl_ms", "ms");
    ("vp.cosim_sc_ms", "ms"); ("vp.eln_ms", "ms"); ("vp.tdf_ms", "ms");
    ("vp.de_ms", "ms"); ("vp.cpp_ms", "ms"); ("vp.instructions", "count");
    ("vp.bus_transfers", "count"); ("vp.interrupts", "count");
    ("vp.adc_samples", "count"); ("vp.cosim_syncs", "count");
    ("vp.uart_bytes", "count"); ("vp.ns_per_instruction", "ns");
    ("mna.factorizations", "count"); ("mna.solves", "count");
    ("mna.device_evals", "count"); ("mna.wasted_newton_iters", "count");
    ("mna.ref_ms_per_point", "ms"); ("mna.ns_per_solve", "ns");
    ("sweep.prepare_ms", "ms"); ("sweep.point_ms", "ms");
    ("sweep.cache_hit_ratio", "ratio"); ("serve.accept_ms", "ms");
    ("serve.first_point_ms", "ms"); ("serve.overhead_ms_per_point", "ms");
    ("serve.ctx_hit_ratio", "ratio"); ("serve.workers_spawned", "count");
    ("serve.telemetry_torn", "count"); ("obs.journal_dropped", "count");
    ("host.probe_ms", "ms"); ("ledger.op_ms", "ms");
    ("ledger.residual_ms", "ms"); ("trace.overhead_pct", "%");
    ("diag.op_p50_ms", "ms"); ("diag.op_p90_ms", "ms"); ("diag.steps_per_s", "1/s");
  ]

let incl (t : Ledger.tally) name = Ledger.get t.Ledger.incl_ns name

(* Timed quantities of one traced op, taken from its spans. *)
let span_metrics (t : Ledger.tally) (counts : Ledger.counts) =
  let c = Ledger.get counts in
  let ms name = Ledger.ms_of_ns (incl t name) in
  let present name = Hashtbl.mem t.Ledger.incl_ns name in
  let opt cond v = if cond then [ v ] else [] in
  List.concat
    [
      opt (present "vams.parse") ("vams.parse_ms", ms "vams.parse");
      opt (present "vhdlams.parse") ("vhdlams.parse_ms", ms "vhdlams.parse");
      opt (present "flow.abstract") ("core.flow_ms", ms "flow.abstract");
      opt (present "flow.acquisition") ("core.acquisition_ms", ms "flow.acquisition");
      opt (present "flow.enrich") ("core.enrichment_ms", ms "flow.enrich");
      opt (present "flow.assemble") ("core.assemble_ms", ms "flow.assemble");
      opt (present "flow.solve") ("core.solve_ms", ms "flow.solve");
      opt (present "sf.run") ("signalflow.run_ms", ms "sf.run");
      opt
        (present "sf.run" && c "amsvp_sf_ops_total" > 0)
        ( "signalflow.ns_per_op",
          float_of_int (incl t "sf.run") /. float_of_int (c "amsvp_sf_ops_total") );
      opt
        (present "mna.spice_like" && c "amsvp_sweep_points_total" > 0)
        ( "mna.ref_ms_per_point",
          ms "mna.spice_like" /. float_of_int (c "amsvp_sweep_points_total") );
      opt
        (present "mna.spice_like" && c "amsvp_mna_solves_total" > 0)
        ( "mna.ns_per_solve",
          float_of_int (incl t "mna.spice_like")
          /. float_of_int (c "amsvp_mna_solves_total") );
      (match
         ( Hashtbl.find_opt t.Ledger.first_start "sweep.run",
           Hashtbl.find_opt t.Ledger.first_start "sweep.point" )
       with
      | Some a, Some b -> [ ("sweep.prepare_ms", Ledger.ms_of_ns (b - a)) ]
      | _ -> []);
    ]

(* Exact counts of one op. *)
let count_metrics (counts : Ledger.counts) =
  let c = Ledger.get counts in
  let ratio a b = if b > 0 then [ (float_of_int a /. float_of_int b) ] else [] in
  List.map (fun (n, k) -> (n, float_of_int (c k))) exact_counters
  @ List.map (fun v -> ("signalflow.ops_per_step", v))
      (ratio (c "amsvp_sf_ops_total") (c "amsvp_sf_ticks_total"))
  @ List.map (fun v -> ("sweep.cache_hit_ratio", v))
      (ratio (c "amsvp_sweep_cache_hits_total")
         (c "amsvp_sweep_cache_hits_total" + c "amsvp_sweep_cache_misses_total"))

let collect tbl pairs =
  List.iter
    (fun (k, v) ->
      Hashtbl.replace tbl k (v :: Option.value ~default:[] (Hashtbl.find_opt tbl k)))
    pairs

(* Layer ledger of one traced op: self time per layer, plus the busy
   time reported by other processes, plus the residual, = wall time. *)
let ledger_row r (t : Ledger.tally) (o : outcome) =
  let layers = Hashtbl.copy t.Ledger.self_ns in
  List.iter (fun (l, ns) -> Ledger.add layers l ns) o.busy;
  let busy = List.fold_left (fun a (_, ns) -> a + ns) 0 o.busy in
  let residual = r.wall_ns - t.Ledger.covered_ns - busy in
  let names = List.sort compare (Hashtbl.fold (fun k _ a -> k :: a) layers []) in
  let cells =
    List.map (fun l -> Printf.sprintf "%s=%.3f" l (Ledger.ms_of_ns (Ledger.get layers l))) names
  in
  ( residual,
    Printf.sprintf "ledger op=%d wall_ms=%.3f %s residual=%.3f" r.index
      (Ledger.ms_of_ns r.wall_ns) (String.concat " " cells) (Ledger.ms_of_ns residual) )

let layer_metrics w recs ~probe_ms ~diagnostics =
  let timed = Hashtbl.create 64 and exact = Hashtbl.create 64 in
  let rows = ref [] and residuals = ref [] in
  List.iter
    (fun r ->
      match (r.result, r.counts) with
      | Ok o, Some counts ->
          if r.index < w.cycle then collect exact (count_metrics counts @ r.remote);
          (match r.tally with
          | Some t ->
              collect timed (span_metrics t counts @ o.extra);
              let residual, row = ledger_row r t o in
              residuals := Ledger.ms_of_ns residual :: !residuals;
              rows := row :: !rows
          | None -> ())
      | _ -> ())
    recs;
  List.iter print_endline (List.rev !rows);
  let walls traced =
    Array.of_list
      (List.filter_map
         (fun r ->
           match r.result with
           | Ok _ when r.traced = traced -> Some (Ledger.ms_of_ns r.wall_ns)
           | _ -> None)
         recs)
  in
  let traced_p50 = Ledger.median (walls true)
  and plain = walls false in
  let plain_p50 = Ledger.median plain in
  let mean l = List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l) in
  let value name =
    match name with
    | "host.probe_ms" -> probe_ms
    | "ledger.op_ms" -> traced_p50
    | "ledger.residual_ms" -> Ledger.median (Array.of_list !residuals)
    | "trace.overhead_pct" -> (traced_p50 -. plain_p50) /. plain_p50 *. 100.0
    | "diag.op_p50_ms" | "diag.op_p90_ms" | "diag.steps_per_s" -> List.assoc name diagnostics
    | _ -> (
        match (Hashtbl.find_opt exact name, Hashtbl.find_opt timed name) with
        | Some l, _ -> mean l
        | None, Some l -> Ledger.median (Array.of_list l)
        | None, None -> 0.0)
  in
  List.map (fun (name, unit) -> (name, value name, unit)) per_layer

(* {1 Output} *)

let json_number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let print_result ~correct ~attempted ~failed metrics =
  List.iter
    (fun (name, v, unit, note) -> Printf.printf "%-32s %14.6g %-6s %s\n" name v unit note)
    metrics;
  let fields =
    List.map
      (fun (name, v, unit, _) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number v) unit)
      metrics
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed (String.concat ", " fields)

let run cfg =
  let daemon =
    if cfg.workload = "serve_submit" then Some (boot ~amsvp:cfg.amsvp ~dir:cfg.dir ~tag:"bench")
    else None
  in
  Fun.protect ~finally:(fun () -> Option.iter shutdown daemon) @@ fun () ->
  let probe_start = host_probe () in
  if cfg.workload = "simulate_file" then write_ladders ~dir:cfg.dir ~seed:cfg.seed;
  let w =
    match (cfg.workload, daemon) with
    | "simulate_file", _ -> simulate_workload ~dir:cfg.dir
    | "vp_table3", _ -> vp_workload ~seed:cfg.seed
    | "sweep_reference", _ -> sweep_workload ~seed:cfg.seed
    | _, Some d -> serve_workload ~seed:cfg.seed d
    | _, None -> assert false
  in
  Printf.printf "warm-up: %d ops\n%!" (warm_up w);
  let setups = ref [] in
  let recs = timed_loop cfg w ~between:(fun () -> setups := cold_setup cfg :: !setups) in
  let setup_s = Ledger.median (Array.of_list !setups) in
  let probe_end = host_probe () in
  Printf.printf "host.probe_ms start=%.3f end=%.3f\n" probe_start probe_end;
  let finish_error = try w.finish (); None with e -> Some (describe e) in
  let oks = List.filter_map (fun r -> match r.result with Ok o -> Some (r, o) | Error _ -> None) recs in
  let failures = List.filter_map (fun r -> match r.result with Error m -> Some (r.index, m) | Ok _ -> None) recs in
  List.iteri
    (fun i (idx, m) -> if i < 10 then Printf.eprintf "op %d failed: %s\n" idx m)
    failures;
  Option.iter (Printf.eprintf "end-of-run check failed: %s\n") finish_error;
  let attempted = List.length recs and failed = List.length failures in
  let correct = failed = 0 && finish_error = None && oks <> [] in
  let plain = List.filter (fun (r, _) -> not r.traced) oks in
  let walls = Array.of_list (List.map (fun (r, _) -> Ledger.ms_of_ns r.wall_ns) plain) in
  let n = Array.length walls in
  let steps = List.fold_left (fun a (_, o) -> a + o.steps) 0 plain in
  let busy_s = List.fold_left (fun a (r, _) -> a +. (float_of_int r.wall_ns *. 1e-9)) 0.0 plain in
  let nrmse_max = List.fold_left (fun a (_, o) -> Float.max a o.nrmse) nrmse_floor oks in
  let samples = Printf.sprintf "(n=%d)" n in
  (* The median, the p90 and the throughput move with the share of a
     run the host spends in its slow bursts (see README, Known limits),
     so they are printed and traced as diagnostics, not gated. *)
  let diagnostics =
    [
      ("diag.op_p50_ms", Ledger.median walls, "ms", samples);
      ( "diag.op_p90_ms",
        Ledger.quantile 0.9 walls,
        "ms",
        Printf.sprintf "(n=%d, %d beyond)" n (n / 10) );
      ("diag.steps_per_s", float_of_int steps /. busy_s, "1/s", samples);
    ]
  in
  let end_to_end =
    [
      ("setup_s", setup_s, "s", Printf.sprintf "(median of %d cold set-ups)" setup_reps);
      ("op_min_ms", Ledger.quantile 0.0 walls, "ms", Printf.sprintf "(fastest of n=%d)" n);
      ( "heap_mb",
        float_of_int (List.fold_left (fun a r -> max a r.heap) 0 recs)
        *. float_of_int Sys.word_size /. 8e6,
        "MB",
        "(peak after an op)" );
      ("nrmse_max", nrmse_max, "ratio", Printf.sprintf "(over %d ops)" (List.length oks));
    ]
  in
  List.iter
    (fun (name, v, unit, note) -> Printf.printf "# %-30s %14.6g %-6s %s\n" name v unit note)
    (if cfg.trace then end_to_end @ diagnostics else diagnostics);
  let metrics =
    if cfg.trace then
      List.map
        (fun (name, v, unit) -> (name, v, unit, ""))
        (layer_metrics w recs
           ~probe_ms:(Float.max probe_start probe_end)
           ~diagnostics:(List.map (fun (k, v, _, _) -> (k, v)) diagnostics))
    else end_to_end
  in
  print_result ~correct ~attempted ~failed metrics;
  correct

let usage () =
  prerr_endline
    "usage: main.exe --workload NAME --seed N --seconds S --trace 0|1 \
     [--amsvp PATH] [--work-dir DIR]";
  exit 2

let parse_args argv =
  let cfg =
    ref { workload = ""; seed = 1; seconds = 10.0; trace = false; setup_only = false;
          amsvp = "_build/default/bin/amsvp.exe"; dir = ".perfbench" }
  in
  let rec go = function
    | "--workload" :: v :: rest -> cfg := { !cfg with workload = v }; go rest
    | "--seed" :: v :: rest -> cfg := { !cfg with seed = int_of_string v }; go rest
    | "--seconds" :: v :: rest -> cfg := { !cfg with seconds = float_of_string v }; go rest
    | "--trace" :: v :: rest -> cfg := { !cfg with trace = v = "1" }; go rest
    | "--setup-only" :: rest -> cfg := { !cfg with setup_only = true }; go rest
    | "--amsvp" :: v :: rest -> cfg := { !cfg with amsvp = v }; go rest
    | "--work-dir" :: v :: rest -> cfg := { !cfg with dir = v }; go rest
    | [] -> ()
    | _ -> usage ()
  in
  (try go (List.tl (Array.to_list argv)) with Failure _ -> usage ());
  if not (List.mem !cfg.workload workloads) then usage ();
  !cfg

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let cfg = parse_args Sys.argv in
  if not (Sys.file_exists cfg.dir) then Sys.mkdir cfg.dir 0o755;
  if cfg.setup_only then begin
    Printf.printf "setup_ns %d\n%!" (setup_once cfg)
  end
  else
    match run cfg with
    | true -> ()
    | false -> exit 1
    | exception e ->
        Printf.eprintf "benchmark failed: %s\n" (describe e);
        exit 1
