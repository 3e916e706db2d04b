module De = Amsvp_sysc.De
module Wrap = Amsvp_sysc.Wrap
module Engine = Amsvp_mna.Engine
module Circuits = Amsvp_netlist.Circuits
module Sfprogram = Amsvp_sf.Sfprogram
module Trace = Amsvp_util.Trace
module Obs = Amsvp_obs.Obs

let c_instructions =
  Obs.Counter.make ~help:"ISS instructions retired"
    "amsvp_vp_instructions_retired_total"

let c_interrupts =
  Obs.Counter.make ~help:"interrupts taken by the ISS"
    "amsvp_vp_interrupts_total"

let c_bus_transfers =
  Obs.Counter.make ~help:"bus read/write transactions"
    "amsvp_vp_bus_transfers_total"

let c_adc_samples =
  Obs.Counter.make ~help:"analog samples pushed into the ADC"
    "amsvp_vp_adc_samples_total"

let c_cosim_syncs =
  Obs.Counter.make ~help:"co-simulation channel synchronisations"
    "amsvp_vp_cosim_syncs_total"

let c_uart_bytes =
  Obs.Counter.make ~help:"bytes received on the UART"
    "amsvp_vp_uart_bytes_total"

type analog_binding =
  | Cosim of {
      rtl_grain : bool;
      substeps : int;
      iterations : int;
      fidelity : [ `Paper | `Fast ];
    }
  | Eln
  | Tdf
  | De_model
  | Cpp

let binding_label = function
  | Cosim { rtl_grain = true; _ } -> "Verilog-AMS / Verilog VP (co-sim)"
  | Cosim { rtl_grain = false; _ } -> "Verilog-AMS / SystemC VP (co-sim)"
  | Eln -> "SC-AMS/ELN"
  | Tdf -> "SC-AMS/TDF"
  | De_model -> "SC-DE"
  | Cpp -> "C++"

type result = {
  uart_output : string;
  instructions : int;
  interrupts : int;
  bus_transfers : int;
  analog_samples : int;
  cosim_syncs : int;
  trace : Trace.t;
  de_stats : De.stats option;
}

let ram_base = 0x0000_0000
let uart_base = 0x1000_0000
let adc_base = 0x1000_1000

let default_program =
  Printf.sprintf
    {asm|
        li   $t0, 0x%08x      # ADC base
        li   $t1, 0x%08x      # UART base
        li   $s0, 0             # last sample sequence number
        li   $s1, 0             # accumulator
loop:
        lw   $t2, 4($t0)        # sample sequence number
        beq  $t2, $s0, loop     # busy-wait for a fresh sample
        move $s0, $t2
        lw   $t3, 0($t0)        # sample value (microvolts)
        addu $s1, $s1, $t3
        andi $t4, $t2, 255
        bne  $t4, $zero, loop
        srl  $t5, $s1, 8        # every 256 samples: report a byte
        andi $t5, $t5, 255
        sw   $t5, 0($t1)        # UART transmit
        j    loop
|asm}
    adc_base uart_base

(* Build the bus with RAM, ADC and the loaded firmware; the UART
   flavour (transaction-level or bit-serial RTL) is attached by the
   caller. *)
let make_digital asm_src =
  let bus = Bus.create () in
  Bus.Ram.attach bus ~base:ram_base ~size_words:16384;
  let adc = Bus.Adc.attach bus ~base:adc_base in
  let image = Asm.assemble ~base:ram_base asm_src in
  Bus.Ram.load bus ~base:ram_base image;
  let cpu = Iss.create ~pc:ram_base (Bus.iss_bus bus) in
  (bus, adc, cpu)

(* One serial bit on the RTL UART line (1 us: a frame comfortably fits
   between the firmware's reporting instants). *)
let uart_bit_ps = 1_000_000

(* The co-simulation boundary: values cross between the two simulators
   through explicit serialisation, as over the Questa-ADMS lock-step
   channel; every crossing counts one synchronisation. *)
let exchange syncs (time : float) (values : float array) : float array =
  incr syncs;
  let packet = Marshal.to_string (time, values) [] in
  snd (Marshal.from_string packet 0 : float * float array)

let run ?(cpu_hz = 20.0e6) ?(asm_src = default_program)
    ~(testcase : Circuits.testcase) ~program ~binding ~dt ~t_stop () =
  if dt <= 0.0 || t_stop < dt then invalid_arg "Platform.run: bad timing";
  Obs.with_span ~cat:"vp"
    ~args:
      [
        ("binding", binding_label binding);
        ("testcase", testcase.Circuits.label);
      ]
    "vp.run"
  @@ fun () ->
  let bus, adc, cpu = make_digital asm_src in
  let kernel = De.create () in
  let until_ps = De.ps_of_seconds t_stop in
  let nsteps = int_of_float (Float.round (t_stop /. dt)) in
  let trace = Trace.create ~capacity:(nsteps + 1) () in
  let stims = Array.of_list (List.map snd testcase.Circuits.stimuli) in
  let input_names = List.map fst testcase.Circuits.stimuli in
  let cosim_syncs = ref 0 in
  let rtl_grain =
    match binding with Cosim { rtl_grain; _ } -> rtl_grain | _ -> false
  in
  (* UART flavour: the Verilog-grain platform transmits real 8N1
     frames over a serial line (bit-accurate RTL model); the other
     platforms use the transaction-level UART. *)
  let uart_output =
    if rtl_grain then
      let u = Uart_rtl.attach kernel bus ~base:uart_base ~bit_ps:uart_bit_ps in
      fun () -> Uart_rtl.decoded u
    else
      let u = Bus.Uart.attach bus ~base:uart_base in
      fun () -> Bus.Uart.output u
  in
  let finish de_stats =
    let uart_output = uart_output () in
    Obs.Counter.add c_instructions (Iss.instructions_retired cpu);
    Obs.Counter.add c_interrupts (Iss.interrupts_taken cpu);
    Obs.Counter.add c_bus_transfers (Bus.transfers bus);
    Obs.Counter.add c_adc_samples (Bus.Adc.samples_pushed adc);
    Obs.Counter.add c_cosim_syncs !cosim_syncs;
    Obs.Counter.add c_uart_bytes (String.length uart_output);
    {
      uart_output;
      instructions = Iss.instructions_retired cpu;
      interrupts = Iss.interrupts_taken cpu;
      bus_transfers = Bus.transfers bus;
      analog_samples = Bus.Adc.samples_pushed adc;
      cosim_syncs = !cosim_syncs;
      trace;
      de_stats;
    }
  in
  (* The abstracted program's runner and its stimuli in input order. *)
  let model () =
    match program with
    | Some p ->
        ( Sfprogram.Runner.create p,
          Wrap.stimuli_for p testcase.Circuits.stimuli )
    | None -> invalid_arg "Platform.run: this binding needs an abstracted program"
  in
  (* Every binding hands its output to the ADC bridge and the trace. *)
  let adc_sink t out =
    Bus.Adc.set_sample adc ~volts:out;
    Trace.add trace ~time:t ~value:out
  in
  Trace.add trace ~time:0.0 ~value:0.0;
  match binding with
  | Cpp ->
      (* Whole platform as one compiled loop: the kernel never runs. *)
      let runner, order = model () in
      let step = Wrap.model_step runner order in
      let instr_per_step =
        max 1 (int_of_float (Float.round (cpu_hz *. dt)))
      in
      for k = 1 to nsteps do
        let t = float_of_int k *. dt in
        adc_sink t (step t);
        for _ = 1 to instr_per_step do
          Iss.set_irq cpu (Bus.Adc.irq_pending adc);
          Iss.step cpu
        done
      done;
      finish None
  | Eln | Tdf | De_model | Cosim _ ->
      let cycle_ps =
        max 1 (int_of_float (Float.round (1e12 /. cpu_hz)))
      in
      (* Digital side. *)
      (if rtl_grain then begin
         (* RTL grain: an explicit clock signal toggles through the
            kernel's request/update machinery; the CPU and a bus
            monitor are separate processes sensitive to the clock
            edge. *)
         let clk = De.Signal.bool_signal kernel ~name:"clk" false in
         let clk_ev = De.Event.create kernel "clkgen" in
         let gen =
           De.spawn kernel ~name:"clkgen" (fun () ->
               De.Signal.write clk (not (De.Signal.read clk));
               if De.now_ps kernel + (cycle_ps / 2) <= until_ps then
                 De.Event.notify_delayed clk_ev ~delay_ps:(cycle_ps / 2))
         in
         De.Event.sensitize gen clk_ev;
         De.Event.notify_delayed clk_ev ~delay_ps:(cycle_ps / 2);
         let cpu_proc =
           De.spawn kernel ~name:"cpu" (fun () ->
               if De.Signal.read clk then begin
                 Iss.set_irq cpu (Bus.Adc.irq_pending adc);
                 Iss.step cpu
               end)
         in
         De.Event.sensitize cpu_proc (De.Signal.change_event clk);
         let monitor =
           De.spawn kernel ~name:"bus_monitor" (fun () -> ignore (Bus.transfers bus))
         in
         De.Event.sensitize monitor (De.Signal.change_event clk)
       end
       else begin
         (* SystemC VP grain: one self-scheduled CPU process per cycle. *)
         let cpu_ev = De.Event.create kernel "cpu.tick" in
         let cpu_proc =
           De.spawn kernel ~name:"cpu" (fun () ->
               Iss.set_irq cpu (Bus.Adc.irq_pending adc);
               Iss.step cpu;
               if De.now_ps kernel + cycle_ps <= until_ps then
                 De.Event.notify_delayed cpu_ev ~delay_ps:cycle_ps)
         in
         De.Event.sensitize cpu_proc cpu_ev;
         De.Event.notify_delayed cpu_ev ~delay_ps:cycle_ps
       end);
      (* Analog side: Wrap's bindings, sinking into the ADC bridge. *)
      let clocked name step =
        Wrap.clocked kernel ~name ~dt ~until_ps (fun t -> adc_sink t (step t))
      in
      (match binding with
      | Cosim { substeps; iterations; fidelity; _ } ->
          let stepper =
            Engine.Spice_stepper.create ~substeps ~iterations ~fidelity
              testcase.Circuits.circuit ~inputs:input_names
              ~output:testcase.Circuits.output ~dt
          in
          let sample = Wrap.sampler stims in
          clocked "cosim" (fun t ->
              (* Digital -> analog hand-off, solve, and back. *)
              let remote_inputs = exchange cosim_syncs t (sample t) in
              let out =
                Engine.Spice_stepper.step stepper ~input_values:remote_inputs
              in
              (exchange cosim_syncs t [| out |]).(0))
      | Eln ->
          clocked "eln"
            (Wrap.eln_step
               (Engine.Eln_stepper.create testcase.Circuits.circuit
                  ~inputs:input_names ~output:testcase.Circuits.output ~dt)
               stims)
      | De_model ->
          let runner, order = model () in
          let step = Wrap.model_step runner order in
          let out_sig = De.Signal.float_signal kernel ~name:"analog.out" 0.0 in
          clocked "analog" (fun t ->
              let out = step t in
              De.Signal.write out_sig out;
              out)
      | Tdf ->
          let runner, order = model () in
          Wrap.tdf_chain kernel ~dt ~until_ps runner order adc_sink
      | Cpp -> assert false);
      De.run_until kernel ~ps:until_ps;
      finish (Some (De.stats kernel))
