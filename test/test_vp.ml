(* Tests for the virtual platform: assembler, ISS, bus/peripherals and
   the Table III platform harness. *)

module Asm = Amsvp_vp.Asm
module Iss = Amsvp_vp.Iss
module Bus = Amsvp_vp.Bus
module Platform = Amsvp_vp.Platform
module Circuits = Amsvp_netlist.Circuits
module Flow = Amsvp_core.Flow

(* A little machine with plain RAM for ISS tests. *)
let machine ?(ram_words = 1024) program =
  let bus = Bus.create () in
  Bus.Ram.attach bus ~base:0 ~size_words:ram_words;
  let image = Asm.assemble program in
  Bus.Ram.load bus ~base:0 image;
  let cpu = Iss.create (Bus.iss_bus bus) in
  (bus, cpu)

let run_steps cpu n =
  for _ = 1 to n do
    Iss.step cpu
  done

(* Assembler *)

let test_asm_encodings () =
  let image = Asm.assemble "addu $t0, $t1, $t2" in
  Alcotest.(check int) "addu" 0x012A4021 image.(0);
  let image = Asm.assemble "lw $t0, 4($sp)" in
  Alcotest.(check int) "lw" 0x8FA80004 image.(0);
  let image = Asm.assemble "lui $t0, 0x1000" in
  Alcotest.(check int) "lui" 0x3C081000 image.(0);
  let image = Asm.assemble "jr $ra" in
  Alcotest.(check int) "jr" 0x03E00008 image.(0)

let test_asm_labels_and_branches () =
  let image = Asm.assemble "top: addiu $t0, $t0, 1\nbne $t0, $t1, top" in
  (* branch offset: -2 instructions relative to pc+4. *)
  Alcotest.(check int) "bne offset" 0x1509FFFE image.(1)

let test_asm_li_expansion () =
  let image = Asm.assemble "li $t0, 0x12345678" in
  Alcotest.(check int) "two words" 2 (Array.length image);
  Alcotest.(check int) "lui" 0x3C081234 image.(0);
  Alcotest.(check int) "ori" 0x35085678 image.(1)

let test_asm_errors () =
  let expect name src =
    Alcotest.(check bool) name true
      (try
         ignore (Asm.assemble src);
         false
       with Asm.Asm_error (_, _) -> true)
  in
  expect "unknown mnemonic" "frobnicate $t0";
  expect "bad register" "addu $t0, $zz, $t1";
  expect "duplicate label" "a: nop\na: nop";
  expect "missing operand" "addu $t0, $t1"

let test_disassemble_roundtrip_samples () =
  Alcotest.(check string) "nop" "nop" (Asm.disassemble_word 0);
  let w = (Asm.assemble "addu $v0, $a0, $a1").(0) in
  Alcotest.(check string) "addu" "addu $v0, $a0, $a1" (Asm.disassemble_word w)

(* ISS *)

let test_iss_arith_and_logic () =
  let _, cpu =
    machine
      {asm|
  li   $t0, 7
  li   $t1, 5
  addu $t2, $t0, $t1
  subu $t3, $t0, $t1
  and  $t4, $t0, $t1
  or   $t5, $t0, $t1
  xor  $t6, $t0, $t1
  slt  $t7, $t1, $t0
|asm}
  in
  run_steps cpu 10;
  Alcotest.(check int) "add" 12 (Iss.reg cpu 10);
  Alcotest.(check int) "sub" 2 (Iss.reg cpu 11);
  Alcotest.(check int) "and" 5 (Iss.reg cpu 12);
  Alcotest.(check int) "or" 7 (Iss.reg cpu 13);
  Alcotest.(check int) "xor" 2 (Iss.reg cpu 14);
  Alcotest.(check int) "slt" 1 (Iss.reg cpu 15)

let test_iss_signed_compare () =
  let _, cpu = machine "li $t0, -3\nslti $t1, $t0, 0\nsltiu $t2, $t0, 0" in
  run_steps cpu 4;
  Alcotest.(check int) "signed" 1 (Iss.reg cpu 9);
  Alcotest.(check int) "unsigned (big value)" 0 (Iss.reg cpu 10)

let test_iss_memory () =
  let _, cpu =
    machine "li $t0, 0x100\nli $t1, 0xBEEF\nsw $t1, 0($t0)\nlw $t2, 0($t0)"
  in
  run_steps cpu 6;
  Alcotest.(check int) "roundtrip" 0xBEEF (Iss.reg cpu 10)

let test_iss_loop () =
  (* Sum 1..10 with a branch loop. *)
  let _, cpu =
    machine
      {asm|
  li   $t0, 10
  li   $t1, 0
loop:
  addu $t1, $t1, $t0
  addiu $t0, $t0, -1
  bne  $t0, $zero, loop
  nop
halt:
  j halt
|asm}
  in
  run_steps cpu 100;
  Alcotest.(check int) "sum" 55 (Iss.reg cpu 9)

let test_iss_jal_jr () =
  let _, cpu =
    machine
      {asm|
  jal sub
  nop
after:
  j after
sub:
  li $v0, 99
  jr $ra
|asm}
  in
  run_steps cpu 10;
  Alcotest.(check int) "return value" 99 (Iss.reg cpu 2)

let test_iss_register_zero () =
  let _, cpu = machine "li $t0, 5\naddu $zero, $t0, $t0\nmove $t1, $zero" in
  run_steps cpu 4;
  Alcotest.(check int) "zero stays zero" 0 (Iss.reg cpu 9)

let test_iss_decode_error () =
  let bus = Bus.create () in
  Bus.Ram.attach bus ~base:0 ~size_words:4;
  Bus.Ram.load bus ~base:0 [| 0xFC000000 |];
  let cpu = Iss.create (Bus.iss_bus bus) in
  Alcotest.(check bool) "decode error" true
    (try
       Iss.step cpu;
       false
     with Iss.Decode_error (_, 0) -> true)

let test_iss_mult_div () =
  let _, cpu =
    machine
      "li $t0, 7\nli $t1, -3\nmult $t0, $t1\nmflo $t2\nli $t3, 17\nli $t4, 5\ndiv $t3, $t4\nmflo $t5\nmfhi $t6"
  in
  run_steps cpu 14;
  Alcotest.(check int) "mult lo" ((-21) land 0xFFFFFFFF) (Iss.reg cpu 10);
  Alcotest.(check int) "div quotient" 3 (Iss.reg cpu 13);
  Alcotest.(check int) "div remainder" 2 (Iss.reg cpu 14)

let test_iss_bytes () =
  let _, cpu =
    machine
      "li $t0, 0x100\nli $t1, 0x11223344\nsw $t1, 0($t0)\nlbu $t2, 1($t0)\nli $t3, 0xAB\nsb $t3, 2($t0)\nlw $t4, 0($t0)\nli $t5, 0x80\nsb $t5, 4($t0)\nlb $t6, 4($t0)"
  in
  run_steps cpu 16;
  (* little-endian byte lanes within the stored word *)
  Alcotest.(check int) "lbu byte 1" 0x33 (Iss.reg cpu 10);
  Alcotest.(check int) "sb merged" 0x11AB3344 (Iss.reg cpu 12);
  Alcotest.(check int) "lb sign-extends" ((-128) land 0xFFFFFFFF) (Iss.reg cpu 14)

let test_iss_regimm_branches () =
  let _, cpu =
    machine
      {asm|
  li   $t0, -5
  bltz $t0, neg
  li   $t1, 111
neg:
  li   $t2, 1
  bgtz $t2, pos
  li   $t3, 222
pos:
  li   $t4, 42
halt:
  j halt
|asm}
  in
  run_steps cpu 20;
  Alcotest.(check int) "bltz taken" 0 (Iss.reg cpu 9);
  Alcotest.(check int) "bgtz taken" 0 (Iss.reg cpu 11);
  Alcotest.(check int) "landed" 42 (Iss.reg cpu 12)

let test_iss_interrupt_flow () =
  let _, cpu =
    machine
      {asm|
  j main
.org 0x80
  li  $s7, 0xAB        # handler marker
  eret
main:
  li   $t0, 1
  mtc0 $t0, $12        # enable interrupts
idle:
  addiu $s0, $s0, 1
  j idle
|asm}
  in
  (* No interrupt while disabled. *)
  run_steps cpu 10;
  Alcotest.(check int) "none taken yet" 0 (Iss.interrupts_taken cpu);
  Iss.set_irq cpu true;
  run_steps cpu 1;
  (* The interrupt is taken at the next step boundary. *)
  Alcotest.(check int) "taken" 1 (Iss.interrupts_taken cpu);
  Alcotest.(check bool) "masked inside handler" false (Iss.interrupts_enabled cpu);
  Iss.set_irq cpu false;
  run_steps cpu 5;
  Alcotest.(check int) "handler marker" 0xAB (Iss.reg cpu 23);
  Alcotest.(check bool) "re-enabled after eret" true (Iss.interrupts_enabled cpu);
  let idle_before = Iss.reg cpu 16 in
  run_steps cpu 10;
  Alcotest.(check bool) "main loop resumed" true (Iss.reg cpu 16 > idle_before)

(* Bus and peripherals *)

let test_bus_decode_error () =
  let bus = Bus.create () in
  Bus.Ram.attach bus ~base:0 ~size_words:4;
  let b = Bus.iss_bus bus in
  Alcotest.(check bool) "unmapped" true
    (try
       ignore (b.Iss.read32 0x8000_0000);
       false
     with Bus.Bus_error 0x8000_0000 -> true)

(* The instruction path of the Table III firmware allocates nothing:
   the bus finds a transfer's device without building a pair, and the
   ISS writes registers without a per-step closure. *)
let test_instruction_path_allocation_free () =
  let bus = Bus.create () in
  Bus.Ram.attach bus ~base:0 ~size_words:1024;
  let adc = Bus.Adc.attach bus ~base:0x1000_1000 in
  let uart = Bus.Uart.attach bus ~base:0x1000_0000 in
  Bus.Ram.load bus ~base:0
    (Asm.assemble
       {|
        li   $t0, 0x10001000
        li   $t1, 0x10000000
        li   $s0, 0
        li   $s1, 0
loop:   lw   $t2, 4($t0)
        beq  $t2, $s0, loop
        move $s0, $t2
        lw   $t3, 0($t0)
        addu $s1, $s1, $t3
        andi $t4, $t2, 15
        bne  $t4, $zero, loop
        srl  $t5, $s1, 8
        andi $t5, $t5, 255
        sw   $t5, 0($t1)
        j    loop
|});
  let cpu = Iss.create (Bus.iss_bus bus) in
  let run n =
    for k = 1 to n do
      if k mod 10 = 0 then Bus.Adc.set_sample adc ~volts:1e-3;
      Iss.set_irq cpu (Bus.Adc.irq_pending adc);
      Iss.step cpu
    done
  in
  run 1000;
  let transfers = Bus.transfers bus in
  let before = Gc.minor_words () in
  run 40_000;
  let words = Gc.minor_words () -. before in
  Alcotest.(check (float 0.0)) "minor words of 40000 steps" 0.0 words;
  Alcotest.(check bool) "the firmware polled the ADC" true
    (Bus.transfers bus - transfers > 40_000);
  Alcotest.(check bool) "and reported on the UART" true
    (Bus.Uart.tx_count uart > 0)

(* RAM is paged copy-on-write: untouched words read 0 on every page,
   and a write lands on its own page only. *)
let test_ram_pages () =
  let bus = Bus.create () in
  Bus.Ram.attach bus ~base:0x1000 ~size_words:1000;
  let b = Bus.iss_bus bus in
  let addr w = 0x1000 + (4 * w) in
  b.Iss.write32 (addr 300) 0x1_2345_6789;
  b.Iss.write32 (addr 999) 7;
  Alcotest.(check int) "written, masked to 32 bits" 0x2345_6789
    (b.Iss.read32 (addr 300));
  Alcotest.(check int) "last word" 7 (b.Iss.read32 (addr 999));
  List.iter
    (fun w ->
      Alcotest.(check int) (Printf.sprintf "word %d untouched" w) 0
        (b.Iss.read32 (addr w)))
    [ 0; 44; 256; 299; 301; 511; 512; 600; 998 ];
  Alcotest.check_raises "beyond the RAM" (Bus.Bus_error (addr 1000))
    (fun () -> ignore (b.Iss.read32 (addr 1000)))

let test_bus_overlap_rejected () =
  let bus = Bus.create () in
  Bus.Ram.attach bus ~base:0 ~size_words:16;
  Alcotest.(check bool) "overlap" true
    (try
       Bus.Ram.attach bus ~base:32 ~size_words:16;
       false
     with Invalid_argument _ -> true)

let test_uart_collects_output () =
  let bus = Bus.create () in
  let uart = Bus.Uart.attach bus ~base:0x1000 in
  let b = Bus.iss_bus bus in
  String.iter (fun c -> b.Iss.write32 0x1000 (Char.code c)) "hi!";
  Alcotest.(check string) "bytes" "hi!" (Bus.Uart.output uart);
  Alcotest.(check int) "count" 3 (Bus.Uart.tx_count uart);
  Alcotest.(check int) "status ready" 1 (b.Iss.read32 0x1004)

let test_adc_irq_semantics () =
  let bus = Bus.create () in
  let adc = Bus.Adc.attach bus ~base:0x2000 in
  let b = Bus.iss_bus bus in
  Bus.Adc.set_sample adc ~volts:1.0;
  Alcotest.(check bool) "no irq while disabled" false (Bus.Adc.irq_pending adc);
  b.Iss.write32 0x2008 1;
  Bus.Adc.set_sample adc ~volts:2.0;
  Alcotest.(check bool) "irq raised" true (Bus.Adc.irq_pending adc);
  ignore (b.Iss.read32 0x2000);
  Alcotest.(check bool) "reading the sample acks" false (Bus.Adc.irq_pending adc)

let test_adc_sample_conversion () =
  let bus = Bus.create () in
  let adc = Bus.Adc.attach bus ~base:0x2000 in
  let b = Bus.iss_bus bus in
  Bus.Adc.set_sample adc ~volts:1.25;
  Alcotest.(check int) "microvolts" 1_250_000 (b.Iss.read32 0x2000);
  Bus.Adc.set_sample adc ~volts:(-0.5);
  Alcotest.(check int) "negative two's complement"
    ((-500_000) land 0xFFFFFFFF)
    (b.Iss.read32 0x2000);
  Alcotest.(check int) "sequence" 2 (b.Iss.read32 0x2004)

let rc1_setup () =
  let tc = Circuits.rc_ladder 1 in
  let rep = Flow.abstract_testcase tc ~dt:50e-9 in
  (tc, Some rep.Flow.program)

(* RTL UART *)

module Uart_rtl = Amsvp_vp.Uart_rtl
module De = Amsvp_sysc.De

let test_uart_rtl_frames () =
  let k = De.create () in
  let bus = Bus.create () in
  let u = Uart_rtl.attach k bus ~base:0x1000 ~bit_ps:100 in
  let b = Bus.iss_bus bus in
  String.iter (fun c -> b.Iss.write32 0x1000 (Char.code c)) "Ok!";
  Alcotest.(check int) "queued" 3 (Uart_rtl.queued u);
  De.run k;
  Alcotest.(check string) "decoded off the wire" "Ok!" (Uart_rtl.decoded u);
  Alcotest.(check int) "frames" 3 (Uart_rtl.frames_sent u);
  Alcotest.(check bool) "line idles high" true (De.Signal.read (Uart_rtl.line u));
  (* 3 frames x 10 bits x 100 ps, starting in the first delta. *)
  Alcotest.(check int) "wire time" 3000 (De.now_ps k)

let test_uart_rtl_status () =
  let k = De.create () in
  let bus = Bus.create () in
  let u = Uart_rtl.attach k bus ~base:0x1000 ~bit_ps:100 in
  ignore u;
  let b = Bus.iss_bus bus in
  Alcotest.(check int) "idle status" 0 (b.Iss.read32 0x1004);
  b.Iss.write32 0x1000 0x41;
  Alcotest.(check int) "busy status" 1 (b.Iss.read32 0x1004);
  De.run k;
  Alcotest.(check int) "idle again" 0 (b.Iss.read32 0x1004)

let test_platform_rtl_uart_decodes () =
  (* The Verilog-grain platform sends the UART traffic over a real
     serial line; the decoded bytes must match the transaction-level
     output of the SystemC-grain run (up to frames still in flight at
     t_stop). *)
  let tc, program = rc1_setup () in
  let rtl =
    Platform.run ~cpu_hz:20e6 ~testcase:tc ~program
      ~binding:(Platform.Cosim { rtl_grain = true; substeps = 2; iterations = 1; fidelity = `Paper })
      ~dt:1e-6 ~t_stop:2e-3 ()
  in
  let tlm =
    Platform.run ~cpu_hz:20e6 ~testcase:tc ~program
      ~binding:(Platform.Cosim { rtl_grain = false; substeps = 2; iterations = 1; fidelity = `Paper })
      ~dt:1e-6 ~t_stop:2e-3 ()
  in
  let r = rtl.Platform.uart_output and t = tlm.Platform.uart_output in
  Alcotest.(check bool) "wire carried data" true (String.length r > 0);
  Alcotest.(check bool) "at most two frames in flight" true
    (String.length t - String.length r <= 2);
  Alcotest.(check string) "decoded bytes are a prefix" r
    (String.sub t 0 (String.length r))

(* Platform *)

let test_platform_bindings_agree () =
  let tc, program = rc1_setup () in
  let run binding =
    Platform.run ~cpu_hz:20e6 ~testcase:tc ~program ~binding ~dt:50e-9
      ~t_stop:0.5e-3 ()
  in
  let eln = run Platform.Eln in
  let de = run Platform.De_model in
  let tdf = run Platform.Tdf in
  Alcotest.(check string) "de uart = eln uart" eln.Platform.uart_output
    de.Platform.uart_output;
  Alcotest.(check string) "tdf uart = eln uart" eln.Platform.uart_output
    tdf.Platform.uart_output;
  Alcotest.(check int) "same instruction count" eln.Platform.instructions
    de.Platform.instructions;
  Alcotest.(check bool) "uart saw data" true
    (String.length eln.Platform.uart_output > 0)

let test_platform_cosim_syncs () =
  let tc, program = rc1_setup () in
  let r =
    Platform.run ~cpu_hz:20e6 ~testcase:tc ~program
      ~binding:(Platform.Cosim { rtl_grain = false; substeps = 2; iterations = 1; fidelity = `Paper })
      ~dt:1e-6 ~t_stop:1e-4 ()
  in
  (* Two marshalled exchanges per analog step (in and out). *)
  Alcotest.(check int) "lock-step syncs" 200 r.Platform.cosim_syncs;
  Alcotest.(check int) "samples" 100 r.Platform.analog_samples

let test_platform_cpp_no_kernel () =
  let tc, program = rc1_setup () in
  let r =
    Platform.run ~cpu_hz:20e6 ~testcase:tc ~program ~binding:Platform.Cpp
      ~dt:1e-6 ~t_stop:1e-4 ()
  in
  Alcotest.(check bool) "no DE stats for plain loop" true
    (r.Platform.de_stats = None);
  Alcotest.(check int) "instructions ran" 2000 r.Platform.instructions

let interrupt_firmware =
  {asm|
        j    main
.org 0x80
isr:
        lw   $k0, 0($t0)        # read the sample: acknowledges the IRQ
        addu $s1, $s1, $k0
        addiu $s2, $s2, 1
        andi $k1, $s2, 63
        bne  $k1, $zero, iret
        srl  $k1, $s1, 16
        andi $k1, $k1, 255
        sw   $k1, 0($t1)        # UART
iret:
        eret
main:
        li   $t0, 0x10001000    # ADC
        li   $t1, 0x10000000    # UART
        li   $t2, 1
        sw   $t2, 8($t0)        # ADC interrupt enable
        mtc0 $t2, $12           # CPU interrupts on
idle:
        addiu $s0, $s0, 1
        j    idle
|asm}

let test_platform_interrupt_driven () =
  (* Interrupt-driven firmware: the ISR pulls every sample and the idle
     loop keeps spinning between interrupts. *)
  let tc, program = rc1_setup () in
  let r =
    Platform.run ~cpu_hz:20e6 ~asm_src:interrupt_firmware ~testcase:tc ~program
      ~binding:Platform.Cpp ~dt:1e-6 ~t_stop:1e-3 ()
  in
  (* One interrupt per sample once the firmware has enabled the ADC
     IRQ (the very first samples can land before the enable). *)
  Alcotest.(check bool)
    (Printf.sprintf "interrupts (%d) track samples (%d)" r.Platform.interrupts
       r.Platform.analog_samples)
    true
    (r.Platform.analog_samples - r.Platform.interrupts <= 2
    && r.Platform.interrupts > 0);
  Alcotest.(check bool) "uart traffic" true (String.length r.Platform.uart_output > 0);
  let de =
    Platform.run ~cpu_hz:20e6 ~asm_src:interrupt_firmware ~testcase:tc ~program
      ~binding:Platform.De_model ~dt:1e-6 ~t_stop:1e-3 ()
  in
  (* The kernel interleaves CPU cycles and analog ticks at a slightly
     different phase than the plain loop, so byte values can shift by a
     sample; the traffic volume must match. *)
  Alcotest.(check int) "same uart volume under the DE kernel"
    (String.length r.Platform.uart_output)
    (String.length de.Platform.uart_output);
  Alcotest.(check bool) "DE interrupts fire" true (de.Platform.interrupts > 0)

(* Bit-identity pin: the Table III platform on RC20 under every
   binding, 0.05 ms. The trace digest covers every sample bit for bit
   ([%h]); the constants were recorded before the MNA device layout
   was resolved to indices and the DE queues became arrays, which must
   change neither a sample nor a kernel count. *)
let trace_digest tr =
  let b = Buffer.create 4096 in
  for i = 0 to Amsvp_util.Trace.length tr - 1 do
    Printf.bprintf b "%h %h\n" (Amsvp_util.Trace.time tr i)
      (Amsvp_util.Trace.value tr i)
  done;
  Digest.to_hex (Digest.string (Buffer.contents b))

let test_platform_rc20_pinned () =
  let tc = Circuits.rc_ladder 20 in
  let dt = 50e-9 in
  let program = Some (Flow.abstract_testcase tc ~dt).Flow.program in
  let cosim rtl_grain fidelity =
    Platform.Cosim { rtl_grain; substeps = 8; iterations = 3; fidelity }
  in
  let pinned =
    [
      ( cosim true `Fast,
        "7a6f1106fe1961370839bf26c9feea92",
        Some ((61065, 40007), (21057, 20030)),
        13495,
        "\000\000\000" );
      ( cosim false `Paper,
        "5f0f7e4b520702a86c99c5c38a8dc5f0",
        Some ((11000, 10000), (11000, 0)),
        13495,
        "\000\000\000" );
      ( Platform.Eln,
        "30e0148cfec42e0791941da8751c078b",
        Some ((11000, 10000), (11000, 0)),
        13495,
        "\000\000\000" );
      ( Platform.Tdf,
        "b272a65a0a9268b72906463e510f1128",
        Some ((11000, 11000), (11000, 1000)),
        13495,
        "\000\000\000" );
      ( Platform.De_model,
        "ad872a9e53307f85838f3bec4229263d",
        Some ((11000, 11000), (11000, 1000)),
        13495,
        "\000\000\000" );
      ( Platform.Cpp,
        "ad872a9e53307f85838f3bec4229263d",
        None,
        13493,
        "\000\000\000" );
    ]
  in
  List.iter
    (fun (binding, digest, stats, transfers, uart) ->
      let r =
        Platform.run ~cpu_hz:2e8 ~testcase:tc ~program ~binding ~dt
          ~t_stop:0.05e-3 ()
      in
      let label = Platform.binding_label binding in
      Alcotest.(check string) (label ^ " trace digest") digest
        (trace_digest r.Platform.trace);
      Alcotest.(check (option (pair (pair int int) (pair int int))))
        (label ^ " DE stats")
        stats
        (Option.map
           (fun (s : De.stats) ->
             ((s.activations, s.delta_cycles),
              (s.timed_notifications, s.signal_updates)))
           r.Platform.de_stats);
      Alcotest.(check int) (label ^ " bus transfers") transfers
        r.Platform.bus_transfers;
      Alcotest.(check string) (label ^ " UART text") uart r.Platform.uart_output)
    pinned

(* The TDF binding's per-step allocation: the minor words that 4000
   more steps of the Table III RC20 run cost (set-up cancels out). A
   closure per module and repetition, to set its port bases, would
   add 40 words a step. *)
let test_tdf_words_per_step () =
  let tc = Circuits.rc_ladder 20 in
  let dt = 50e-9 in
  let program = Some (Flow.abstract_testcase tc ~dt).Flow.program in
  let words t_stop =
    let before = Gc.minor_words () in
    ignore
      (Platform.run ~cpu_hz:2e8 ~testcase:tc ~program ~binding:Platform.Tdf ~dt
         ~t_stop ());
    Gc.minor_words () -. before
  in
  ignore (words 0.2e-3);
  let per_step = (words 0.4e-3 -. words 0.2e-3) /. 4000.0 in
  (* a few words of trace growth round away *)
  Alcotest.(check (float 0.0)) "minor words per step" 12.0 (Float.round per_step)

let test_platform_requires_program () =
  let tc, _ = rc1_setup () in
  Alcotest.(check bool) "missing program" true
    (try
       ignore
         (Platform.run ~testcase:tc ~program:None ~binding:Platform.De_model
            ~dt:1e-6 ~t_stop:1e-4 ());
       false
     with Invalid_argument _ -> true)

(* A program input with no stimulus is a caller error under every
   binding that runs the abstracted program, reported as
   [Invalid_argument] rather than a raw [Not_found]. *)
let test_platform_missing_stimulus () =
  let tc, program = rc1_setup () in
  let tc = { tc with Circuits.stimuli = [] } in
  List.iter
    (fun binding ->
      Alcotest.(check bool)
        (Platform.binding_label binding ^ " missing stimulus")
        true
        (try
           ignore
             (Platform.run ~testcase:tc ~program ~binding ~dt:1e-6
                ~t_stop:1e-4 ());
           false
         with Invalid_argument _ -> true))
    [ Platform.Cpp; Platform.De_model; Platform.Tdf ]

let () =
  Alcotest.run "vp"
    [
      ( "asm",
        [
          Alcotest.test_case "encodings" `Quick test_asm_encodings;
          Alcotest.test_case "labels and branches" `Quick
            test_asm_labels_and_branches;
          Alcotest.test_case "li expansion" `Quick test_asm_li_expansion;
          Alcotest.test_case "errors" `Quick test_asm_errors;
          Alcotest.test_case "disassembly" `Quick test_disassemble_roundtrip_samples;
        ] );
      ( "iss",
        [
          Alcotest.test_case "arith and logic" `Quick test_iss_arith_and_logic;
          Alcotest.test_case "signed compare" `Quick test_iss_signed_compare;
          Alcotest.test_case "memory" `Quick test_iss_memory;
          Alcotest.test_case "loop" `Quick test_iss_loop;
          Alcotest.test_case "jal/jr" `Quick test_iss_jal_jr;
          Alcotest.test_case "mult/div" `Quick test_iss_mult_div;
          Alcotest.test_case "byte access" `Quick test_iss_bytes;
          Alcotest.test_case "regimm branches" `Quick test_iss_regimm_branches;
          Alcotest.test_case "interrupt flow" `Quick test_iss_interrupt_flow;
          Alcotest.test_case "register zero" `Quick test_iss_register_zero;
          Alcotest.test_case "decode error" `Quick test_iss_decode_error;
        ] );
      ( "bus",
        [
          Alcotest.test_case "decode error" `Quick test_bus_decode_error;
          Alcotest.test_case "overlap rejected" `Quick test_bus_overlap_rejected;
          Alcotest.test_case "uart" `Quick test_uart_collects_output;
          Alcotest.test_case "adc" `Quick test_adc_sample_conversion;
          Alcotest.test_case "adc irq" `Quick test_adc_irq_semantics;
          Alcotest.test_case "instruction path allocates nothing" `Quick
            test_instruction_path_allocation_free;
          Alcotest.test_case "ram pages" `Quick test_ram_pages;
        ] );
      ( "uart_rtl",
        [
          Alcotest.test_case "frames over the wire" `Quick test_uart_rtl_frames;
          Alcotest.test_case "status register" `Quick test_uart_rtl_status;
          Alcotest.test_case "platform decodes" `Quick
            test_platform_rtl_uart_decodes;
        ] );
      ( "platform",
        [
          Alcotest.test_case "bindings agree" `Quick test_platform_bindings_agree;
          Alcotest.test_case "co-sim syncs" `Quick test_platform_cosim_syncs;
          Alcotest.test_case "C++ loop" `Quick test_platform_cpp_no_kernel;
          Alcotest.test_case "interrupt-driven firmware" `Quick
            test_platform_interrupt_driven;
          Alcotest.test_case "missing program" `Quick test_platform_requires_program;
          Alcotest.test_case "missing stimulus" `Quick
            test_platform_missing_stimulus;
          Alcotest.test_case "TDF words per step" `Quick test_tdf_words_per_step;
          Alcotest.test_case "RC20 bindings pinned" `Quick
            test_platform_rc20_pinned;
        ] );
    ]
