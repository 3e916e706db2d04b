type bus = { read32 : int -> int; write32 : int -> int -> unit }

type t = {
  bus : bus;
  regs : int array;  (* 32-bit values, stored masked *)
  mutable pc : int;
  mutable retired : int;
  mutable hi : int;
  mutable lo : int;
  mutable irq : bool;  (* external request line (level) *)
  mutable ie : bool;  (* interrupt enable *)
  mutable epc : int;
  mutable taken : int;
}

let interrupt_vector = 0x80

exception Decode_error of int * int

let mask32 v = v land 0xFFFFFFFF

let sign32 v =
  let v = mask32 v in
  if v land 0x80000000 <> 0 then v - 0x100000000 else v

let sign16 v =
  let v = v land 0xFFFF in
  if v land 0x8000 <> 0 then v - 0x10000 else v

let create ?(pc = 0) bus =
  {
    bus;
    regs = Array.make 32 0;
    pc;
    retired = 0;
    hi = 0;
    lo = 0;
    irq = false;
    ie = false;
    epc = 0;
    taken = 0;
  }

let set_irq cpu level = cpu.irq <- level
let interrupts_enabled cpu = cpu.ie
let interrupts_taken cpu = cpu.taken

let reg cpu i = cpu.regs.(i)

let set_reg cpu i v = if i <> 0 then cpu.regs.(i) <- mask32 v

let instructions_retired cpu = cpu.retired

let read_byte cpu addr =
  let word = mask32 (cpu.bus.read32 (addr land lnot 3)) in
  (word lsr ((addr land 3) * 8)) land 0xFF

let write_byte cpu addr v =
  let aligned = addr land lnot 3 in
  let word = mask32 (cpu.bus.read32 aligned) in
  let shift = (addr land 3) * 8 in
  let cleared = word land lnot (0xFF lsl shift) in
  cpu.bus.write32 aligned (cleared lor ((v land 0xFF) lsl shift))

let step cpu =
  if cpu.irq && cpu.ie then begin
    (* Take the external interrupt: mask further interrupts, save the
       return address and jump to the fixed vector. *)
    cpu.ie <- false;
    cpu.epc <- cpu.pc;
    cpu.pc <- interrupt_vector;
    cpu.taken <- cpu.taken + 1
  end;
  let w = mask32 (cpu.bus.read32 cpu.pc) in
  let opcode = (w lsr 26) land 0x3F in
  let rs = (w lsr 21) land 0x1F in
  let rt = (w lsr 16) land 0x1F in
  let rd = (w lsr 11) land 0x1F in
  let shamt = (w lsr 6) land 0x1F in
  let funct = w land 0x3F in
  let imm = w land 0xFFFF in
  let next_pc = ref (mask32 (cpu.pc + 4)) in
  (match opcode with
  | 0 -> (
      (* R-type *)
      match funct with
      | 0 -> set_reg cpu rd (cpu.regs.(rt) lsl shamt)  (* sll *)
      | 2 -> set_reg cpu rd (mask32 cpu.regs.(rt) lsr shamt)  (* srl *)
      | 3 -> set_reg cpu rd (sign32 cpu.regs.(rt) asr shamt)  (* sra *)
      | 8 -> next_pc := cpu.regs.(rs)  (* jr *)
      | 32 | 33 -> set_reg cpu rd (cpu.regs.(rs) + cpu.regs.(rt))  (* add/addu *)
      | 34 | 35 -> set_reg cpu rd (cpu.regs.(rs) - cpu.regs.(rt))  (* sub/subu *)
      | 36 -> set_reg cpu rd (cpu.regs.(rs) land cpu.regs.(rt))  (* and *)
      | 37 -> set_reg cpu rd (cpu.regs.(rs) lor cpu.regs.(rt))  (* or *)
      | 38 -> set_reg cpu rd (cpu.regs.(rs) lxor cpu.regs.(rt))  (* xor *)
      | 39 -> set_reg cpu rd (lnot (cpu.regs.(rs) lor cpu.regs.(rt)))  (* nor *)
      | 42 ->
          set_reg cpu rd
            (if sign32 cpu.regs.(rs) < sign32 cpu.regs.(rt) then 1 else 0)
      | 43 ->
          set_reg cpu rd
            (if mask32 cpu.regs.(rs) < mask32 cpu.regs.(rt) then 1 else 0)
      | 16 -> set_reg cpu rd cpu.hi  (* mfhi *)
      | 18 -> set_reg cpu rd cpu.lo  (* mflo *)
      | 24 | 25 ->
          (* mult/multu *)
          let conv = if funct = 24 then sign32 else mask32 in
          let p = conv cpu.regs.(rs) * conv cpu.regs.(rt) in
          cpu.lo <- mask32 p;
          cpu.hi <- mask32 (p asr 32)
      | 26 | 27 ->
          (* div/divu *)
          let conv = if funct = 26 then sign32 else mask32 in
          let a = conv cpu.regs.(rs) and b = conv cpu.regs.(rt) in
          if b = 0 then begin
            cpu.lo <- 0;
            cpu.hi <- 0
          end
          else begin
            cpu.lo <- mask32 (a / b);
            cpu.hi <- mask32 (a mod b)
          end
      | _ -> raise (Decode_error (w, cpu.pc)))
  | 1 -> (
      (* REGIMM: bltz (rt=0) / bgez (rt=1) *)
      match rt with
      | 0 ->
          if sign32 cpu.regs.(rs) < 0 then
            next_pc := mask32 (cpu.pc + 4 + (sign16 imm lsl 2))
      | 1 ->
          if sign32 cpu.regs.(rs) >= 0 then
            next_pc := mask32 (cpu.pc + 4 + (sign16 imm lsl 2))
      | _ -> raise (Decode_error (w, cpu.pc)))
  | 6 ->
      (* blez *)
      if sign32 cpu.regs.(rs) <= 0 then
        next_pc := mask32 (cpu.pc + 4 + (sign16 imm lsl 2))
  | 7 ->
      (* bgtz *)
      if sign32 cpu.regs.(rs) > 0 then
        next_pc := mask32 (cpu.pc + 4 + (sign16 imm lsl 2))
  | 16 -> (
      (* COP0 subset: mfc0/mtc0 on status ($12) and EPC ($14), eret *)
      match rs with
      | 0 ->
          (* mfc0 rt, rd *)
          set_reg cpu rt
            (match rd with 12 -> if cpu.ie then 1 else 0 | 14 -> cpu.epc | _ -> 0)
      | 4 ->
          (* mtc0 rt, rd *)
          (match rd with
          | 12 -> cpu.ie <- cpu.regs.(rt) land 1 = 1
          | 14 -> cpu.epc <- mask32 cpu.regs.(rt)
          | _ -> ())
      | 16 when funct = 0x18 ->
          (* eret *)
          cpu.ie <- true;
          next_pc := cpu.epc
      | _ -> raise (Decode_error (w, cpu.pc)))
  | 2 -> next_pc := (cpu.pc land 0xF0000000) lor ((w land 0x3FFFFFF) lsl 2)
  | 3 ->
      set_reg cpu 31 (cpu.pc + 4);
      next_pc := (cpu.pc land 0xF0000000) lor ((w land 0x3FFFFFF) lsl 2)
  | 4 ->
      (* beq: no delay slot in this ISS *)
      if mask32 cpu.regs.(rs) = mask32 cpu.regs.(rt) then
        next_pc := mask32 (cpu.pc + 4 + (sign16 imm lsl 2))
  | 5 ->
      if mask32 cpu.regs.(rs) <> mask32 cpu.regs.(rt) then
        next_pc := mask32 (cpu.pc + 4 + (sign16 imm lsl 2))
  | 8 | 9 -> set_reg cpu rt (cpu.regs.(rs) + sign16 imm)  (* addi/addiu *)
  | 10 ->
      (* slti *)
      set_reg cpu rt (if sign32 cpu.regs.(rs) < sign16 imm then 1 else 0)
  | 11 ->
      set_reg cpu rt
        (if mask32 cpu.regs.(rs) < mask32 (sign16 imm) then 1 else 0)
  | 12 -> set_reg cpu rt (cpu.regs.(rs) land imm)  (* andi *)
  | 13 -> set_reg cpu rt (cpu.regs.(rs) lor imm)  (* ori *)
  | 14 -> set_reg cpu rt (cpu.regs.(rs) lxor imm)  (* xori *)
  | 15 -> set_reg cpu rt (imm lsl 16)  (* lui *)
  | 32 ->
      (* lb *)
      let b = read_byte cpu (mask32 (cpu.regs.(rs) + sign16 imm)) in
      set_reg cpu rt (if b land 0x80 <> 0 then b lor 0xFFFFFF00 else b)
  | 36 ->
      (* lbu *)
      set_reg cpu rt (read_byte cpu (mask32 (cpu.regs.(rs) + sign16 imm)))
  | 40 ->
      (* sb *)
      write_byte cpu (mask32 (cpu.regs.(rs) + sign16 imm)) cpu.regs.(rt)
  | 35 ->
      (* lw *)
      set_reg cpu rt (cpu.bus.read32 (mask32 (cpu.regs.(rs) + sign16 imm)))
  | 43 ->
      cpu.bus.write32 (mask32 (cpu.regs.(rs) + sign16 imm)) (mask32 cpu.regs.(rt))
  | _ -> raise (Decode_error (w, cpu.pc)));
  cpu.pc <- !next_pc;
  cpu.retired <- cpu.retired + 1
