(** A MIPS-I subset instruction-set simulator.

    The digital core of the paper's virtual platform is "a MIPS-based
    CPU executing assembly instructions contained in the memory"
    (§V-B). This ISS executes one instruction per [step] through a
    word-addressed bus callback, supporting the integer subset a
    polling/IO workload needs: ALU ops (register and immediate),
    shifts, [lui], loads/stores, branches, jumps and [jal]/[jr].

    Unsupported encodings raise {!Decode_error} rather than silently
    executing as nops. *)

type bus = { read32 : int -> int; write32 : int -> int -> unit }
(** Word-aligned physical memory interface; addresses and data are
    OCaml ints holding 32-bit values. *)

type t

exception Decode_error of int * int
(** opcode word, pc *)

val create : ?pc:int -> bus -> t

val step : t -> unit
(** Fetch, decode and execute one instruction. A pending interrupt is
    taken first when interrupts are enabled: the return address is
    saved to EPC, interrupts are masked and control transfers to
    the fixed handler address 0x80. *)

val reg : t -> int -> int
(** Register file access (register 0 is hard-wired to zero). *)

val instructions_retired : t -> int

(** {1 Interrupts}

    A minimal external-interrupt model: one level-triggered request
    line, an enable bit (COP0-style status, managed by [mtc0 rt, $12]
    and restored by [eret]) and an EPC register ([mfc0 rt, $14]). *)

val set_irq : t -> bool -> unit
(** Drive the external interrupt request line. *)

val interrupts_enabled : t -> bool
val interrupts_taken : t -> int
