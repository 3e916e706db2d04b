(** Step 4 — Code generation (paper §IV-D).

    Emits a solved signal-flow program in the three target languages
    of the paper: plain C++ (Fig. 7.b), SystemC-DE (an [SC_MODULE]
    clocked at the model timestep) and SystemC-AMS/TDF (an
    [SCA_TDF_MODULE] with [set_timestep] and [processing]).

    The output is the bytecode the runners execute: the step plan of
    {!Amsvp_sf.Sfprogram.plan} (live assignments, history rotations)
    lowered by {!Amsvp_sf.Compile} into one artifact and printed by its
    one printer, rotations included. Slots are named after their variables, constants are
    literals that read back to the same doubles, temporaries are
    [double tN] locals. Compiled with [-ffp-contract=off], the model
    steps bit-identically to [Sfprogram.Runner], except that a NaN
    computed from two NaN operands may differ in sign and payload: C++
    leaves to the compiler which operand's NaN a [+] or [*] returns. *)

type target = Cpp | Systemc_de | Systemc_ams_tdf

val target_name : target -> string
(** ["C++"], ["SC-DE"], ["SC-AMS/TDF"] — the labels used in the
    paper's tables. *)

val sanitize_ident : string -> string
(** The C++ identifier a name becomes: other characters turn into
    ['_'], and a leading digit gets an ["m_"] prefix. {!emit} names the
    class after the program and each output accessor [<o>_value]
    after the output's C name this way. *)

val emit : target -> Amsvp_sf.Sfprogram.t -> string
(** Complete compilation unit for the given target. It includes
    [<cmath>], and [<systemc>] or [<systemc-ams>] for the SystemC
    targets. *)

val emit_step_body : Amsvp_sf.Sfprogram.t -> string
(** Just the statements of one step — temporaries, the bytecode, the
    history rotations, all printed from the artifact — with inputs
    named after their signals: the body shared by all three targets
    (and the code shown in Fig. 7.b). *)
