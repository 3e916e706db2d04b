(** Value-change-dump (VCD) export of recorded traces.

    Lets the waveforms produced by any of the back-ends (analog output
    samples, ADC readings) be inspected in standard viewers (GTKWave
    etc.). Signals are emitted as [real] variables; samples from all
    traces are merged on a common time axis and values are dumped only
    when they change. *)

val to_string : ?timescale_ps:int -> (string * Trace.t) list -> string
(** [to_string signals] renders a VCD document; [timescale_ps] is the
    tick size (default 1000 = 1 ns). Sample times are rounded to the
    nearest tick.
    @raise Invalid_argument on an empty signal list or duplicate
    names. *)

val write_file : string -> (string * Trace.t) list -> unit
(** Write {!to_string} output to a file. *)
