(** The multi-pass static analyzer behind [amsvp lint].

    One entry point runs every pass the source admits, in pipeline
    order, accumulating {!Amsvp_diag.Diag} findings instead of raising:

    + {b front-end} — lexing ([AMS001]) and parsing ([AMS002]) errors,
      with their [file:line:col];
    + {b AST passes} (both languages: VHDL-AMS is parsed onto the same
      AST, its quantities as named branches): undeclared nets
      ([AMS010]), unused declarations
      ([AMS011]), malformed or direction-violating branch accesses
      ([AMS012]), duplicate ([AMS013]) and self-referential ([AMS014])
      contributions, nested [ddt]/[idt] ([AMS015]) and parameters with
      default 0 used as divisors ([AMS016]);
    + {b elaboration} — hierarchy, name and parameter errors become
      located [AMS003] findings;
    + {b topology} — {!Amsvp_netlist.Circuit.diagnose} over the
      recognised network ([AMS020]–[AMS024]), with each finding's
      subject resolved back to the span of the contribution that
      created the device or node;
    + {b structural solvability} — {!Amsvp_core.Check.solvability} over
      the enriched equation map ([AMS030]/[AMS031]);
    + {b abstraction safety} — {!Amsvp_core.Check.abstraction_safety}
      over the assembled definitions ([AMS040]/[AMS041]); on the
      signal-flow route, reads of never-defined quantities are
      [AMS030] and zero-delay ordering violations are [AMS040] errors
      (they are fatal to the direct conversion);
    + {b value ranges} — once a route yields a signal-flow program
      with no errors, {!Absint} analyses it to a widened fixpoint with
      inputs confined to [±input_bound]: guaranteed division by zero
      ([AMS060]), possible NaN/infinity at an output ([AMS061]),
      proven-constant or dead definitions ([AMS062]) and proven output
      bounds beyond the declared amplitude budget ([AMS063]).

    Passes degrade gracefully: an error at one stage skips the stages
    that depend on it but never the independent ones, so one run
    reports as much as the model admits. *)

type lang = [ `Verilog_ams | `Vhdl_ams ]

val absint_findings :
  ?amplitude_budget:float ->
  ?report_dead:bool ->
  span_of_target:(Expr.var -> Amsvp_diag.Diag.span option) ->
  Amsvp_sf.Sfprogram.t ->
  Amsvp_diag.Diag.finding list
(** The value-range pass alone, over an already-obtained signal-flow
    program: AMS060–AMS063 as in {!lint}, with every input confined to
    [±1] (the default [input_bound] of {!lint}). [report_dead] (default true)
    controls the dead-definition half of AMS062 — turn it off for
    solver-generated programs whose auxiliary definitions are
    legitimately unused. [span_of_target] anchors findings to source
    spans when the caller knows them ([fun _ -> None] otherwise). The
    sweep service uses this to screen a prepared sweep without
    re-parsing any source. *)

val lint :
  ?lang:lang ->
  ?top:string ->
  ?inputs:string list ->
  ?dt:float ->
  ?amplitude_budget:float ->
  ?input_bound:float ->
  file:string ->
  string ->
  Amsvp_diag.Diag.finding list
(** [lint ~file src] analyses the source text. [lang] defaults to
    [`Verilog_ams]; [top] to the last module (entity) of the design;
    [inputs] (VHDL-AMS only) to []]; [dt] to [50e-9]. The outputs
    analysed are the ground-referenced node voltages of a conservative
    network, and the targets driving output ports of a signal-flow
    model.
    [amplitude_budget] declares the |output| budget [AMS063] checks
    (absent: the pass is off); [input_bound] confines every input
    signal to [±input_bound] for the value-range passes (default 1).
    The result is unfiltered and unsorted — pass it through
    {!Amsvp_diag.Diag.apply} with the desired configuration. *)
