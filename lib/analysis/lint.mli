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
      located [AMS003] findings ({!Amsvp_vams.Elaborate.front_end}, the
      same mapping the CLI uses);
    + {b the flow} — one {!Amsvp_core.Flow.run} (conservative route) or
      {!Amsvp_core.Flow.signal_flow} (signal-flow route), located by
      {!Amsvp_vams.Elaborate.spans}: topology ([AMS020]–[AMS024]),
      structural solvability ([AMS030]/[AMS031]) and the assemble and
      solve failures, or the signal-flow route's undefined reads
      ([AMS030]) and ordering violations ([AMS040]) — the findings
      [amsvp abstract] stops at. A floating island does not stop the
      run: it continues on the grounded part of the network;
    + {b abstraction safety} — {!Amsvp_core.Check.abstraction_safety}
      over the assembled definitions ([AMS040]/[AMS041]);
    + {b value ranges} — {!Absint} analyses the program the flow
      produced to a widened fixpoint with inputs confined to
      [±input_bound]: guaranteed division by zero
      ([AMS060]), possible NaN/infinity at an output ([AMS061]),
      proven-constant or dead definitions ([AMS062]) and proven output
      bounds beyond the declared amplitude budget ([AMS063]).

    Passes degrade gracefully: an error at one stage skips the stages
    that depend on it but never the independent ones, so one run
    reports as much as the model admits. *)

type lang = Amsvp_vams.Elaborate.lang

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
