(** Report sinks for sweep summaries.

    Self-contained emitters in the style of the {!Amsvp_obs.Obs} sinks:
    a JSON document with the spec echo, aggregate statistics and every
    per-point result, and a flat CSV table (one row per point, one
    column per overridden parameter) for spreadsheet-side analysis.
    The JSON is compact ({!Amsvp_util.Json.print}), so non-finite
    numbers follow its float rule (["NaN"]/["Infinity"] strings); CSV
    leaves them as empty cells.

    [timings] (default [true]) controls the volatile wall-clock fields
    ([total_s], per-point [wall_s] and the [wall_s] stats block): with
    [~timings:false] they are scrubbed (zeroed / omitted), making the
    report a pure function of the point values — two runs of the same
    spec, including a checkpoint-resumed one, compare byte-for-byte. *)

val json : ?timings:bool -> Runner.summary -> string
val csv : ?timings:bool -> Runner.summary -> string

val write : basename:string -> Runner.summary -> string list
(** [write ~basename summary] writes [basename ^ ".json"] and
    [basename ^ ".csv"], timings included; returns the paths
    written. *)
