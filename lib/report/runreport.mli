(** Run reports: render a run's journal (JSONL) and bench results
    (BENCH_results.json) into a self-time profile, convergence
    histograms, cache hit rates and a health rollup — and compare two
    bench result files for per-section performance regressions.

    This is the reading side of the observability layer: everything
    here consumes the documents the sinks write; nothing here touches
    the live registries. *)

module Json = Amsvp_util.Json

(** {1 Building a report} *)

type span_profile = {
  sp_section : string;
  sp_name : string;
  sp_calls : int;
  sp_total_s : float;
  sp_self_s : float;
}

(** Summed over the journal's [mna]/[newton.run] run summaries. *)
type convergence = {
  cv_steps : int;  (** reporting steps of those runs *)
  cv_residual_hist : (float * int) list;
      (** non-cumulative counts per decade upper bound; the final
          entry's bound is [infinity] *)
  cv_converged_hist : (int * int) list;
      (** converged-at-iteration [k] -> count; [0] = never converged
          within the budget *)
  cv_wasted : int;  (** Newton passes taken after convergence *)
  cv_total_iters : int;  (** total passes from [newton.run] events *)
  cv_max_residual : float;
  cv_max_stress : float;
  cv_singular : int;  (** singular-pivot events *)
  cv_conditioning : int;  (** conditioning warnings *)
}

type cache = {
  ca_points : int;
  ca_hits : int;
  ca_misses : int;
  ca_wall_mean_s : float;
  ca_unhealthy : int;
}

type health = {
  he_warn : int;
  he_error : int;
  he_kinds : (string * int) list;  (** ["cat/name"] -> count, sorted *)
}

type traffic = {
  tf_runs : int;
  tf_ticks : int;
  tf_reads : int;  (** register reads, summed over runs x ticks *)
  tf_writes : int;
  tf_flops : int;
}

type origin_row = {
  og_origin : string;
      (** journal origin tag; untagged events render as ["main"] *)
  og_events : int;
  og_points : int;  (** [sweep]/[point] events from this process *)
}

type t = {
  r_journal_events : int;
  r_journal_dropped : int;
      (** events lost by the rings, from the [journal.dropped] trailer *)
  r_profile : span_profile list;  (** sorted by self time, descending *)
  r_convergence : convergence option;
  r_cache : cache option;
  r_health : health option;
  r_traffic : traffic option;
  r_origins : origin_row list;
      (** per-process breakdown of a merged multi-process journal,
          sorted by origin; [[]] when no event carries an origin tag *)
}

val build : ?top:int -> ?journal:Json.t list -> ?bench:Json.t -> unit -> t
(** Assemble a report from whichever inputs are at hand: [journal] is
    a parsed journal (one {!Json.t} per JSONL line), [bench] a parsed
    BENCH_results.json. [top] bounds the profile length (default 15).
    Sections whose input is absent are [None]/empty. *)

val to_text : t -> string
(** Human-readable report with ASCII histograms. *)

val to_json : t -> string
(** The same report as one compact JSON document
    ({!Amsvp_util.Json.print}). *)

(** {1 Comparing runs} *)

type regression = {
  g_where : string;  (** e.g. ["sections/table1/mna.spice_like"] *)
  g_metric : string;  (** ["self_s"], ["total_s"] or ["time_s"] *)
  g_baseline : float;
  g_current : float;
  g_ratio : float;  (** current / baseline *)
}

val compare_bench :
  baseline:Json.t -> current:Json.t -> threshold:float -> regression list
(** Per-section regression check between two BENCH_results.json
    documents: every bench row ([time_s], keyed by
    table/comp/target/method) and every section span ([self_s] and
    [total_s]) present in both documents is compared, and entries where
    [current > baseline * (1 + threshold)] are returned, worst ratio
    first. Metrics below 1 ms in the baseline are skipped — at that
    scale the comparison would measure scheduler noise, not the code.
    [threshold] is a fraction (0.15 = 15%). *)

val compared_metrics : baseline:Json.t -> current:Json.t -> int
(** How many metrics {!compare_bench} would examine — present in both
    documents and above the noise floor. *)

val regressions_to_text :
  threshold:float -> compared:int -> regression list -> string
(** Render a {!compare_bench} outcome, including the all-clear form.
    [compared] is the number of metrics examined. *)
