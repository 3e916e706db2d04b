(** Source-located diagnostics for AMS models and the abstraction flow.

    Every front-end, topology, solvability and abstraction-safety check
    reports through this one scheme: a stable code ([AMS001]...), a
    severity, a message and — whenever the finding can be traced back
    to the source text — a [file:line:col] span. Findings render both
    as compiler-style text and as machine-readable JSON ([amsvp lint
    --format json]), and a configuration controls per-code suppression
    and warnings-as-errors. *)

type severity = Error | Warning | Info

type span = { file : string; line : int; col : int }
(** A source position. [file] is ["<input>"] for in-memory sources. *)

val span : ?file:string -> int -> int -> span

type finding = {
  code : string;  (** stable diagnostic code, e.g. ["AMS020"] *)
  severity : severity;
  message : string;
  span : span option;  (** source anchor, when one is known *)
  subject : string option;
      (** the offending object in machine-readable form — a net, device,
          parameter or quantity name — letting later passes attach a
          span the reporting layer did not know *)
}

exception Rejected of finding
(** Raised by pre-flight gates (e.g. {!val:Amsvp_core.Flow} via its
    checks) instead of a deep solver exception. *)

val error : ?span:span -> ?subject:string -> string -> string -> finding
(** [error code message]. @raise Invalid_argument on an unknown code
    (codes must be registered in {!codes}); so do {!warning} and
    {!info}. *)

val warning : ?span:span -> ?subject:string -> string -> string -> finding
val info : ?subject:string -> string -> string -> finding

val with_span : finding -> span -> finding
(** Attach a span to a finding that lacks one (no-op when present). *)

(** {1 The code registry} *)

type code_info = { id : string; default_severity : severity; title : string }

val is_code : string -> bool

(** {1 Reports} *)

type config = {
  werror : bool;  (** treat warnings as errors *)
  suppress : string list;  (** codes to drop entirely *)
}

val default_config : config

val apply : config -> finding list -> finding list
(** Drop suppressed codes, upgrade warnings under [werror], and sort by
    (file, line, col, code). *)

val error_count : finding list -> int
(** Findings with [Error] severity (after {!apply}, this is what decides
    a non-zero exit). *)

val to_text : finding -> string
(** One compiler-style line:
    [file:line:col: severity[CODE]: message]. *)

val report_to_text : finding list -> string
(** One line per finding plus a trailing summary line. *)

val finding_json : finding -> Amsvp_util.Json.t
(** [{code, severity, message, file, line, col, subject}]; the span
    fields are omitted when there is no span, [subject] when there is
    none. The service protocol's rejection frames carry the same
    objects. *)

val finding_of_json : Amsvp_util.Json.t -> finding option
(** Inverse of {!finding_json}: [None] when [code], [message] or a
    known [severity] is missing. The span is kept only when [file],
    [line] and [col] are all present. *)

val report_to_json : ?file:string -> finding list -> string
(** [{"file":...,"findings":[...],"errors":n,"warnings":n}] with one
    {!finding_json} object per finding, printed compact by
    {!Amsvp_util.Json.print}. *)

val report_to_sarif : finding list -> string
(** SARIF 2.1.0 ([amsvp lint --format sarif]): one run, the fired rule
    ids with their registry titles under [tool.driver.rules], one
    result per finding with severity mapped to
    [error]/[warning]/[note] and the span (when known) as a
    [physicalLocation]. Findings should already be ordered by
    {!apply}. *)
