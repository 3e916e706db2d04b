(** Minimal JSON codec: the one reader and the one printer every JSON
    document of this repo goes through — [BENCH_results.json], sweep
    reports, checkpoints, service frames, journal JSONL lines, Chrome
    traces, lint and SARIF reports — without pulling in an external
    dependency. Full RFC 8259 value grammar (objects, arrays, strings
    with escapes, numbers, booleans, null); numbers are all read as
    OCaml floats, which is exact for the magnitudes the sinks emit.

    {b The float rule.} {!print} writes every [Num v] one way: [%.17g]
    when [v] is finite — which round-trips every double bit for bit and
    prints integral values below 1e17 as plain integers, so an [int]
    carried as [Num (float_of_int i)] keeps its [%d] bytes — and the
    strings ["NaN"], ["Infinity"], ["-Infinity"] otherwise, since JSON
    has no literal for them. {!to_float} (and {!mem_float}) read those
    strings back as the floats they name. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list  (** fields in document order *)

exception Parse_error of string * int
(** [(message, byte offset)] of the first offending character. *)

val parse : string -> t
(** Parse one JSON document. Trailing whitespace is allowed; any other
    trailing content raises.
    @raise Parse_error on malformed input. *)

val parse_lines : string -> t list
(** Parse a JSONL document: one JSON value per non-empty line.
    @raise Parse_error on the first malformed line (offset is within
    that line's text). *)

(** {1 Accessors} — total lookups returning [option]. *)

val member : string -> t -> t option
(** Field of an object ([None] on missing field or non-object). *)

val to_float : t -> float option
(** [Num] as float. Also accepts the journal's non-finite float
    encoding: the strings ["NaN"], ["Infinity"], ["-Infinity"]. *)

val to_string : t -> string option

val mem_float : string -> t -> float option
val mem_string : string -> t -> string option
val mem_bool : string -> t -> bool option
val mem_list : string -> t -> t list
(** [mem_list k j] is the array at field [k], or [[]] when absent. *)

(** {1 Printer} *)

val print : t -> string
(** One compact document: no whitespace, object fields in list order,
    no trailing newline. Strings escape ["\""], ["\\"], newline,
    carriage return and tab by their short forms and every other byte
    below 0x20 as [\u00XX]; all other bytes are copied verbatim.
    Numbers follow the float rule above, so [parse (print v)] gives
    back [v] except that a non-finite [Num] comes back as its [Str]. *)
