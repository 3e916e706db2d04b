(** Abstraction explainability: a structured account of what the flow
    decided, exportable as pretty text or JSON ([amsvp explain]).

    For every quantity in the cone of influence the explanation names
    the {e one} defining equation the assembler chose — the pseudo-
    variable it was fetched for, the originating device/topology
    equation and the other members of the consumed equivalence class
    (all disabled by that choice, §IV-B) — together with the solver
    plan: [`Auto] resolution, [ddt]/[idt] discretisation decisions,
    relaxation-lagged state variables, Gauss-Jordan elimination pivots
    and the PWL region count. Building it is cheap (structure sharing
    with the flow's own data); rendering is on demand. *)

type provenance =
  | From_class of {
      class_id : int;
      origin : Eqn.t;  (** the class's original equation *)
      defines : Eqn.pseudo;  (** the pseudo-variable fetched *)
      disabled : Eqmap.variant list;
          (** the other variants of the consumed class *)
    }
  | Direct
      (** the equation came verbatim from a signal-flow source; there
          was no choice to make *)

type choice = {
  target : Expr.var;
  rhs : Expr.t;
      (** the chosen defining expression ([ddt(target) = rhs] for an
          integration, [target = rhs] otherwise) *)
  integrates : bool;
  provenance : provenance;
}

type t = {
  model : string;
  dt : float;
  requested_mode : Solve.mode;
  plan : Solve.plan;
  inputs : string list;
  outputs : Expr.var list;
  classes_total : int;  (** equation classes in the enriched map *)
  choices : choice list;
      (** exactly one per solved variable, dependencies first *)
}

val of_abstraction :
  name:string ->
  dt:float ->
  mode:Solve.mode ->
  Eqmap.t ->
  Assemble.result ->
  Solve.plan ->
  t
(** Assemble the explanation from the flow's intermediate products
    (call after {!Assemble.assemble}, with the map still carrying its
    post-assembly disabled classes). *)

val of_signal_flow : Amsvp_sf.Sfprogram.t -> t
(** Trivial explanation for a model that was already signal-flow: one
    [Direct] choice per assignment. *)

val to_json : t -> string
(** One compact JSON document; [cone] is [List.length choices], the
    cone-of-influence size. *)

val to_text : t -> string
