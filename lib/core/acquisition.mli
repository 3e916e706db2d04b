(** Step 1 — Acquisition (paper §IV-A).

    Gathers the constitutive dipole equations of the network into the
    optimised multimap structure and retrieves the topology graph
    [G = (N, B)] from the same set of equations. Complexity O(|B|). *)

type t = {
  circuit : Amsvp_netlist.Circuit.t;
  graph : Amsvp_netlist.Graph.t;
  dipoles : Eqn.t list;  (** one per branch, in netlist order *)
}

val of_circuit : Amsvp_netlist.Circuit.t -> t
(** @raise Invalid_argument on a structurally invalid circuit
    (floating nodes, no devices). *)
