module Circuit = Amsvp_netlist.Circuit
module Graph = Amsvp_netlist.Graph

type t = { circuit : Circuit.t; graph : Graph.t; dipoles : Eqn.t list }

let of_circuit circuit =
  let graph = Graph.of_circuit circuit in
  let dipoles = Circuit.dipole_equations circuit in
  { circuit; graph; dipoles }
