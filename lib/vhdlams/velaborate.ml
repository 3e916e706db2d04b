module Ast = Amsvp_vams.Ast
module E = Amsvp_vams.Elaborate

exception Elab_error = E.Elab_error

let flatten design ~top ~inputs =
  let mark (m : Ast.module_def) =
    if m.Ast.name <> top then m
    else begin
      List.iter
        (fun p ->
          if not (List.mem p m.Ast.ports) then
            raise
              (Elab_error
                 (Printf.sprintf "top entity %s has no port %s" top p, None)))
        inputs;
      let dir d ports =
        { Ast.idesc = Ast.Port_direction (d, ports); ispan = m.Ast.mspan }
      in
      let outputs = List.filter (fun p -> not (List.mem p inputs)) m.Ast.ports in
      {
        m with
        Ast.items = dir Ast.Input inputs :: dir Ast.Output outputs :: m.Ast.items;
      }
    end
  in
  E.flatten ~lang:`Vhdl_ams (List.map mark design) ~top

let parse_and_abstract src ~top ~inputs ~outputs ~dt =
  E.abstract (flatten (Vparser.parse src) ~top ~inputs) ~outputs ~dt
