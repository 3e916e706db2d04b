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
      let dir =
        {
          Ast.idesc = Ast.Port_direction (Ast.Input, inputs);
          ispan = m.Ast.mspan;
        }
      in
      { m with Ast.items = dir :: m.Ast.items }
    end
  in
  E.flatten (List.map mark design) ~top

let parse_and_abstract src ~top ~inputs ~outputs ~dt =
  E.abstract (flatten (Vparser.parse src) ~top ~inputs) ~outputs ~dt
