module Trace = Amsvp_util.Trace

type t = {
  program : Sfprogram.t;
  inputs : Expr.var array;
  values : (Expr.var, float) Hashtbl.t;  (** every sample the program keeps *)
  depth : (Expr.base, int) Hashtbl.t;  (** deepest delay read, per quantity *)
}

let create (p : Sfprogram.t) =
  let values = Hashtbl.create 64 and depth = Hashtbl.create 16 in
  let touch (v : Expr.var) =
    Hashtbl.replace values v 0.0;
    if v.delay > Option.value ~default:0 (Hashtbl.find_opt depth v.base) then
      Hashtbl.replace depth v.base v.delay
  in
  let inputs = Array.of_list (List.map Expr.signal p.inputs) in
  Array.iter touch inputs;
  List.iter
    (fun (a : Sfprogram.assignment) ->
      touch a.target;
      Expr.Var_set.iter touch (Expr.vars a.expr))
    p.assignments;
  Hashtbl.iter
    (fun base d -> for delay = 1 to d do touch { base; delay } done)
    depth;
  { program = p; inputs; values; depth }

let read r v =
  match Hashtbl.find_opt r.values v with
  | Some x -> x
  | None ->
      invalid_arg
        (Printf.sprintf "Reference.read(%s): unknown variable %s"
           r.program.name (Expr.var_name v))

let step r ~inputs =
  if Array.length inputs <> Array.length r.inputs then
    invalid_arg
      (Printf.sprintf "Reference.step(%s): expected %d input(s), got %d"
         r.program.name (Array.length r.inputs) (Array.length inputs));
  Array.iteri (fun i v -> Hashtbl.replace r.values v inputs.(i)) r.inputs;
  List.iter
    (fun (a : Sfprogram.assignment) ->
      Hashtbl.replace r.values a.target (Expr.eval (read r) a.expr))
    r.program.assignments;
  Hashtbl.iter
    (fun base d ->
      for delay = d downto 1 do
        Hashtbl.replace r.values { base; delay }
          (read r { base; delay = delay - 1 })
      done)
    r.depth

let run (p : Sfprogram.t) ~stimuli ~t_stop =
  let r = create p and out = List.hd p.outputs in
  let nsteps = int_of_float (Float.round (t_stop /. p.dt)) in
  let trace = Trace.create ~capacity:(nsteps + 1) () in
  Trace.add trace ~time:0.0 ~value:(read r out);
  for i = 1 to nsteps do
    let time = float_of_int i *. p.dt in
    step r ~inputs:(Array.map (fun f -> f time) stimuli);
    Trace.add trace ~time ~value:(read r out)
  done;
  trace
