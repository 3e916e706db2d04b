type t = {
  ground : string;
  mutable devs : Component.t list;  (* reverse insertion order *)
  names : (string, Component.t) Hashtbl.t;
}

let create ?(ground = "gnd") () =
  { ground; devs = []; names = Hashtbl.create 16 }

let ground c = c.ground

let add c (d : Component.t) =
  if Hashtbl.mem c.names d.name then
    invalid_arg (Printf.sprintf "Circuit.add: duplicate device name %s" d.name);
  Hashtbl.add c.names d.name d;
  c.devs <- d :: c.devs

let add_resistor c ~name ~pos ~neg r =
  add c (Component.make ~name ~pos ~neg (Component.Resistor r))

let add_capacitor c ~name ~pos ~neg f =
  add c (Component.make ~name ~pos ~neg (Component.Capacitor f))

let add_inductor c ~name ~pos ~neg l =
  add c (Component.make ~name ~pos ~neg (Component.Inductor l))

let add_vsource c ~name ~pos ~neg s =
  add c (Component.make ~name ~pos ~neg (Component.Vsource s))

let add_isource c ~name ~pos ~neg s =
  add c (Component.make ~name ~pos ~neg (Component.Isource s))

let add_pwl_conductance c ~name ~pos ~neg ~g_on ~g_off ~threshold =
  add c (Component.make ~name ~pos ~neg (Component.Pwl_conductance { g_on; g_off; threshold }))

let has_pwl c =
  List.exists
    (fun (d : Component.t) ->
      match d.kind with Component.Pwl_conductance _ -> true | _ -> false)
    c.devs

let add_vcvs c ~name ~pos ~neg ~gain ~ctrl_pos ~ctrl_neg =
  add c (Component.make ~name ~pos ~neg (Component.Vcvs { gain; ctrl_pos; ctrl_neg }))

let devices c = List.rev c.devs
let find c name = Hashtbl.find_opt c.names name

let nodes c =
  let module S = Set.Make (String) in
  let s =
    List.fold_left
      (fun acc (d : Component.t) -> S.add d.pos (S.add d.neg acc))
      (S.singleton c.ground) c.devs
  in
  S.elements s

let node_count c = List.length (nodes c)
let device_count c = List.length c.devs

let input_signals c =
  let seen = Hashtbl.create 8 in
  List.concat_map Component.input_signals (devices c)
  |> List.filter (fun u ->
         if Hashtbl.mem seen u then false
         else begin
           Hashtbl.add seen u ();
           true
         end)

let dipole_equations c = List.map Component.dipole_equation (devices c)

let params c =
  List.concat_map
    (fun (d : Component.t) ->
      List.map (fun (p, v) -> (d.name ^ "." ^ p, v)) (Component.params d))
    (devices c)

(* "dev.param" -> (dev, param); parameter names contain no dot, so the
   split is on the last one (device names are unrestricted). *)
let split_key key =
  match String.rindex_opt key '.' with
  | Some i when i > 0 && i < String.length key - 1 ->
      (String.sub key 0 i, String.sub key (i + 1) (String.length key - i - 1))
  | Some _ | None ->
      invalid_arg
        (Printf.sprintf "Circuit.override: malformed key %S (want dev.param)"
           key)

let override c bindings =
  let by_dev = Hashtbl.create (List.length bindings) in
  List.iter
    (fun (key, v) ->
      let dev, p = split_key key in
      if not (Hashtbl.mem c.names dev) then
        invalid_arg
          (Printf.sprintf "Circuit.override: unknown device %s in key %s (have: %s)"
             dev key
             (String.concat ", " (List.map (fun (d : Component.t) -> d.name)
                (devices c))));
      Hashtbl.add by_dev dev (p, v))
    bindings;
  let c' = create ~ground:c.ground () in
  List.iter
    (fun (d : Component.t) ->
      let d =
        List.fold_left
          (fun d (p, v) -> Component.with_param d p v)
          d
          (List.rev (Hashtbl.find_all by_dev d.name))
      in
      add c' d)
    (devices c);
  c'

let structure_key c =
  String.concat ";"
    (("gnd=" ^ c.ground) :: List.map Component.structure_tag (devices c))

(* Topology diagnostics (lint passes over the elaborated network).

   All passes work on the undirected device graph; each returns Diag
   findings so that the lint driver can attach source spans (via the
   contribution that created the device) and the legacy [validate]
   below can keep its string interface. *)

module Diag = Amsvp_diag.Diag

(* Reachability from [c.ground] over the edges selected by [keep].
   Returns the visited-set membership test. *)
let reach c keep =
  let adj = Hashtbl.create 16 in
  let link a b =
    let l = try Hashtbl.find adj a with Not_found -> [] in
    Hashtbl.replace adj a (b :: l)
  in
  List.iter
    (fun (d : Component.t) ->
      if keep d then begin
        link d.pos d.neg;
        link d.neg d.pos
      end)
    c.devs;
  let visited = Hashtbl.create 16 in
  let rec visit n =
    if not (Hashtbl.mem visited n) then begin
      Hashtbl.add visited n ();
      List.iter visit (try Hashtbl.find adj n with Not_found -> [])
    end
  in
  visit c.ground;
  fun n -> Hashtbl.mem visited n

let is_vsource_like (d : Component.t) =
  match d.kind with
  | Component.Vsource _ | Component.Vcvs _ -> true
  | _ -> false

(* A zero-valued DC current source is an ideal voltmeter (the probes
   [Flow.insert_probes] adds): it carries no current, so it is exempt
   from the return-path requirement of a real current source. *)
let is_isource_like (d : Component.t) =
  match d.kind with
  | Component.Isource (Component.Dc 0.0) -> false
  | Component.Isource _ | Component.Vccs _ -> true
  | _ -> false

(* A cycle made only of voltage-defined branches fixes the same node
   potential twice: detected with union-find over the V-edge subgraph —
   an edge whose endpoints are already connected closes a loop. *)
let vsource_loops c =
  let parent = Hashtbl.create 16 in
  let rec root n =
    match Hashtbl.find_opt parent n with
    | None -> n
    | Some p ->
        let r = root p in
        Hashtbl.replace parent n r;
        r
  in
  List.filter_map
    (fun (d : Component.t) ->
      if not (is_vsource_like d) then None
      else
        let rp = root d.pos and rn = root d.neg in
        if rp = rn then Some d.name
        else begin
          Hashtbl.replace parent rp rn;
          None
        end)
    (devices c)

let diagnose c =
  if c.devs = [] then
    [ Diag.error "AMS024" "circuit has no devices" ]
  else begin
    let connected = reach c (fun _ -> true) in
    let floating = List.filter (fun n -> not (connected n)) (nodes c) in
    let floating_findings =
      List.map
        (fun n ->
          Diag.error ~subject:n "AMS020"
            (Printf.sprintf "node %s is not connected to ground" n))
        floating
    in
    let stranded_devs =
      List.filter
        (fun (d : Component.t) -> not (connected d.pos || connected d.neg))
        (devices c)
    in
    let stranded_findings =
      match stranded_devs with
      | [] -> []
      | ds ->
          [ Diag.error
              ~subject:(List.hd ds).Component.name "AMS021"
              (Printf.sprintf "devices unreachable from ground: %s"
                 (String.concat ", "
                    (List.map (fun (d : Component.t) -> d.Component.name) ds)))
          ]
    in
    let loop_findings =
      List.map
        (fun name ->
          Diag.error ~subject:name "AMS022"
            (Printf.sprintf
               "voltage source %s closes a loop of voltage-defined branches"
               name))
        (vsource_loops c)
    in
    (* A current-defined branch whose endpoints have no other return
       path to ground forms a cutset of current sources: KCL at the cut
       then fixes the source current twice. Detect by removing the
       I-defined edges and looking for current sources that bridge the
       now-disconnected region (ignore endpoints that were floating
       outright — those are already AMS020). *)
    let reach_no_i = reach c (fun d -> not (is_isource_like d)) in
    let cutset_findings =
      List.filter_map
        (fun (d : Component.t) ->
          if
            is_isource_like d
            && connected d.pos && connected d.neg
            && not (reach_no_i d.pos && reach_no_i d.neg)
          then
            Some
              (Diag.error ~subject:d.name "AMS023"
                 (Printf.sprintf
                    "current source %s has no conductive return path (current-source cutset)"
                    d.name))
          else None)
        (devices c)
    in
    floating_findings @ stranded_findings @ loop_findings @ cutset_findings
  end

let grounded c =
  let connected = reach c (fun _ -> true) in
  match List.partition (fun (d : Component.t) -> connected d.pos) (devices c)
  with
  | _, [] -> c
  | keep, _ ->
      let g = create ~ground:c.ground () in
      List.iter (add g) keep;
      g

let validate c =
  let findings = diagnose c in
  let errors = List.filter (fun f -> f.Diag.severity = Diag.Error) findings in
  match errors with
  | [] -> Ok ()
  | fs ->
      (* Keep the historical phrasing for floating nodes; other findings
         fall back to their Diag messages. *)
      let floating =
        List.filter_map
          (fun f -> if f.Diag.code = "AMS020" then f.Diag.subject else None)
          fs
      in
      let msgs =
        (if floating = [] then []
         else
           [ Printf.sprintf "nodes not connected to ground: %s"
               (String.concat ", " floating)
           ])
        @ List.filter_map
            (fun f ->
              if f.Diag.code = "AMS020" then None else Some f.Diag.message)
            fs
      in
      Error (String.concat "; " msgs)

let pp ppf c =
  Format.fprintf ppf "@[<v>circuit (ground=%s, %d nodes, %d devices)@,%a@]"
    c.ground (node_count c) (device_count c)
    (Format.pp_print_list Component.pp)
    (devices c)
