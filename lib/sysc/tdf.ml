type port = {
  port_name : string;
  default_rate : int;
  mutable tokens : float array;
  mutable read_base : int;
  mutable write_base : int;
  mutable producer : int;  (* module id, -1 until connected *)
  mutable producer_rate : int;
  mutable consumers : (int * int) list;  (* module id, rate *)
}

type tdf_module = {
  id : int;
  mod_name : string;
  reads : (port * int) array;
  writes : (port * int) array;
  body : int -> unit;  (* repetition index within the activation *)
}

type cluster = {
  kernel : De.t;
  cname : string;
  timestep_ps : int;
  mutable ports : port list;
  mutable modules : tdf_module list;  (* reverse registration order *)
  mutable schedule : (tdf_module * int) array;  (* module, repetitions *)
  mutable started : bool;
  mutable activations : int;
  tick : De.Event.event;
}

let create_cluster kernel ~name ~timestep_ps =
  if timestep_ps <= 0 then
    invalid_arg "Tdf.create_cluster: timestep must be positive";
  {
    kernel;
    cname = name;
    timestep_ps;
    ports = [];
    modules = [];
    schedule = [||];
    started = false;
    activations = 0;
    tick = De.Event.create kernel (name ^ ".tick");
  }

let port c port_name ~rate =
  if rate < 1 then invalid_arg "Tdf.port: rate must be >= 1";
  let p =
    {
      port_name;
      default_rate = rate;
      tokens = Array.make rate 0.0;
      read_base = 0;
      write_base = 0;
      producer = -1;
      producer_rate = rate;
      consumers = [];
    }
  in
  c.ports <- p :: c.ports;
  p

let add_module_rated c ~name ~reads ~writes body =
  if c.started then invalid_arg "Tdf.add_module: cluster already started";
  let id = List.length c.modules in
  let m =
    {
      id;
      mod_name = name;
      reads = Array.of_list reads;
      writes = Array.of_list writes;
      body;
    }
  in
  List.iter
    (fun (p, rate) ->
      if rate < 1 then invalid_arg "Tdf.add_module: rate must be >= 1";
      if p.producer >= 0 then
        invalid_arg
          (Printf.sprintf "Tdf: port %s has several producers" p.port_name);
      p.producer <- id;
      p.producer_rate <- rate)
    writes;
  List.iter
    (fun (p, rate) ->
      if rate < 1 then invalid_arg "Tdf.add_module: rate must be >= 1";
      p.consumers <- (id, rate) :: p.consumers)
    reads;
  c.modules <- m :: c.modules;
  m

let add_module c ~name ~reads ~writes body =
  add_module_rated c ~name
    ~reads:(List.map (fun p -> (p, p.default_rate)) reads)
    ~writes:(List.map (fun p -> (p, p.default_rate)) writes)
    (fun _rep -> body ())

let read p i = p.tokens.(p.read_base + i)
let write p i v = p.tokens.(p.write_base + i) <- v

let to_de c ~name p =
  let s = De.Signal.float_signal c.kernel ~name:(name ^ ".sig") 0.0 in
  let _ =
    add_module c ~name ~reads:[ p ] ~writes:[] (fun () ->
        De.Signal.write s (read p 0))
  in
  s

(* Repetition vector from the SDF balance equations:
   producer_rate * reps(producer) = consumer_rate * reps(consumer) for
   every connection. Solved over rationals by propagation, then scaled
   to the smallest integer vector. *)
let rec gcd a b = if b = 0 then a else gcd b (a mod b)

let compute_repetitions c mods =
  let n = Array.length mods in
  let reps = Array.make n None in
  (* adjacency: (neighbour, my_rate, their_rate) meaning
     my_rate * reps(me) = their_rate * reps(neighbour). *)
  let adj = Array.make n [] in
  List.iter
    (fun p ->
      if p.producer >= 0 then
        List.iter
          (fun (consumer, crate) ->
            adj.(p.producer) <- (consumer, p.producer_rate, crate) :: adj.(p.producer);
            adj.(consumer) <- (p.producer, crate, p.producer_rate) :: adj.(consumer))
          p.consumers)
    c.ports;
  let queue = Queue.create () in
  for start = 0 to n - 1 do
    if reps.(start) = None then begin
      reps.(start) <- Some (1, 1);
      Queue.add start queue;
      while not (Queue.is_empty queue) do
        let u = Queue.take queue in
        let nu, du = Option.get reps.(u) in
        List.iter
          (fun (v, my_rate, their_rate) ->
            (* my_rate * reps(u) = their_rate * reps(v) *)
            let nv = nu * my_rate and dv = du * their_rate in
            let g = gcd nv dv in
            let nv = nv / g and dv = dv / g in
            match reps.(v) with
            | None ->
                reps.(v) <- Some (nv, dv);
                Queue.add v queue
            | Some (nv', dv') ->
                if nv * dv' <> nv' * dv then
                  invalid_arg
                    (Printf.sprintf
                       "Tdf: inconsistent rates in cluster %s around module %s"
                       c.cname mods.(v).mod_name))
          adj.(u)
      done
    end
  done;
  (* Scale to integers. *)
  let lcm a b = a / gcd a b * b in
  let denom =
    Array.fold_left
      (fun acc r -> match r with Some (_, d) -> lcm acc d | None -> acc)
      1 reps
  in
  let ints =
    Array.map (function Some (nu, du) -> nu * denom / du | None -> 1) reps
  in
  let g = Array.fold_left (fun acc v -> gcd acc v) 0 ints in
  let g = max g 1 in
  Array.map (fun v -> v / g) ints

(* Static schedule: topological sort of the module dependency graph
   (producer of a port before its consumers), each module annotated
   with its repetition count. *)
let compute_schedule c =
  let mods = Array.of_list (List.rev c.modules) in
  let n = Array.length mods in
  let reps = compute_repetitions c mods in
  let succ = Array.make n [] and indeg = Array.make n 0 in
  List.iter
    (fun p ->
      if p.producer >= 0 then
        List.iter
          (fun (consumer, _) ->
            succ.(p.producer) <- consumer :: succ.(p.producer);
            indeg.(consumer) <- indeg.(consumer) + 1)
          p.consumers)
    c.ports;
  let queue = Queue.create () in
  (* Stable order: lower registration id first among ready modules. *)
  for i = 0 to n - 1 do
    if indeg.(i) = 0 then Queue.add i queue
  done;
  let order = ref [] in
  let count = ref 0 in
  while not (Queue.is_empty queue) do
    let i = Queue.take queue in
    order := (mods.(i), reps.(i)) :: !order;
    incr count;
    List.iter
      (fun j ->
        indeg.(j) <- indeg.(j) - 1;
        if indeg.(j) = 0 then Queue.add j queue)
      (List.rev succ.(i))
  done;
  if !count <> n then
    invalid_arg
      (Printf.sprintf "Tdf: combinational cycle in cluster %s" c.cname);
  (* Size the token buffers for one full activation. *)
  List.iter
    (fun p ->
      if p.producer >= 0 then begin
        let total = p.producer_rate * reps.(p.producer) in
        if Array.length p.tokens <> total then p.tokens <- Array.make total 0.0
      end
      else if p.consumers <> [] then
        invalid_arg
          (Printf.sprintf "Tdf: port %s has consumers but no producer"
             p.port_name))
    c.ports;
  Array.of_list (List.rev !order)

let c_cluster_activations =
  Amsvp_obs.Obs.Counter.make ~help:"TDF cluster schedule replays"
    "amsvp_tdf_cluster_activations_total"

let c_module_activations =
  Amsvp_obs.Obs.Counter.make
    ~help:"TDF module body invocations (incl. repetitions)"
    "amsvp_tdf_module_activations_total"

let start c ~until_ps =
  if c.started then invalid_arg "Tdf.start: already started";
  c.schedule <- compute_schedule c;
  c.started <- true;
  let schedule_length =
    Array.fold_left (fun acc (_, reps) -> acc + reps) 0 c.schedule
  in
  let proc =
    De.spawn c.kernel ~name:(c.cname ^ ".cluster") (fun () ->
        c.activations <- c.activations + 1;
        Amsvp_obs.Obs.Counter.incr c_cluster_activations;
        Amsvp_obs.Obs.Counter.add c_module_activations schedule_length;
        (* Replay the static schedule with repetition counts. *)
        for i = 0 to Array.length c.schedule - 1 do
          let m, reps = c.schedule.(i) in
          for rep = 0 to reps - 1 do
            (* loops, not [List.iter]: a closure over [rep] would be
               allocated per module and repetition *)
            for k = 0 to Array.length m.reads - 1 do
              let p, rate = m.reads.(k) in
              p.read_base <- rep * rate
            done;
            for k = 0 to Array.length m.writes - 1 do
              let p, rate = m.writes.(k) in
              p.write_base <- rep * rate
            done;
            m.body rep
          done
        done;
        let next = De.now_ps c.kernel + c.timestep_ps in
        if next <= until_ps then
          De.Event.notify_delayed c.tick ~delay_ps:c.timestep_ps)
  in
  De.Event.sensitize proc c.tick;
  De.Event.notify_delayed c.tick ~delay_ps:c.timestep_ps

type cluster_stats = { activations : int; modules : int; schedule_length : int }

let cluster_stats (c : cluster) =
  {
    activations = c.activations;
    modules = List.length c.modules;
    schedule_length =
      Array.fold_left (fun acc (_, reps) -> acc + reps) 0 c.schedule;
  }
