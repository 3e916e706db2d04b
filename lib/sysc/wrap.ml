module Trace = Amsvp_util.Trace
module Sfprogram = Amsvp_sf.Sfprogram
module Obs = Amsvp_obs.Obs

type result = { trace : Trace.t; de_stats : De.stats option }

let stimuli_for (p : Sfprogram.t) bindings =
  Array.of_list
    (List.map
       (fun name ->
         match List.assoc_opt name bindings with
         | Some f -> f
         | None -> invalid_arg ("Wrap: no stimulus bound to input " ^ name))
       p.Sfprogram.inputs)

let steps_of ~dt ~t_stop = int_of_float (Float.round (t_stop /. dt))

let run_cpp ?engine ?reads ?observe p ~stimuli ~t_stop =
  Obs.with_span ~cat:"sysc" ~args:[ ("program", p.Sfprogram.name) ]
    "wrap.run_cpp"
  @@ fun () ->
  let runner = Sfprogram.Runner.create ?engine ?reads p in
  let stims = stimuli_for p stimuli in
  let trace = Sfprogram.Runner.run runner ~stimuli:stims ~t_stop ?observe () in
  { trace; de_stats = None }

let run_de ?engine ?reads ?observe p ~stimuli ~t_stop =
  Obs.with_span ~cat:"sysc" ~args:[ ("program", p.Sfprogram.name) ]
    "wrap.run_de"
  @@ fun () ->
  let kernel = De.create () in
  let runner = Sfprogram.Runner.create ?engine ?reads p in
  let reader = Sfprogram.Runner.read runner in
  let stims = stimuli_for p stimuli in
  let dt_ps = De.ps_of_seconds p.Sfprogram.dt in
  let until_ps = De.ps_of_seconds t_stop in
  let nsteps = steps_of ~dt:p.Sfprogram.dt ~t_stop in
  let trace = Trace.create ~capacity:(nsteps + 1) () in
  let out_sig = De.Signal.float_signal kernel ~name:"out" 0.0 in
  let inputs = Array.make (Array.length stims) 0.0 in
  let tick = De.Event.create kernel "model.tick" in
  Trace.add trace ~time:0.0 ~value:0.0;
  (match observe with None -> () | Some f -> f 0.0 reader);
  (* Stimuli are sampled at exact step multiples (k * dt) so square-wave
     edges land on the same instants as in the fixed-step engines; the
     kernel's picosecond clock and the float product can differ by one
     ulp right at an edge. *)
  let step_index = ref 0 in
  let proc =
    De.spawn kernel ~name:"model" (fun () ->
        incr step_index;
        let t = float_of_int !step_index *. p.Sfprogram.dt in
        for i = 0 to Array.length stims - 1 do
          inputs.(i) <- stims.(i) t
        done;
        Sfprogram.Runner.step runner ~inputs;
        let out = Sfprogram.Runner.output runner 0 in
        De.Signal.write out_sig out;
        Trace.add trace ~time:t ~value:out;
        (match observe with None -> () | Some f -> f t reader);
        if De.now_ps kernel + dt_ps <= until_ps then
          De.Event.notify_delayed tick ~delay_ps:dt_ps)
  in
  De.Event.sensitize proc tick;
  De.Event.notify_delayed tick ~delay_ps:dt_ps;
  De.run_until kernel ~ps:until_ps;
  { trace; de_stats = Some (De.stats kernel) }

let run_tdf ?engine ?reads ?observe p ~stimuli ~t_stop =
  Obs.with_span ~cat:"sysc" ~args:[ ("program", p.Sfprogram.name) ]
    "wrap.run_tdf"
  @@ fun () ->
  let kernel = De.create () in
  let runner = Sfprogram.Runner.create ?engine ?reads p in
  let reader = Sfprogram.Runner.read runner in
  let stims = stimuli_for p stimuli in
  let dt = p.Sfprogram.dt in
  let dt_ps = De.ps_of_seconds dt in
  let until_ps = De.ps_of_seconds t_stop in
  let nsteps = steps_of ~dt ~t_stop in
  let trace = Trace.create ~capacity:(nsteps + 1) () in
  let cluster = Tdf.create_cluster kernel ~name:"analog" ~timestep_ps:dt_ps in
  let n_in = Array.length stims in
  let in_ports = Array.init n_in (fun i -> Tdf.port cluster (Printf.sprintf "u%d" i) ~rate:1) in
  let out_port = Tdf.port cluster "y" ~rate:1 in
  (* Per-sample time annotation, as the SystemC-AMS scheduler maintains
     for every TDF sample. *)
  let timestamps = Array.make (n_in + 1) 0.0 in
  let inputs = Array.make n_in 0.0 in
  (* Exact step multiples, for the same reason as in [run_de]. *)
  let step_index = ref 0 in
  let _source =
    Tdf.add_module cluster ~name:"source" ~reads:[] ~writes:(Array.to_list in_ports)
      (fun () ->
        incr step_index;
        let t = float_of_int !step_index *. dt in
        for i = 0 to n_in - 1 do
          timestamps.(i) <- t;
          Tdf.write in_ports.(i) 0 (stims.(i) t)
        done)
  in
  let _model =
    Tdf.add_module cluster ~name:"model" ~reads:(Array.to_list in_ports)
      ~writes:[ out_port ] (fun () ->
        for i = 0 to n_in - 1 do
          inputs.(i) <- Tdf.read in_ports.(i) 0
        done;
        Sfprogram.Runner.step runner ~inputs;
        timestamps.(n_in) <- De.now kernel;
        (match observe with
        | None -> ()
        | Some f -> f (De.now kernel) reader);
        Tdf.write out_port 0 (Sfprogram.Runner.output runner 0))
  in
  let _sink =
    Tdf.add_module cluster ~name:"sink" ~reads:[ out_port ] ~writes:[]
      (fun () -> Trace.add trace ~time:(De.now kernel) ~value:(Tdf.read out_port 0))
  in
  (* DE boundary: the cluster output is also exported to a kernel
     signal, as it would be inside a virtual platform. *)
  let _out_sig = Tdf.to_de cluster ~name:"y2de" out_port in
  Trace.add trace ~time:0.0 ~value:0.0;
  (match observe with None -> () | Some f -> f 0.0 reader);
  Tdf.start cluster ~until_ps;
  De.run_until kernel ~ps:until_ps;
  { trace; de_stats = Some (De.stats kernel) }

let run_eln ?observe circuit ~inputs ~output ~dt ~t_stop =
  Obs.with_span ~cat:"sysc" "wrap.run_eln" @@ fun () ->
  let kernel = De.create () in
  let names = List.map fst inputs in
  let stims = Array.of_list (List.map snd inputs) in
  let stepper =
    Amsvp_mna.Engine.Eln_stepper.create circuit ~inputs:names ~output ~dt
  in
  let reader = Amsvp_mna.Engine.Eln_stepper.read stepper in
  let dt_ps = De.ps_of_seconds dt in
  let until_ps = De.ps_of_seconds t_stop in
  let nsteps = steps_of ~dt ~t_stop in
  let trace = Trace.create ~capacity:(nsteps + 1) () in
  let out_sig = De.Signal.float_signal kernel ~name:"eln.out" 0.0 in
  let input_values = Array.make (Array.length stims) 0.0 in
  let tick = De.Event.create kernel "eln.tick" in
  Trace.add trace ~time:0.0 ~value:0.0;
  (match observe with None -> () | Some f -> f 0.0 reader);
  let step_index = ref 0 in
  let proc =
    De.spawn kernel ~name:"eln" (fun () ->
        incr step_index;
        let t = float_of_int !step_index *. dt in
        for i = 0 to Array.length stims - 1 do
          input_values.(i) <- stims.(i) t
        done;
        let out = Amsvp_mna.Engine.Eln_stepper.step stepper ~input_values in
        De.Signal.write out_sig out;
        Trace.add trace ~time:t ~value:out;
        (match observe with None -> () | Some f -> f t reader);
        if De.now_ps kernel + dt_ps <= until_ps then
          De.Event.notify_delayed tick ~delay_ps:dt_ps)
  in
  De.Event.sensitize proc tick;
  De.Event.notify_delayed tick ~delay_ps:dt_ps;
  De.run_until kernel ~ps:until_ps;
  { trace; de_stats = Some (De.stats kernel) }
