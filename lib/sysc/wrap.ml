module Trace = Amsvp_util.Trace
module Sfprogram = Amsvp_sf.Sfprogram
module Eln_stepper = Amsvp_mna.Engine.Eln_stepper
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

(* Stimuli are sampled at exact step multiples (k * dt) so square-wave
   edges land on the same instants as in the fixed-step engines; the
   kernel's picosecond clock and the float product can differ by one
   ulp right at an edge. *)
let clocked kernel ~name ~dt ~until_ps body =
  let dt_ps = De.ps_of_seconds dt in
  let tick = De.Event.create kernel (name ^ ".tick") in
  let step_index = ref 0 in
  let proc =
    De.spawn kernel ~name (fun () ->
        incr step_index;
        body (float_of_int !step_index *. dt);
        if De.now_ps kernel + dt_ps <= until_ps then
          De.Event.notify_delayed tick ~delay_ps:dt_ps)
  in
  De.Event.sensitize proc tick;
  De.Event.notify_delayed tick ~delay_ps:dt_ps

let sampler stims =
  let values = Array.make (Array.length stims) 0.0 in
  fun t ->
    for i = 0 to Array.length stims - 1 do
      values.(i) <- stims.(i) t
    done;
    values

let model_step runner stims =
  let sample = sampler stims in
  fun t ->
    Sfprogram.Runner.step runner ~inputs:(sample t);
    Sfprogram.Runner.output runner 0

let eln_step stepper stims =
  let sample = sampler stims in
  fun t -> Eln_stepper.step stepper ~input_values:(sample t)

let tdf_chain kernel ~dt ~until_ps runner stims sink =
  let cluster =
    Tdf.create_cluster kernel ~name:"analog" ~timestep_ps:(De.ps_of_seconds dt)
  in
  let n_in = Array.length stims in
  let in_ports =
    Array.init n_in (fun i -> Tdf.port cluster (Printf.sprintf "u%d" i) ~rate:1)
  in
  let out_port = Tdf.port cluster "y" ~rate:1 in
  let inputs = Array.make n_in 0.0 in
  (* Exact step multiples, for the same reason as in [clocked]. *)
  let step_index = ref 0 in
  let _source =
    Tdf.add_module cluster ~name:"source" ~reads:[] ~writes:(Array.to_list in_ports)
      (fun () ->
        incr step_index;
        let t = float_of_int !step_index *. dt in
        for i = 0 to n_in - 1 do
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
        Tdf.write out_port 0 (Sfprogram.Runner.output runner 0))
  in
  let _sink =
    Tdf.add_module cluster ~name:"sink" ~reads:[ out_port ] ~writes:[]
      (fun () -> sink (De.now kernel) (Tdf.read out_port 0))
  in
  (* DE boundary: the cluster output is also exported to a kernel
     signal, as it would be inside a virtual platform. *)
  let _out_sig = Tdf.to_de cluster ~name:"y2de" out_port in
  Tdf.start cluster ~until_ps

(* The testbench around one binding: a fresh kernel, the output trace
   from (0, 0), and [observe] at time zero and after every step.
   [attach] binds the model to the kernel and receives the recorder. *)
let testbench ?observe reader ~dt ~t_stop attach =
  let kernel = De.create () in
  let until_ps = De.ps_of_seconds t_stop in
  let trace = Trace.create ~capacity:(steps_of ~dt ~t_stop + 1) () in
  let record t out =
    Trace.add trace ~time:t ~value:out;
    match observe with None -> () | Some f -> f t reader
  in
  record 0.0 0.0;
  attach kernel ~until_ps record;
  De.run_until kernel ~ps:until_ps;
  { trace; de_stats = Some (De.stats kernel) }

(* A self-clocked process driving a DE output signal besides the
   recorder. *)
let clocked_with_signal ~name ~signal ~dt step kernel ~until_ps record =
  let out_sig = De.Signal.float_signal kernel ~name:signal 0.0 in
  clocked kernel ~name ~dt ~until_ps (fun t ->
      let out = step t in
      De.Signal.write out_sig out;
      record t out)

let run_cpp ?engine:(_ : [ `Bytecode ] option) ?reads ?observe p ~stimuli
    ~t_stop =
  Obs.with_span ~cat:"sysc" ~args:[ ("program", p.Sfprogram.name) ]
    "wrap.run_cpp"
  @@ fun () ->
  let runner = Sfprogram.Runner.create ?reads p in
  let stims = stimuli_for p stimuli in
  let trace = Sfprogram.Runner.run runner ~stimuli:stims ~t_stop ?observe () in
  { trace; de_stats = None }

let run_de ?reads ?observe p ~stimuli ~t_stop =
  Obs.with_span ~cat:"sysc" ~args:[ ("program", p.Sfprogram.name) ]
    "wrap.run_de"
  @@ fun () ->
  let runner = Sfprogram.Runner.create ?reads p in
  let step = model_step runner (stimuli_for p stimuli) in
  let dt = p.Sfprogram.dt in
  testbench ?observe (Sfprogram.Runner.read runner) ~dt ~t_stop
    (clocked_with_signal ~name:"model" ~signal:"out" ~dt step)

let run_tdf ?reads ?observe p ~stimuli ~t_stop =
  Obs.with_span ~cat:"sysc" ~args:[ ("program", p.Sfprogram.name) ]
    "wrap.run_tdf"
  @@ fun () ->
  let runner = Sfprogram.Runner.create ?reads p in
  let stims = stimuli_for p stimuli in
  let dt = p.Sfprogram.dt in
  testbench ?observe (Sfprogram.Runner.read runner) ~dt ~t_stop
    (fun kernel ~until_ps record ->
      tdf_chain kernel ~dt ~until_ps runner stims record)

let run_eln ?observe circuit ~inputs ~output ~dt ~t_stop =
  Obs.with_span ~cat:"sysc" "wrap.run_eln" @@ fun () ->
  let stepper =
    Eln_stepper.create circuit ~inputs:(List.map fst inputs) ~output ~dt
  in
  let step = eln_step stepper (Array.of_list (List.map snd inputs)) in
  testbench ?observe (Eln_stepper.read stepper) ~dt ~t_stop
    (clocked_with_signal ~name:"eln" ~signal:"eln.out" ~dt step)
