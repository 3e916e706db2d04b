module Circuit = Amsvp_netlist.Circuit
module Sfprogram = Amsvp_sf.Sfprogram
module Compile = Amsvp_sf.Compile
module Absint = Amsvp_analysis.Absint
module Stimulus = Amsvp_util.Stimulus
module Obs = Amsvp_obs.Obs
module Journal = Amsvp_obs.Journal

type decision = { d_point : Sampler.point; d_bad : Absint.bad }

(* A point that rebinds onto the recorded plan, with the constant pool
   of the representative's bytecode re-targeted at its parameter values.
   Only such points participate in box proofs: the pool is the entire
   value-dependence of the artifact, so an interval hull over member
   pools covers every member's concrete execution. *)
type cand = {
  c_point : Sampler.point;
  c_program : Sfprogram.t;
  c_compiled : Compile.t;
  c_pool : float array;
}

let hull (pools : float array list) =
  match pools with
  | [] -> [||]
  | first :: rest ->
      let h = Array.map Absint.const first in
      List.iter
        (Array.iteri (fun i v -> h.(i) <- Absint.join h.(i) (Absint.const v)))
        rest;
      h

(* Widest-spread override axis among the members, for bisection. *)
let split_axis (members : cand list) =
  let spreads = Hashtbl.create 8 in
  List.iter
    (fun c ->
      List.iter
        (fun (k, v) ->
          let lo, hi =
            match Hashtbl.find_opt spreads k with
            | Some (lo, hi) -> (min lo v, max hi v)
            | None -> (v, v)
          in
          Hashtbl.replace spreads k (lo, hi))
        c.c_point.Sampler.overrides)
    members;
  Hashtbl.fold
    (fun k (lo, hi) best ->
      let w = hi -. lo in
      match best with
      | Some (_, bw) when bw >= w -> best
      | _ -> if w > 0.0 then Some (k, w) else best)
    spreads None
  |> Option.map fst

let bisect axis members =
  let value c =
    match List.assoc_opt axis c.c_point.Sampler.overrides with
    | Some v -> v
    | None -> 0.0
  in
  let sorted =
    List.stable_sort (fun a b -> Float.compare (value a) (value b)) members
  in
  let n = List.length sorted in
  let rec take k = function
    | x :: rest when k > 0 ->
        let l, r = take (k - 1) rest in
        (x :: l, r)
    | rest -> ([], rest)
  in
  take (n / 2) sorted

let plan ~cache ~probed ~stimuli ~t_stop ?amplitude
    (points : Sampler.point array) =
  Obs.with_span ~cat:"sweep" "sweep.prune" @@ fun () ->
  let cands =
    (* The plan replayed on the probed circuit itself, compiled once:
       every candidate re-targets its bytecode. *)
    match Abscache.rebind cache probed with
    | None -> []
    | Some representative ->
        let template = Sfprogram.compile representative in
        Array.to_list points
        |> List.filter_map (fun (p : Sampler.point) ->
               let circuit = Circuit.override probed p.Sampler.overrides in
               Option.bind (Abscache.rebind cache circuit) (fun program ->
                   Option.map
                     (fun compiled ->
                       {
                         c_point = p;
                         c_program = program;
                         c_compiled = compiled;
                         c_pool = Compile.const_pool compiled;
                       })
                     (Sfprogram.rebind_compiled template program)))
  in
  match cands with
  | [] -> []
  | witness :: _ ->
      let program = witness.c_program in
      let dt = program.Sfprogram.dt in
      let nsteps = int_of_float (Float.round (t_stop /. dt)) in
      (* The sweep's own horizon: a proof stops at its first bad step,
         so the full bound only costs when nothing is provable — and an
         abstract step is within a small factor of a concrete one. *)
      let max_steps = nsteps in
      let stims =
        Array.of_list
          (List.map
             (fun n -> List.assoc n stimuli)
             program.Sfprogram.inputs)
      in
      (* Step k of the runner samples every stimulus at t = k*dt — an
         exact singleton per input, so the only abstraction left in a
         proof is the pool hull (and outward rounding). *)
      let inputs k =
        let t = float_of_int k *. dt in
        Array.map (fun stim -> Absint.const (stim t)) stims
      in
      let prove pool =
        Absint.prove_unhealthy_compiled ~max_steps ?amplitude
          ~pool ~inputs program witness.c_compiled
      in
      (* Recursive box bisection: prove the hull of the member pools in
         one abstract run; on failure split along the widest override
         axis until singleton boxes (whose hull is the member's exact
         pool — the per-point proof). *)
      let rec prune members =
        match members with
        | [] -> []
        | _ -> (
            match prove (hull (List.map (fun c -> c.c_pool) members)) with
            | Some bad ->
                List.map (fun c -> { d_point = c.c_point; d_bad = bad }) members
            | None -> (
                match members with
                | [] | [ _ ] -> []
                | _ -> (
                    match split_axis members with
                    | None -> []
                    | Some axis ->
                        let l, r = bisect axis members in
                        if l = [] || r = [] then []
                        else prune l @ prune r)))
      in
      let decisions = prune cands in
      if Journal.enabled () then
        Journal.emit ~cat:"sweep" "prune.plan"
          [
            ("candidates", Journal.I (List.length cands));
            ("pruned", Journal.I (List.length decisions));
            ("max_steps", Journal.I max_steps);
          ];
      decisions
