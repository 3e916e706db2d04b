module Obs = Amsvp_obs.Obs

type kind =
  | Nan_or_inf
  | Amplitude
  | Stuck
  | Nrmse_budget
  | Timeout
  | Crashed
  | Pruned

let kind_label = function
  | Nan_or_inf -> "nan"
  | Amplitude -> "amplitude"
  | Stuck -> "stuck"
  | Nrmse_budget -> "nrmse-budget"
  | Timeout -> "timeout"
  | Crashed -> "crashed"
  | Pruned -> "pruned"

let kind_of_label = function
  | "nan" -> Some Nan_or_inf
  | "amplitude" -> Some Amplitude
  | "stuck" -> Some Stuck
  | "nrmse-budget" -> Some Nrmse_budget
  | "timeout" -> Some Timeout
  | "crashed" -> Some Crashed
  | "pruned" -> Some Pruned
  | _ -> None

type issue = { kind : kind; time : float; value : float }

type config = {
  amplitude_limit : float option;
  stuck_after : int option;
  nrmse_budget : float option;
  nrmse_warmup : int;
}

let default_config =
  {
    amplitude_limit = None;
    stuck_after = None;
    nrmse_budget = None;
    nrmse_warmup = 8;
  }

(* The float accumulators live in an all-float record, stored flat:
   updating one writes the float in place instead of allocating a box,
   as a float field of the mixed record [t] would. *)
type acc = {
  (* streaming NRMSE against a reference *)
  mutable err_sq : float;
  mutable ref_min : float;
  mutable ref_max : float;
  (* stuck-at run tracking *)
  mutable last : float;
}

type t = {
  signal : string;
  config : config;
  acc : acc;
  mutable n_ref : int;
  mutable run : int;
  (* fired watchdogs, newest first *)
  mutable fired : issue list;
}

let create ?(config = default_config) signal =
  (match config.amplitude_limit with
  | Some l when not (l > 0.0) ->
      invalid_arg "Health.create: amplitude_limit must be positive"
  | _ -> ());
  (match config.stuck_after with
  | Some k when k < 2 -> invalid_arg "Health.create: stuck_after must be >= 2"
  | _ -> ());
  (match config.nrmse_budget with
  | Some b when not (b > 0.0) ->
      invalid_arg "Health.create: nrmse_budget must be positive"
  | _ -> ());
  {
    signal;
    config;
    acc =
      {
        err_sq = 0.0;
        ref_min = infinity;
        ref_max = neg_infinity;
        last = nan;
      };
    n_ref = 0;
    run = 0;
    fired = [];
  }

let already_fired m kind = List.exists (fun i -> i.kind = kind) m.fired

let fire m kind ~time ~value =
  if not (already_fired m kind) then begin
    m.fired <- { kind; time; value } :: m.fired;
    Obs.instant ~cat:"health"
      ~args:
        [
          ("signal", m.signal);
          ("time", Printf.sprintf "%.9g" time);
          ("value", Printf.sprintf "%.9g" value);
        ]
      ("health." ^ kind_label kind);
    if Amsvp_obs.Journal.enabled () then
      Amsvp_obs.Journal.emit ~severity:Amsvp_obs.Journal.Warn ~time
        ~cat:"health" (kind_label kind)
        [
          ("signal", Amsvp_obs.Journal.S m.signal);
          ("value", Amsvp_obs.Journal.F value);
        ]
  end

let nrmse m =
  if m.n_ref = 0 then None
  else
    let range = m.acc.ref_max -. m.acc.ref_min in
    if range > 0.0 then
      Some (sqrt (m.acc.err_sq /. float_of_int m.n_ref) /. range)
    else None

(* [observe] and [observe_ref] are inlined into the {!replay} loops:
   there the sample is read straight from its array and stays unboxed,
   and only a firing watchdog boxes it. *)
let[@inline] observe m ~time v =
  if Float.is_finite v then begin
    (match m.config.amplitude_limit with
    | Some limit when abs_float v > limit -> fire m Amplitude ~time ~value:v
    | _ -> ());
    match m.config.stuck_after with
    | None -> ()
    | Some k ->
        let a = m.acc in
        if v = a.last then begin
          m.run <- m.run + 1;
          if m.run >= k then fire m Stuck ~time ~value:v
        end
        else begin
          a.last <- v;
          m.run <- 1
        end
  end
  else fire m Nan_or_inf ~time ~value:v

let[@inline] observe_ref m ~time ~value ~reference =
  observe m ~time value;
  if Float.is_finite reference then begin
    let a = m.acc in
    if reference < a.ref_min then a.ref_min <- reference;
    if reference > a.ref_max then a.ref_max <- reference;
    m.n_ref <- m.n_ref + 1;
    let e = value -. reference in
    (* A non-finite sample would make every later NRMSE reading NaN;
       the NaN watchdog already reports it, so keep the error stream
       clean by clamping the contribution. *)
    if Float.is_finite e then a.err_sq <- a.err_sq +. (e *. e);
    match m.config.nrmse_budget with
    | Some budget when m.n_ref >= m.config.nrmse_warmup -> (
        match nrmse m with
        | Some e when e > budget -> fire m Nrmse_budget ~time ~value:e
        | _ -> ())
    | _ -> ()
  end

let replay m ~times ~values ?reference n =
  let short what a =
    if Array.length a < n then
      invalid_arg
        (Printf.sprintf "Health.replay: %d %s for %d samples" (Array.length a)
           what n)
  in
  short "times" times;
  short "values" values;
  let sum_sq = ref 0.0 in
  (match reference with
  | None ->
      for i = 0 to n - 1 do
        let v = values.(i) in
        observe m ~time:times.(i) v;
        sum_sq := !sum_sq +. (v *. v)
      done
  | Some refs ->
      short "reference values" refs;
      for i = 0 to n - 1 do
        let v = values.(i) in
        observe_ref m ~time:times.(i) ~value:v ~reference:refs.(i);
        sum_sq := !sum_sq +. (v *. v)
      done);
  !sum_sq

let issues m = List.rev m.fired
let healthy m = m.fired = []

type verdict = { v_signal : string; v_healthy : bool; v_issues : issue list }

let verdict m =
  { v_signal = m.signal; v_healthy = healthy m; v_issues = issues m }
