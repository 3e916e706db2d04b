type process = {
  pname : string;
  run : unit -> unit;
  mutable queued : bool;  (* already in the runnable queue of this delta *)
}

(* A growable array used as a FIFO that is drained a batch at a time:
   [push] appends; the kernel reads the [n] items queued when a phase
   starts, in order, then [consume]s them. *)
type 'a queue = { mutable items : 'a array; mutable len : int }

let queue () = { items = [||]; len = 0 }

let push q x =
  if q.len = Array.length q.items then begin
    let bigger = Array.make (max 16 (2 * q.len)) x in
    Array.blit q.items 0 bigger 0 q.len;
    q.items <- bigger
  end;
  q.items.(q.len) <- x;
  q.len <- q.len + 1

(* Drop the first [n] items, keeping any pushed while they were read. *)
let consume q n =
  let rest = q.len - n in
  if rest > 0 then Array.blit q.items n q.items 0 rest;
  q.len <- rest

type event = {
  ename : string;
  mutable subscribers : process list;
  mutable scheduled_at : int;  (* earliest pending timed notification, -1 none *)
  mutable delta_pending : bool;
  owner : t;
}

and t = {
  mutable time_ps : int;
  (* Binary min-heap on time, as parallel arrays: entry [i] is the
     notification of [heap_ev.(i)] at [heap_time.(i)]. *)
  mutable heap_time : int array;
  mutable heap_ev : event array;
  mutable heap_len : int;
  delta_queue : event queue;  (* in notification order *)
  runnable : process queue;  (* in activation order *)
  updates : (unit -> unit) queue;  (* in write order *)
  mutable activations : int;
  mutable delta_cycles : int;
  mutable timed_notifications : int;
  mutable signal_updates : int;
}

let create () =
  {
    time_ps = 0;
    heap_time = [||];
    heap_ev = [||];
    heap_len = 0;
    delta_queue = queue ();
    runnable = queue ();
    updates = queue ();
    activations = 0;
    delta_cycles = 0;
    timed_notifications = 0;
    signal_updates = 0;
  }

let now_ps k = k.time_ps
let ps_of_seconds s = int_of_float (Float.round (s *. 1e12))
let seconds_of_ps ps = float_of_int ps *. 1e-12
let now k = seconds_of_ps k.time_ps

let heap_swap k i j =
  let t = k.heap_time.(i) and e = k.heap_ev.(i) in
  k.heap_time.(i) <- k.heap_time.(j);
  k.heap_ev.(i) <- k.heap_ev.(j);
  k.heap_time.(j) <- t;
  k.heap_ev.(j) <- e

let heap_push k time ev =
  if k.heap_len = Array.length k.heap_time then begin
    let cap = max 64 (2 * k.heap_len) in
    let times = Array.make cap 0 and evs = Array.make cap ev in
    Array.blit k.heap_time 0 times 0 k.heap_len;
    Array.blit k.heap_ev 0 evs 0 k.heap_len;
    k.heap_time <- times;
    k.heap_ev <- evs
  end;
  k.heap_time.(k.heap_len) <- time;
  k.heap_ev.(k.heap_len) <- ev;
  let i = ref k.heap_len in
  k.heap_len <- k.heap_len + 1;
  let continue = ref true in
  while !continue && !i > 0 do
    let parent = (!i - 1) / 2 in
    if k.heap_time.(!i) < k.heap_time.(parent) then begin
      heap_swap k !i parent;
      i := parent
    end
    else continue := false
  done

(* Remove the root entry; the caller has read it. *)
let heap_pop k =
  assert (k.heap_len > 0);
  k.heap_len <- k.heap_len - 1;
  if k.heap_len > 0 then begin
    k.heap_time.(0) <- k.heap_time.(k.heap_len);
    k.heap_ev.(0) <- k.heap_ev.(k.heap_len);
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
      let smallest = ref !i in
      if l < k.heap_len && k.heap_time.(l) < k.heap_time.(!smallest) then
        smallest := l;
      if r < k.heap_len && k.heap_time.(r) < k.heap_time.(!smallest) then
        smallest := r;
      if !smallest <> !i then begin
        heap_swap k !i !smallest;
        i := !smallest
      end
      else continue := false
    done
  end

let spawn _k ~name run = { pname = name; run; queued = false }

module Event = struct
  type nonrec event = event

  let create owner ename =
    { ename; subscribers = []; scheduled_at = -1; delta_pending = false; owner }

  let sensitize p ev = ev.subscribers <- p :: ev.subscribers

  let notify_delayed ev ~delay_ps =
    if delay_ps < 0 then invalid_arg "Event.notify_delayed: negative delay";
    let k = ev.owner in
    let t = k.time_ps + delay_ps in
    (* Same-instant duplicates collapse; an earlier pending time wins. *)
    if ev.scheduled_at < 0 || t < ev.scheduled_at then begin
      ev.scheduled_at <- t;
      k.timed_notifications <- k.timed_notifications + 1;
      heap_push k t ev
    end

  let notify_delta ev =
    if not ev.delta_pending then begin
      ev.delta_pending <- true;
      push ev.owner.delta_queue ev
    end
end

(* Queue each not-yet-runnable process of [subscribers], in order. *)
let rec enqueue k = function
  | [] -> ()
  | p :: rest ->
      if not p.queued then begin
        p.queued <- true;
        push k.runnable p
      end;
      enqueue k rest

(* One delta cycle: run every runnable process (evaluation phase), then
   apply the signal updates (update phase), which may prime the next
   delta cycle. *)
let run_delta_cycle k =
  k.delta_cycles <- k.delta_cycles + 1;
  let n = k.runnable.len in
  for i = 0 to n - 1 do
    let p = k.runnable.items.(i) in
    p.queued <- false;
    k.activations <- k.activations + 1;
    p.run ()
  done;
  consume k.runnable n;
  let n = k.updates.len in
  for i = 0 to n - 1 do
    k.updates.items.(i) ()
  done;
  consume k.updates n

(* Process every delta cycle pending at the current instant. *)
let drain_instant k =
  while k.delta_queue.len > 0 || k.runnable.len > 0 do
    let n = k.delta_queue.len in
    for i = 0 to n - 1 do
      let ev = k.delta_queue.items.(i) in
      ev.delta_pending <- false;
      enqueue k ev.subscribers
    done;
    consume k.delta_queue n;
    run_delta_cycle k
  done

(* Fire all timed events scheduled for the current time. *)
let fire_current_time k =
  while k.heap_len > 0 && k.heap_time.(0) = k.time_ps do
    let ev = k.heap_ev.(0) in
    heap_pop k;
    (* Stale entries (event re-collapsed to another time) are
       skipped. *)
    if ev.scheduled_at = k.time_ps then begin
      ev.scheduled_at <- -1;
      enqueue k ev.subscribers
    end
  done

(* Kernel counters mirrored into the metrics registry: [run_until] adds
   the delta accumulated by this kernel instance on exit, so repeated
   runs and multiple kernels aggregate correctly. *)
let c_activations =
  Amsvp_obs.Obs.Counter.make ~help:"DE process activations"
    "amsvp_de_activations_total"

let c_delta_cycles =
  Amsvp_obs.Obs.Counter.make ~help:"DE delta cycles"
    "amsvp_de_delta_cycles_total"

let c_timed_notifications =
  Amsvp_obs.Obs.Counter.make ~help:"DE timed event notifications"
    "amsvp_de_timed_notifications_total"

let c_signal_updates =
  Amsvp_obs.Obs.Counter.make ~help:"DE signal update-phase evaluations"
    "amsvp_de_signal_updates_total"

let run_until k ~ps =
  Amsvp_obs.Obs.with_span ~cat:"sysc" "de.run_until" @@ fun () ->
  let activations0 = k.activations
  and delta_cycles0 = k.delta_cycles
  and timed0 = k.timed_notifications
  and updates0 = k.signal_updates in
  let continue = ref true in
  while !continue do
    fire_current_time k;
    drain_instant k;
    (* Advance to the next non-stale timed notification. *)
    while k.heap_len > 0 && k.heap_ev.(0).scheduled_at <> k.heap_time.(0) do
      heap_pop k
    done;
    if k.heap_len > 0 && k.heap_time.(0) <= ps then
      k.time_ps <- k.heap_time.(0)
    else continue := false
  done;
  Amsvp_obs.Obs.Counter.add c_activations (k.activations - activations0);
  Amsvp_obs.Obs.Counter.add c_delta_cycles (k.delta_cycles - delta_cycles0);
  Amsvp_obs.Obs.Counter.add c_timed_notifications
    (k.timed_notifications - timed0);
  Amsvp_obs.Obs.Counter.add c_signal_updates (k.signal_updates - updates0)

let run k = run_until k ~ps:max_int

module Signal = struct
  type 'a signal = {
    mutable cur : 'a;
    mutable next : 'a;
    mutable update_pending : bool;
    ev : Event.event;
    k : t;
    update : unit -> unit;  (* the update phase of a pending write *)
  }

  let create k ~name ~eq init =
    let ev = Event.create k (name ^ ".changed") in
    let rec s =
      {
        cur = init;
        next = init;
        update_pending = false;
        ev;
        k;
        update =
          (fun () ->
            s.update_pending <- false;
            k.signal_updates <- k.signal_updates + 1;
            if not (eq s.cur s.next) then begin
              s.cur <- s.next;
              Event.notify_delta ev
            end);
      }
    in
    s

  let float_signal k ~name init =
    create k ~name ~eq:(fun (a : float) b -> a = b) init

  let bool_signal k ~name init =
    create k ~name ~eq:(fun (a : bool) b -> a = b) init

  let int_signal k ~name init = create k ~name ~eq:(fun (a : int) b -> a = b) init

  let read s = s.cur

  let write s v =
    s.next <- v;
    if not s.update_pending then begin
      s.update_pending <- true;
      push s.k.updates s.update
    end

  let change_event s = s.ev
end

module Tracing = struct
  module Trace = Amsvp_util.Trace
  module Vcd = Amsvp_util.Vcd

  type recorder = {
    kernel : t;
    mutable entries : (string * Trace.t) list;  (* reverse registration *)
  }

  let create kernel = { kernel; entries = [] }

  let watch r ~name s =
    let tr = Trace.create () in
    Trace.add tr ~time:(now r.kernel) ~value:(Signal.read s);
    let p =
      spawn r.kernel ~name:("trace." ^ name) (fun () ->
          Trace.add tr ~time:(now r.kernel) ~value:(Signal.read s))
    in
    Event.sensitize p (Signal.change_event s);
    r.entries <- (name, tr) :: r.entries

  let traces r = List.rev r.entries
  let to_vcd r = Vcd.to_string (traces r)
end

module Thread = struct
  type suspend = Wait_time of int | Wait_event of Event.event

  type _ Effect.t += Suspend : suspend -> unit Effect.t

  let outside_thread what =
    invalid_arg (Printf.sprintf "De.Thread.%s: not inside a thread body" what)

  let wait_ps _k d =
    if d < 0 then invalid_arg "De.Thread.wait_ps: negative delay";
    try Effect.perform (Suspend (Wait_time d))
    with Effect.Unhandled _ -> outside_thread "wait_ps"

  let wait_event _k ev =
    try Effect.perform (Suspend (Wait_event ev))
    with Effect.Unhandled _ -> outside_thread "wait_event"

  (* Arm a one-shot resumption of the suspended thread. For timed waits
     a private event is used; for event waits the process unsubscribes
     itself on its first activation, so repeated waits on a long-lived
     event do not accumulate subscribers. *)
  let arm k ~name how resume =
    match how with
    | Wait_time d ->
        let ev = Event.create k (name ^ ".timeout") in
        let p = spawn k ~name resume in
        Event.sensitize p ev;
        if d = 0 then Event.notify_delta ev
        else Event.notify_delayed ev ~delay_ps:d
    | Wait_event ev ->
        let fired = ref false in
        let self = ref None in
        let p =
          spawn k ~name (fun () ->
              if not !fired then begin
                fired := true;
                (match !self with
                | Some p ->
                    ev.subscribers <- List.filter (fun q -> q != p) ev.subscribers
                | None -> ());
                resume ()
              end)
        in
        self := Some p;
        Event.sensitize p ev

  let spawn k ~name body =
    let open Effect.Deep in
    let handler =
      {
        retc = (fun () -> ());
        exnc = (fun e -> raise e);
        effc =
          (fun (type a) (eff : a Effect.t) ->
            match eff with
            | Suspend how ->
                Some
                  (fun (cont : (a, unit) continuation) ->
                    arm k ~name how (fun () -> continue cont ()))
            | _ -> None);
      }
    in
    (* The body starts in the first delta cycle of the current time. *)
    arm k ~name (Wait_time 0) (fun () -> match_with body () handler)
end

type stats = {
  activations : int;
  delta_cycles : int;
  timed_notifications : int;
  signal_updates : int;
}

let stats (k : t) =
  {
    activations = k.activations;
    delta_cycles = k.delta_cycles;
    timed_notifications = k.timed_notifications;
    signal_updates = k.signal_updates;
  }
