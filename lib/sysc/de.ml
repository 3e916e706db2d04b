(* Processes, events and signal updaters are numbered when they are
   created and every per-step structure holds those integer ids: the
   queues and the heap are [int array]s and the per-process flags a
   [bool array], so an activation stores no pointer (no write barrier)
   and allocates nothing. The tables grow only in [spawn],
   [Event.create] and [Signal.create]. The queue and heap operations
   and the phases of [run_until] are marked [@inline]: as calls they
   cost about as much as the work they do (an empty timed activation
   took ~57 ns as calls, ~30 ns inlined). *)

(* A growable [int array] used as a FIFO that is drained a batch at a
   time: [push] appends; the kernel reads the [n] items queued when a
   phase starts, in order, then [consume]s them. *)
type queue = { mutable items : int array; mutable len : int }

let queue () = { items = Array.make 16 0; len = 0 }

let[@inline] push q x =
  if q.len = Array.length q.items then begin
    let bigger = Array.make (2 * q.len) 0 in
    Array.blit q.items 0 bigger 0 q.len;
    q.items <- bigger
  end;
  q.items.(q.len) <- x;
  q.len <- q.len + 1

(* Drop the first [n] items, keeping any pushed while they were read. *)
let[@inline] consume q n =
  let rest = q.len - n in
  if rest > 0 then Array.blit q.items n q.items 0 rest;
  q.len <- rest

(* Append [x] to the first [len] slots of [a], doubling it when full;
   returns the (possibly new) array. *)
let append a len x =
  let a =
    if len < Array.length a then a
    else begin
      let bigger = Array.make (max 8 (2 * len)) x in
      Array.blit a 0 bigger 0 len;
      bigger
    end
  in
  a.(len) <- x;
  a

type process = int

type event = {
  eid : int;
  owner : t;
  mutable subs : int array;
      (* subscriber pids in sensitization order; the first [nsubs] are
         live and are queued newest first *)
  mutable nsubs : int;
  mutable scheduled_at : int;  (* earliest pending timed notification, -1 none *)
  mutable delta_pending : bool;
}

and t = {
  mutable time_ps : int;
  mutable procs : (unit -> unit) array;  (* body of each pid *)
  mutable queued : bool array;  (* pid already runnable in this delta *)
  mutable nprocs : int;
  mutable events : event array;  (* by eid *)
  mutable nevents : int;
  mutable updaters : (unit -> unit) array;  (* update phase of each signal *)
  mutable nupdaters : int;
  (* Binary min-heap on time, as parallel arrays: entry [i] is the
     notification of event [heap_ev.(i)] at [heap_time.(i)]. *)
  mutable heap_time : int array;
  mutable heap_ev : int array;
  mutable heap_len : int;
  delta_queue : queue;  (* eids, in notification order *)
  runnable : queue;  (* pids, in activation order *)
  updates : queue;  (* updater ids, in write order *)
  mutable activations : int;
  mutable delta_cycles : int;
  mutable timed_notifications : int;
  mutable signal_updates : int;
}

let create () =
  {
    time_ps = 0;
    procs = [||];
    queued = [||];
    nprocs = 0;
    events = [||];
    nevents = 0;
    updaters = [||];
    nupdaters = 0;
    heap_time = Array.make 64 0;
    heap_ev = Array.make 64 0;
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

(* Sift-up with a hole: parents later than [time] move down, and the
   entry is written once where it stops. *)
let[@inline] heap_push k time ev =
  if k.heap_len = Array.length k.heap_time then begin
    let cap = 2 * k.heap_len in
    let times = Array.make cap 0 and evs = Array.make cap 0 in
    Array.blit k.heap_time 0 times 0 k.heap_len;
    Array.blit k.heap_ev 0 evs 0 k.heap_len;
    k.heap_time <- times;
    k.heap_ev <- evs
  end;
  let i = ref k.heap_len in
  k.heap_len <- k.heap_len + 1;
  let continue = ref true in
  while !continue && !i > 0 do
    let parent = (!i - 1) / 2 in
    if time < k.heap_time.(parent) then begin
      k.heap_time.(!i) <- k.heap_time.(parent);
      k.heap_ev.(!i) <- k.heap_ev.(parent);
      i := parent
    end
    else continue := false
  done;
  k.heap_time.(!i) <- time;
  k.heap_ev.(!i) <- ev

(* Remove the root entry; the caller has read it. The last entry sifts
   down from the root through a hole, comparing as a swap-based sift
   would (left child first, strictly smaller wins), so ties leave the
   heap in the same shape. *)
let[@inline] heap_pop k =
  assert (k.heap_len > 0);
  k.heap_len <- k.heap_len - 1;
  let n = k.heap_len in
  if n > 0 then begin
    let time = k.heap_time.(n) and ev = k.heap_ev.(n) in
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 in
      let r = l + 1 in
      let smallest = ref !i and t_min = ref time in
      if l < n && k.heap_time.(l) < !t_min then begin
        smallest := l;
        t_min := k.heap_time.(l)
      end;
      if r < n && k.heap_time.(r) < !t_min then smallest := r;
      if !smallest <> !i then begin
        k.heap_time.(!i) <- k.heap_time.(!smallest);
        k.heap_ev.(!i) <- k.heap_ev.(!smallest);
        i := !smallest
      end
      else continue := false
    done;
    k.heap_time.(!i) <- time;
    k.heap_ev.(!i) <- ev
  end

let spawn k ~name:_ run =
  let pid = k.nprocs in
  k.procs <- append k.procs pid run;
  k.queued <- append k.queued pid false;
  k.nprocs <- pid + 1;
  pid

module Event = struct
  type nonrec event = event

  let create owner _name =
    let ev =
      {
        eid = owner.nevents;
        owner;
        subs = [||];
        nsubs = 0;
        scheduled_at = -1;
        delta_pending = false;
      }
    in
    owner.events <- append owner.events ev.eid ev;
    owner.nevents <- ev.eid + 1;
    ev

  let sensitize p ev =
    ev.subs <- append ev.subs ev.nsubs p;
    ev.nsubs <- ev.nsubs + 1

  (* Drop the most recent subscription of [p], keeping the order of the
     others. *)
  let unsubscribe p ev =
    let j = ref (ev.nsubs - 1) in
    while !j >= 0 && ev.subs.(!j) <> p do
      decr j
    done;
    if !j >= 0 then begin
      Array.blit ev.subs (!j + 1) ev.subs !j (ev.nsubs - !j - 1);
      ev.nsubs <- ev.nsubs - 1
    end

  let notify_delayed ev ~delay_ps =
    if delay_ps < 0 then invalid_arg "Event.notify_delayed: negative delay";
    let k = ev.owner in
    let t = k.time_ps + delay_ps in
    (* Same-instant duplicates collapse; an earlier pending time wins. *)
    if ev.scheduled_at < 0 || t < ev.scheduled_at then begin
      ev.scheduled_at <- t;
      k.timed_notifications <- k.timed_notifications + 1;
      heap_push k t ev.eid
    end

  let notify_delta ev =
    if not ev.delta_pending then begin
      ev.delta_pending <- true;
      push ev.owner.delta_queue ev.eid
    end
end

(* Queue each not-yet-runnable subscriber of [ev], newest first. *)
let[@inline] enqueue k ev =
  for j = ev.nsubs - 1 downto 0 do
    let p = ev.subs.(j) in
    if not k.queued.(p) then begin
      k.queued.(p) <- true;
      push k.runnable p
    end
  done

(* One delta cycle: run every runnable process (evaluation phase), then
   apply the signal updates (update phase), which may prime the next
   delta cycle. *)
let[@inline] run_delta_cycle k =
  k.delta_cycles <- k.delta_cycles + 1;
  let n = k.runnable.len in
  for i = 0 to n - 1 do
    let p = k.runnable.items.(i) in
    k.queued.(p) <- false;
    k.activations <- k.activations + 1;
    k.procs.(p) ()
  done;
  consume k.runnable n;
  let n = k.updates.len in
  for i = 0 to n - 1 do
    k.updaters.(k.updates.items.(i)) ()
  done;
  consume k.updates n

(* Process every delta cycle pending at the current instant. *)
let[@inline] drain_instant k =
  while k.delta_queue.len > 0 || k.runnable.len > 0 do
    let n = k.delta_queue.len in
    for i = 0 to n - 1 do
      let ev = k.events.(k.delta_queue.items.(i)) in
      ev.delta_pending <- false;
      enqueue k ev
    done;
    consume k.delta_queue n;
    run_delta_cycle k
  done

(* Fire all timed events scheduled for the current time. *)
let[@inline] fire_current_time k =
  while k.heap_len > 0 && k.heap_time.(0) = k.time_ps do
    let ev = k.events.(k.heap_ev.(0)) in
    heap_pop k;
    (* Stale entries (event re-collapsed to another time) are
       skipped. *)
    if ev.scheduled_at = k.time_ps then begin
      ev.scheduled_at <- -1;
      enqueue k ev
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
    while
      k.heap_len > 0
      && k.events.(k.heap_ev.(0)).scheduled_at <> k.heap_time.(0)
    do
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
    uid : int;  (* updater id of the update phase of a pending write *)
  }

  let create k ~name ~eq init =
    let ev = Event.create k (name ^ ".changed") in
    let s =
      {
        cur = init;
        next = init;
        update_pending = false;
        ev;
        k;
        uid = k.nupdaters;
      }
    in
    let update () =
      s.update_pending <- false;
      k.signal_updates <- k.signal_updates + 1;
      if not (eq s.cur s.next) then begin
        s.cur <- s.next;
        Event.notify_delta ev
      end
    in
    k.updaters <- append k.updaters s.uid update;
    k.nupdaters <- s.uid + 1;
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
      push s.k.updates s.uid
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

  (* What the thread's resume process does when it next runs. *)
  type state =
    | Start of (unit -> unit)  (* run the body from the top *)
    | Waiting of (unit, unit) Effect.Deep.continuation * suspend
        (* resume the body suspended by this wait *)
    | Running

  (* One timeout event and one resume process per thread, reused by
     every wait: waiting adds nothing to the kernel's tables. *)
  type thread = {
    pid : process;
    timeout : event;
    mutable state : state;
  }

  let outside_thread what =
    invalid_arg (Printf.sprintf "De.Thread.%s: not inside a thread body" what)

  let wait_ps _k d =
    if d < 0 then invalid_arg "De.Thread.wait_ps: negative delay";
    try Effect.perform (Suspend (Wait_time d))
    with Effect.Unhandled _ -> outside_thread "wait_ps"

  let wait_event _k ev =
    try Effect.perform (Suspend (Wait_event ev))
    with Effect.Unhandled _ -> outside_thread "wait_event"

  (* Arm a one-shot resumption of the suspended thread. A timed wait
     notifies the thread's timeout event, to which its resume process
     is sensitive for good; an event wait subscribes the resume process
     to the event until its first activation, so repeated waits on a
     long-lived event do not accumulate subscribers. *)
  let arm th = function
    | Wait_time 0 -> Event.notify_delta th.timeout
    | Wait_time d -> Event.notify_delayed th.timeout ~delay_ps:d
    | Wait_event ev -> Event.sensitize th.pid ev

  let resume th () =
    match th.state with
    | Start body ->
        th.state <- Running;
        body ()
    | Waiting (cont, how) ->
        th.state <- Running;
        (match how with
        | Wait_event ev -> Event.unsubscribe th.pid ev
        | Wait_time _ -> ());
        Effect.Deep.continue cont ()
    | Running -> ()

  let spawn k ~name body =
    let open Effect.Deep in
    let timeout = Event.create k (name ^ ".timeout") in
    (* [spawn] numbers processes consecutively: the resume process gets
       the next pid. *)
    let th = { pid = k.nprocs; timeout; state = Running } in
    ignore (spawn k ~name (resume th) : process);
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
                    th.state <- Waiting (cont, how);
                    arm th how)
            | _ -> None);
      }
    in
    Event.sensitize th.pid timeout;
    (* The body starts in the first delta cycle of the current time. *)
    th.state <- Start (fun () -> match_with body () handler);
    arm th (Wait_time 0)
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
