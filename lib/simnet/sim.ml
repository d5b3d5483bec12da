(** Discrete-event simulation engine.

    A single virtual clock and an event heap.  Components schedule closures
    to run at future instants; [run] drains the heap in timestamp order,
    advancing the clock.  Everything in the repository — network delivery,
    server processing, client think time, timeouts — is driven through this
    one loop, which is what makes whole-cluster runs deterministic. *)

type t = {
  mutable now : Sim_time.t;
  events : (unit -> unit) Event_queue.t;
  rng : Rng.t;
  mutable stopped : bool;
  mutable executed : int;
}

type timer = Event_queue.handle

(* Fills the event heap's empty slots. *)
let vacant () = ()

let create ?(seed = 42) () =
  {
    now = Sim_time.zero;
    events = Event_queue.create ~vacant ();
    rng = Rng.create seed;
    stopped = false;
    executed = 0;
  }

let now t = t.now
let rng t = t.rng

(** [executed_events t] counts events processed so far (useful in tests and
    as a runaway guard). *)
let executed_events t = t.executed

(** [schedule t ~after f] runs [f] at [now + after].  Negative delays are
    clamped to zero. *)
let schedule t ~after f =
  let after = Sim_time.max after Sim_time.zero in
  Event_queue.push t.events ~time:(Sim_time.add t.now after) f

(** [schedule_at t ~at f] runs [f] at absolute time [at] (clamped to now). *)
let schedule_at t ~at f =
  Event_queue.push t.events ~time:(Sim_time.max at t.now) f

(** [schedule_timer t ~after f] is [schedule], returning a handle for
    [cancel]. *)
let schedule_timer t ~after f =
  let after = Sim_time.max after Sim_time.zero in
  Event_queue.push_cancellable t.events ~time:(Sim_time.add t.now after) f

let cancel t timer = Event_queue.cancel t.events timer

(** [stop t] makes [run] return after the current event. *)
let stop t = t.stopped <- true

(** [step t] executes the earliest pending event; returns [false] when the
    heap is empty. *)
let step t =
  if Event_queue.is_empty t.events then false
  else begin
    let time = Event_queue.top_time t.events in
    let f = Event_queue.take t.events in
    t.now <- Sim_time.max t.now time;
    t.executed <- t.executed + 1;
    f ();
    true
  end

(** [run ?until ?max_events t] drains the event heap in order.  Stops when
    the heap is empty, when the next event lies beyond [until], after
    [max_events] events, or after [stop].  Events beyond [until] remain
    queued, and the clock is advanced to [until] so a subsequent [run] picks
    up where this one left off.  Cancelled timers never run or count. *)
let run ?until ?max_events t =
  t.stopped <- false;
  let budget = ref (match max_events with None -> -1 | Some n -> n) in
  let continue_ = ref true in
  while !continue_ do
    if t.stopped || !budget = 0 || Event_queue.is_empty t.events then
      continue_ := false
    else
      match until with
      | Some horizon when Sim_time.(horizon < Event_queue.top_time t.events) ->
          t.now <- Sim_time.max t.now horizon;
          continue_ := false
      | _ ->
          ignore (step t : bool);
          if !budget > 0 then decr budget
  done;
  match until with
  | Some horizon when Event_queue.is_empty t.events ->
      (* No more events: still report the requested horizon as "now". *)
      t.now <- Sim_time.max t.now horizon
  | _ -> ()

(** [pending t] is the number of queued live (not cancelled) events. *)
let pending t = Event_queue.length t.events
