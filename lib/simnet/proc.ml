(** Lightweight cooperative processes (fibers) on top of the simulator.

    Implemented with OCaml 5 effect handlers so client code — session loops,
    coordination recipes — can be written in direct style ("issue RPC, block
    for reply, continue") while actually yielding to the discrete-event
    loop.  A fiber blocks by awaiting a {!promise}; whoever fulfills the
    promise (a network delivery handler, a timer) resumes the fiber via a
    freshly scheduled simulator event, which keeps interleavings
    deterministic. *)

type 'a state = Pending of ('a -> unit) list | Fulfilled of 'a
type 'a promise = { sim : Sim.t; mutable state : 'a state }

type _ Effect.t += Await : 'a promise -> 'a Effect.t

let promise sim = { sim; state = Pending [] }

let is_fulfilled p =
  match p.state with Fulfilled _ -> true | Pending _ -> false

let value_opt p =
  match p.state with Fulfilled v -> Some v | Pending _ -> None

(** [on_fulfill p f] runs [f v] as soon as [p] is fulfilled with [v] (at the
    same simulated instant); if already fulfilled, [f] runs via a scheduled
    event at the current instant. *)
let on_fulfill p f =
  match p.state with
  | Fulfilled v -> Sim.schedule p.sim ~after:Sim_time.zero (fun () -> f v)
  | Pending waiters -> p.state <- Pending (f :: waiters)

(** [try_fulfill p v] resolves [p] unless already resolved; returns whether
    it did. *)
let try_fulfill p v =
  match p.state with
  | Fulfilled _ -> false
  | Pending waiters ->
      p.state <- Fulfilled v;
      List.iter (fun f -> f v) (List.rev waiters);
      true

(** [fulfill p v] resolves [p]; raises [Invalid_argument] if resolved. *)
let fulfill p v =
  if not (try_fulfill p v) then invalid_arg "Proc.fulfill: already fulfilled"

(** [await p] suspends the calling fiber until [p] is fulfilled.  Must be
    called from within a fiber started by {!spawn} or {!async}. *)
let await p = Effect.perform (Await p)

let handler : (unit, unit) Effect.Deep.handler =
  {
    retc = (fun () -> ());
    exnc = (fun e -> raise e);
    effc =
      (fun (type a) (eff : a Effect.t) ->
        match eff with
        | Await p ->
            Some
              (fun (k : (a, unit) Effect.Deep.continuation) ->
                on_fulfill p (fun v ->
                    Sim.schedule p.sim ~after:Sim_time.zero (fun () ->
                        Effect.Deep.continue k v)))
        | _ -> None);
  }

(** [spawn sim f] starts fiber [f] at the current simulated instant. *)
let spawn sim f =
  Sim.schedule sim ~after:Sim_time.zero (fun () ->
      Effect.Deep.match_with f () handler)

(** [async sim f] starts fiber [f] and returns a promise of its result. *)
let async sim f =
  let p = promise sim in
  spawn sim (fun () -> fulfill p (f ()));
  p

(** [sleep sim d] suspends the calling fiber for duration [d]. *)
let sleep sim d =
  let p = promise sim in
  Sim.schedule sim ~after:d (fun () -> fulfill p ());
  await p

(** [yield sim] lets other events scheduled at this instant run first. *)
let yield sim = sleep sim Sim_time.zero

(** [join ps] awaits every promise in order. *)
let join ps = List.iter (fun p -> ignore (await p)) ps

(** [await_timeout sim p ~timeout] awaits [p] but gives up after [timeout],
    returning [None].  [p] itself is left untouched and may still be
    fulfilled later.  When [p] wins, the timeout's timer is cancelled, so
    it leaves no dead event in the heap. *)
let await_timeout sim p ~timeout =
  let r = promise sim in
  let timer =
    Sim.schedule_timer sim ~after:timeout (fun () ->
        ignore (try_fulfill r None : bool))
  in
  on_fulfill p (fun v -> if try_fulfill r (Some v) then Sim.cancel sim timer);
  await r
