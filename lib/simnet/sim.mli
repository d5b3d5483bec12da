(** Discrete-event simulation engine.

    One virtual clock and one event heap drive the whole repository —
    network delivery, server CPU, client think time, protocol timers —
    which is what makes entire-cluster runs bit-for-bit reproducible from
    a seed. *)

type t

(** A cancellable scheduled event. *)
type timer

(** [create ~seed ()] — a fresh simulation; equal seeds give equal runs. *)
val create : ?seed:int -> unit -> t

(** Current virtual time. *)
val now : t -> Sim_time.t

(** The root deterministic generator; split it per component. *)
val rng : t -> Rng.t

(** Events processed so far (runaway guard / test observability). *)
val executed_events : t -> int

(** [schedule t ~after f] runs [f] at [now + after] (clamped to now). *)
val schedule : t -> after:Sim_time.t -> (unit -> unit) -> unit

(** [schedule_at t ~at f] runs [f] at absolute time [at] (clamped to now). *)
val schedule_at : t -> at:Sim_time.t -> (unit -> unit) -> unit

(** [schedule_timer t ~after f] is {!schedule}, returning a handle for
    {!cancel}. *)
val schedule_timer : t -> after:Sim_time.t -> (unit -> unit) -> timer

(** [cancel t timer] withdraws [timer]'s event: it never runs, never
    moves the clock, and leaves {!pending}.  For timeouts that usually do
    not fire, such as request deadlines.  A no-op once the event has run
    or was cancelled. *)
val cancel : t -> timer -> unit

(** [stop t] makes {!run} return after the current event. *)
val stop : t -> unit

(** [step t] executes the earliest event; [false] when the heap is empty. *)
val step : t -> bool

(** [run ?until ?max_events t] drains events in timestamp order.  Stops at
    an empty heap, past [until] (later events stay queued; the clock
    advances to [until]), after [max_events] executed events, or on
    {!stop}.  Cancelled timers are never run, so they count neither
    toward [max_events] nor in {!executed_events}. *)
val run : ?until:Sim_time.t -> ?max_events:int -> t -> unit

(** Queued live events: cancelled timers are not counted. *)
val pending : t -> int
