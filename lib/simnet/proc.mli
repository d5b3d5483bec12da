(** Cooperative fibers over the simulator (OCaml 5 effect handlers).

    Client code — session loops, coordination recipes — reads in direct
    style ("issue RPC, block, continue") while actually yielding to the
    discrete-event loop.  Fibers resume via freshly scheduled events, so
    interleavings stay deterministic. *)

type 'a promise

(** [promise sim] — a fresh unfulfilled promise. *)
val promise : Sim.t -> 'a promise

val is_fulfilled : 'a promise -> bool
val value_opt : 'a promise -> 'a option

(** [on_fulfill p f] runs [f v] when [p] resolves (immediately via a
    scheduled event if already resolved). *)
val on_fulfill : 'a promise -> ('a -> unit) -> unit

(** [try_fulfill p v] resolves [p] unless already resolved. *)
val try_fulfill : 'a promise -> 'a -> bool

(** [fulfill p v] resolves [p]; raises [Invalid_argument] if resolved. *)
val fulfill : 'a promise -> 'a -> unit

(** [await p] suspends the calling fiber until [p] resolves.  Only valid
    inside a fiber started by {!spawn} / {!async}. *)
val await : 'a promise -> 'a

(** [spawn sim f] starts fiber [f] at the current instant. *)
val spawn : Sim.t -> (unit -> unit) -> unit

(** [async sim f] starts a fiber and returns a promise of its result. *)
val async : Sim.t -> (unit -> 'a) -> 'a promise

(** [sleep sim d] suspends the calling fiber for [d]. *)
val sleep : Sim.t -> Sim_time.t -> unit

(** [yield sim] lets other events at this instant run first. *)
val yield : Sim.t -> unit

(** [join ps] awaits every promise. *)
val join : 'a promise list -> unit

(** [await_timeout sim p ~timeout] — [None] on timeout; [p] itself may
    still resolve later.  If [p] resolves first, the timeout's timer is
    cancelled ({!Sim.cancel}) rather than left to fire as a no-op. *)
val await_timeout : Sim.t -> 'a promise -> timeout:Sim_time.t -> 'a option
