(** Group-commit batcher shared by the Zab and PBFT substrates.

    Accumulates items and hands them to [flush] in arrival order as one
    batch when the batch is full or the oldest item has waited [max_delay]
    — but never while a previous flush is still paying [sync_cost] (the
    serial per-batch agreement cost: the leader's transaction-log fsync,
    the BFT proposer's per-instance work).  Under load, items arriving
    during a sync ride the next batch, which is how group commit
    self-clocks without a tuned delay.

    A zero [max_delay] closes the batch when the current virtual instant
    ends, so every item added at one instant shares a batch at no modelled
    latency. *)

open Edc_simnet

type config = {
  max_batch : int;  (** maximum items per proposal (clamped to >= 1) *)
  max_delay : Sim_time.t;
      (** patience of the oldest pending item; zero: until the current
          instant ends *)
  sync_cost : Sim_time.t;  (** serial per-batch agreement cost *)
}

(** One item per proposal, flushed inside [add], no sync cost:
    behaviourally identical to unbatched replication. *)
val off : config

val group_commit :
  ?max_batch:int -> ?max_delay:Sim_time.t -> ?sync_cost:Sim_time.t -> unit ->
  config

val pp : Format.formatter -> config -> unit

type 'a t

(** [create ~sim ~config ~flush] — [flush] receives each batch oldest
    first.  It is called synchronously from [add] when that [add] fills a
    batch and [sync_cost] is zero (always, with [max_batch = 1]), from a
    scheduled event otherwise. *)
val create : sim:Sim.t -> config:config -> flush:('a list -> unit) -> 'a t

(** [add t x] enqueues an item; it flushes only a full batch itself. *)
val add : 'a t -> 'a -> unit

(** Items currently waiting (not yet handed to [flush]). *)
val pending : 'a t -> int

(** [reset t] drops pending items and invalidates armed timers and
    in-flight syncs (leadership loss / view change / crash). *)
val reset : 'a t -> unit
