(** Priority queue of timed events: a binary min-heap keyed by
    [(time, seq)], [seq] counting insertions.  The insertion-order
    tie-break gives equal-time events a stable firing order — the root of
    the whole simulator's determinism.

    The heap orders unboxed [int] arrays only; payloads stay put in
    their own slots, and released slots hold the [vacant] value given to
    {!create}.  {!push}, {!top_time} and {!take} allocate nothing beyond
    amortised array growth.  A {!cancel}led entry is never returned nor
    counted, and the queue compacts once cancelled entries outnumber
    live ones.  Keys are unique, so the pop order of the remaining
    entries never changes (DESIGN.md §6k). *)

type 'a t

(** A cancellable entry, from {!push_cancellable}. *)
type handle

val create : vacant:'a -> unit -> 'a t

(** Live (not cancelled) entries. *)
val length : 'a t -> int

val is_empty : 'a t -> bool

(** [push q ~time payload] inserts; equal times pop in insertion order. *)
val push : 'a t -> time:Sim_time.t -> 'a -> unit

val push_cancellable : 'a t -> time:Sim_time.t -> 'a -> handle

(** [cancel q h] drops [h]'s entry; a no-op once it was taken, cleared
    or cancelled. *)
val cancel : 'a t -> handle -> unit

(** Earliest live time / remove the earliest live entry and return its
    payload; neither allocates.  Both raise [Invalid_argument] when
    empty. *)
val top_time : 'a t -> Sim_time.t

val take : 'a t -> 'a
val peek_time : 'a t -> Sim_time.t option

(** [pop q] removes and returns the earliest event. *)
val pop : 'a t -> (Sim_time.t * 'a) option

val clear : 'a t -> unit
