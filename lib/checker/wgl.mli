(** Wing–Gong linearizability search with the Lowe-style configuration
    memoization (JIT-linearization): depth-first over the partial orders
    of a history, caching (linearized-set, model-state) configurations so
    equivalent interleavings are explored once, under a per-history step
    budget.

    Operations that concluded [Failed] are excluded (no effect);
    operations that concluded [Open] — "maybe applied" or still running —
    are {e optional}: the search may linearize them at any point after
    their invocation with any model-allowed response, or never.  A
    history is linearizable when all {e required} (completed) operations
    linearize. *)

open Edc_simnet

type counterexample = {
  cx_cut : Sim_time.t option;
      (** completion-time cut of the minimal failing prefix ([None] if
          minimization could not shrink the history) *)
  cx_ops : int;  (** operations in the failing prefix *)
  cx_required : int;
  cx_linearized : int;
      (** the deepest linearization the search reached — the window below
          is what it could never order *)
  cx_window : History.entry list;
      (** required-but-unlinearizable operations, by invocation time *)
}

type verdict =
  | Linearizable of { ops : int; states : int }
      (** [states] = distinct configurations visited *)
  | Non_linearizable of counterexample
  | Budget_exhausted of { ops : int; steps : int }

val is_ok : verdict -> bool
(** [true] only for [Linearizable]. *)

val check :
  ?max_steps:int -> Model.t -> History.entry list -> verdict
(** [max_steps] bounds each search attempt (the full history and each
    minimization probe separately); default 300_000. *)

val check_history :
  ?max_steps:int -> History.t -> (string * verdict) list
(** The compositional pass: one search per object of the history that
    {!Model.for_object} knows, paired with the object's name, in
    {!History.split} order. *)

val pp_verdict : Format.formatter -> verdict -> unit
val pp_window : Format.formatter -> History.entry list -> unit
