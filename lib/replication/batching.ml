(** Group-commit batcher shared by both replication substrates.

    Real coordination services never run one agreement round per client
    operation: ZooKeeper's leader groups transaction-log writes behind a
    single fsync (group commit), and BFT-SMaRt's proposer packs every
    request that arrived during the previous consensus instance into the
    next PRE-PREPARE.  This module factors that mechanism out: items are
    accumulated and handed to [flush] in arrival order, as one batch,
    when either

    - the batch is full ([max_batch] items), or
    - the oldest pending item has waited [max_delay], and

    a previous flush is not still syncing.  [sync_cost] models the serial
    per-batch cost of the agreement round itself (the leader's log fsync,
    the proposer's per-instance protocol work): while a flush is paying it,
    arrivals pile up and ride the *next* batch — which is exactly how group
    commit self-clocks under load without any tuned delay.

    [add] itself only ever closes a full batch.  A batch closes on time
    in a scheduled event at the instant its oldest item's wait expires, so
    with [max_delay = 0] the batch closes when the current virtual instant
    ends: every item added at that instant rides one proposal, and no
    added latency is modelled.  [max_batch = 1] ([off]) makes every [add]
    flush a singleton synchronously, and the batcher is a no-op: the
    unbatched protocols behave bit-for-bit as before. *)

open Edc_simnet

type config = {
  max_batch : int;  (** maximum items packed into one proposal (>= 1) *)
  max_delay : Sim_time.t;
      (** how long the oldest pending item may wait for company *)
  sync_cost : Sim_time.t;
      (** serial per-batch agreement cost (log fsync / proposer work) *)
}

(** Unbatched: one item per proposal, no added latency, no modelled sync
    cost.  Behaviourally identical to the pre-batching protocols. *)
let off = { max_batch = 1; max_delay = Sim_time.zero; sync_cost = Sim_time.zero }

let group_commit ?(max_batch = 32) ?(max_delay = Sim_time.zero)
    ?(sync_cost = Sim_time.zero) () =
  { max_batch = Stdlib.max 1 max_batch; max_delay; sync_cost }

let pp ppf c =
  Fmt.pf ppf "batch<=%d delay=%a sync=%a" c.max_batch Sim_time.pp c.max_delay
    Sim_time.pp c.sync_cost

type 'a t = {
  sim : Sim.t;
  config : config;
  flush : 'a list -> unit;
  mutable pending : 'a list;  (** newest first *)
  mutable n_pending : int;
  mutable oldest : Sim_time.t;  (** arrival time of the oldest pending item *)
  mutable syncing : bool;  (** a flush is paying [sync_cost] right now *)
  mutable timer_armed : bool;
  mutable generation : int;  (** invalidates timers and in-flight syncs *)
}

let create ~sim ~config ~flush =
  {
    sim;
    config = { config with max_batch = Stdlib.max 1 config.max_batch };
    flush;
    pending = [];
    n_pending = 0;
    oldest = Sim_time.zero;
    syncing = false;
    timer_armed = false;
    generation = 0;
  }

let pending t = t.n_pending

(** [reset t] drops pending items and invalidates any armed timer or
    in-flight sync (leadership loss, view change, crash).  Dropped items
    are exactly the proposals that would have been lost had they been
    proposed individually at the same instant. *)
let reset t =
  t.pending <- [];
  t.n_pending <- 0;
  t.syncing <- false;
  t.timer_armed <- false;
  t.generation <- t.generation + 1

(* Oldest-first batch of at most [max_batch] items; the remainder stays
   pending with its wait clock restarted. *)
let take_batch t =
  let rec split k acc rest =
    match rest with
    | [] -> (List.rev acc, [])
    | _ when k = 0 -> (List.rev acc, rest)
    | x :: rest -> split (k - 1) (x :: acc) rest
  in
  let batch, rest = split t.config.max_batch [] (List.rev t.pending) in
  t.pending <- List.rev rest;
  t.n_pending <- List.length rest;
  if rest <> [] then t.oldest <- Sim.now t.sim;
  batch

(* [~arrival]: called from [add], which closes only a full batch; the
   timer and sync-completion events also close a batch whose wait is up. *)
let rec maybe_flush ~arrival t =
  if (not t.syncing) && t.n_pending > 0 then begin
    let due =
      t.n_pending >= t.config.max_batch
      || (not arrival)
         && Sim_time.(Sim_time.add t.oldest t.config.max_delay <= Sim.now t.sim)
    in
    if due then begin
      let batch = take_batch t in
      if Sim_time.(t.config.sync_cost <= Sim_time.zero) then begin
        t.flush batch;
        maybe_flush ~arrival t
      end
      else begin
        t.syncing <- true;
        let gen = t.generation in
        Sim.schedule t.sim ~after:t.config.sync_cost (fun () ->
            if gen = t.generation then begin
              t.syncing <- false;
              t.flush batch;
              maybe_flush ~arrival:false t
            end)
      end
    end
    else if not t.timer_armed then begin
      t.timer_armed <- true;
      let gen = t.generation in
      Sim.schedule_at t.sim
        ~at:(Sim_time.add t.oldest t.config.max_delay)
        (fun () ->
          if gen = t.generation then begin
            t.timer_armed <- false;
            maybe_flush ~arrival:false t
          end)
    end
  end

let add t x =
  if t.n_pending = 0 then t.oldest <- Sim.now t.sim;
  t.pending <- x :: t.pending;
  t.n_pending <- t.n_pending + 1;
  maybe_flush ~arrival:true t
