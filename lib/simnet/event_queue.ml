(** Priority queue of timed events.

    A binary min-heap keyed by [(time, seq)].  The sequence number is a
    monotonically increasing tie-breaker assigned at insertion, so events
    scheduled for the same instant fire in insertion order.  This stable
    ordering is what makes the whole simulation deterministic.

    Slots at or past [size] hold the shared constant [Vacant], never a
    fired event: a stale slot would keep the event's payload (a closure
    and everything it captured) reachable until the slot is reused. *)

type 'a entry = Vacant | Event of { time : Sim_time.t; seq : int; payload : 'a }

type 'a t = {
  mutable heap : 'a entry array;
  mutable size : int;
  mutable next_seq : int;
}

let entry_before a b =
  match (a, b) with
  | Event a, Event b -> a.time < b.time || (a.time = b.time && a.seq < b.seq)
  | _ -> assert false (* slots below [size] hold events *)

let create () = { heap = [||]; size = 0; next_seq = 0 }

let length q = q.size
let is_empty q = q.size = 0

let grow q =
  let capacity = Array.length q.heap in
  if q.size >= capacity then begin
    let new_capacity = Stdlib.max 16 (2 * capacity) in
    let heap = Array.make new_capacity Vacant in
    Array.blit q.heap 0 heap 0 q.size;
    q.heap <- heap
  end

let swap q i j =
  let tmp = q.heap.(i) in
  q.heap.(i) <- q.heap.(j);
  q.heap.(j) <- tmp

let rec sift_up q i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if entry_before q.heap.(i) q.heap.(parent) then begin
      swap q i parent;
      sift_up q parent
    end
  end

let rec sift_down q i =
  let left = (2 * i) + 1 and right = (2 * i) + 2 in
  let smallest = ref i in
  if left < q.size && entry_before q.heap.(left) q.heap.(!smallest) then
    smallest := left;
  if right < q.size && entry_before q.heap.(right) q.heap.(!smallest) then
    smallest := right;
  if !smallest <> i then begin
    swap q i !smallest;
    sift_down q !smallest
  end

(** [push q ~time payload] inserts an event; events with equal time pop in
    insertion order. *)
let push q ~time payload =
  let e = Event { time; seq = q.next_seq; payload } in
  q.next_seq <- q.next_seq + 1;
  grow q;
  q.heap.(q.size) <- e;
  q.size <- q.size + 1;
  sift_up q (q.size - 1)

let peek_time q =
  if q.size = 0 then None
  else match q.heap.(0) with Event e -> Some e.time | Vacant -> assert false

(** [pop q] removes and returns the earliest event as [(time, payload)]. *)
let pop q =
  if q.size = 0 then None
  else
    match q.heap.(0) with
    | Vacant -> assert false
    | Event top ->
        q.size <- q.size - 1;
        q.heap.(0) <- q.heap.(q.size);
        q.heap.(q.size) <- Vacant;
        if q.size > 0 then sift_down q 0;
        Some (top.time, top.payload)

(** [clear q] drops all pending events. *)
let clear q =
  Array.fill q.heap 0 q.size Vacant;
  q.size <- 0
