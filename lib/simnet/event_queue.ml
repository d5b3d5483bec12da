(** Priority queue of timed events (see the interface).

    A binary min-heap over three parallel [int] arrays: [times], [keys]
    and [slots].  A key is [(seq lsl 1) lor cancellable] with [seq]
    counting insertions, so keys are unique and [(time, key)] breaks time
    ties in insertion order.  Payloads sit in [payloads] at the entry's
    slot and never move, so sifts shuffle unboxed ints only, with no
    write barrier.  [state] says per slot whether it is live, cancelled,
    or free (then it links to the next free slot).  While the free list
    is empty the slots in use are exactly [0 .. size - 1].

    [armed] maps the key of each cancellable entry still due to fire to
    its slot.  Cancelling marks the slot and releases its payload at
    once; the dead entry leaves the heap when it reaches the root (the
    root is always live) or at a compaction, once dead entries outnumber
    live ones. *)

module Keys = Hashtbl.Make (Int)

type handle = int

(* [state] values other than a free slot's successor (>= 0) *)
let live = -1
let cancelled = -2
let no_slot = -3

type 'a t = {
  vacant : 'a;
  mutable times : int array;
  mutable keys : int array;
  mutable slots : int array;
  mutable payloads : 'a array;  (** by slot *)
  mutable state : int array;  (** by slot *)
  mutable free : int;  (** first free slot, or [no_slot] *)
  mutable size : int;  (** entries, dead ones included *)
  mutable dead : int;
  mutable next_seq : int;
  armed : int Keys.t;
}

let create ~vacant () =
  { vacant; times = [||]; keys = [||]; slots = [||]; payloads = [||]; state = [||];
    free = no_slot; size = 0; dead = 0; next_seq = 0; armed = Keys.create 64 }

let length q = q.size - q.dead
let is_empty q = q.size = 0

let extend a ~capacity ~fill =
  let b = Array.make capacity fill in
  Array.blit a 0 b 0 (Array.length a);
  b

(* Only called when full, so every slot is in use. *)
let grow q =
  let capacity = Int.max 16 (2 * q.size) in
  q.times <- extend q.times ~capacity ~fill:0;
  q.keys <- extend q.keys ~capacity ~fill:0;
  q.slots <- extend q.slots ~capacity ~fill:0;
  q.state <- extend q.state ~capacity ~fill:0;
  q.payloads <- extend q.payloads ~capacity ~fill:q.vacant

let before (t1 : int) (k1 : int) t2 k2 = t1 < t2 || (t1 = t2 && k1 < k2)

let set q i time key slot =
  q.times.(i) <- time;
  q.keys.(i) <- key;
  q.slots.(i) <- slot

let move q ~src ~dst = set q dst q.times.(src) q.keys.(src) q.slots.(src)

(* Place an entry at hole [i] or above it. *)
let rec sift_up q i time key slot =
  let parent = (i - 1) / 2 in
  if i > 0 && before time key q.times.(parent) q.keys.(parent) then begin
    move q ~src:parent ~dst:i;
    sift_up q parent time key slot
  end
  else set q i time key slot

(* Place an entry at hole [i] or below it. *)
let rec sift_down q i time key slot =
  let left = (2 * i) + 1 and right = (2 * i) + 2 in
  let child =
    if right < q.size && before q.times.(right) q.keys.(right) q.times.(left) q.keys.(left)
    then right
    else left
  in
  if child < q.size && before q.times.(child) q.keys.(child) time key then begin
    move q ~src:child ~dst:i;
    sift_down q child time key slot
  end
  else set q i time key slot

let release q slot =
  q.payloads.(slot) <- q.vacant;
  q.state.(slot) <- q.free;
  q.free <- slot

let is_dead q i = q.state.(q.slots.(i)) = cancelled

let remove_root q =
  let last = q.size - 1 in
  q.size <- last;
  if last > 0 then sift_down q 0 q.times.(last) q.keys.(last) q.slots.(last)

let rec drop_dead_root q =
  if q.size > 0 && is_dead q 0 then begin
    release q q.slots.(0);
    remove_root q;
    q.dead <- q.dead - 1;
    drop_dead_root q
  end

(* Keep the live entries and heapify them bottom-up. *)
let compact q =
  let kept = ref 0 in
  for i = 0 to q.size - 1 do
    if is_dead q i then release q q.slots.(i)
    else begin
      move q ~src:i ~dst:!kept;
      incr kept
    end
  done;
  q.size <- !kept;
  q.dead <- 0;
  for i = (q.size / 2) - 1 downto 0 do
    sift_down q i q.times.(i) q.keys.(i) q.slots.(i)
  done

(* Put [payload] in a free slot, growing the arrays when full. *)
let store q payload =
  if q.size = Array.length q.times then grow q;
  let slot = q.free in
  let slot = if slot = no_slot then q.size else (q.free <- q.state.(slot); slot) in
  q.payloads.(slot) <- payload;
  q.state.(slot) <- live;
  slot

let insert q ~time ~cancellable slot =
  let key = (q.next_seq lsl 1) lor Bool.to_int cancellable in
  q.next_seq <- q.next_seq + 1;
  q.size <- q.size + 1;
  sift_up q (q.size - 1) time key slot;
  key

let push q ~time payload =
  ignore (insert q ~time ~cancellable:false (store q payload) : int)

let push_cancellable q ~time payload =
  let slot = store q payload in
  let key = insert q ~time ~cancellable:true slot in
  Keys.replace q.armed key slot;
  key

let cancel q handle =
  match Keys.find q.armed handle with
  | exception Not_found -> ()
  | slot ->
      Keys.remove q.armed handle;
      q.state.(slot) <- cancelled;
      q.payloads.(slot) <- q.vacant;
      q.dead <- q.dead + 1;
      drop_dead_root q;
      if q.dead > q.size - q.dead then compact q

let top_time q =
  if q.size = 0 then invalid_arg "Event_queue.top_time: empty queue";
  q.times.(0)

let take q =
  if q.size = 0 then invalid_arg "Event_queue.take: empty queue";
  let slot = q.slots.(0) in
  let payload = q.payloads.(slot) in
  if q.keys.(0) land 1 = 1 then Keys.remove q.armed q.keys.(0);
  release q slot;
  remove_root q;
  drop_dead_root q;
  payload

let peek_time q = if q.size = 0 then None else Some q.times.(0)

let pop q =
  if q.size = 0 then None
  else
    let time = q.times.(0) in
    Some (time, take q)

let clear q =
  Array.fill q.payloads 0 (Array.length q.payloads) q.vacant;
  q.free <- no_slot;
  q.size <- 0;
  q.dead <- 0;
  Keys.reset q.armed
