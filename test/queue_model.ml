(* Reference model of Edc_simnet.Event_queue for the model-based test:
   the live entries as a list sorted by (time, seq), each entry's payload
   being its own sequence number.  Handles are the sequence numbers;
   cancelling one that is no longer listed does nothing. *)

type t = { mutable live : (int * int) list; mutable next_seq : int }

let create () = { live = []; next_seq = 0 }

(* [push m ~time] inserts an entry and returns its sequence number. *)
let push m ~time =
  let seq = m.next_seq in
  m.next_seq <- seq + 1;
  m.live <- List.merge compare m.live [ (time, seq) ];
  seq

let cancel m seq = m.live <- List.filter (fun (_, s) -> s <> seq) m.live

let pop m =
  match m.live with
  | [] -> None
  | entry :: rest ->
      m.live <- rest;
      Some entry

let peek_time m = match m.live with [] -> None | (time, _) :: _ -> Some time
let length m = List.length m.live
let clear m = m.live <- []
