(** Binary codec for {!Pbft} protocol messages (DESIGN.md §6g), parametric
    in the payload codec like {!Zab_wire}. *)

open Edc_simnet
open Edc_wire
module W = Wire.Writer
module R = Wire.Reader

let write_rid w (r : Pbft.request_id) =
  W.begin_list w;
  W.int w r.client;
  W.int w r.rseq;
  W.end_list w

let read_rid r =
  R.begin_list r;
  let client = R.int r in
  let rseq = R.int r in
  R.end_list r;
  { Pbft.client; rseq }

let write_batch wp w batch =
  W.list w
    (fun w (rid, p) ->
      W.begin_list w;
      write_rid w rid;
      wp w p;
      W.end_list w)
    batch

let read_batch rp r =
  R.list r (fun r ->
      R.begin_list r;
      let rid = read_rid r in
      let p = rp r in
      R.end_list r;
      (rid, p))

let write ~payload:wp w (m : 'p Pbft.msg) =
  W.begin_list w;
  (match m with
  | Pbft.Pre_prepare { view; seq; batch; ts } ->
      W.int w 0;
      W.int w view;
      W.int w seq;
      write_batch wp w batch;
      W.int w (Sim_time.to_ns ts)
  | Pbft.Prepare { view; seq } ->
      W.int w 1;
      W.int w view;
      W.int w seq
  | Pbft.Commit { view; seq } ->
      W.int w 2;
      W.int w view;
      W.int w seq
  | Pbft.View_change { new_view; delivered; pending } ->
      W.int w 3;
      W.int w new_view;
      write_batch wp w delivered;
      write_batch wp w pending
  | Pbft.New_view { view } ->
      W.int w 4;
      W.int w view
  | Pbft.Recover_request -> W.int w 5
  | Pbft.Recover_reply { view } ->
      W.int w 6;
      W.int w view);
  W.end_list w

let read ~payload:rp r =
  R.begin_list r;
  let m =
    match R.int r with
    | 0 ->
        let view = R.int r in
        let seq = R.int r in
        let batch = read_batch rp r in
        let ts = Sim_time.ns (R.int r) in
        Pbft.Pre_prepare { view; seq; batch; ts }
    | 1 ->
        let view = R.int r in
        let seq = R.int r in
        Pbft.Prepare { view; seq }
    | 2 ->
        let view = R.int r in
        let seq = R.int r in
        Pbft.Commit { view; seq }
    | 3 ->
        let new_view = R.int r in
        let delivered = read_batch rp r in
        let pending = read_batch rp r in
        Pbft.View_change { new_view; delivered; pending }
    | 4 ->
        let view = R.int r in
        Pbft.New_view { view }
    | 5 -> Pbft.Recover_request
    | 6 ->
        let view = R.int r in
        Pbft.Recover_reply { view }
    | t -> R.error r (Printf.sprintf "bad pbft tag %d" t)
  in
  R.end_list r;
  m
