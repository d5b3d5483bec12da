(** Binary codec for {!Zab} protocol messages (DESIGN.md §6g/§6h).

    One streaming codec, [write]/[read], parametric in the payload codec
    like ['p Zab.msg] itself: the deployment supplies the [~payload]
    writer and reader for its transaction type.  Every variant is a list
    frame headed by a small integer tag; [read] is total — under
    [Wire.Reader.run], malformed shapes come back as [Error].  The byte
    format is pinned by the golden corpus in test/test_golden.ml.

    Tag registry (append-only; never reuse a retired value):
    0 Ping, 1 Propose, 2 Ack, 3 Commit, 4 Request_vote, 5 Vote,
    6 Sync_request, 7 Sync, 8 Snapshot_begin, 9 Snapshot_chunk,
    10 Snapshot_ack, 11 Join_request, 12 Fence, 13 Lease_grant,
    14 Observer_request.
    Timestamps ([Ping.sent], [Lease_grant.sent]) travel as integer
    nanoseconds of the sender's virtual clock.
    Entry payloads are themselves tagged: 0 App, 1 Cc_joint, 2 Cc_final.
    Membership frames: 0 Stable, 1 Joint. *)

open Edc_wire
module W = Wire.Writer
module R = Wire.Reader

let write_zxid w (z : Zab.zxid) =
  W.begin_list w;
  W.int w z.epoch;
  W.int w z.counter;
  W.end_list w

let read_zxid r =
  R.begin_list r;
  let epoch = R.int r in
  let counter = R.int r in
  R.end_list r;
  { Zab.epoch; counter }

let write_member_set w m = W.list w W.int m
let read_member_set r = R.list r R.int

let write_membership w = function
  | Zab.Stable m ->
      W.begin_list w;
      W.int w 0;
      write_member_set w m;
      W.end_list w
  | Zab.Joint { c_old; c_new } ->
      W.begin_list w;
      W.int w 1;
      write_member_set w c_old;
      write_member_set w c_new;
      W.end_list w

let read_membership r =
  R.begin_list r;
  let v =
    match R.int r with
    | 0 ->
        let m = read_member_set r in
        Zab.Stable m
    | 1 ->
        let c_old = read_member_set r in
        let c_new = read_member_set r in
        Zab.Joint { c_old; c_new }
    | t -> R.error r (Printf.sprintf "bad membership tag %d" t)
  in
  R.end_list r;
  v

let write_payload_frame wp w = function
  | Zab.App p ->
      W.begin_list w;
      W.int w 0;
      wp w p;
      W.end_list w
  | Zab.Config (Zab.Cc_joint { c_old; c_new }) ->
      W.begin_list w;
      W.int w 1;
      write_member_set w c_old;
      write_member_set w c_new;
      W.end_list w
  | Zab.Config (Zab.Cc_final { members }) ->
      W.begin_list w;
      W.int w 2;
      write_member_set w members;
      W.end_list w

let read_payload_frame rp r =
  R.begin_list r;
  let v =
    match R.int r with
    | 0 -> Zab.App (rp r)
    | 1 ->
        let c_old = read_member_set r in
        let c_new = read_member_set r in
        Zab.Config (Zab.Cc_joint { c_old; c_new })
    | 2 ->
        let members = read_member_set r in
        Zab.Config (Zab.Cc_final { members })
    | t -> R.error r (Printf.sprintf "bad entry payload tag %d" t)
  in
  R.end_list r;
  v

let write_entry wp w (e : 'p Zab.entry) =
  W.begin_list w;
  write_zxid w e.zxid;
  write_payload_frame wp w e.payload;
  W.end_list w

let read_entry rp r =
  R.begin_list r;
  let zxid = read_zxid r in
  let payload = read_payload_frame rp r in
  R.end_list r;
  { Zab.zxid; payload }

let write ~payload:wp w (m : 'p Zab.msg) =
  W.begin_list w;
  (match m with
  | Zab.Ping { epoch; committed; sent } ->
      W.int w 0;
      W.int w epoch;
      W.int w committed;
      W.int w (Edc_simnet.Sim_time.to_ns sent)
  | Zab.Propose { epoch; index; prev_zxid; entries } ->
      W.int w 1;
      W.int w epoch;
      W.int w index;
      write_zxid w prev_zxid;
      W.list w (write_entry wp) entries
  | Zab.Ack { epoch; upto } ->
      W.int w 2;
      W.int w epoch;
      W.int w upto
  | Zab.Commit { epoch; index } ->
      W.int w 3;
      W.int w epoch;
      W.int w index
  | Zab.Request_vote { epoch; candidate; last_zxid } ->
      W.int w 4;
      W.int w epoch;
      W.int w candidate;
      write_zxid w last_zxid
  | Zab.Vote { epoch } ->
      W.int w 5;
      W.int w epoch
  | Zab.Sync_request { epoch; have } ->
      W.int w 6;
      W.int w epoch;
      W.int w have
  | Zab.Sync { epoch; from; entries; committed } ->
      W.int w 7;
      W.int w epoch;
      W.int w from;
      W.list w (write_entry wp) entries;
      W.int w committed
  | Zab.Snapshot_begin { epoch; base; total; chunk_size; digest; committed; config }
    ->
      W.int w 8;
      W.int w epoch;
      W.int w base;
      W.int w total;
      W.int w chunk_size;
      W.str w digest;
      W.int w committed;
      write_membership w config
  | Zab.Snapshot_chunk { epoch; base; seq; data } ->
      W.int w 9;
      W.int w epoch;
      W.int w base;
      W.int w seq;
      W.str w data
  | Zab.Snapshot_ack { epoch; base; received } ->
      W.int w 10;
      W.int w epoch;
      W.int w base;
      W.int w received
  | Zab.Join_request { epoch; id } ->
      W.int w 11;
      W.int w epoch;
      W.int w id
  | Zab.Fence { epoch } ->
      W.int w 12;
      W.int w epoch
  | Zab.Lease_grant { epoch; sent } ->
      W.int w 13;
      W.int w epoch;
      W.int w (Edc_simnet.Sim_time.to_ns sent)
  | Zab.Observer_request { epoch; id } ->
      W.int w 14;
      W.int w epoch;
      W.int w id);
  W.end_list w

let read ~payload:rp r =
  R.begin_list r;
  let m =
    match R.int r with
    | 0 ->
        let epoch = R.int r in
        let committed = R.int r in
        let sent = Edc_simnet.Sim_time.ns (R.int r) in
        Zab.Ping { epoch; committed; sent }
    | 1 ->
        let epoch = R.int r in
        let index = R.int r in
        let prev_zxid = read_zxid r in
        let entries = R.list r (read_entry rp) in
        Zab.Propose { epoch; index; prev_zxid; entries }
    | 2 ->
        let epoch = R.int r in
        let upto = R.int r in
        Zab.Ack { epoch; upto }
    | 3 ->
        let epoch = R.int r in
        let index = R.int r in
        Zab.Commit { epoch; index }
    | 4 ->
        let epoch = R.int r in
        let candidate = R.int r in
        let last_zxid = read_zxid r in
        Zab.Request_vote { epoch; candidate; last_zxid }
    | 5 ->
        let epoch = R.int r in
        Zab.Vote { epoch }
    | 6 ->
        let epoch = R.int r in
        let have = R.int r in
        Zab.Sync_request { epoch; have }
    | 7 ->
        let epoch = R.int r in
        let from = R.int r in
        let entries = R.list r (read_entry rp) in
        let committed = R.int r in
        Zab.Sync { epoch; from; entries; committed }
    | 8 ->
        let epoch = R.int r in
        let base = R.int r in
        let total = R.int r in
        let chunk_size = R.int r in
        let digest = R.str r in
        let committed = R.int r in
        let config = read_membership r in
        Zab.Snapshot_begin
          { epoch; base; total; chunk_size; digest; committed; config }
    | 9 ->
        let epoch = R.int r in
        let base = R.int r in
        let seq = R.int r in
        let data = R.str r in
        Zab.Snapshot_chunk { epoch; base; seq; data }
    | 10 ->
        let epoch = R.int r in
        let base = R.int r in
        let received = R.int r in
        Zab.Snapshot_ack { epoch; base; received }
    | 11 ->
        let epoch = R.int r in
        let id = R.int r in
        Zab.Join_request { epoch; id }
    | 12 ->
        let epoch = R.int r in
        Zab.Fence { epoch }
    | 13 ->
        let epoch = R.int r in
        let sent = Edc_simnet.Sim_time.ns (R.int r) in
        Zab.Lease_grant { epoch; sent }
    | 14 ->
        let epoch = R.int r in
        let id = R.int r in
        Zab.Observer_request { epoch; id }
    | t -> R.error r (Printf.sprintf "bad zab tag %d" t)
  in
  R.end_list r;
  m
