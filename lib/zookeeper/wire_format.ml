(** Binary codecs for the ZooKeeper layer's durable and wire-crossing
    types (DESIGN.md §6g): errors, watch kinds, stats, znodes, portable
    tree images, transactions, and the client protocol.

    One streaming [write_*]/[read_*] pair per type, straight to and from
    bytes.  Every [read_*] treats its input as untrusted: any malformed
    shape aborts the enclosing [Wire.Reader.run] with a clean [Error].
    Every [write_*] is deterministic (children sets render as sorted
    lists, COW stamps are not encoded), so equal states encode to
    byte-identical frames on every replica and OCaml version.  The byte
    format is pinned by the golden corpus in test/test_golden.ml. *)

open Edc_wire
module W = Wire.Writer
module R = Wire.Reader

let write_zerror w (e : Zerror.t) =
  match e with
  | Zerror.No_node -> W.int w 0
  | Zerror.Node_exists -> W.int w 1
  | Zerror.Bad_version -> W.int w 2
  | Zerror.Not_empty -> W.int w 3
  | Zerror.No_children_for_ephemerals -> W.int w 4
  | Zerror.Invalid_path -> W.int w 5
  | Zerror.Session_expired -> W.int w 6
  | Zerror.Not_leader -> W.int w 7
  | Zerror.Unsupported -> W.int w 8
  | Zerror.Timeout -> W.int w 9
  | Zerror.Maybe_applied -> W.int w 10
  | Zerror.Extension_error msg ->
      W.begin_list w;
      W.int w 11;
      W.str w msg;
      W.end_list w
  | Zerror.Locked -> W.int w 12
  | Zerror.Txn_conflict -> W.int w 13

(* zerror mixes bare [Int] codes with one [List] arm (Extension_error),
   so the reader peeks at the frame kind first. *)
let read_zerror r =
  if R.peek_list r then begin
    R.begin_list r;
    let e =
      match R.int r with
      | 11 ->
          let msg = R.str r in
          Zerror.Extension_error msg
      | t -> R.error r (Printf.sprintf "bad error code %d" t)
    in
    R.end_list r;
    e
  end
  else
    match R.int r with
    | 0 -> Zerror.No_node
    | 1 -> Zerror.Node_exists
    | 2 -> Zerror.Bad_version
    | 3 -> Zerror.Not_empty
    | 4 -> Zerror.No_children_for_ephemerals
    | 5 -> Zerror.Invalid_path
    | 6 -> Zerror.Session_expired
    | 7 -> Zerror.Not_leader
    | 8 -> Zerror.Unsupported
    | 9 -> Zerror.Timeout
    | 10 -> Zerror.Maybe_applied
    | 12 -> Zerror.Locked
    | 13 -> Zerror.Txn_conflict
    | t -> R.error r (Printf.sprintf "bad error code %d" t)

let write_watch_kind w (k : Protocol.watch_kind) =
  W.int w
    (match k with
    | Protocol.Node_created -> 0
    | Protocol.Node_deleted -> 1
    | Protocol.Node_changed -> 2
    | Protocol.Children_changed -> 3)

let read_watch_kind r =
  match R.int r with
  | 0 -> Protocol.Node_created
  | 1 -> Protocol.Node_deleted
  | 2 -> Protocol.Node_changed
  | 3 -> Protocol.Children_changed
  | t -> R.error r (Printf.sprintf "bad watch kind %d" t)

let write_stat w (s : Znode.stat) =
  W.begin_list w;
  W.int w s.version;
  W.int w s.czxid;
  W.option w W.int s.ephemeral_owner;
  W.int w s.num_children;
  W.int w s.data_length;
  W.end_list w

let read_stat r =
  R.begin_list r;
  let version = R.int r in
  let czxid = R.int r in
  let ephemeral_owner = R.option r R.int in
  let num_children = R.int r in
  let data_length = R.int r in
  R.end_list r;
  { Znode.version; czxid; ephemeral_owner; num_children; data_length }

(* COW stamps are replica-local: they are not encoded, and decoding yields
   stamp 0 — exactly what {!Data_tree.materialize} puts in portable
   images, so round-tripping an image is the identity. *)
let write_znode w (n : Znode.t) =
  W.begin_list w;
  W.str w n.data;
  W.int w n.version;
  W.begin_list w;
  Znode.String_set.iter (fun c -> W.str w c) n.children;
  W.end_list w;
  W.int w n.cversion;
  W.int w n.czxid;
  W.option w W.int n.ephemeral_owner;
  W.end_list w

let read_znode r =
  R.begin_list r;
  let data = R.str r in
  let version = R.int r in
  let children = R.list r R.str in
  let cversion = R.int r in
  let czxid = R.int r in
  let ephemeral_owner = R.option r R.int in
  R.end_list r;
  let n = Znode.create ~data ~czxid ~ephemeral_owner in
  n.version <- version;
  n.children <- Znode.String_set.of_list children;
  n.cversion <- cversion;
  n

let write_portable w (img : Data_tree.portable) =
  W.begin_list w;
  W.list w
    (fun w (path, node) ->
      W.begin_list w;
      W.str w path;
      write_znode w node;
      W.end_list w)
    img.img_nodes;
  W.int w img.img_next_czxid;
  W.end_list w

let read_portable r =
  R.begin_list r;
  let img_nodes =
    R.list r (fun r ->
        R.begin_list r;
        let path = R.str r in
        let node = read_znode r in
        R.end_list r;
        (path, node))
  in
  let img_next_czxid = R.int r in
  R.end_list r;
  { Data_tree.img_nodes; img_next_czxid }

let write_op w (op : Protocol.op) =
  W.begin_list w;
  (match op with
  | Protocol.Create { path; data; ephemeral; sequential } ->
      W.int w 0;
      W.str w path;
      W.str w data;
      W.bool w ephemeral;
      W.bool w sequential
  | Protocol.Delete { path; version } ->
      W.int w 1;
      W.str w path;
      W.option w W.int version
  | Protocol.Set_data { path; data; expected_version } ->
      W.int w 2;
      W.str w path;
      W.str w data;
      W.option w W.int expected_version
  | Protocol.Get_data { path; watch } ->
      W.int w 3;
      W.str w path;
      W.bool w watch
  | Protocol.Get_children { path; watch } ->
      W.int w 4;
      W.str w path;
      W.bool w watch
  | Protocol.Exists { path; watch } ->
      W.int w 5;
      W.str w path;
      W.bool w watch
  | Protocol.Block { path } ->
      W.int w 6;
      W.str w path
  | Protocol.Sync -> W.int w 7
  | Protocol.Multi { ops } ->
      W.int w 8;
      W.list w Edc_replication.Two_pc.write_wop ops);
  W.end_list w

let read_op r =
  R.begin_list r;
  let op =
    match R.int r with
    | 0 ->
        let path = R.str r in
        let data = R.str r in
        let ephemeral = R.bool r in
        let sequential = R.bool r in
        Protocol.Create { path; data; ephemeral; sequential }
    | 1 ->
        let path = R.str r in
        let version = R.option r R.int in
        Protocol.Delete { path; version }
    | 2 ->
        let path = R.str r in
        let data = R.str r in
        let expected_version = R.option r R.int in
        Protocol.Set_data { path; data; expected_version }
    | 3 ->
        let path = R.str r in
        let watch = R.bool r in
        Protocol.Get_data { path; watch }
    | 4 ->
        let path = R.str r in
        let watch = R.bool r in
        Protocol.Get_children { path; watch }
    | 5 ->
        let path = R.str r in
        let watch = R.bool r in
        Protocol.Exists { path; watch }
    | 6 ->
        let path = R.str r in
        Protocol.Block { path }
    | 7 -> Protocol.Sync
    | 8 ->
        let ops = R.list r Edc_replication.Two_pc.read_wop in
        Protocol.Multi { ops }
    | t -> R.error r (Printf.sprintf "bad operation tag %d" t)
  in
  R.end_list r;
  op

let write_result w (res : Protocol.result) =
  W.begin_list w;
  (match res with
  | Protocol.Created path ->
      W.int w 0;
      W.str w path
  | Protocol.Deleted -> W.int w 1
  | Protocol.Set { version } ->
      W.int w 2;
      W.int w version
  | Protocol.Data (d, s) ->
      W.int w 3;
      W.str w d;
      write_stat w s
  | Protocol.Children names ->
      W.int w 4;
      W.list w W.str names
  | Protocol.Stat_of s ->
      W.int w 5;
      W.option w write_stat s
  | Protocol.Unblocked d ->
      W.int w 6;
      W.str w d
  | Protocol.Ext s ->
      W.int w 7;
      W.str w s
  | Protocol.Synced -> W.int w 8
  | Protocol.Error e ->
      W.int w 9;
      write_zerror w e
  | Protocol.Multi_ok -> W.int w 10);
  W.end_list w

let read_result r =
  R.begin_list r;
  let res =
    match R.int r with
    | 0 ->
        let path = R.str r in
        Protocol.Created path
    | 1 -> Protocol.Deleted
    | 2 ->
        let version = R.int r in
        Protocol.Set { version }
    | 3 ->
        let d = R.str r in
        let s = read_stat r in
        Protocol.Data (d, s)
    | 4 ->
        let names = R.list r R.str in
        Protocol.Children names
    | 5 ->
        let s = R.option r read_stat in
        Protocol.Stat_of s
    | 6 ->
        let d = R.str r in
        Protocol.Unblocked d
    | 7 ->
        let s = R.str r in
        Protocol.Ext s
    | 8 -> Protocol.Synced
    | 9 ->
        let e = read_zerror r in
        Protocol.Error e
    | 10 -> Protocol.Multi_ok
    | t -> R.error r (Printf.sprintf "bad result tag %d" t)
  in
  R.end_list r;
  res

let write_client_msg w (m : Protocol.client_to_server) =
  W.begin_list w;
  (match m with
  | Protocol.Connect -> W.int w 0
  | Protocol.Reconnect { session } ->
      W.int w 1;
      W.int w session
  | Protocol.Request { session; xid; op } ->
      W.int w 2;
      W.int w session;
      W.int w xid;
      write_op w op
  | Protocol.Ping { session } ->
      W.int w 3;
      W.int w session
  | Protocol.Close_session { session } ->
      W.int w 4;
      W.int w session);
  W.end_list w

let read_client_msg r =
  R.begin_list r;
  let m =
    match R.int r with
    | 0 -> Protocol.Connect
    | 1 ->
        let session = R.int r in
        Protocol.Reconnect { session }
    | 2 ->
        let session = R.int r in
        let xid = R.int r in
        let op = read_op r in
        Protocol.Request { session; xid; op }
    | 3 ->
        let session = R.int r in
        Protocol.Ping { session }
    | 4 ->
        let session = R.int r in
        Protocol.Close_session { session }
    | t -> R.error r (Printf.sprintf "bad client message tag %d" t)
  in
  R.end_list r;
  m

let write_server_msg w (m : Protocol.server_to_client) =
  W.begin_list w;
  (match m with
  | Protocol.Connect_ok { session } ->
      W.int w 0;
      W.int w session
  | Protocol.Reply { xid; result } ->
      W.int w 1;
      W.int w xid;
      write_result w result
  | Protocol.Watch_event { path; kind } ->
      W.int w 2;
      W.str w path;
      write_watch_kind w kind
  | Protocol.Expired -> W.int w 3);
  W.end_list w

let read_server_msg r =
  R.begin_list r;
  let m =
    match R.int r with
    | 0 ->
        let session = R.int r in
        Protocol.Connect_ok { session }
    | 1 ->
        let xid = R.int r in
        let result = read_result r in
        Protocol.Reply { xid; result }
    | 2 ->
        let path = R.str r in
        let kind = read_watch_kind r in
        Protocol.Watch_event { path; kind }
    | 3 -> Protocol.Expired
    | t -> R.error r (Printf.sprintf "bad server message tag %d" t)
  in
  R.end_list r;
  m

let write_txn_op w (op : Txn.op) =
  W.begin_list w;
  (match op with
  | Txn.Tcreate { path; data; ephemeral_owner } ->
      W.int w 0;
      W.str w path;
      W.str w data;
      W.option w W.int ephemeral_owner
  | Txn.Tdelete { path } ->
      W.int w 1;
      W.str w path
  | Txn.Tset { path; data; version } ->
      W.int w 2;
      W.str w path;
      W.str w data;
      W.int w version
  | Txn.Tsession_open { session; client_addr; owner_replica } ->
      W.int w 3;
      W.int w session;
      W.int w client_addr;
      W.int w owner_replica
  | Txn.Tsession_close { session } ->
      W.int w 4;
      W.int w session
  | Txn.Tsession_move { session; owner_replica } ->
      W.int w 5;
      W.int w session;
      W.int w owner_replica
  | Txn.Tblock { session; origin; xid; path } ->
      W.int w 6;
      W.int w session;
      W.int w origin;
      W.int w xid;
      W.str w path
  | Txn.Tnotify { session; path; kind } ->
      W.int w 7;
      W.int w session;
      W.str w path;
      write_watch_kind w kind
  | Txn.Terror -> W.int w 8
  | Txn.Tprep { txid; coord; ops } ->
      W.int w 9;
      W.str w txid;
      W.int w coord;
      W.list w Edc_replication.Two_pc.write_wop ops
  | Txn.Tdecide { txid; commit; participants } ->
      W.int w 10;
      W.str w txid;
      W.bool w commit;
      W.list w W.int participants
  | Txn.Tresolve { txid; commit } ->
      W.int w 11;
      W.str w txid;
      W.bool w commit);
  W.end_list w

let read_txn_op r =
  R.begin_list r;
  let op =
    match R.int r with
    | 0 ->
        let path = R.str r in
        let data = R.str r in
        let ephemeral_owner = R.option r R.int in
        Txn.Tcreate { path; data; ephemeral_owner }
    | 1 ->
        let path = R.str r in
        Txn.Tdelete { path }
    | 2 ->
        let path = R.str r in
        let data = R.str r in
        let version = R.int r in
        Txn.Tset { path; data; version }
    | 3 ->
        let session = R.int r in
        let client_addr = R.int r in
        let owner_replica = R.int r in
        Txn.Tsession_open { session; client_addr; owner_replica }
    | 4 ->
        let session = R.int r in
        Txn.Tsession_close { session }
    | 5 ->
        let session = R.int r in
        let owner_replica = R.int r in
        Txn.Tsession_move { session; owner_replica }
    | 6 ->
        let session = R.int r in
        let origin = R.int r in
        let xid = R.int r in
        let path = R.str r in
        Txn.Tblock { session; origin; xid; path }
    | 7 ->
        let session = R.int r in
        let path = R.str r in
        let kind = read_watch_kind r in
        Txn.Tnotify { session; path; kind }
    | 8 -> Txn.Terror
    | 9 ->
        let txid = R.str r in
        let coord = R.int r in
        let ops = R.list r Edc_replication.Two_pc.read_wop in
        Txn.Tprep { txid; coord; ops }
    | 10 ->
        let txid = R.str r in
        let commit = R.bool r in
        let participants = R.list r R.int in
        Txn.Tdecide { txid; commit; participants }
    | 11 ->
        let txid = R.str r in
        let commit = R.bool r in
        Txn.Tresolve { txid; commit }
    | t -> R.error r (Printf.sprintf "bad transaction op tag %d" t)
  in
  R.end_list r;
  op

let write_txn w (t : Txn.t) =
  W.begin_list w;
  W.option w W.int t.origin;
  W.int w t.session;
  W.int w t.xid;
  W.list w write_txn_op t.ops;
  write_result w t.result;
  W.bool w t.quiet;
  W.end_list w

let read_txn r =
  R.begin_list r;
  let origin = R.option r R.int in
  let session = R.int r in
  let xid = R.int r in
  let ops = R.list r read_txn_op in
  let result = read_result r in
  let quiet = R.bool r in
  R.end_list r;
  { Txn.origin; session; xid; ops; result; quiet }
