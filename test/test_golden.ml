(* Golden byte corpus: the byte-identity spec of every message codec
   (DESIGN.md §6g).  Each case pins one sample per tag as literal
   expected bytes (hex) and checks both directions: the streaming writer
   emits exactly those bytes, and the streaming reader parses them back
   to the sample.  A codec change that moves any byte on the wire fails
   here; an append-only tag addition adds a case.

   The snapshot blob is pinned by its layout instead: a small blob with
   every section non-empty is built with the generic frame encoder, and
   a fresh replica must install it and re-emit exactly those bytes. *)

open Edc_simnet
open Edc_wire
module W = Wire.Writer
module R = Wire.Reader
module Zk = Edc_zookeeper
module WF = Zk.Wire_format
module P = Zk.Protocol
module Txn = Zk.Txn
module Znode = Zk.Znode
module Zerror = Zk.Zerror
module Zab = Edc_replication.Zab
module Zab_wire = Edc_replication.Zab_wire
module Pbft = Edc_replication.Pbft
module Pbft_wire = Edc_replication.Pbft_wire
module Two_pc = Edc_replication.Two_pc

let hex s =
  String.concat ""
    (List.map (fun c -> Printf.sprintf "%02x" (Char.code c)) (List.of_seq (String.to_seq s)))

let unhex h =
  String.init (String.length h / 2) (fun i ->
      Char.chr (int_of_string ("0x" ^ String.sub h (2 * i) 2)))

(* [golden write read cases] checks every [(name, sample, expected_hex)]
   of one codec in both directions. *)
let golden ?(equal = ( = )) write read cases () =
  List.iter
    (fun (name, x, expected) ->
      Alcotest.(check string) name expected (hex (W.with_writer (fun w -> write w x)));
      match R.run (unhex expected) read with
      | Ok y when equal x y -> ()
      | Ok _ -> Alcotest.failf "%s: golden bytes read back as a different value" name
      | Error e -> Alcotest.failf "%s: golden bytes rejected: %s" name e)
    cases

(* ------------------------------------------------------------------ *)
(* Zab (payloads are plain strings here; the deployment's are txns)    *)
(* ------------------------------------------------------------------ *)

let zxid : Zab.zxid = { epoch = 3; counter = 41 }

let zab_cases : (string * string Zab.msg * string) list =
  [
    ("zab 0 ping", Ping { epoch = 1; committed = 7; sent = Sim_time.ms 350 }, "031001010001010201010e010580cee4cd02");
    ( "zab 1 propose, entry payloads 0 app / 1 cc_joint / 2 cc_final",
      Propose
        {
          epoch = 2;
          index = 5;
          prev_zxid = zxid;
          entries =
            [
              { zxid; payload = App "a" };
              {
                zxid = { epoch = 3; counter = 42 };
                payload = Config (Cc_joint { c_old = [ 0; 1; 2 ]; c_new = [ 0; 1; 2; 3 ] });
              };
              {
                zxid = { epoch = 3; counter = 43 };
                payload = Config (Cc_final { members = [ 0; 1; 2; 3 ] });
              };
            ];
        },
      "036a01010201010401010a0306010106010152035703100306010106010152030601010002016103260306010106010154031c0101020309010100010102010104030c010100010102010104010106031b03060101060101560311010104030c010100010102010104010106" );
    ("zab 2 ack", Ack { epoch = 2; upto = 6 }, "030901010401010401010c");
    ("zab 3 commit", Commit { epoch = 2; index = 6 }, "030901010601010401010c");
    ("zab 4 request_vote", Request_vote { epoch = 4; candidate = 1; last_zxid = zxid }, "03110101080101080101020306010106010152");
    ("zab 5 vote", Vote { epoch = 4 }, "030601010a010108");
    ("zab 6 sync_request", Sync_request { epoch = 4; have = 3 }, "030901010c010108010106");
    ( "zab 7 sync",
      Sync { epoch = 4; from = 4; entries = [ { zxid; payload = App "p" } ]; committed = 5 },
      "032001010e010108010108031203100306010106010152030601010002017001010a" );
    ( "zab 8 snapshot_begin, membership 0 stable",
      Snapshot_begin
        {
          epoch = 4;
          base = 100;
          total = 1536;
          chunk_size = 512;
          digest = "d";
          committed = 99;
          config = Stable [ 0; 1; 2 ];
        },
      "03290101100101080102c80101028018010280080201640102c601030e0101000309010100010102010104" );
    ( "zab 8 snapshot_begin, membership 1 joint",
      Snapshot_begin
        {
          epoch = 5;
          base = 100;
          total = 1536;
          chunk_size = 512;
          digest = "d";
          committed = 99;
          config = Joint { c_old = [ 0; 1; 2 ]; c_new = [ 1; 2; 3 ] };
        },
      "033401011001010a0102c80101028018010280080201640102c601031901010203090101000101020101040309010102010104010106" );
    ("zab 9 snapshot_chunk", Snapshot_chunk { epoch = 4; base = 100; seq = 1; data = "\x00\xffchunk" }, "03160101120101080102c801010102020700ff6368756e6b");
    ("zab 10 snapshot_ack", Snapshot_ack { epoch = 4; base = 100; received = 2 }, "030d0101140101080102c801010104");
    ("zab 11 join_request", Join_request { epoch = 6; id = 3 }, "030901011601010c010106");
    ("zab 12 fence", Fence { epoch = 6 }, "030601011801010c");
    ("zab 13 lease_grant", Lease_grant { epoch = 6; sent = Sim_time.ms 1234 }, "030d01011a01010c010580e2ea9809");
    ("zab 13 lease_grant, negative clock", Lease_grant { epoch = 2; sent = Sim_time.ns (-5_000_000) }, "030c01011a0101040104fface204");
    ("zab 14 observer_request", Observer_request { epoch = 9; id = 5 }, "030901011c01011201010a");
  ]

(* ------------------------------------------------------------------ *)
(* PBFT                                                                *)
(* ------------------------------------------------------------------ *)

let rid : Pbft.request_id = { client = 9; rseq = 2 }

let pbft_cases : (string * string Pbft.msg * string) list =
  [
    ("pbft 0 pre_prepare", Pre_prepare { view = 0; seq = 3; batch = [ (rid, "op") ]; ts = Sim_time.ms 5 }, "031f010100010100010106030e030c030601011201010402026f70010480ade204");
    ("pbft 1 prepare", Prepare { view = 0; seq = 3 }, "0309010102010100010106");
    ("pbft 2 commit", Commit { view = 0; seq = 3 }, "0309010104010100010106");
    ( "pbft 3 view_change",
      View_change { new_view = 1; delivered = [ (rid, "a") ]; pending = [ ({ client = 4; rseq = 7 }, "b") ] },
      "0324010106010102030d030b0306010112010104020161030d030b030601010801010e020162" );
    ("pbft 4 new_view", New_view { view = 1 }, "0306010108010102");
    ("pbft 5 recover_request", Recover_request, "030301010a");
    ("pbft 6 recover_reply", Recover_reply { view = 1 }, "030601010c010102");
  ]

(* ------------------------------------------------------------------ *)
(* ZooKeeper: errors, watch kinds, ops, results, client protocol       *)
(* ------------------------------------------------------------------ *)

let zerror_cases : (string * Zerror.t * string) list =
  [
    ("zerror 0 no_node", No_node, "010100");
    ("zerror 1 node_exists", Node_exists, "010102");
    ("zerror 2 bad_version", Bad_version, "010104");
    ("zerror 3 not_empty", Not_empty, "010106");
    ("zerror 4 no_children_for_ephemerals", No_children_for_ephemerals, "010108");
    ("zerror 5 invalid_path", Invalid_path, "01010a");
    ("zerror 6 session_expired", Session_expired, "01010c");
    ("zerror 7 not_leader", Not_leader, "01010e");
    ("zerror 8 unsupported", Unsupported, "010110");
    ("zerror 9 timeout", Timeout, "010112");
    ("zerror 10 maybe_applied", Maybe_applied, "010114");
    ("zerror 11 extension_error", Extension_error "boom", "03090101160204626f6f6d");
    ("zerror 12 locked", Locked, "010118");
    ("zerror 13 txn_conflict", Txn_conflict, "01011a");
  ]

let watch_kind_cases : (string * P.watch_kind * string) list =
  [
    ("watch kind 0 node_created", Node_created, "010100");
    ("watch kind 1 node_deleted", Node_deleted, "010102");
    ("watch kind 2 node_changed", Node_changed, "010104");
    ("watch kind 3 children_changed", Children_changed, "010106");
  ]

let wops : Two_pc.wop list =
  [ Wcreate { path = "/s0/a"; data = "x" }; Wset { path = "/s1/b"; data = "" }; Wdelete { path = "/s1/c" } ]

let op_cases : (string * P.op * string) list =
  [
    ("op 0 create", Create { path = "/a"; data = "d"; ephemeral = true; sequential = false }, "031001010002022f61020164010102010100");
    ("op 1 delete", Delete { path = "/a"; version = Some 2 }, "030c01010202022f610303010104");
    ("op 1 delete, unconditional", Delete { path = "/a"; version = None }, "030901010202022f610300");
    ("op 2 set_data", Set_data { path = "/a"; data = "v"; expected_version = Some 4 }, "030f01010402022f610201760303010108");
    ("op 3 get_data", Get_data { path = "/a"; watch = true }, "030a01010602022f61010102");
    ("op 4 get_children", Get_children { path = "/"; watch = false }, "030901010802012f010100");
    ("op 5 exists", Exists { path = "/x"; watch = true }, "030a01010a02022f78010102");
    ("op 6 block", Block { path = "/b" }, "030701010c02022f62");
    ("op 7 sync", Sync, "030301010e");
    ("op 8 multi", Multi { ops = wops }, "032e0101100329030d01010002052f73302f61020178030c01010202052f73312f620200030a01010402052f73312f63");
  ]

let stat : Znode.stat =
  { version = 2; czxid = 17; ephemeral_owner = Some 5; num_children = 1; data_length = 3 }

let result_cases : (string * P.result * string) list =
  [
    ("result 0 created", Created "/a0000000001", "0311010100020c2f6130303030303030303031");
    ("result 1 deleted", Deleted, "0303010102");
    ("result 2 set", Set { version = 4 }, "0306010104010108");
    ("result 3 data", Data ("bytes\x00\xff", stat), "031f0101060207627974657300ff0311010104010122030301010a010102010106");
    ("result 4 children", Children [ "a"; "b" ], "030b0101080306020161020162");
    ("result 5 stat_of", Stat_of (Some stat), "031801010a03130311010104010122030301010a010102010106");
    ("result 5 stat_of, absent", Stat_of None, "030501010a0300");
    ("result 6 unblocked", Unblocked "v", "030601010c020176");
    ("result 7 ext", Ext "serialized", "030f01010e020a73657269616c697a6564");
    ("result 8 synced", Synced, "0303010110");
    ("result 9 error", Error Zerror.No_node, "0306010112010100");
    ("result 10 multi_ok", Multi_ok, "0303010114");
  ]

let client_msg_cases : (string * P.client_to_server * string) list =
  [
    ("client msg 0 connect", Connect, "0303010100");
    ("client msg 1 reconnect", Reconnect { session = 9 }, "0306010102010112");
    ("client msg 2 request", Request { session = 9; xid = 1; op = Set_data { path = "/c"; data = "1"; expected_version = None } }, "0317010104010112010102030c01010402022f630201310300");
    ("client msg 3 ping", Ping { session = 9 }, "0306010106010112");
    ("client msg 4 close_session", Close_session { session = 9 }, "0306010108010112");
  ]

let server_msg_cases : (string * P.server_to_client * string) list =
  [
    ("server msg 0 connect_ok", Connect_ok { session = 9 }, "0306010100010112");
    ("server msg 1 reply", Reply { xid = 1; result = Set { version = 2 } }, "030e0101020101020306010104010104");
    ("server msg 2 watch_event", Watch_event { path = "/w"; kind = Children_changed }, "030a01010402022f77010106");
    ("server msg 3 expired", Expired, "0303010106");
  ]

(* ------------------------------------------------------------------ *)
(* Transactions                                                        *)
(* ------------------------------------------------------------------ *)

let txn_op_cases : (string * Txn.op * string) list =
  [
    ("txn op 0 tcreate", Tcreate { path = "/a"; data = "d"; ephemeral_owner = Some 42 }, "030f01010002022f610201640303010154");
    ("txn op 1 tdelete", Tdelete { path = "/b" }, "030701010202022f62");
    ("txn op 2 tset", Tset { path = "/a"; data = "x"; version = 3 }, "030d01010402022f61020178010106");
    ("txn op 3 tsession_open", Tsession_open { session = 42; client_addr = 1000; owner_replica = 1 }, "030d0101060101540102d00f010102");
    ("txn op 4 tsession_close", Tsession_close { session = 41 }, "0306010108010152");
    ("txn op 5 tsession_move", Tsession_move { session = 42; owner_replica = 2 }, "030901010a010154010104");
    ("txn op 6 tblock", Tblock { session = 42; origin = 1; xid = 7; path = "/gate" }, "031301010c01015401010201010e02052f67617465");
    ("txn op 7 tnotify", Tnotify { session = 42; path = "/gate"; kind = Node_created }, "031001010e01015402052f67617465010100");
    ("txn op 8 terror", Terror, "0303010110");
    ("txn op 9 tprep", Tprep { txid = "0.1.2"; coord = 0; ops = wops }, "03380101120205302e312e320101000329030d01010002052f73302f61020178030c01010202052f73312f620200030a01010402052f73312f63");
    ("txn op 10 tdecide", Tdecide { txid = "0.1.2"; commit = true; participants = [ 0; 1 ] }, "03150101140205302e312e320101020306010100010102");
    ("txn op 11 tresolve", Tresolve { txid = "0.1.2"; commit = false }, "030d0101160205302e312e32010100");
  ]

let txn_cases : (string * Txn.t * string) list =
  [
    ( "txn, client request",
      {
        origin = Some 1;
        session = 42;
        xid = 7;
        ops = [ Tset { path = "/ctr"; data = "8"; version = 8 } ];
        result = Set { version = 8 };
        quiet = false;
      },
      "0329030301010201015401010e0311030f01010402042f6374720201380101100306010104010110010100" );
    ("txn, internal", Txn.internal ~quiet:true [ Tdelete { path = "/tmp" } ], "031d0300010100010100030b030901010202042f746d700303010110010102");
  ]

(* ------------------------------------------------------------------ *)
(* The deployment's complete wire type                                 *)
(* ------------------------------------------------------------------ *)

let server_wire_cases : (string * Zk.Server.wire * string) list =
  [
    ("server wire 0 client_msg", Client_msg (Ping { session = 9 }), "030b0101000306010106010112");
    ("server wire 1 server_msg", Server_msg (Connect_ok { session = 9 }), "030b0101020306010100010112");
    ( "server wire 2 zab_msg",
      Zab_msg
        (Propose
           {
             epoch = 1;
             index = 2;
             prev_zxid = { epoch = 1; counter = 1 };
             entries =
               [
                 {
                   zxid = { epoch = 1; counter = 2 };
                   payload = App (Txn.internal [ Tcreate { path = "/n"; data = "v"; ephemeral_owner = None } ]);
                 };
               ];
           }),
      "0349010104034401010201010201010403060101020101020331032f0306010102010104032501010003200300010100010100030e030c01010002022f6e02017603000303010110010100" );
    ("server wire 3 forward", Forward { origin = 2; session = 9; xid = 3; op = Sync }, "0311010106010104010112010106030301010e");
    ("server wire 4 forward_connect", Forward_connect { origin = 2; client_addr = 1001 }, "030a0101080101040102d20f");
    ("server wire 5 forward_reconnect", Forward_reconnect { origin = 0; session = 9 }, "030901010a010100010112");
    ("server wire 6 forward_close", Forward_close { session = 9 }, "030601010c010112");
    ("server wire 7 touch", Touch { session = 9 }, "030601010e010112");
  ]

(* ------------------------------------------------------------------ *)
(* 2PC write ops and portable tree images                              *)
(* ------------------------------------------------------------------ *)

let wop_cases : (string * Two_pc.wop * string) list =
  List.map2 (fun (name, hex) op -> (name, op, hex))
    [ ("wop 0 wcreate", "030d01010002052f73302f61020178");
      ("wop 1 wset", "030c01010202052f73312f620200");
      ("wop 2 wdelete", "030a01010402052f73312f63") ]
    wops

let node ?(children = []) ?ephemeral_owner ~version ~cversion ~czxid data =
  let n = Znode.create ~data ~czxid ~ephemeral_owner in
  n.version <- version;
  n.cversion <- cversion;
  n.children <- Znode.String_set.of_list children;
  n

(* [Znode.t] holds a set and a replica-local COW stamp: compare the
   serialized fields only *)
let znode_equal (a : Znode.t) (b : Znode.t) =
  a.data = b.data && a.version = b.version
  && Znode.String_set.equal a.children b.children
  && a.cversion = b.cversion && a.czxid = b.czxid
  && a.ephemeral_owner = b.ephemeral_owner

let portable_equal (a : Zk.Data_tree.portable) (b : Zk.Data_tree.portable) =
  a.img_next_czxid = b.img_next_czxid
  && List.equal
       (fun (p, n) (q, m) -> p = q && znode_equal n m)
       a.img_nodes b.img_nodes

let portable_cases : (string * Zk.Data_tree.portable * string) list =
  [
    ( "portable image",
      {
        img_nodes =
          [
            ("/", node ~children:[ "a"; "e" ] ~version:0 ~cversion:2 ~czxid:0 "");
            ("/a", node ~version:3 ~cversion:0 ~czxid:1 "alpha");
            ("/e", node ~ephemeral_owner:7 ~version:0 ~cversion:0 ~czxid:2 "\x00");
          ];
        img_next_czxid = 3;
      },
      "03580353031a02012f0315020001010003060201610201650101040101000300031a02022f6103140205616c70686101010603000101000101020300031902022f6503130201000101000300010100010104030301010e010106" );
  ]

(* ------------------------------------------------------------------ *)
(* Snapshot blob layout                                                *)
(* ------------------------------------------------------------------ *)

(* A blob with every section non-empty, spelled out frame by frame:
   [tree image; sessions; blocked; locks; prepared; decisions;
   resolutions].  Entries are in the order a capture sorts them. *)
let snapshot_blob () =
  let open Wire in
  let node data version children cversion czxid eph =
    List
      [ Str data; Int version; List (List.map (fun c -> Str c) children);
        Int cversion; Int czxid; List (List.map (fun o -> Int o) eph) ]
  in
  encode
    (List
       [
         List
           [
             List
               [
                 List [ Str "/"; node "" 0 [ "s0" ] 1 0 [] ];
                 List [ Str "/s0"; node "q" 1 [ "e" ] 1 1 [] ];
                 List [ Str "/s0/e"; node "" 0 [] 0 2 [ 42 ] ];
               ];
             Int 3;
           ];
         (* sessions: (session, client_addr, owner_replica) *)
         List [ List [ Int 42; Int 1000; Int 0 ]; List [ Int 43; Int 1001; Int 2 ] ];
         (* blocked: path -> sorted (session, origin, xid) waiters *)
         List [ List [ Str "/gate"; List [ List [ Int 42; Int 0; Int 5 ]; List [ Int 43; Int 2; Int 1 ] ] ] ];
         (* 2PC locks: path -> txid *)
         List [ List [ Str "/s0/x"; Str "1.1.4" ] ];
         (* prepared: txid -> coordinator shard, wops *)
         List
           [
             List
               [ Str "1.1.4"; Int 1;
                 List [ List [ Int 0; Str "/s0/x"; Str "v" ]; List [ Int 2; Str "/s0/y" ] ] ];
           ];
         (* decisions and resolutions: txid -> committed *)
         List [ List [ Str "0.1.1"; Int 1 ]; List [ Str "0.1.2"; Int 0 ] ];
         List [ List [ Str "1.1.3"; Int 1 ] ];
       ])

let test_snapshot_layout () =
  let replica = (Zk.Cluster.servers (Zk.Cluster.create (Sim.create ~seed:5 ()))).(0) in
  let blob = snapshot_blob () in
  (match Zk.Server.install_snapshot replica blob with
  | Ok () -> ()
  | Error e -> Alcotest.failf "golden snapshot blob rejected: %s" e);
  Alcotest.(check string) "capture re-emits the installed blob" (hex blob)
    (hex (Zk.Server.snapshot_bytes replica))

(* ------------------------------------------------------------------ *)

let () =
  let case name f = Alcotest.test_case name `Quick f in
  Alcotest.run "edc_golden"
    [
      ( "golden",
        [
          case "zab tags 0-14"
            (golden (Zab_wire.write ~payload:W.str) (Zab_wire.read ~payload:R.str) zab_cases);
          case "pbft tags 0-6"
            (golden (Pbft_wire.write ~payload:W.str) (Pbft_wire.read ~payload:R.str) pbft_cases);
          case "2pc wop tags 0-2" (golden Two_pc.write_wop Two_pc.read_wop wop_cases);
          case "zerror codes 0-13" (golden WF.write_zerror WF.read_zerror zerror_cases);
          case "watch kinds 0-3" (golden WF.write_watch_kind WF.read_watch_kind watch_kind_cases);
          case "op tags 0-8" (golden WF.write_op WF.read_op op_cases);
          case "result tags 0-10" (golden WF.write_result WF.read_result result_cases);
          case "client msg tags 0-4" (golden WF.write_client_msg WF.read_client_msg client_msg_cases);
          case "server msg tags 0-3" (golden WF.write_server_msg WF.read_server_msg server_msg_cases);
          case "txn op tags 0-11" (golden WF.write_txn_op WF.read_txn_op txn_op_cases);
          case "txn records" (golden WF.write_txn WF.read_txn txn_cases);
          case "server wire tags 0-7" (golden Zk.Server_wire.write Zk.Server_wire.read server_wire_cases);
          case "portable tree image"
            (golden ~equal:portable_equal WF.write_portable WF.read_portable portable_cases);
          case "snapshot blob layout" test_snapshot_layout;
        ] );
    ]
