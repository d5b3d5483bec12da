(* The untrusted-bytes surface: fuzz corpus over the binary frame parser
   (round-trips, truncation at every byte offset, random garbage, crafted
   depth/length bombs — the decoder must never raise), round-trips for
   every message and snapshot codec built on it, the corrupt-snapshot
   regression (truncated and bit-flipped blobs yield a clean [Error] and
   leave the replica untouched; a rejecting follower re-requests instead
   of dying), and the first wall-clock end-to-end run: a 3-replica Zab
   cluster serving the counter workload over real loopback TCP. *)

open Edc_simnet
open Edc_wire
module Zk = Edc_zookeeper
module Txn = Zk.Txn
module P = Zk.Protocol
module Zab = Edc_replication.Zab
module Zab_wire = Edc_replication.Zab_wire
module Pbft = Edc_replication.Pbft
module Pbft_wire = Edc_replication.Pbft_wire

let qc = QCheck_alcotest.to_alcotest

(* ------------------------------------------------------------------ *)
(* Frame codec: fuzz corpus                                            *)
(* ------------------------------------------------------------------ *)

let wire_arb =
  let open QCheck.Gen in
  let any_string =
    string_size ~gen:(char_range '\000' '\255') (int_range 0 16)
  in
  let leaf =
    oneof
      [
        map (fun i -> Wire.Int i) int;
        (* small ints exercise the 1-byte varint paths *)
        map (fun i -> Wire.Int i) (int_range (-300) 300);
        map (fun s -> Wire.Str s) any_string;
      ]
  in
  let rec gen depth =
    if depth = 0 then leaf
    else
      frequency
        [
          (3, leaf);
          (1, map (fun l -> Wire.List l) (list_size (int_range 0 5) (gen (depth - 1))));
        ]
  in
  QCheck.make (gen 4)

let prop_wire_roundtrip =
  QCheck.Test.make ~name:"wire encode/decode roundtrip" ~count:500 wire_arb
    (fun v -> Wire.decode (Wire.encode v) = Ok v)

(* truncation at EVERY byte offset must be a clean [Error] *)
let prop_wire_truncation =
  QCheck.Test.make ~name:"wire decode of every truncation errors" ~count:200
    wire_arb (fun v ->
      let s = Wire.encode v in
      let ok = ref true in
      for k = 0 to String.length s - 1 do
        match Wire.decode (String.sub s 0 k) with
        | Error _ -> ()
        | Ok _ -> ok := false
      done;
      !ok)

let prop_wire_garbage =
  QCheck.Test.make ~name:"wire decode never raises on garbage" ~count:1000
    QCheck.(string_gen QCheck.Gen.(char_range '\000' '\255'))
    (fun s -> match Wire.decode s with Ok _ | Error _ -> true)

(* flipping any single byte of a valid frame must not raise (it may still
   decode: a flip inside a [Str] payload is a different, valid frame) *)
let prop_wire_bitflip =
  QCheck.Test.make ~name:"wire decode never raises on bit flips" ~count:200
    wire_arb (fun v ->
      let s = Wire.encode v in
      let ok = ref true in
      String.iteri
        (fun i c ->
          let b = Bytes.of_string s in
          Bytes.set b i (Char.chr (Char.code c lxor 0x40));
          match Wire.decode (Bytes.to_string b) with
          | Ok _ | Error _ -> ()
          | exception _ -> ok := false)
        s;
      !ok)

(* manual varint for crafting malformed frames *)
let craft_varint n =
  let buf = Buffer.create 4 in
  let rec go n =
    if n < 0x80 then Buffer.add_char buf (Char.chr n)
    else begin
      Buffer.add_char buf (Char.chr (0x80 lor (n land 0x7f)));
      go (n lsr 7)
    end
  in
  go n;
  Buffer.contents buf

let check_rejected name s =
  match Wire.decode s with
  | Error _ -> ()
  | Ok v -> Alcotest.failf "%s decoded to %s" name (Format.asprintf "%a" Wire.pp v)

let test_wire_crafted_bombs () =
  (* depth bomb: a list nested past [max_depth] *)
  let deep = ref (Wire.encode (Wire.Int 0)) in
  for _ = 1 to Wire.max_depth + 4 do
    deep := "\x03" ^ craft_varint (String.length !deep) ^ !deep
  done;
  check_rejected "depth bomb" !deep;
  (* length bomb: a tiny input declaring a gigantic payload must be
     rejected up front, not drive an allocation *)
  check_rejected "length bomb (str)" ("\x02" ^ craft_varint 0x40_0000_0000 ^ "ab");
  check_rejected "length bomb (list)" ("\x03" ^ craft_varint max_int);
  (* a child frame declaring more bytes than its parent holds *)
  check_rejected "child overruns parent"
    ("\x03" ^ craft_varint 5 ^ "\x02" ^ craft_varint 200 ^ "abc");
  (* non-minimal varints: same value, longer spelling — not canonical *)
  check_rejected "non-minimal length varint" ("\x02\x81\x00" ^ "a");
  check_rejected "non-minimal int payload" "\x01\x02\x80\x00";
  (* varint longer than 9 bytes *)
  check_rejected "varint too long"
    ("\x02" ^ String.make 9 '\x80' ^ "\x01");
  check_rejected "unknown tag" "\x07\x01a";
  check_rejected "trailing bytes" (Wire.encode (Wire.Int 3) ^ "x");
  check_rejected "int payload length mismatch" "\x01\x03\x02\x02\x02";
  check_rejected "empty input" ""

let test_wire_encode_rejects_overdeep () =
  (* the leaf counts as one level, so [max_depth - 1] wrappers is the
     deepest encodable tree *)
  let rec nest d v = if d = 0 then v else nest (d - 1) (Wire.List [ v ]) in
  (match Wire.encode (nest (Wire.max_depth - 1) (Wire.Int 1)) with
  | _ -> ()
  | exception Invalid_argument _ -> Alcotest.fail "max_depth itself must encode");
  match Wire.encode (nest Wire.max_depth (Wire.Int 1)) with
  | _ -> Alcotest.fail "over-deep tree must not encode"
  | exception Invalid_argument _ -> ()

(* ------------------------------------------------------------------ *)
(* Message codecs: round-trip every variant                            *)
(* ------------------------------------------------------------------ *)

let zxid : Zab.zxid = { epoch = 3; counter = 41 }

let zab_samples : string Zab.msg list =
  [
    Ping { epoch = 1; committed = 7; sent = Sim_time.ms 350 };
    Ping { epoch = 2; committed = 0; sent = Sim_time.zero };
    Propose
      {
        epoch = 2;
        index = 5;
        prev_zxid = zxid;
        entries =
          [
            { zxid; payload = App "a" };
            { zxid = { epoch = 3; counter = 42 }; payload = App "" };
          ];
      };
    (* config-change entries travel inside the ordinary Propose frames *)
    Propose
      {
        epoch = 2;
        index = 7;
        prev_zxid = zxid;
        entries =
          [
            {
              zxid = { epoch = 3; counter = 43 };
              payload = Config (Cc_joint { c_old = [ 0; 1; 2 ]; c_new = [ 0; 1; 2; 3 ] });
            };
            {
              zxid = { epoch = 3; counter = 44 };
              payload = Config (Cc_final { members = [ 0; 1; 2; 3 ] });
            };
          ];
      };
    Ack { epoch = 2; upto = 6 };
    Commit { epoch = 2; index = 6 };
    Request_vote { epoch = 4; candidate = 1; last_zxid = zxid };
    Vote { epoch = 4 };
    Sync_request { epoch = 4; have = 3 };
    Sync
      { epoch = 4; from = 4; entries = [ { zxid; payload = App "p" } ]; committed = 5 };
    Sync
      {
        epoch = 4;
        from = 4;
        entries =
          [ { zxid; payload = Config (Cc_joint { c_old = [ 0 ]; c_new = [] }) } ];
        committed = 5;
      };
    Snapshot_begin
      {
        epoch = 4;
        base = 100;
        total = 1536;
        chunk_size = 512;
        digest = "d";
        committed = 99;
        config = Stable [ 0; 1; 2 ];
      };
    Snapshot_begin
      {
        epoch = 5;
        base = 100;
        total = 1536;
        chunk_size = 512;
        digest = "d";
        committed = 99;
        config = Joint { c_old = [ 0; 1; 2 ]; c_new = [ 1; 2; 3 ] };
      };
    Snapshot_chunk { epoch = 4; base = 100; seq = 1; data = String.make 64 '\x00' };
    Snapshot_ack { epoch = 4; base = 100; received = 2 };
    (* learner handshake + fencing (tags 11/12) *)
    Join_request { epoch = 0; id = 4 };
    Join_request { epoch = 6; id = 3 };
    Fence { epoch = 6 };
    (* lease grants + observer handshake (tags 13/14) *)
    Lease_grant { epoch = 6; sent = Sim_time.ms 1234 };
    Lease_grant { epoch = 1; sent = Sim_time.zero };
    (* a skewed clock can legitimately read negative early in a run *)
    Lease_grant { epoch = 2; sent = Sim_time.ns (-5_000_000) };
    Observer_request { epoch = 0; id = 5 };
    Observer_request { epoch = 9; id = 3 };
  ]

module W = Wire.Writer
module R = Wire.Reader

let encode_zab (m : string Zab.msg) =
  W.with_writer (fun w -> Zab_wire.write ~payload:W.str w m)

let decode_zab s = R.run s (Zab_wire.read ~payload:R.str)

let roundtrip name write read x =
  match R.run (W.with_writer (fun w -> write w x)) read with
  | Ok x' -> Alcotest.(check bool) name true (x = x')
  | Error e -> Alcotest.failf "%s decode: %s" name e

let test_zab_msg_roundtrip () =
  List.iter
    (roundtrip "zab msg" (Zab_wire.write ~payload:W.str) (Zab_wire.read ~payload:R.str))
    zab_samples

(* fuzz the read-path frames (tags 0/13/14): round-trip for arbitrary
   field values, truncation at every byte offset is a clean [Error], and
   garbage/mutated frames never raise out of the zab decoder *)
let lease_frame_arb =
  let open QCheck.Gen in
  let gen =
    let* tag = int_range 0 2 in
    let* epoch = int_range 0 1_000_000 in
    let* a = int in
    match tag with
    | 0 ->
        let* committed = int_range 0 1_000_000 in
        return (Zab.Ping { epoch; committed; sent = Sim_time.ns a })
    | 1 -> return (Zab.Lease_grant { epoch; sent = Sim_time.ns a })
    | _ -> return (Zab.Observer_request { epoch; id = a land 0xff })
  in
  QCheck.make gen

let prop_lease_frames_roundtrip =
  QCheck.Test.make ~name:"lease/observer frames roundtrip" ~count:500
    lease_frame_arb (fun m -> decode_zab (encode_zab m) = Ok m)

let prop_lease_frames_truncation =
  QCheck.Test.make ~name:"lease/observer frame truncations all error"
    ~count:200 lease_frame_arb (fun m ->
      let s = encode_zab m in
      let ok = ref true in
      for k = 0 to String.length s - 1 do
        match decode_zab (String.sub s 0 k) with
        | Error _ -> ()
        | Ok _ -> ok := false
      done;
      !ok)

(* well-formed frames of any shape, most of them no zab message *)
let prop_zab_decoder_garbage =
  QCheck.Test.make ~name:"zab decoder never raises on garbage frames"
    ~count:500 wire_arb (fun w ->
      match decode_zab (Wire.encode w) with Ok _ | Error _ -> true)

let test_lease_frames_malformed () =
  (* wrong arity / wrong field kinds on the new tags must come back as the
     standard decode error, same convention as the PR 6/7 frames *)
  List.iter
    (fun (name, w) ->
      match decode_zab (Wire.encode w) with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "%s decoded" name)
    [
      (* three-field Ping: the pre-lease shape no longer parses *)
      ("ping missing sent", Wire.List [ Wire.Int 0; Wire.Int 1; Wire.Int 7 ]);
      ("lease grant missing sent", Wire.List [ Wire.Int 13; Wire.Int 1 ]);
      ( "lease grant trailing field",
        Wire.List [ Wire.Int 13; Wire.Int 1; Wire.Int 2; Wire.Int 3 ] );
      ("lease grant str sent", Wire.List [ Wire.Int 13; Wire.Int 1; Wire.Str "t" ]);
      ("observer request bare", Wire.List [ Wire.Int 14; Wire.Int 1 ]);
      ( "observer request nested id",
        Wire.List [ Wire.Int 14; Wire.Int 1; Wire.List [] ] );
      ("unknown tag 15", Wire.List [ Wire.Int 15; Wire.Int 1 ]);
    ]

let pbft_samples : string Pbft.msg list =
  let rid : Pbft.request_id = { client = 9; rseq = 2 } in
  [
    Pre_prepare { view = 0; seq = 3; batch = [ (rid, "op") ]; ts = Sim_time.ms 5 };
    Prepare { view = 0; seq = 3 };
    Commit { view = 0; seq = 3 };
    View_change { new_view = 1; delivered = [ (rid, "a") ]; pending = [] };
    New_view { view = 1 };
    Recover_request;
    Recover_reply { view = 1 };
  ]

let test_pbft_msg_roundtrip () =
  List.iter
    (roundtrip "pbft msg" (Pbft_wire.write ~payload:W.str) (Pbft_wire.read ~payload:R.str))
    pbft_samples

let stat : Edc_zookeeper.Znode.stat =
  { version = 2; czxid = 17; ephemeral_owner = Some 5; num_children = 1; data_length = 3 }

let op_samples : P.op list =
  [
    Create { path = "/a"; data = "d"; ephemeral = true; sequential = false };
    Delete { path = "/a"; version = Some 2 };
    Delete { path = "/a"; version = None };
    Set_data { path = "/a"; data = ""; expected_version = None };
    Get_data { path = "/a"; watch = true };
    Get_children { path = "/"; watch = false };
    Exists { path = "/x"; watch = true };
    Block { path = "/b" };
    Sync;
  ]

let result_samples : P.result list =
  [
    Created "/a0000000001";
    Deleted;
    Set { version = 4 };
    Data ("bytes\x00\xff", stat);
    Children [ "a"; "b" ];
    Stat_of (Some stat);
    Stat_of None;
    Unblocked "v";
    Ext "serialized";
    Synced;
    Error Zk.Zerror.No_node;
    Error (Zk.Zerror.Extension_error "boom");
  ]

let txn_samples : Txn.t list =
  [
    {
      origin = Some 1;
      session = 42;
      xid = 7;
      ops =
        [
          Tcreate { path = "/a"; data = "d"; ephemeral_owner = Some 42 };
          Tdelete { path = "/b" };
          Tset { path = "/a"; data = "x"; version = 3 };
          Tsession_open { session = 42; client_addr = 1000; owner_replica = 1 };
          Tsession_close { session = 41 };
          Tsession_move { session = 42; owner_replica = 2 };
          Tblock { session = 42; origin = 1; xid = 7; path = "/gate" };
          Tnotify { session = 42; path = "/gate"; kind = P.Node_created };
          Terror;
        ];
      result = P.Created "/a";
      quiet = false;
    };
    Txn.internal ~quiet:true [ Tdelete { path = "/tmp" } ];
  ]

let server_wire_samples : Zk.Server.wire list =
  [
    Client_msg Connect;
    Client_msg (Reconnect { session = 9 });
    Client_msg (Request { session = 9; xid = 1; op = List.hd op_samples });
    Client_msg (Ping { session = 9 });
    Client_msg (Close_session { session = 9 });
    Server_msg (Connect_ok { session = 9 });
    Server_msg (Reply { xid = 1; result = P.Deleted });
    Server_msg (Watch_event { path = "/w"; kind = P.Children_changed });
    Server_msg Expired;
    Zab_msg (Ping { epoch = 1; committed = 0; sent = Sim_time.ms 50 });
    Forward { origin = 2; session = 9; xid = 3; op = P.Sync };
    Forward_connect { origin = 2; client_addr = 1001 };
    Forward_reconnect { origin = 0; session = 9 };
    Forward_close { session = 9 };
    Touch { session = 9 };
  ]

let test_protocol_roundtrip () =
  let module WF = Zk.Wire_format in
  List.iter (roundtrip "op" WF.write_op WF.read_op) op_samples;
  List.iter (roundtrip "result" WF.write_result WF.read_result) result_samples;
  List.iter (roundtrip "txn" WF.write_txn WF.read_txn) txn_samples

let test_server_wire_roundtrip () =
  List.iter
    (fun m ->
      match Zk.Server_wire.decode (Zk.Server_wire.encode m) with
      | Ok m' -> Alcotest.(check bool) "server wire" true (m = m')
      | Error e -> Alcotest.failf "server wire decode: %s" e)
    server_wire_samples;
  (* truncations of a full server message never raise and never pass *)
  let s = Zk.Server_wire.encode (List.nth server_wire_samples 2) in
  for k = 0 to String.length s - 1 do
    match Zk.Server_wire.decode (String.sub s 0 k) with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "truncation at %d decoded" k
  done

(* ------------------------------------------------------------------ *)
(* Streaming codec (§6g): the zero-tree writer must be byte-identical  *)
(* to the tree encoder, and the slice reader must accept exactly what  *)
(* the tree decoder accepts — on the fuzz corpus AND on every message  *)
(* shape above.  Byte-identity is what lets the hot paths skip the     *)
(* tree without weakening the canonical-form guarantee.                *)
(* ------------------------------------------------------------------ *)

let stream_of_tree v = W.with_writer (fun w -> W.tree w v)
let tree_of_stream s = R.run s R.tree

let prop_writer_byte_identity =
  QCheck.Test.make ~name:"streaming writer byte-identical to tree encoder"
    ~count:500 wire_arb (fun v ->
      String.equal (stream_of_tree v) (Wire.encode v))

(* the two decoders agree: same accept/reject verdict, same value on
   accept (error text may differ — messages are not part of the spec) *)
let decoders_agree s =
  match (Wire.decode s, tree_of_stream s) with
  | Ok a, Ok b -> a = b
  | Error _, Error _ -> true
  | Ok _, Error _ | Error _, Ok _ -> false

let prop_reader_differential_valid =
  QCheck.Test.make ~name:"streaming reader decodes what the tree decoder does"
    ~count:500 wire_arb (fun v -> tree_of_stream (Wire.encode v) = Ok v)

let prop_reader_differential_truncation =
  QCheck.Test.make ~name:"streaming reader rejects every truncation"
    ~count:200 wire_arb (fun v ->
      let s = Wire.encode v in
      let ok = ref true in
      for k = 0 to String.length s - 1 do
        let s' = String.sub s 0 k in
        (match tree_of_stream s' with Error _ -> () | Ok _ -> ok := false);
        if not (decoders_agree s') then ok := false
      done;
      !ok)

let prop_reader_differential_garbage =
  QCheck.Test.make ~name:"streaming reader ≡ tree decoder on garbage"
    ~count:1000
    QCheck.(string_gen QCheck.Gen.(char_range '\000' '\255'))
    decoders_agree

let prop_reader_differential_bitflip =
  QCheck.Test.make ~name:"streaming reader ≡ tree decoder on bit flips"
    ~count:200 wire_arb (fun v ->
      let s = Wire.encode v in
      let ok = ref true in
      String.iteri
        (fun i c ->
          let b = Bytes.of_string s in
          Bytes.set b i (Char.chr (Char.code c lxor 0x40));
          if not (decoders_agree (Bytes.to_string b)) then ok := false)
        s;
      !ok)

(* reader errors name the byte offset where decoding failed *)
let has_substring ~sub s =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let test_reader_errors_carry_offsets () =
  let check name s =
    match tree_of_stream s with
    | Ok _ -> Alcotest.failf "%s decoded" name
    | Error e ->
        if not (has_substring ~sub:"byte" e) then
          Alcotest.failf "%s: error lacks a byte offset: %S" name e
  in
  check "empty input" "";
  check "truncated int" "\x01";
  check "unknown tag" "\x07\x01a";
  check "truncated str payload" ("\x02" ^ craft_varint 5 ^ "ab");
  check "non-minimal varint" ("\x02\x81\x00" ^ "a");
  check "trailing bytes" (Wire.encode (Wire.Int 1) ^ "x")

(* the streaming writer enforces the same depth cap as the tree encoder *)
let test_writer_rejects_overdeep () =
  let rec nest d v = if d = 0 then v else nest (d - 1) (Wire.List [ v ]) in
  (match stream_of_tree (nest (Wire.max_depth - 1) (Wire.Int 1)) with
  | _ -> ()
  | exception Invalid_argument _ ->
      Alcotest.fail "max_depth itself must stream-encode");
  match stream_of_tree (nest Wire.max_depth (Wire.Int 1)) with
  | _ -> Alcotest.fail "over-deep tree must not stream-encode"
  | exception Invalid_argument _ -> ()

(* every message shape in this file: streaming writer output is
   byte-identical to the tree encoder's rendering of the same frame (the
   writers emit canonical frames only), and the streaming reader gets the
   value back *)
let canonical s =
  match Wire.decode s with
  | Ok v -> String.equal (Wire.encode v) s
  | Error _ -> false

let check_stream name write read x =
  if not (canonical (W.with_writer (fun w -> write w x))) then
    Alcotest.failf "%s: streaming encode differs from tree encode" name;
  roundtrip name write read x

let test_stream_messages_byte_identical () =
  let module WF = Zk.Wire_format in
  List.iter
    (check_stream "zab" (Zab_wire.write ~payload:W.str) (Zab_wire.read ~payload:R.str))
    zab_samples;
  List.iter
    (check_stream "pbft" (Pbft_wire.write ~payload:W.str) (Pbft_wire.read ~payload:R.str))
    pbft_samples;
  List.iter (check_stream "op" WF.write_op WF.read_op) op_samples;
  List.iter (check_stream "result" WF.write_result WF.read_result) result_samples;
  List.iter (check_stream "txn" WF.write_txn WF.read_txn) txn_samples;
  List.iter
    (check_stream "server wire" Zk.Server_wire.write Zk.Server_wire.read)
    server_wire_samples

(* the server-wire streaming decoder (the TCP hot path) agrees with the
   tree decoder followed by the message reader, on the corpus, every
   truncation, and every bit flip: whatever the frame parser rejects the
   streaming decoder rejects too, and what it accepts it reads to the
   same value *)
let test_server_wire_decode_differential () =
  let via_tree s =
    Result.bind (Wire.decode s) (fun v -> Zk.Server_wire.decode (Wire.encode v))
  in
  let agree name s =
    match (Zk.Server_wire.decode s, via_tree s) with
    | Ok a, Ok b when a = b -> ()
    | Error _, Error _ -> ()
    | Ok _, Ok _ -> Alcotest.failf "%s: decoders return different values" name
    | Ok _, Error _ -> Alcotest.failf "%s: streaming accepts, tree rejects" name
    | Error _, Ok _ -> Alcotest.failf "%s: tree accepts, streaming rejects" name
  in
  List.iter
    (fun m ->
      let s = Zk.Server_wire.encode m in
      agree "intact" s;
      for k = 0 to String.length s - 1 do
        agree (Printf.sprintf "truncation %d" k) (String.sub s 0 k)
      done;
      String.iteri
        (fun i c ->
          let b = Bytes.of_string s in
          Bytes.set b i (Char.chr (Char.code c lxor 0x11));
          agree (Printf.sprintf "bitflip %d" i) (Bytes.to_string b))
        s)
    server_wire_samples

(* decode_sub reads a frame out of the middle of a reassembly buffer
   without copying; bytes outside [pos, pos+len) are invisible *)
let test_decode_sub_slice () =
  let m = List.nth server_wire_samples 2 in
  let s = Zk.Server_wire.encode m in
  let padded = "\xde\xad" ^ s ^ "\xbe" in
  (match Zk.Server_wire.decode_sub padded ~pos:2 ~len:(String.length s) with
  | Ok m' -> Alcotest.(check bool) "slice decode" true (m = m')
  | Error e -> Alcotest.failf "slice decode: %s" e);
  (* a byte of trailing garbage inside the slice is rejected, exactly
     like decoding a padded string would be *)
  match Zk.Server_wire.decode_sub padded ~pos:2 ~len:(String.length s + 1) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "slice with trailing byte decoded"

(* Outbuf owns the partial-write problem: a kernel that takes a few
   bytes at a time (or none — EAGAIN) must see every byte exactly once,
   in order, with the unwritten suffix retained across flushes *)
let test_outbuf_short_writes () =
  let ob = Outbuf.create ~capacity:8 () in
  let u32 v = String.init 4 (fun i -> Char.chr ((v lsr (24 - (8 * i))) land 0xff)) in
  let payload = String.init 64 (fun i -> Char.chr (i * 7 land 0xff)) in
  Outbuf.add_u32 ob 0xAABBCCDD;
  Outbuf.add_substring ob payload 0 (String.length payload);
  let expect = u32 0xAABBCCDD ^ payload in
  Alcotest.(check int) "pending counts queued bytes" (String.length expect)
    (Outbuf.pending ob);
  let out = Buffer.create 128 in
  (* first flush: the fake kernel takes 3 bytes then stalls (EAGAIN) *)
  let burst = ref true in
  let take3_then_stall buf off len =
    if not !burst then 0
    else begin
      burst := false;
      let n = min 3 len in
      Buffer.add_subbytes out buf off n;
      n
    end
  in
  let wrote = Outbuf.flush ob ~write:take3_then_stall in
  Alcotest.(check int) "short write took 3 bytes" 3 wrote;
  Alcotest.(check int) "suffix retained for the next flush"
    (String.length expect - 3) (Outbuf.pending ob);
  (* appending while a suffix is parked must not reorder anything *)
  Outbuf.add_substring ob "TAIL" 0 4;
  (* drain through a tiny window: ≤3 bytes per call, stalling every
     third call — several flush rounds needed *)
  let calls = ref 0 in
  let tiny buf off len =
    incr calls;
    if !calls mod 3 = 0 then 0
    else begin
      let n = min 3 len in
      Buffer.add_subbytes out buf off n;
      n
    end
  in
  let guard = ref 0 in
  while Outbuf.pending ob > 0 && !guard < 1000 do
    incr guard;
    ignore (Outbuf.flush ob ~write:tiny : int)
  done;
  Alcotest.(check int) "queue fully drained" 0 (Outbuf.pending ob);
  Alcotest.(check string) "byte stream preserved, in order" (expect ^ "TAIL")
    (Buffer.contents out)

(* ------------------------------------------------------------------ *)
(* Snapshot blobs: corrupt bytes are rejected, state untouched         *)
(* ------------------------------------------------------------------ *)

let run_until sim ~step ~limit pred =
  let deadline = Sim_time.add (Sim.now sim) limit in
  let rec go () =
    if pred () then true
    else if Sim_time.compare (Sim.now sim) deadline >= 0 then false
    else begin
      Sim.run ~until:(Sim_time.add (Sim.now sim) step) sim;
      go ()
    end
  in
  go ()

(* A replica of an unsharded deployment: tree, sessions, empty 2PC
   tables. *)
let unsharded_snapshot_source () =
  let sim = Sim.create ~seed:11 () in
  let cluster = Zk.Cluster.create sim in
  Proc.spawn sim (fun () ->
      let c = Zk.Cluster.connected_client cluster () in
      ignore (Zk.Client.create_node c "/a" "alpha");
      ignore (Zk.Client.create_node c "/a/b" "beta");
      for i = 1 to 5 do
        ignore (Zk.Client.set_data c "/a" (string_of_int i))
      done);
  Sim.run ~until:(Sim_time.sec 2) sim;
  (Zk.Cluster.servers cluster).(0)

(* The coordinator-shard leader of a two-shard deployment holding every
   2PC table at once: one cross-shard multi committed (decision and
   resolution entries) and a second pinned in doubt by a cut
   participant-to-coordinator link (lock and prepared entries). *)
let sharded_snapshot_source () =
  let module Shard_map = Edc_sharding.Shard_map in
  let module Shard_cluster = Edc_sharding.Shard_cluster in
  let module Shard_session = Edc_sharding.Shard_session in
  let sim = Sim.create ~seed:11 () in
  let map =
    Shard_map.v
      ~rules:
        [ { Shard_map.prefix = "/s0"; shard = 0 };
          { Shard_map.prefix = "/s1"; shard = 1 } ]
      2
  in
  let cluster = Shard_cluster.create ~map sim in
  let multi s k =
    Shard_session.multi s
      [ Edc_replication.Two_pc.Wcreate { path = "/s0/" ^ k; data = k };
        Edc_replication.Two_pc.Wcreate { path = "/s1/" ^ k; data = k } ]
  in
  let committed = ref false in
  Proc.spawn sim (fun () ->
      let s = Shard_session.connect cluster in
      ignore (Shard_session.create_node s "/s0" "");
      ignore (Shard_session.create_node s "/s1" "");
      committed := multi s "a" = Ok ();
      Net.cut_link_one_way (Shard_cluster.ishard_net cluster) ~src:1 ~dst:0;
      ignore (multi s "b"));
  let leader () = Shard_cluster.shard_leader cluster 0 in
  let holds_all srv =
    Zk.Server.locked_paths srv <> []
    && Zk.Server.prepared_txns srv <> []
    && Zk.Server.txn_audit srv <> []
  in
  if
    not
      (run_until sim ~step:(Sim_time.ms 5) ~limit:(Sim_time.sec 5) (fun () ->
           !committed && Option.fold ~none:false ~some:holds_all (leader ())))
  then Alcotest.fail "sharded replica never held every 2PC table";
  let srv = Option.get (leader ()) in
  (match Zk.Server.txn_audit srv with
  | [ (txid, true) ] ->
      Alcotest.(check (option bool)) "decision entry" (Some true)
        (Zk.Server.decided srv txid)
  | _ -> Alcotest.fail "expected one committed resolution");
  srv

(* Every truncation and every single-byte flip of [blob] against a
   victim replica: never raises, and a rejected install leaves the
   victim's state byte-identical. *)
let corrupt_sweep what blob =
  let victim =
    (Zk.Cluster.servers (Zk.Cluster.create (Sim.create ~seed:12 ()))).(0)
  in
  let baseline () = Zk.Server.snapshot_bytes victim in
  let before = baseline () in
  (* the intact blob is installable — the corruptions below fail for
     their corruption, not for some unrelated reason — and capturing
     again reproduces it byte for byte: the streaming reader loses
     nothing the writer put in *)
  (match Zk.Server.install_snapshot victim blob with
  | Ok () -> ()
  | Error e -> Alcotest.failf "%s: intact blob rejected: %s" what e);
  Alcotest.(check bool) (what ^ ": install then capture, same bytes") true
    (String.equal blob (baseline ()));
  (match Zk.Server.install_snapshot victim before with
  | Ok () -> ()
  | Error e -> Alcotest.failf "%s: restore rejected: %s" what e);
  (* every truncation: clean Error, no state change *)
  for k = 0 to String.length blob - 1 do
    match Zk.Server.install_snapshot victim (String.sub blob 0 k) with
    | Error _ -> ()
    | Ok () -> Alcotest.failf "%s: truncation at %d installed" what k
  done;
  Alcotest.(check bool) (what ^ ": state untouched after truncations") true
    (String.equal before (baseline ()));
  (* every single-byte corruption: never raises; on Error the state is
     untouched (a flip inside a data payload can still be a valid blob) *)
  let rejected = ref 0 in
  String.iteri
    (fun i c ->
      let b = Bytes.of_string blob in
      Bytes.set b i (Char.chr (Char.code c lxor 0xff));
      match Zk.Server.install_snapshot victim (Bytes.to_string b) with
      | Ok () ->
          (* structurally valid mutant: restore the baseline *)
          ignore (Zk.Server.install_snapshot victim before)
      | Error _ ->
          incr rejected;
          if not (String.equal before (baseline ())) then
            Alcotest.failf "%s: rejected install at byte %d mutated state" what i)
    blob;
  Alcotest.(check bool) (what ^ ": some corruptions structurally rejected")
    true (!rejected > 0)

let test_snapshot_corrupt_blob_rejected () =
  List.iter
    (fun (what, src) ->
      let blob = Zk.Server.snapshot_bytes src in
      Alcotest.(check bool) (what ^ ": capture is deterministic") true
        (String.equal blob (Zk.Server.snapshot_bytes src));
      (* the streamed blob is a canonical frame: the reference parser
         accepts it and re-encodes it byte for byte (its layout is pinned
         by the golden corpus) *)
      Alcotest.(check bool) (what ^ ": blob is a canonical frame") true
        (canonical blob);
      corrupt_sweep what blob)
    [ ("unsharded", unsharded_snapshot_source ());
      ("sharded", sharded_snapshot_source ()) ]

(* a follower whose install hook rejects the blob re-requests the
   transfer instead of dying; once the hook accepts, it catches up *)

let test_follower_rerequests_on_reject () =
  let n = 3 in
  let sim = Sim.create ~seed:21 () in
  let net = Net.create sim in
  let peers = List.init n Fun.id in
  let delivered = Array.make n [] in
  let send_from i ~dst msg =
    Net.send net ~src:i ~dst ~size:(Zab.msg_size ~payload_size:String.length msg) msg
  in
  let replicas =
    Array.init n (fun i ->
        Zab.create ~sim ~id:i ~peers ~send:(send_from i)
          ~on_deliver:(fun zxid p -> delivered.(i) <- (zxid, p) :: delivered.(i))
          ~initial_leader:0 ())
  in
  Array.iteri
    (fun i r ->
      Net.register net i (fun ~src ~size:_ msg -> Zab.handle r ~src msg);
      Zab.start r)
    replicas;
  let run_for d = Sim.run ~until:(Sim_time.add (Sim.now sim) d) sim in
  run_for (Sim_time.ms 10);
  Zab.crash replicas.(2);
  Net.set_node_down net 2;
  for k = 1 to 200 do
    ignore (Zab.propose replicas.(0) (Printf.sprintf "%06d" k) : Zab.zxid option)
  done;
  run_for (Sim_time.sec 1);
  List.iter
    (fun i ->
      Zab.compact replicas.(i) ~take:(fun () ->
          let hist = delivered.(i) in
          fun () -> Hist_codec.encode hist))
    [ 0; 1 ];
  (* reject the first two completed transfers, accept from then on *)
  let rejections = ref 2 in
  Zab.set_install_snapshot replicas.(2) (fun blob ->
      if !rejections > 0 then begin
        decr rejections;
        Error "injected reject"
      end
      else Result.map (fun h -> delivered.(2) <- h) (Hist_codec.decode blob));
  Net.set_node_up net 2;
  Zab.restart replicas.(2);
  let caught_up () = List.length delivered.(2) >= 200 in
  let ok = run_until sim ~step:(Sim_time.ms 10) ~limit:(Sim_time.sec 30) caught_up in
  Alcotest.(check bool) "follower caught up after rejects" true ok;
  let stats = Zab.xfer_stats replicas.(2) in
  Alcotest.(check int) "both rejects counted" 2 stats.Zab.install_rejects;
  Alcotest.(check bool) "follower state equals the leader's" true
    (delivered.(2) = delivered.(0))

(* ------------------------------------------------------------------ *)
(* End to end over real sockets                                        *)
(* ------------------------------------------------------------------ *)

(* Also the TCP group-commit regression: a burst of pipelined counter
   increments, all read in the same polls, must share Propose messages
   (mean entries per Propose > 1) and still count exactly. *)
let test_tcp_counter_workload () =
  let sim = Sim.create ~seed:31 () in
  (* pid-derived port block so parallel test runners don't collide *)
  let base_port = 20000 + (Unix.getpid () mod 20000) in
  let hub =
    Tcp_transport.create ~sim ~base_port ~encode:Zk.Server_wire.encode
      ~decode:Zk.Server_wire.decode_sub ()
  in
  let proposals = ref 0 and proposed = ref 0 in
  let count (m : Zk.Server.wire) =
    match m with
    | Zk.Server.Zab_msg (Zab.Propose { entries; _ }) ->
        incr proposals;
        proposed := !proposed + List.length entries
    | _ -> ()
  in
  let tr = Tcp_transport.transport hub in
  let tr =
    {
      tr with
      Transport.send =
        (fun ~src ~dst ~size m ->
          count m;
          tr.send ~src ~dst ~size m);
      send_many =
        (fun ~src ~dsts ~size m ->
          count m;
          tr.send_many ~src ~dsts ~size m);
    }
  in
  (* No modelled CPU cost: over TCP virtual time follows the wall clock,
     so requests read in one poll are handled at one virtual instant. *)
  let config =
    { Zk.Server.default_config with preprocess_cost = Sim_time.zero; read_cost = Sim_time.zero }
  in
  let replica_ids = [ 0; 1; 2 ] in
  let servers =
    List.map
      (fun id ->
        Zk.Server.create ~config ~sim ~net:tr ~id ~replica_ids ~initial_leader:0 ())
      replica_ids
  in
  List.iter Zk.Server.start servers;
  List.iter (fun s -> ignore (Edc_ezk.Ezk.install s : Edc_ezk.Ezk.t)) servers;
  Edc_ezk.Ezk.bootstrap (List.hd servers);
  let increments = 10 and pipelined = 256 in
  let client = Zk.Client.create ~sim ~net:tr ~addr:100 ~replica:1 () in
  let bump = P.Get_data { path = Edc_recipes.Counter.trigger_oid; watch = false } in
  let outcome =
    Proc.async sim (fun () ->
        Zk.Client.connect client;
        match Zk.Client.create_node client "/ctr" "0" with
        | Error e -> Error (Format.asprintf "create: %a" Zk.Zerror.pp e)
        | Ok _ ->
            let rec bump_seq i =
              if i > increments then Ok ()
              else
                match Zk.Client.set_data client "/ctr" (string_of_int i) with
                | Ok _ -> bump_seq (i + 1)
                | Error e -> Error (Format.asprintf "set %d: %a" i Zk.Zerror.pp e)
            in
            let burst () =
              match
                Edc_ezk.Ezk_client.register client Edc_recipes.Counter.program
              with
              | Error e -> Error (Format.asprintf "register: %a" Zk.Zerror.pp e)
              | Ok _ ->
                  let replies =
                    List.init pipelined (fun _ -> Zk.Client.request_async client bump)
                    |> List.map Proc.await
                  in
                  if List.for_all (function P.Ext _ -> true | _ -> false) replies
                  then Ok ()
                  else Error "an increment failed"
            in
            let read_back () =
              match Zk.Client.get_data client "/ctr" with
              | Ok (v, _) -> Ok v
              | Error e -> Error (Format.asprintf "get: %a" Zk.Zerror.pp e)
            in
            Result.bind (bump_seq 1) (fun () ->
                Result.bind (read_back ()) (fun v ->
                    Result.bind (burst ()) (fun () ->
                        Result.map (fun w -> (v, w)) (read_back ())))))
  in
  let deadline = Unix.gettimeofday () +. 60. in
  while (not (Proc.is_fulfilled outcome)) && Unix.gettimeofday () < deadline do
    Tcp_transport.drive hub ~wall:0.05
  done;
  Tcp_transport.shutdown hub;
  (match Proc.value_opt outcome with
  | None ->
      Alcotest.failf "workload did not finish (frames=%d decode_errors=%d)"
        (Tcp_transport.frames_received hub)
        (Tcp_transport.decode_errors hub)
  | Some (Error e) -> Alcotest.failf "workload failed: %s" e
  | Some (Ok (v, w)) ->
      Alcotest.(check string) "counter value read back over TCP"
        (string_of_int increments) v;
      Alcotest.(check string) "pipelined increments counted exactly"
        (string_of_int (increments + pipelined)) w);
  Alcotest.(check bool) "traffic actually crossed the sockets" true
    (Tcp_transport.frames_received hub > 0 && Tcp_transport.bytes_sent hub > 0);
  Alcotest.(check int) "no undecodable frames" 0 (Tcp_transport.decode_errors hub);
  Alcotest.(check bool)
    (Printf.sprintf "pipelined writes share proposals (%d entries in %d Proposes)"
       !proposed !proposals)
    true
    (!proposed > !proposals)

(* a hub whose peer speaks garbage: decoder errors are counted and
   dropped, the process does not die *)
let test_tcp_garbage_is_dropped () =
  let sim = Sim.create ~seed:32 () in
  let base_port = 40000 + (Unix.getpid () mod 9000) in
  let hub =
    Tcp_transport.create ~sim ~base_port ~encode:Zk.Server_wire.encode
      ~decode:Zk.Server_wire.decode_sub ()
  in
  let tr = Tcp_transport.transport hub in
  let received = ref 0 in
  Transport.register tr 0 (fun ~src:_ ~size:_ _ -> incr received);
  Tcp_transport.poll hub ~timeout:0.01;
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect sock (Unix.ADDR_INET (Unix.inet_addr_loopback, base_port));
  let put_u32 b off v =
    Bytes.set b off (Char.chr ((v lsr 24) land 0xff));
    Bytes.set b (off + 1) (Char.chr ((v lsr 16) land 0xff));
    Bytes.set b (off + 2) (Char.chr ((v lsr 8) land 0xff));
    Bytes.set b (off + 3) (Char.chr (v land 0xff))
  in
  (* a well-framed message whose body is not a decodable Wire frame *)
  let body = "this is not a frame" in
  let msg = Bytes.create (8 + String.length body) in
  put_u32 msg 0 (4 + String.length body);
  put_u32 msg 4 7 (* claimed source address *);
  Bytes.blit_string body 0 msg 8 (String.length body);
  ignore (Unix.write sock msg 0 (Bytes.length msg));
  let deadline = Unix.gettimeofday () +. 5. in
  while Tcp_transport.decode_errors hub = 0 && Unix.gettimeofday () < deadline do
    Tcp_transport.poll hub ~timeout:0.05
  done;
  Unix.close sock;
  Tcp_transport.shutdown hub;
  Alcotest.(check int) "garbage counted as decode error" 1
    (Tcp_transport.decode_errors hub);
  Alcotest.(check int) "garbage not dispatched" 0 !received

(* A flush that fails drops its own connection in the middle of the
   walk over every outbound connection; the walk still flushes the
   others, and the next send to the dropped peer opens a fresh
   connection.  The peers are plain sockets owned by the test; peer 2 is
   reset (linger 0) so the hub's next write to it fails. *)
let test_tcp_failed_flush_drops_only_its_connection () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let sim = Sim.create ~seed:33 () in
  let base_port = 49000 + (Unix.getpid () mod 9000) in
  let listen addr =
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    Unix.setsockopt fd Unix.SO_REUSEADDR true;
    Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, base_port + addr));
    Unix.listen fd 4;
    fd
  in
  let l1 = listen 1 and l2 = listen 2 in
  let hub =
    Tcp_transport.create ~sim ~base_port ~encode:Fun.id
      ~decode:(fun s ~pos ~len -> Ok (String.sub s pos len)) ()
  in
  let tr = Tcp_transport.transport hub in
  let send dst = Transport.send tr ~src:0 ~dst ~size:0 "hello" in
  (* bytes that reach [fd] within a short wait *)
  let received fd =
    let buf = Bytes.create 4096 and total = ref 0 in
    let deadline = Unix.gettimeofday () +. 2. in
    while !total = 0 && Unix.gettimeofday () < deadline do
      match Unix.select [ fd ] [] [] 0.05 with
      | [], _, _ -> ()
      | _ -> total := !total + Unix.read fd buf 0 (Bytes.length buf)
    done;
    !total
  in
  (* connect to peer 1 first: the walk meets peer 2's connection first *)
  send 1;
  send 2;
  Tcp_transport.poll hub ~timeout:0.;
  let p1, _ = Unix.accept l1 and p2, _ = Unix.accept l2 in
  Alcotest.(check bool) "peer 1 got the first frame" true (received p1 > 0);
  Alcotest.(check bool) "peer 2 got the first frame" true (received p2 > 0);
  Unix.setsockopt_optint p2 Unix.SO_LINGER (Some 0);
  Unix.close p2;
  Unix.sleepf 0.05;
  send 2;
  send 1;
  Tcp_transport.poll hub ~timeout:0.;
  Alcotest.(check int) "the reset connection failed" 1 (Tcp_transport.send_failures hub);
  Alcotest.(check bool) "the other connection still flushed" true (received p1 > 0);
  send 2;
  Tcp_transport.poll hub ~timeout:0.;
  let p2', _ = Unix.accept l2 in
  Alcotest.(check bool) "a fresh connection to the reset peer" true (received p2' > 0);
  Alcotest.(check int) "the dropped connection is not flushed again" 1
    (Tcp_transport.send_failures hub);
  Tcp_transport.shutdown hub;
  List.iter Unix.close [ p1; p2'; l1; l2 ]

(* ------------------------------------------------------------------ *)
(* 2PC write ops and log records (§6j)                                 *)
(* ------------------------------------------------------------------ *)

module Two_pc = Edc_replication.Two_pc

let twopc_wop_gen =
  let open QCheck.Gen in
  let path =
    map
      (fun comps -> "/" ^ String.concat "/" comps)
      (list_size (int_range 1 3)
         (string_size ~gen:(char_range 'a' 'z') (int_range 1 6)))
  in
  let data = string_size ~gen:(char_range '\000' '\255') (int_range 0 24) in
  oneof
    [
      map2 (fun p d -> Two_pc.Wcreate { path = p; data = d }) path data;
      map2 (fun p d -> Two_pc.Wset { path = p; data = d }) path data;
      map (fun p -> Two_pc.Wdelete { path = p }) path;
    ]

(* the wop streaming writer feeds the snapshot blob's prepared-txn
   section: byte-identity with the tree encoder's rendering of the same
   frame, and the streaming reader inverts it *)
let prop_twopc_wop_stream_identity =
  QCheck.Test.make ~name:"2pc wop streaming writer byte-identical, reads back"
    ~count:500
    (QCheck.make ~print:(Format.asprintf "%a" Two_pc.pp_wop) twopc_wop_gen)
    (fun op ->
      let stream = W.with_writer (fun w -> Two_pc.write_wop w op) in
      canonical stream && R.run stream Two_pc.read_wop = Ok op)

let twopc_txid =
  QCheck.Gen.map3
    (fun s e c -> Printf.sprintf "s%d.e%d.%d" s e c)
    (QCheck.Gen.int_range 0 15) (QCheck.Gen.int_range 0 9) (QCheck.Gen.int_range 0 999)

let twopc_frame_arb =
  let open QCheck.Gen in
  let txid = twopc_txid in
  let wop = twopc_wop_gen in
  let frame =
    oneof
      [
        (let* t = txid in
         let* coord = int_range 0 15 in
         let* participants = list_size (int_range 1 4) (int_range 0 15) in
         let* ops = list_size (int_range 0 5) wop in
         return (Two_pc.Prepare { txid = t; coord; participants; ops }));
        map3
          (fun t shard ok -> Two_pc.Prepare_ack { txid = t; shard; ok })
          txid (int_range 0 15) bool;
        map (fun t -> Two_pc.Commit { txid = t }) txid;
        map (fun t -> Two_pc.Abort { txid = t }) txid;
        map2
          (fun t s -> Two_pc.Status { txid = t; from_shard = s })
          txid (int_range 0 15);
      ]
  in
  QCheck.make
    ~print:(fun f -> Format.asprintf "%a" Two_pc.pp_frame f)
    frame

let prop_twopc_size =
  QCheck.Test.make ~name:"2pc frame_size bounds payload" ~count:500
    twopc_frame_arb (fun f -> Two_pc.frame_size f > 0)

(* Inter-shard frames travel as values; the 2PC steps that cross bytes
   are the records each shard logs — prepare (with its wops), the
   coordinator's decision, and the resolution — framed as txn ops. *)
let twopc_record_arb =
  let open QCheck.Gen in
  let record =
    oneof
      [
        (let* txid = twopc_txid in
         let* coord = int_range 0 15 in
         let* ops = list_size (int_range 0 5) twopc_wop_gen in
         return (Txn.Tprep { txid; coord; ops }));
        (let* txid = twopc_txid in
         let* commit = bool in
         let* participants = list_size (int_range 1 4) (int_range 0 15) in
         return (Txn.Tdecide { txid; commit; participants }));
        map2 (fun txid commit -> Txn.Tresolve { txid; commit }) twopc_txid bool;
      ]
  in
  QCheck.make ~print:(Format.asprintf "%a" Txn.pp_op) record

let twopc_encode op = W.with_writer (fun w -> Zk.Wire_format.write_txn_op w op)
let twopc_decode s = R.run s Zk.Wire_format.read_txn_op

let prop_twopc_roundtrip =
  QCheck.Test.make ~name:"2pc frames roundtrip" ~count:500 twopc_record_arb
    (fun op -> twopc_decode (twopc_encode op) = Ok op)

(* truncation at EVERY byte offset must be a clean [Error] *)
let prop_twopc_truncation =
  QCheck.Test.make ~name:"2pc frame truncations all rejected" ~count:200
    twopc_record_arb (fun op ->
      let s = twopc_encode op in
      let ok = ref true in
      for k = 0 to String.length s - 1 do
        match twopc_decode (String.sub s 0 k) with
        | Error _ -> ()
        | Ok _ -> ok := false
      done;
      !ok)

let prop_twopc_garbage =
  QCheck.Test.make ~name:"2pc decoder total on garbage" ~count:1000
    QCheck.(string_gen QCheck.Gen.(char_range '\000' '\255'))
    (fun s ->
      (match twopc_decode s with Ok _ | Error _ -> true)
      && match R.run s Two_pc.read_wop with Ok _ | Error _ -> true)

(* random well-formed wire trees that are NOT 2pc records or wops must be
   refused without raising *)
let prop_twopc_wrong_shape =
  QCheck.Test.make ~name:"2pc decoder refuses foreign wire trees" ~count:500
    wire_arb (fun w ->
      let s = Wire.encode w in
      (match twopc_decode s with Ok _ | Error _ -> true)
      && match R.run s Two_pc.read_wop with Ok _ | Error _ -> true)

let test_twopc_crafted_malformed () =
  let reject name s =
    match twopc_decode s with
    | Error _ -> ()
    | Ok op ->
        Alcotest.failf "%s decoded to %s" name
          (Format.asprintf "%a" Txn.pp_op op)
  in
  (* non-minimal varint inside an otherwise valid frame: re-spell the
     leading length byte of the encoded frame as a 2-byte varint *)
  let s = twopc_encode (Txn.Tresolve { txid = "s0.e1.2"; commit = true }) in
  (match twopc_decode s with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "valid resolve frame rejected: %s" e);
  let n = Char.code s.[1] in
  if n < 0x80 then
    reject "non-minimal frame length varint"
      (String.make 1 s.[0]
      ^ String.make 1 (Char.chr (0x80 lor n))
      ^ "\x00"
      ^ String.sub s 2 (String.length s - 2));
  (* truncated mid-frame and pure garbage *)
  reject "truncated resolve" (String.sub s 0 (String.length s - 1));
  reject "garbage" "\xde\xad\xbe\xef";
  (* structurally valid wire, wrong arity / tag *)
  reject "unknown record tag"
    (Wire.encode (Wire.List [ Wire.Int 99; Wire.Str "t" ]));
  reject "prepare with non-list ops"
    (Wire.encode
       (Wire.List [ Wire.Int 9; Wire.Str "t"; Wire.Int 1; Wire.Int 2 ]));
  reject "prepare with a malformed wop"
    (Wire.encode
       (Wire.List
          [ Wire.Int 9; Wire.Str "t"; Wire.Int 1;
            Wire.List [ Wire.List [ Wire.Int 3; Wire.Str "/a" ] ] ]))

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "edc_wire"
    [
      ( "codec",
        [
          qc prop_wire_roundtrip;
          qc prop_wire_truncation;
          qc prop_wire_garbage;
          qc prop_wire_bitflip;
          Alcotest.test_case "crafted bombs rejected" `Quick test_wire_crafted_bombs;
          Alcotest.test_case "encode rejects over-deep trees" `Quick
            test_wire_encode_rejects_overdeep;
        ] );
      ( "messages",
        [
          Alcotest.test_case "zab messages roundtrip" `Quick test_zab_msg_roundtrip;
          qc prop_lease_frames_roundtrip;
          qc prop_lease_frames_truncation;
          qc prop_zab_decoder_garbage;
          Alcotest.test_case "malformed lease/observer frames rejected" `Quick
            test_lease_frames_malformed;
          Alcotest.test_case "pbft messages roundtrip" `Quick test_pbft_msg_roundtrip;
          Alcotest.test_case "protocol ops/results/txns roundtrip" `Quick
            test_protocol_roundtrip;
          Alcotest.test_case "server wire roundtrip" `Quick test_server_wire_roundtrip;
        ] );
      ( "streaming",
        [
          qc prop_writer_byte_identity;
          qc prop_reader_differential_valid;
          qc prop_reader_differential_truncation;
          qc prop_reader_differential_garbage;
          qc prop_reader_differential_bitflip;
          Alcotest.test_case "reader errors carry byte offsets" `Quick
            test_reader_errors_carry_offsets;
          Alcotest.test_case "writer rejects over-deep trees" `Quick
            test_writer_rejects_overdeep;
          Alcotest.test_case "message writers byte-identical to tree encodes"
            `Quick test_stream_messages_byte_identical;
          Alcotest.test_case "server-wire streaming decoder ≡ tree decoder"
            `Quick test_server_wire_decode_differential;
          Alcotest.test_case "decode_sub reads frames out of a padded buffer"
            `Quick test_decode_sub_slice;
          Alcotest.test_case "outbuf survives short writes and stalls" `Quick
            test_outbuf_short_writes;
        ] );
      ( "snapshot",
        [
          Alcotest.test_case "corrupt blobs rejected, state untouched" `Quick
            test_snapshot_corrupt_blob_rejected;
          Alcotest.test_case "rejecting follower re-requests" `Quick
            test_follower_rerequests_on_reject;
        ] );
      ( "tcp",
        [
          Alcotest.test_case "3-replica counter workload over TCP" `Quick
            test_tcp_counter_workload;
          Alcotest.test_case "garbage frames dropped, not fatal" `Quick
            test_tcp_garbage_is_dropped;
          Alcotest.test_case "failed flush drops only its connection" `Quick
            test_tcp_failed_flush_drops_only_its_connection;
        ] );
      ( "2pc",
        [
          qc prop_twopc_wop_stream_identity;
          qc prop_twopc_roundtrip;
          qc prop_twopc_size;
          qc prop_twopc_truncation;
          qc prop_twopc_garbage;
          qc prop_twopc_wrong_shape;
          Alcotest.test_case "crafted malformed 2pc frames rejected" `Quick
            test_twopc_crafted_malformed;
        ] );
    ]
