(* Snapshot pipeline: copy-on-write capture, deterministic portable
   images, lazy serialization at the server, and the chunked state
   transfer — including a deterministic mid-transfer link kill whose
   resume must continue from the last acknowledged chunk, and a chaos run
   where recovery goes through state transfer with the linearizability
   checker on. *)

open Edc_simnet
open Edc_harness
module Zk = Edc_zookeeper
module Data_tree = Zk.Data_tree
module Znode = Zk.Znode
module Txn = Zk.Txn
module Zab = Edc_replication.Zab
module W = Edc_checker.Wgl

let qc = QCheck_alcotest.to_alcotest

let portable_bytes (p : Data_tree.portable) =
  Edc_wire.Wire.Writer.with_writer (fun w -> Zk.Wire_format.write_portable w p)

(* ------------------------------------------------------------------ *)
(* COW images vs. a deep-copy oracle (QCheck differential)             *)
(* ------------------------------------------------------------------ *)

(* A small closed universe of flat paths keeps every generated op
   applicable (parents always exist, no children to orphan). *)
let paths = Array.init 8 (Printf.sprintf "/n%d")

let apply_op tr (k, i, data) =
  let path = paths.(i) in
  match k with
  | 0 ->
      if not (Data_tree.mem tr path) then
        Data_tree.apply_create tr ~path ~data ~ephemeral_owner:None
  | 1 -> (
      match Data_tree.exists tr path with
      | Some st ->
          Data_tree.apply_set tr ~path ~data ~version:(st.Znode.version + 1)
      | None -> ())
  | _ -> if Data_tree.mem tr path then Data_tree.apply_delete tr ~path

let ops_arb =
  let op_gen =
    QCheck.Gen.(
      triple (int_bound 2) (int_bound 7)
        (string_size ~gen:(char_range 'a' 'z') (int_bound 6)))
  in
  let print (pre, post) =
    let p ops =
      String.concat ";"
        (List.map (fun (k, i, d) -> Printf.sprintf "(%d,%d,%S)" k i d) ops)
    in
    Printf.sprintf "prefix=[%s] suffix=[%s]" (p pre) (p post)
  in
  QCheck.make ~print
    QCheck.Gen.(
      pair (list_size (int_bound 40) op_gen) (list_size (int_bound 40) op_gen))

(* An image captured at point P must materialize to exactly what a deep
   copy taken at P contains, no matter how the live tree mutates
   afterwards — and the live tree itself must stay consistent with a
   fresh capture. *)
let prop_cow_stable_under_mutation =
  QCheck.Test.make ~name:"COW image = deep-copy oracle under mutation"
    ~count:200 ops_arb (fun (prefix, suffix) ->
      let tr = Data_tree.create () in
      List.iter (apply_op tr) prefix;
      let image = Data_tree.export tr in
      let oracle = Data_tree.export_eager tr in
      List.iter (apply_op tr) suffix;
      let got = Data_tree.materialize image in
      Data_tree.release image;
      let frozen = portable_bytes got = portable_bytes oracle in
      (* the live tree must agree with a post-mutation capture too *)
      let live_image = Data_tree.export tr in
      let live = Data_tree.materialize live_image in
      Data_tree.release live_image;
      let live_ok = portable_bytes live = portable_bytes (Data_tree.export_eager tr) in
      frozen && live_ok && Data_tree.active_images tr = 0)

(* ------------------------------------------------------------------ *)
(* Deterministic portable bytes                                        *)
(* ------------------------------------------------------------------ *)

(* Two trees that reach the same logical state through different COW
   histories (one exports and releases images mid-build, bumping
   generations and stamps; one never does) must marshal to byte-identical
   portable images: stamps are normalized and nodes are path-sorted, so
   the blob digest can identify a snapshot across leaders. *)
let test_portable_bytes_deterministic () =
  let build ~snapshot_every =
    let tr = Data_tree.create () in
    for i = 0 to 19 do
      Data_tree.apply_create tr
        ~path:(Printf.sprintf "/d%02d" i)
        ~data:(string_of_int i) ~ephemeral_owner:None;
      if snapshot_every > 0 && i mod snapshot_every = 0 then begin
        let img = Data_tree.export tr in
        ignore (Data_tree.materialize img : Data_tree.portable);
        Data_tree.release img
      end
    done;
    for i = 0 to 19 do
      Data_tree.apply_set tr
        ~path:(Printf.sprintf "/d%02d" i)
        ~data:(Printf.sprintf "v%d" i) ~version:1
    done;
    tr
  in
  let quiet = build ~snapshot_every:0 in
  let busy = build ~snapshot_every:3 in
  let pq = Data_tree.export_eager quiet and pb = Data_tree.export_eager busy in
  Alcotest.(check bool)
    "identical state, different COW history: identical bytes" true
    (portable_bytes pq = portable_bytes pb);
  let img = Data_tree.export busy in
  let via_image = Data_tree.materialize img in
  Data_tree.release img;
  Alcotest.(check bool)
    "eager export and materialized image agree" true
    (portable_bytes via_image = portable_bytes pq);
  let ps = List.map fst pq.Data_tree.img_nodes in
  Alcotest.(check (list string))
    "nodes are path-sorted" (List.sort compare ps) ps

(* ------------------------------------------------------------------ *)
(* Importing the same image twice yields independent trees             *)
(* ------------------------------------------------------------------ *)

let test_import_twice_independent () =
  let tr = Data_tree.create () in
  List.iter
    (fun (p, d) -> Data_tree.apply_create tr ~path:p ~data:d ~ephemeral_owner:None)
    [ ("/x", "1"); ("/y", "2"); ("/z", "3") ];
  let img = Data_tree.export tr in
  let p = Data_tree.materialize img in
  Data_tree.release img;
  let a = Data_tree.create () and b = Data_tree.create () in
  Data_tree.import_portable a p;
  Data_tree.import_portable b p;
  Alcotest.(check bool) "round-trip is lossless" true
    (portable_bytes (Data_tree.export_eager a) = portable_bytes p);
  (* mutating one import (or the origin) must not leak into the other *)
  Data_tree.apply_set a ~path:"/x" ~data:"mutated" ~version:7;
  Data_tree.apply_delete a ~path:"/y";
  Data_tree.apply_delete tr ~path:"/z";
  Alcotest.(check bool) "sibling import untouched" true
    (portable_bytes (Data_tree.export_eager b) = portable_bytes p);
  (match Data_tree.get_data b "/x" with
  | Ok (d, _) -> Alcotest.(check string) "data preserved" "1" d
  | Error _ -> Alcotest.fail "/x missing after import");
  Alcotest.(check bool) "no anomalies" true (Data_tree.anomalies a = 0)

(* ------------------------------------------------------------------ *)
(* Server-level cadence: lazy serialization, install resets interval   *)
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

(* With [snapshot_interval = 20]: 50 txns give the survivors two captures
   and zero marshals (nobody asked for bytes yet); restarting the lagged
   follower forces exactly one serialization; the install must reset the
   follower's cadence so it does not immediately re-snapshot state it
   just imported. *)
let test_server_lazy_serialization_and_install_cadence () =
  let sim = Sim.create ~seed:77 () in
  let server_config =
    { Zk.Server.default_config with snapshot_interval = 20 }
  in
  let c = Zk.Cluster.create ~server_config sim in
  Zk.Cluster.run_for c (Sim_time.ms 200);
  let servers = Zk.Cluster.servers c in
  let leader =
    match Zk.Cluster.leader c with
    | Some l -> l
    | None -> Alcotest.fail "no leader elected"
  in
  let lagger =
    servers.(if Zk.Server.id leader = 2 then 1 else 2)
  in
  Zk.Cluster.crash_server c (Zk.Server.id lagger);
  let propose_n ~from n =
    for k = from to from + n - 1 do
      Zk.Server.propose_internal leader
        [ Txn.Tcreate
            { path = Printf.sprintf "/k%03d" k; data = "d"; ephemeral_owner = None };
        ]
    done
  in
  propose_n ~from:0 50;
  Zk.Cluster.run_for c (Sim_time.sec 1);
  Alcotest.(check int) "two captures at interval 20/50 txns" 2
    (Zk.Server.snapshot_captures leader);
  Alcotest.(check int) "no transfer yet: nothing marshaled" 0
    (Zk.Server.snapshot_serializations leader);
  Zk.Cluster.restart_server c (Zk.Server.id lagger);
  let installed =
    run_until sim ~step:(Sim_time.ms 10) ~limit:(Sim_time.sec 10) (fun () ->
        Zk.Server.snapshot_installs lagger > 0
        && Zab.delivered_length (Zk.Server.zab lagger) >= 50)
  in
  Alcotest.(check bool) "lagged follower recovered via state transfer" true
    installed;
  Alcotest.(check int) "exactly one forced serialization" 1
    (Zk.Server.snapshot_serializations leader);
  Alcotest.(check int) "importer did not capture" 0
    (Zk.Server.snapshot_captures lagger);
  (* 20 more txns: one more capture everywhere — the importer snapshots
     once, not twice, because the install restarted its interval *)
  propose_n ~from:50 20;
  Zk.Cluster.run_for c (Sim_time.sec 1);
  Alcotest.(check int) "leader captured once more" 3
    (Zk.Server.snapshot_captures leader);
  Alcotest.(check int) "importer captured exactly once after install" 1
    (Zk.Server.snapshot_captures lagger);
  Array.iter
    (fun s ->
      Alcotest.(check int)
        (Printf.sprintf "replica %d: interval never fired on a compacted log"
           (Zk.Server.id s))
        0
        (Zk.Server.snapshots_skipped s))
    servers;
  Alcotest.(check int) "still exactly one serialization" 1
    (Array.fold_left (fun a s -> a + Zk.Server.snapshot_serializations s) 0 servers)

(* ------------------------------------------------------------------ *)
(* Zab-level mid-transfer link kill: resume, not restart               *)
(* ------------------------------------------------------------------ *)

type zcluster = {
  zsim : Sim.t;
  znet : string Zab.msg Net.t;
  zreplicas : string Zab.t array;
  mutable zdelivered : (Zab.zxid * string) list array;  (* newest first *)
}

let make_zcluster ?zab_config ?(seed = 7) () =
  let n = 3 in
  let sim = Sim.create ~seed () in
  let net = Net.create sim in
  let peers = List.init n Fun.id in
  let delivered = Array.make n [] in
  let send_from i ~dst msg =
    Net.send net ~src:i ~dst
      ~size:(Zab.msg_size ~payload_size:String.length msg)
      msg
  in
  let replicas =
    Array.init n (fun i ->
        Zab.create ?config:zab_config ~sim ~id:i ~peers ~send:(send_from i)
          ~on_deliver:(fun zxid p -> delivered.(i) <- (zxid, p) :: delivered.(i))
          ~initial_leader:0 ())
  in
  Array.iteri
    (fun i r ->
      Net.register net i (fun ~src ~size:_ msg -> Zab.handle r ~src msg);
      Zab.start r)
    replicas;
  { zsim = sim; znet = net; zreplicas = replicas; zdelivered = delivered }

let zrun_for c d = Sim.run ~until:(Sim_time.add (Sim.now c.zsim) d) c.zsim

let test_mid_transfer_link_kill_resumes () =
  (* tiny chunks + a small window so the transfer spans many round trips
     and the cut lands mid-flight deterministically *)
  let zab_config =
    { Zab.default_config with snapshot_chunk_size = 512; snapshot_window = 2 }
  in
  let c = make_zcluster ~zab_config () in
  zrun_for c (Sim_time.ms 10);
  Zab.crash c.zreplicas.(2);
  Net.set_node_down c.znet 2;
  let payload = String.make 256 'y' in
  let entries = 400 in
  for k = 1 to entries do
    ignore
      (Zab.propose c.zreplicas.(0) (Printf.sprintf "%06d%s" k payload)
        : Zab.zxid option)
  done;
  zrun_for c (Sim_time.sec 1);
  List.iter
    (fun i ->
      Zab.compact c.zreplicas.(i) ~take:(fun () ->
          let hist = c.zdelivered.(i) in
          fun () -> Hist_codec.encode hist))
    [ 0; 1 ];
  Zab.set_install_snapshot c.zreplicas.(2) (fun blob ->
      Result.map (fun h -> c.zdelivered.(2) <- h) (Hist_codec.decode blob));
  Net.set_node_up c.znet 2;
  Zab.restart c.zreplicas.(2);
  (* summed over replicas: the cut below outlasts the election timeout,
     so the resume may be served by a new leader *)
  let stat f =
    Array.fold_left (fun acc r -> acc + f (Zab.xfer_stats r)) 0 c.zreplicas
  in
  let stat_max f =
    Array.fold_left
      (fun acc r -> Stdlib.max acc (f (Zab.xfer_stats r)))
      0 c.zreplicas
  in
  let started () =
    stat (fun s -> s.Zab.transfers_started) > 0
    && stat (fun s -> s.Zab.chunks_sent) > 8
  in
  let started_ok =
    run_until c.zsim ~step:(Sim_time.ms 1) ~limit:(Sim_time.sec 5) started
  in
  Alcotest.(check bool) "transfer started and is mid-flight" true
    (started_ok
    && stat (fun s -> s.Zab.installs) = 0
    && c.zdelivered.(2) = []);
  Net.cut_link c.znet 0 2;
  zrun_for c (Sim_time.sec 1);
  Net.heal_link c.znet 0 2;
  let caught_up () = List.length c.zdelivered.(2) >= entries in
  let completed =
    run_until c.zsim ~step:(Sim_time.ms 10) ~limit:(Sim_time.sec 30) caught_up
  in
  Alcotest.(check bool) "transfer completed after the heal" true completed;
  let resumes = stat (fun s -> s.Zab.resumes) in
  let resume_from = stat_max (fun s -> s.Zab.last_resume_from) in
  Alcotest.(check bool) "resumed at least once" true (resumes > 0);
  Alcotest.(check bool)
    (Printf.sprintf "resumed mid-blob (from chunk %d), not from 0" resume_from)
    true (resume_from > 0);
  Alcotest.(check bool) "follower state equals the leader's" true
    (c.zdelivered.(2) = c.zdelivered.(0))

(* ------------------------------------------------------------------ *)
(* Chaos: recovery through state transfer with the checker on          *)
(* ------------------------------------------------------------------ *)

let test_chaos_state_transfer_linearizable () =
  (* aggressive snapshots + tiny chunks so crash recovery must go through
     the chunked transfer while clients keep writing; a targeted isolate
     shortly after the restart cuts the follower off mid-stream *)
  let server_config =
    { Zk.Server.default_config with snapshot_interval = 150 }
  in
  let zab_config =
    { Zab.default_config with snapshot_chunk_size = 256; snapshot_window = 2 }
  in
  let schedule =
    [
      {
        Nemesis.start = Sim_time.sec 2;
        period = None;
        action =
          Nemesis.Crash_restart
            { downtime = Sim_time.sec 3; victim = Nemesis.Node 2 };
      };
      {
        Nemesis.start = Sim_time.ms 5_150;
        period = None;
        action =
          Nemesis.Isolate
            {
              duration = Sim_time.ms 400;
              victim = Nemesis.Node 2;
              asymmetric = false;
            };
      };
      {
        Nemesis.start = Sim_time.sec 8;
        period = None;
        action =
          Nemesis.Crash_restart
            { downtime = Sim_time.sec 2; victim = Nemesis.Leader };
      };
    ]
  in
  let p =
    Experiment.chaos_point ~seed:7 ~server_config ~zab_config ~schedule
      ~horizon:(Sim_time.sec 14) Systems.Ezk
  in
  Alcotest.(check (list string))
    "invariants intact" [] p.Experiment.ch_invariant_failures;
  Alcotest.(check bool) "history captured" true
    (p.Experiment.ch_history_events > 0);
  Alcotest.(check bool) "clients made progress" true
    (p.Experiment.ch_ops_ok > 0);
  Alcotest.(check bool) "checker produced verdicts" true
    (p.Experiment.ch_lin <> []);
  List.iter
    (fun (obj, v) ->
      if not (W.is_ok v) then
        Alcotest.failf "%s not linearizable: %a" obj W.pp_verdict v)
    p.Experiment.ch_lin;
  let s = p.Experiment.ch_snap in
  let nonzero what v = Alcotest.(check bool) what true (v > 0) in
  nonzero "captures" s.Systems.ss_captures;
  nonzero "transfers completed" s.Systems.ss_transfers_completed;
  nonzero "installs" s.Systems.ss_installs;
  Alcotest.(check bool) "lazy: marshaled at most once per capture" true
    (s.Systems.ss_serializations <= s.Systems.ss_captures)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "edc_snapshot"
    [
      ( "cow",
        [
          qc prop_cow_stable_under_mutation;
          Alcotest.test_case "import twice, mutate one" `Quick
            test_import_twice_independent;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "portable bytes are canonical" `Quick
            test_portable_bytes_deterministic;
        ] );
      ( "server",
        [
          Alcotest.test_case "lazy serialization + install cadence" `Quick
            test_server_lazy_serialization_and_install_cadence;
        ] );
      ( "transfer",
        [
          Alcotest.test_case "mid-transfer link kill resumes" `Quick
            test_mid_transfer_link_kill_resumes;
        ] );
      ( "chaos",
        [
          Alcotest.test_case "state transfer under nemesis, checker on"
            `Slow test_chaos_state_transfer_linearizable;
        ] );
    ]
