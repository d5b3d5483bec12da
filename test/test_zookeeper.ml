(* Tests for the ZooKeeper substrate: path algebra, data tree, the leader's
   speculative view (contention semantics), watches, and full-stack
   integration through the simulated cluster. *)

open Edc_simnet
open Edc_zookeeper
module P = Protocol

let zerror = Alcotest.testable Zerror.pp Zerror.equal
let time = Alcotest.testable Sim_time.pp Sim_time.equal

(* ------------------------------------------------------------------ *)
(* Zpath                                                               *)
(* ------------------------------------------------------------------ *)

let test_path_validity () =
  List.iter
    (fun p -> Alcotest.(check bool) (p ^ " valid") true (Zpath.is_valid p))
    [ "/"; "/a"; "/a/b"; "/queue/item0000000001" ];
  List.iter
    (fun p -> Alcotest.(check bool) (p ^ " invalid") false (Zpath.is_valid p))
    [ ""; "a"; "/a/"; "//"; "/a//b" ]

let test_path_algebra () =
  Alcotest.(check (option string)) "parent" (Some "/a") (Zpath.parent "/a/b");
  Alcotest.(check (option string)) "parent top" (Some "/") (Zpath.parent "/a");
  Alcotest.(check (option string)) "root parent" None (Zpath.parent "/");
  Alcotest.(check string) "basename" "b" (Zpath.basename "/a/b");
  Alcotest.(check string) "child of root" "/x" (Zpath.child "/" "x");
  Alcotest.(check string) "child" "/a/x" (Zpath.child "/a" "x");
  Alcotest.(check bool) "ancestor" true (Zpath.is_ancestor ~ancestor:"/a" "/a/b/c");
  Alcotest.(check bool) "not ancestor" false (Zpath.is_ancestor ~ancestor:"/a" "/ab");
  Alcotest.(check bool) "self not ancestor" false (Zpath.is_ancestor ~ancestor:"/a" "/a");
  Alcotest.(check int) "depth" 3 (Zpath.depth "/a/b/c");
  Alcotest.(check (list string)) "components" [ "a"; "b" ] (Zpath.components "/a/b")

let prop_path_parent_child =
  QCheck.Test.make ~name:"child(parent p, basename p) = p" ~count:200
    QCheck.(list_of_size Gen.(int_range 1 5) (string_gen_of_size (Gen.int_range 1 8) Gen.printable))
    (fun parts ->
      let clean =
        List.map
          (fun s ->
            String.map (fun c -> if c = '/' then '_' else c) s)
          parts
      in
      let p = "/" ^ String.concat "/" clean in
      (not (Zpath.is_valid p))
      ||
      match Zpath.parent p with
      | Some parent -> Zpath.child parent (Zpath.basename p) = p
      | None -> false)

(* ------------------------------------------------------------------ *)
(* Data_tree                                                           *)
(* ------------------------------------------------------------------ *)

let test_tree_create_get () =
  let tr = Data_tree.create () in
  Data_tree.apply_create tr ~path:"/a" ~data:"va" ~ephemeral_owner:None;
  Data_tree.apply_create tr ~path:"/a/b" ~data:"vb" ~ephemeral_owner:None;
  (match Data_tree.get_data tr "/a/b" with
  | Ok (d, s) ->
      Alcotest.(check string) "data" "vb" d;
      Alcotest.(check int) "fresh version" 0 s.Znode.version
  | Error _ -> Alcotest.fail "expected node");
  Alcotest.(check (list string)) "children" [ "b" ]
    (Result.get_ok (Data_tree.get_children tr "/a"));
  Alcotest.(check int) "no anomalies" 0 (Data_tree.anomalies tr)

let test_tree_delete () =
  let tr = Data_tree.create () in
  Data_tree.apply_create tr ~path:"/a" ~data:"" ~ephemeral_owner:None;
  Data_tree.apply_delete tr ~path:"/a";
  Alcotest.(check bool) "gone" false (Data_tree.mem tr "/a");
  Alcotest.(check (list string)) "root empty" []
    (Result.get_ok (Data_tree.get_children tr "/"))

let test_tree_cversion_counts_child_ops () =
  let tr = Data_tree.create () in
  Data_tree.apply_create tr ~path:"/q" ~data:"" ~ephemeral_owner:None;
  Data_tree.apply_create tr ~path:"/q/a" ~data:"" ~ephemeral_owner:None;
  Data_tree.apply_create tr ~path:"/q/b" ~data:"" ~ephemeral_owner:None;
  Data_tree.apply_delete tr ~path:"/q/a";
  Alcotest.(check int) "cversion = creates + deletes" 3 (Data_tree.cversion tr "/q")

let test_tree_ephemeral_index () =
  let tr = Data_tree.create () in
  Data_tree.apply_create tr ~path:"/e1" ~data:"" ~ephemeral_owner:(Some 7);
  Data_tree.apply_create tr ~path:"/e2" ~data:"" ~ephemeral_owner:(Some 7);
  Data_tree.apply_create tr ~path:"/p" ~data:"" ~ephemeral_owner:None;
  Alcotest.(check (list string)) "session ephemerals" [ "/e1"; "/e2" ]
    (Data_tree.ephemeral_paths tr 7);
  Data_tree.apply_delete tr ~path:"/e1";
  Alcotest.(check (list string)) "after delete" [ "/e2" ]
    (Data_tree.ephemeral_paths tr 7)

let test_tree_anomaly_detection () =
  let tr = Data_tree.create () in
  Data_tree.apply_delete tr ~path:"/missing";
  Data_tree.apply_create tr ~path:"/x/y" ~data:"" ~ephemeral_owner:None;
  Alcotest.(check int) "anomalies counted" 2 (Data_tree.anomalies tr);
  Alcotest.(check bool) "tree unharmed" false (Data_tree.mem tr "/x/y")

(* Regression: [export] used to share live znode records with the tree, so
   mutations after the export silently rewrote the "snapshot". *)
let test_tree_snapshot_isolation () =
  let tr = Data_tree.create () in
  Data_tree.apply_create tr ~path:"/a" ~data:"old" ~ephemeral_owner:None;
  let image = Data_tree.export tr in
  Data_tree.apply_set tr ~path:"/a" ~data:"new" ~version:1;
  Data_tree.apply_create tr ~path:"/a/b" ~data:"" ~ephemeral_owner:None;
  let restored = Data_tree.create () in
  Data_tree.import restored image;
  (match Data_tree.get_data restored "/a" with
  | Ok (data, stat) ->
      Alcotest.(check string) "pre-mutation data" "old" data;
      Alcotest.(check int) "pre-mutation version" 0 stat.Znode.version;
      Alcotest.(check int) "pre-mutation children" 0 stat.Znode.num_children
  | Error _ -> Alcotest.fail "/a missing from restored tree");
  (* the image must also be reusable: mutate the restored tree and import
     again into a second one *)
  Data_tree.apply_set restored ~path:"/a" ~data:"mutated" ~version:9;
  let restored2 = Data_tree.create () in
  Data_tree.import restored2 image;
  match Data_tree.get_data restored2 "/a" with
  | Ok (data, _) -> Alcotest.(check string) "image is stable" "old" data
  | Error _ -> Alcotest.fail "/a missing from second restore"

let test_tree_children_with_data () =
  let tr = Data_tree.create () in
  Data_tree.apply_create tr ~path:"/q" ~data:"" ~ephemeral_owner:None;
  Data_tree.apply_create tr ~path:"/q/b" ~data:"2" ~ephemeral_owner:None;
  Data_tree.apply_create tr ~path:"/q/a" ~data:"1" ~ephemeral_owner:None;
  match Data_tree.children_with_data tr "/q" with
  | Ok kids ->
      Alcotest.(check (list (pair string string)))
        "sorted with data"
        [ ("/q/a", "1"); ("/q/b", "2") ]
        (List.map (fun (p, d, _) -> (p, d)) kids);
      (* czxid reflects creation order, not name order *)
      let czxids = List.map (fun (_, _, (s : Znode.stat)) -> s.Znode.czxid) kids in
      Alcotest.(check bool) "b created before a" true
        (List.nth czxids 0 > List.nth czxids 1)
  | Error _ -> Alcotest.fail "expected children"

(* ------------------------------------------------------------------ *)
(* Spec_view: the contention-defining semantics                        *)
(* ------------------------------------------------------------------ *)

let test_spec_cas_conflict () =
  let tr = Data_tree.create () in
  Data_tree.apply_create tr ~path:"/ctr" ~data:"0" ~ephemeral_owner:None;
  let sv = Spec_view.create tr in
  (* Two clients both read version 0, then both try cas(v0 -> ...). *)
  let r1 = Spec_view.set_node sv ~path:"/ctr" ~data:"1" ~expected_version:(Some 0) in
  let r2 = Spec_view.set_node sv ~path:"/ctr" ~data:"1" ~expected_version:(Some 0) in
  Alcotest.(check bool) "first cas wins" true (Result.is_ok r1);
  (match r2 with
  | Error e -> Alcotest.check zerror "second cas loses" Zerror.Bad_version e
  | Ok _ -> Alcotest.fail "second cas must fail against speculation")

let test_spec_read_your_speculative_writes () =
  let tr = Data_tree.create () in
  let sv = Spec_view.create tr in
  (match Spec_view.create_node sv ~path:"/a" ~data:"x" ~ephemeral_owner:None ~sequential:false with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "create failed");
  (match Spec_view.read sv "/a" with
  | Ok (d, _) -> Alcotest.(check string) "sees pending create" "x" d
  | Error _ -> Alcotest.fail "pending node invisible");
  Alcotest.(check bool) "committed tree untouched" false (Data_tree.mem tr "/a")

let test_spec_sequential_names () =
  let tr = Data_tree.create () in
  Data_tree.apply_create tr ~path:"/q" ~data:"" ~ephemeral_owner:None;
  let sv = Spec_view.create tr in
  let mk () =
    match
      Spec_view.create_node sv ~path:"/q/item" ~data:"" ~ephemeral_owner:None
        ~sequential:true
    with
    | Ok (p, _) -> p
    | Error _ -> Alcotest.fail "sequential create failed"
  in
  let p1 = mk () and p2 = mk () and p3 = mk () in
  Alcotest.(check string) "first suffix" "/q/item0000000000" p1;
  Alcotest.(check string) "second suffix" "/q/item0000000001" p2;
  Alcotest.(check string) "third suffix" "/q/item0000000002" p3

let test_spec_delete_then_create () =
  let tr = Data_tree.create () in
  Data_tree.apply_create tr ~path:"/n" ~data:"old" ~ephemeral_owner:None;
  let sv = Spec_view.create tr in
  (match Spec_view.delete_node sv ~path:"/n" ~version:None with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "delete failed");
  Alcotest.(check bool) "speculatively gone" true
    (Spec_view.exists sv "/n" = None);
  (match Spec_view.create_node sv ~path:"/n" ~data:"new" ~ephemeral_owner:None ~sequential:false with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "recreate failed");
  match Spec_view.read sv "/n" with
  | Ok (d, _) -> Alcotest.(check string) "recreated data" "new" d
  | Error _ -> Alcotest.fail "recreate invisible"

let test_spec_czxid_tracks_tree () =
  let tr = Data_tree.create () in
  let sv = Spec_view.create tr in
  let czxid_of r = match r with
    | Ok (p, _) -> (match Spec_view.exists sv p with
        | Some s -> s.Znode.czxid
        | None -> -1)
    | Error _ -> -1
  in
  let c1 = czxid_of (Spec_view.create_node sv ~path:"/a" ~data:"" ~ephemeral_owner:None ~sequential:false) in
  let c2 = czxid_of (Spec_view.create_node sv ~path:"/b" ~data:"" ~ephemeral_owner:None ~sequential:false) in
  Alcotest.(check bool) "speculative czxids increase" true (c2 = c1 + 1);
  (* now apply them for real and check alignment *)
  Data_tree.apply_create tr ~path:"/a" ~data:"" ~ephemeral_owner:None;
  Spec_view.on_applied_op sv (Txn.Tcreate { path = "/a"; data = ""; ephemeral_owner = None });
  Data_tree.apply_create tr ~path:"/b" ~data:"" ~ephemeral_owner:None;
  Spec_view.on_applied_op sv (Txn.Tcreate { path = "/b"; data = ""; ephemeral_owner = None });
  (match Data_tree.exists tr "/a" with
  | Some s -> Alcotest.(check int) "applied czxid matches speculation" c1 s.Znode.czxid
  | None -> Alcotest.fail "missing");
  let c3 = czxid_of (Spec_view.create_node sv ~path:"/c" ~data:"" ~ephemeral_owner:None ~sequential:false) in
  Alcotest.(check int) "post-apply speculation continues" (c2 + 1) c3

let test_spec_ephemerals_of_session () =
  let tr = Data_tree.create () in
  Data_tree.apply_create tr ~path:"/e1" ~data:"" ~ephemeral_owner:(Some 5);
  let sv = Spec_view.create tr in
  ignore (Spec_view.create_node sv ~path:"/e2" ~data:"" ~ephemeral_owner:(Some 5) ~sequential:false);
  ignore (Spec_view.delete_node sv ~path:"/e1" ~version:None);
  Alcotest.(check (list string)) "pending-aware ephemeral set" [ "/e2" ]
    (Spec_view.ephemerals_of_session sv 5)

(* ------------------------------------------------------------------ *)
(* Watch_manager                                                       *)
(* ------------------------------------------------------------------ *)

let test_watch_one_shot () =
  let w = Watch_manager.create () in
  Watch_manager.add w Watch_manager.Data "/a" 1;
  Watch_manager.add w Watch_manager.Data "/a" 2;
  Alcotest.(check (list int)) "both fire" [ 1; 2 ]
    (List.sort compare (Watch_manager.fire w Watch_manager.Data "/a"));
  Alcotest.(check (list int)) "one-shot" [] (Watch_manager.fire w Watch_manager.Data "/a")

let test_watch_drop_session () =
  let w = Watch_manager.create () in
  Watch_manager.add w Watch_manager.Data "/a" 1;
  Watch_manager.add w Watch_manager.Children "/a" 1;
  Watch_manager.add w Watch_manager.Data "/a" 2;
  Watch_manager.drop_session w 1;
  Alcotest.(check int) "only session 2 remains" 1 (Watch_manager.watch_count w)

(* ------------------------------------------------------------------ *)
(* Integration through the simulated cluster                           *)
(* ------------------------------------------------------------------ *)

let in_cluster ?(horizon = Sim_time.sec 60) f =
  let sim = Sim.create ~seed:5 () in
  let cluster = Cluster.create sim in
  let failure = ref None in
  Proc.spawn sim (fun () ->
      try f cluster with e -> failure := Some e);
  Sim.run ~until:horizon sim;
  match !failure with Some e -> raise e | None -> ()

let ok what = function
  | Ok v -> v
  | Error e -> Alcotest.failf "%s: %a" what Zerror.pp e

let test_cluster_basic_crud () =
  in_cluster (fun cluster ->
      let c = Cluster.connected_client cluster () in
      let p = ok "create" (Client.create_node c "/app" "hello") in
      Alcotest.(check string) "path" "/app" p;
      let d, s = ok "get" (Client.get_data c "/app") in
      Alcotest.(check string) "data" "hello" d;
      Alcotest.(check int) "version 0" 0 s.Znode.version;
      let v = ok "set" (Client.set_data c "/app" "world") in
      Alcotest.(check int) "version 1" 1 v;
      let d2, _ = ok "get2" (Client.get_data c "/app") in
      Alcotest.(check string) "updated" "world" d2;
      ok "delete" (Client.delete c "/app");
      match Client.get_data c "/app" with
      | Error Zerror.No_node -> ()
      | _ -> Alcotest.fail "expected No_node after delete")

let test_cluster_reads_from_any_replica () =
  in_cluster (fun cluster ->
      let writer = Cluster.connected_client ~replica:0 cluster () in
      let reader = Cluster.connected_client ~replica:2 cluster () in
      ignore (ok "create" (Client.create_node writer "/shared" "v"));
      (* Allow the commit to propagate to the reader's replica. *)
      Proc.sleep (Cluster.sim cluster) (Sim_time.ms 50);
      let d, _ = ok "read at backup" (Client.get_data reader "/shared") in
      Alcotest.(check string) "replicated" "v" d)

let test_cluster_cas_under_contention () =
  in_cluster (fun cluster ->
      let sim = Cluster.sim cluster in
      let c0 = Cluster.connected_client cluster () in
      ignore (ok "init" (Client.create_node c0 "/ctr" "0"));
      let winners = ref 0 and losers = ref 0 in
      let contender () =
        let c = Cluster.connected_client cluster () in
        let _, s = ok "read" (Client.get_data c "/ctr") in
        match Client.set_data c ~expected_version:s.Znode.version "/ctr" "x" with
        | Ok _ -> incr winners
        | Error Zerror.Bad_version -> incr losers
        | Error e -> Alcotest.failf "unexpected: %a" Zerror.pp e
      in
      let fibers = List.init 5 (fun _ -> Proc.async sim contender) in
      Proc.join fibers;
      Alcotest.(check int) "exactly one cas wins per version" 1 !winners;
      Alcotest.(check int) "the rest lose" 4 !losers)

let test_cluster_sequential_unique_ordered () =
  in_cluster (fun cluster ->
      let sim = Cluster.sim cluster in
      let c0 = Cluster.connected_client cluster () in
      ignore (ok "mkdir" (Client.create_node c0 "/q" ""));
      let paths = ref [] in
      let producer _ =
        let c = Cluster.connected_client cluster () in
        let p = ok "seq create" (Client.create_node c ~sequential:true "/q/item" "") in
        paths := p :: !paths
      in
      Proc.join (List.init 8 (fun i -> Proc.async sim (fun () -> producer i)));
      let names = List.sort compare !paths in
      Alcotest.(check int) "eight created" 8 (List.length names);
      Alcotest.(check int) "all unique" 8
        (List.length (List.sort_uniq compare names));
      let kids = ok "ls" (Client.get_children c0 "/q") in
      Alcotest.(check int) "all visible" 8 (List.length kids))

let test_cluster_watch_fires_on_change () =
  in_cluster (fun cluster ->
      let sim = Cluster.sim cluster in
      let watcher = Cluster.connected_client cluster () in
      let writer = Cluster.connected_client cluster () in
      ignore (ok "create" (Client.create_node writer "/w" "0"));
      Proc.sleep sim (Sim_time.ms 50);
      let waiter = Client.watch_waiter watcher "/w" in
      ignore (ok "watch read" (Client.get_data watcher ~watch:true "/w"));
      ignore (ok "set" (Client.set_data writer "/w" "1"));
      let path, kind = Proc.await waiter in
      Alcotest.(check string) "event path" "/w" path;
      Alcotest.(check bool) "changed event" true (kind = P.Node_changed))

(* Regression: a server-side watch is one-shot.  The triggering write
   produces exactly one notification; later writes stay silent until the
   client re-arms with another watched read. *)
let test_cluster_watch_one_shot_delivery () =
  in_cluster (fun cluster ->
      let sim = Cluster.sim cluster in
      let watcher = Cluster.connected_client cluster () in
      let writer = Cluster.connected_client cluster () in
      ignore (ok "create" (Client.create_node writer "/w" "0"));
      Proc.sleep sim (Sim_time.ms 50);
      let waiter = Client.watch_waiter watcher "/w" in
      ignore (ok "armed read" (Client.get_data watcher ~watch:true "/w"));
      ignore (ok "set1" (Client.set_data writer "/w" "1"));
      let path, _ = Proc.await waiter in
      Alcotest.(check string) "first write notifies" "/w" path;
      (* no re-arm: the next write must not produce an event *)
      let second = Client.watch_waiter watcher "/w" in
      ignore (ok "set2" (Client.set_data writer "/w" "2"));
      Proc.sleep sim (Sim_time.ms 300);
      Alcotest.(check bool) "one-shot: no event without re-arm" false
        (Proc.is_fulfilled second))

(* Regression: the notification/re-arm cycle loses no update.  A write
   racing the re-armed read is either seen by that read directly or
   caught by the new watch — over a chain of writes, the watcher always
   converges on the final value. *)
let test_cluster_watch_not_lost_across_write () =
  in_cluster (fun cluster ->
      let sim = Cluster.sim cluster in
      let watcher = Cluster.connected_client cluster () in
      let writer = Cluster.connected_client cluster () in
      ignore (ok "create" (Client.create_node writer "/w" "0"));
      Proc.sleep sim (Sim_time.ms 50);
      let generations = 5 in
      let seen = ref [] in
      let observer =
        Proc.async sim (fun () ->
            let rec loop n last =
              if n > 0 then begin
                let waiter = Client.watch_waiter watcher "/w" in
                let d, _ = ok "armed read" (Client.get_data watcher ~watch:true "/w") in
                if d <> last then seen := d :: !seen;
                if d <> string_of_int generations then begin
                  ignore (Proc.await waiter);
                  loop (n - 1) d
                end
              end
            in
            loop (generations + 1) "")
      in
      Proc.sleep sim (Sim_time.ms 100);
      for i = 1 to generations do
        ignore (ok "set" (Client.set_data writer "/w" (string_of_int i)));
        Proc.sleep sim (Sim_time.ms 120)
      done;
      Proc.await observer;
      (* every re-armed generation observed the write that triggered it:
         nothing was lost between the notification and the next read *)
      Alcotest.(check string) "converged on the final value"
        (string_of_int generations)
        (match !seen with last :: _ -> last | [] -> "");
      Alcotest.(check (list string)) "no update skipped"
        (List.init generations (fun i -> string_of_int (i + 1)))
        (List.rev (List.filter (fun d -> d <> "0") !seen)))

(* Regression: notifications are delivered in transaction order — the
   order events fire equals the commit order of the writes that caused
   them, across distinct watched nodes. *)
let test_cluster_watch_order_follows_txn_order () =
  in_cluster (fun cluster ->
      let sim = Cluster.sim cluster in
      let watcher = Cluster.connected_client cluster () in
      let writer = Cluster.connected_client cluster () in
      ignore (ok "create a" (Client.create_node writer "/wa" "0"));
      ignore (ok "create b" (Client.create_node writer "/wb" "0"));
      Proc.sleep sim (Sim_time.ms 50);
      let arrivals = ref [] in
      let arm path =
        let waiter = Client.watch_waiter watcher path in
        ignore (ok ("arm " ^ path) (Client.get_data watcher ~watch:true path));
        Proc.async sim (fun () ->
            let p, _ = Proc.await waiter in
            arrivals := p :: !arrivals)
      in
      let fa = arm "/wa" in
      let fb = arm "/wb" in
      (* commit order: /wb first, then /wa *)
      ignore (ok "set b" (Client.set_data writer "/wb" "1"));
      ignore (ok "set a" (Client.set_data writer "/wa" "1"));
      Proc.join [ fa; fb ];
      Alcotest.(check (list string)) "delivery order = txn order"
        [ "/wb"; "/wa" ] (List.rev !arrivals))

let test_cluster_block_unblocks_on_create () =
  in_cluster (fun cluster ->
      let sim = Cluster.sim cluster in
      let waiter_client = Cluster.connected_client cluster () in
      let creator = Cluster.connected_client cluster () in
      let unblocked_at = ref Sim_time.zero in
      let blocker =
        Proc.async sim (fun () ->
            ok "block" (Client.block waiter_client "/ready");
            unblocked_at := Sim.now sim)
      in
      Proc.sleep sim (Sim_time.ms 200);
      Alcotest.(check bool) "still blocked" false (Proc.is_fulfilled blocker);
      ignore (ok "create" (Client.create_node creator "/ready" ""));
      Proc.await blocker;
      Alcotest.(check bool) "unblocked after create" true
        Sim_time.(Sim_time.ms 200 <= !unblocked_at))

let test_cluster_ephemeral_cleanup_on_close () =
  in_cluster (fun cluster ->
      let sim = Cluster.sim cluster in
      let owner = Cluster.connected_client cluster () in
      let observer = Cluster.connected_client cluster () in
      ignore (ok "monitor" (Client.monitor owner "/lead"));
      Proc.sleep sim (Sim_time.ms 50);
      (match ok "exists" (Client.exists observer "/lead") with
      | Some s -> Alcotest.(check bool) "ephemeral" true (s.Znode.ephemeral_owner <> None)
      | None -> Alcotest.fail "ephemeral missing");
      Client.close owner;
      Proc.sleep sim (Sim_time.ms 200);
      match ok "exists after close" (Client.exists observer "/lead") with
      | None -> ()
      | Some _ -> Alcotest.fail "ephemeral should be deleted on session close")

let test_cluster_session_expiry_deletes_ephemerals () =
  in_cluster ~horizon:(Sim_time.sec 120) (fun cluster ->
      let sim = Cluster.sim cluster in
      (* A client that never pings: its session must expire server-side. *)
      let lazy_config =
        { Client.default_config with ping_interval = Sim_time.sec 3600 }
      in
      let owner = Cluster.connected_client ~config:lazy_config cluster () in
      let observer = Cluster.connected_client cluster () in
      ignore (ok "monitor" (Client.monitor owner "/zombie"));
      Proc.sleep sim (Sim_time.sec 30);
      match ok "exists" (Client.exists observer "/zombie") with
      | None -> ()
      | Some _ -> Alcotest.fail "session should have expired")

let test_cluster_leader_failover_write_resumes () =
  in_cluster ~horizon:(Sim_time.sec 120) (fun cluster ->
      let sim = Cluster.sim cluster in
      (* connect to replica 1 so our session survives the leader's crash *)
      let c = Cluster.connected_client ~replica:1 cluster () in
      ignore (ok "pre-crash write" (Client.create_node c "/durable" "1"));
      Cluster.crash_server cluster 0;
      (* Wait out the election, then write again. *)
      Proc.sleep sim (Sim_time.sec 3);
      let rec retry n =
        match Client.create_node c "/post-crash" "2" with
        | Ok _ -> ()
        | Error _ when n > 0 ->
            Proc.sleep sim (Sim_time.ms 500);
            retry (n - 1)
        | Error e -> Alcotest.failf "write after failover: %a" Zerror.pp e
      in
      retry 20;
      let d, _ = ok "old data survives" (Client.get_data c "/durable") in
      Alcotest.(check string) "durable" "1" d)

let test_cluster_client_reconnects_after_replica_crash () =
  in_cluster ~horizon:(Sim_time.sec 120) (fun cluster ->
      let sim = Cluster.sim cluster in
      (* client attached to follower 2; crash it; the session survives at
         the leader and the client re-attaches to replica 1 *)
      let c = Cluster.connected_client ~replica:2 cluster () in
      ignore (ok "write" (Client.create_node c "/sticky" "v"));
      Cluster.crash_server cluster 2;
      Proc.sleep sim (Sim_time.ms 200);
      Alcotest.(check bool) "reconnect accepted" true (Client.reconnect c ~replica:1);
      let d, _ = ok "read after reconnect" (Client.get_data c "/sticky") in
      Alcotest.(check string) "session and data intact" "v" d;
      ignore (ok "write after reconnect" (Client.create_node c "/sticky2" "w")))

let test_cluster_snapshot_state_transfer () =
  (* aggressive snapshotting: a replica that missed hundreds of txns
     recovers its whole tree through Snapshot_install, not log replay *)
  let sim = Sim.create ~seed:41 () in
  let config = { Server.default_config with snapshot_interval = 25 } in
  let cluster = Cluster.create ~server_config:config sim in
  let failure = ref None in
  Proc.spawn sim (fun () ->
      try
        let c = Cluster.connected_client ~replica:0 cluster () in
        ignore (ok "root" (Client.create_node c "/data" ""));
        Cluster.crash_server cluster 2;
        for i = 1 to 120 do
          ignore (ok "mk" (Client.create_node c (Printf.sprintf "/data/n%03d" i)
                             (string_of_int i)))
        done;
        (* the survivors have compacted well past the crash point *)
        Alcotest.(check bool) "leader compacted" true
          (Edc_replication.Zab.compaction_base (Server.zab (Cluster.servers cluster).(0)) > 0);
        Cluster.restart_server cluster 2;
        Proc.sleep sim (Sim_time.sec 3);
        let t0 = Server.tree (Cluster.servers cluster).(0) in
        let t2 = Server.tree (Cluster.servers cluster).(2) in
        Alcotest.(check int) "same node count after snapshot install"
          (Data_tree.node_count t0) (Data_tree.node_count t2);
        (match Data_tree.get_data t2 "/data/n077" with
        | Ok (d, _) -> Alcotest.(check string) "sampled data intact" "77" d
        | Error e -> Alcotest.failf "missing node after install: %a" Zerror.pp e);
        (* and the recovered replica serves reads *)
        let reader = Cluster.connected_client ~replica:2 cluster () in
        let d, _ = ok "read at recovered replica" (Client.get_data reader "/data/n100") in
        Alcotest.(check string) "read ok" "100" d
      with e -> failure := Some e);
  Sim.run ~until:(Sim_time.sec 60) sim;
  match !failure with Some e -> raise e | None -> ()

let test_cluster_deterministic () =
  let run () =
    let sim = Sim.create ~seed:11 () in
    let cluster = Cluster.create sim in
    let trace = ref [] in
    Proc.spawn sim (fun () ->
        let c = Cluster.connected_client cluster () in
        for i = 1 to 10 do
          match Client.create_node c ~sequential:true "/n" (string_of_int i) with
          | Ok p -> trace := p :: !trace
          | Error _ -> ()
        done);
    Sim.run ~until:(Sim_time.sec 10) sim;
    (!trace, Sim.now sim, Net.total_bytes_sent (Cluster.net cluster))
  in
  Alcotest.(check bool) "same trace both runs" true (run () = run ())

(* An answered request cancels its timeout: the event queue is back to
   its size before the request, instead of holding a dead timer until
   the deadline. *)
let test_cluster_answered_request_leaves_no_timer () =
  in_cluster (fun cluster ->
      let sim = Cluster.sim cluster in
      let c = Cluster.connected_client ~replica:1 cluster () in
      ignore (ok "create" (Client.create_node c "/t" "v") : string);
      Proc.sleep sim (Sim_time.ms 100);
      let before = Sim.pending sim in
      ignore (ok "get" (Client.get_data c "/t"));
      Alcotest.(check int) "request" before (Sim.pending sim);
      let p = Client.request_async c (P.Get_data { path = "/t"; watch = false }) in
      ignore (Proc.await p : P.result);
      Alcotest.(check int) "request_async" before (Sim.pending sim))

(* With the client's link cut, both request paths give up at exactly
   [request_timeout]; replies arriving after that are dropped. *)
let test_cluster_request_timeout_exact () =
  let timeout = Sim_time.ms 300 in
  let config = { Client.default_config with request_timeout = timeout } in
  in_cluster (fun cluster ->
      let sim = Cluster.sim cluster and net = Cluster.net cluster in
      let c = Cluster.connected_client ~config ~replica:1 cluster () in
      Net.cut_link net (Client.addr c) 1;
      let t0 = Sim.now sim in
      (match Client.get_data c "/" with
      | Error Zerror.Timeout -> ()
      | _ -> Alcotest.fail "request: expected Timeout");
      Alcotest.check time "request gives up at the deadline" (Sim_time.add t0 timeout)
        (Sim.now sim);
      let t1 = Sim.now sim and resolved_at = ref Sim_time.zero in
      let p = Client.request_async c (P.Get_data { path = "/"; watch = false }) in
      Proc.on_fulfill p (fun _ -> resolved_at := Sim.now sim);
      (match Proc.await p with
      | P.Error Zerror.Timeout -> ()
      | _ -> Alcotest.fail "request_async: expected Timeout");
      Alcotest.check time "request_async gives up at the deadline"
        (Sim_time.add t1 timeout) !resolved_at;
      Net.heal_link net (Client.addr c) 1;
      (* late replies to both requests (xids 1 and 2) *)
      List.iter
        (fun xid ->
          Net.send net ~src:1 ~dst:(Client.addr c) ~size:16
            (Server.Server_msg (P.Reply { xid; result = P.Deleted })))
        [ 1; 2 ];
      Proc.sleep sim (Sim_time.ms 10);
      (match Proc.value_opt p with
      | Some (P.Error Zerror.Timeout) -> ()
      | _ -> Alcotest.fail "late reply changed a timed-out request");
      ignore (ok "request after the link heals" (Client.get_data c "/")))

let qc = QCheck_alcotest.to_alcotest

(* ------------------------------------------------------------------ *)
(* Invalidation-cached sessions (§6i)                                  *)
(* ------------------------------------------------------------------ *)

let test_session_cache_invalidated_by_watch () =
  in_cluster (fun cluster ->
      let sim = Cluster.sim cluster in
      let writer = Cluster.connected_client ~replica:0 cluster () in
      ignore (ok "init" (Client.create_node writer "/cfg" "v0") : string);
      let s =
        Session.wrap ~cache:true ~sim ~replicas:[ 1 ]
          (Cluster.connected_client ~replica:1 cluster ())
      in
      Proc.sleep sim (Sim_time.ms 50);
      let d0, _ = ok "miss fills" (Session.cached_get_data s "/cfg") in
      Alcotest.(check string) "first read fetched" "v0" d0;
      let d1, _ = ok "hit" (Session.cached_get_data s "/cfg") in
      Alcotest.(check string) "second read cached" "v0" d1;
      let cs = Session.cache_stats s in
      Alcotest.(check int) "one miss" 1 cs.Session.misses;
      Alcotest.(check int) "one hit" 1 cs.Session.hits;
      (* a remote write must reach this session through the watch
         machinery and drop the entry — no polling, no TTL *)
      ignore (ok "update" (Client.set_data writer "/cfg" "v1") : int);
      Proc.sleep sim (Sim_time.ms 200);
      Alcotest.(check int) "watch invalidated the entry" 1
        (Session.cache_stats s).Session.invalidations;
      let d2, _ = ok "refetch" (Session.cached_get_data s "/cfg") in
      Alcotest.(check string) "fresh after invalidation" "v1" d2;
      Alcotest.(check int) "refetch was a miss" 2
        (Session.cache_stats s).Session.misses)

let test_session_sync_flushes_cache () =
  in_cluster (fun cluster ->
      let sim = Cluster.sim cluster in
      let writer = Cluster.connected_client ~replica:0 cluster () in
      ignore (ok "init" (Client.create_node writer "/k" "a") : string);
      let s =
        Session.wrap ~cache:true ~sim ~replicas:[ 2 ]
          (Cluster.connected_client ~replica:2 cluster ())
      in
      Proc.sleep sim (Sim_time.ms 50);
      let d0, _ = ok "warm" (Session.cached_get_data s "/k") in
      Alcotest.(check string) "warm read" "a" d0;
      ignore (ok "update" (Client.set_data writer "/k" "b") : int);
      (* do NOT wait for the watch: sync must flush the cache and wait for
         the replica to catch up past the write just acknowledged *)
      ok "sync" (Session.sync s);
      Alcotest.(check bool) "sync flushed the cache" true
        ((Session.cache_stats s).Session.flushes >= 1);
      let d1, _ = ok "read-your-writes" (Session.cached_get_data s "/k") in
      Alcotest.(check string) "barrier read sees the write" "b" d1)

let () =
  Alcotest.run "edc_zookeeper"
    [
      ( "session cache",
        [
          Alcotest.test_case "watch invalidates cached read" `Quick
            test_session_cache_invalidated_by_watch;
          Alcotest.test_case "sync is a read-your-writes barrier" `Quick
            test_session_sync_flushes_cache;
        ] );
      ( "zpath",
        [
          Alcotest.test_case "validity" `Quick test_path_validity;
          Alcotest.test_case "algebra" `Quick test_path_algebra;
          qc prop_path_parent_child;
        ] );
      ( "data_tree",
        [
          Alcotest.test_case "create/get" `Quick test_tree_create_get;
          Alcotest.test_case "delete" `Quick test_tree_delete;
          Alcotest.test_case "cversion" `Quick test_tree_cversion_counts_child_ops;
          Alcotest.test_case "ephemeral index" `Quick test_tree_ephemeral_index;
          Alcotest.test_case "anomaly detection" `Quick test_tree_anomaly_detection;
          Alcotest.test_case "children with data" `Quick test_tree_children_with_data;
          Alcotest.test_case "snapshot isolation" `Quick test_tree_snapshot_isolation;
        ] );
      ( "spec_view",
        [
          Alcotest.test_case "cas conflict" `Quick test_spec_cas_conflict;
          Alcotest.test_case "read speculative writes" `Quick
            test_spec_read_your_speculative_writes;
          Alcotest.test_case "sequential names" `Quick test_spec_sequential_names;
          Alcotest.test_case "delete then create" `Quick test_spec_delete_then_create;
          Alcotest.test_case "czxid alignment" `Quick test_spec_czxid_tracks_tree;
          Alcotest.test_case "session ephemerals" `Quick test_spec_ephemerals_of_session;
        ] );
      ( "watch_manager",
        [
          Alcotest.test_case "one-shot" `Quick test_watch_one_shot;
          Alcotest.test_case "drop session" `Quick test_watch_drop_session;
        ] );
      ( "cluster",
        [
          Alcotest.test_case "basic crud" `Quick test_cluster_basic_crud;
          Alcotest.test_case "read at backup" `Quick test_cluster_reads_from_any_replica;
          Alcotest.test_case "cas contention" `Quick test_cluster_cas_under_contention;
          Alcotest.test_case "sequential nodes" `Quick
            test_cluster_sequential_unique_ordered;
          Alcotest.test_case "watch fires" `Quick test_cluster_watch_fires_on_change;
          Alcotest.test_case "watch one-shot" `Quick
            test_cluster_watch_one_shot_delivery;
          Alcotest.test_case "watch not lost" `Quick
            test_cluster_watch_not_lost_across_write;
          Alcotest.test_case "watch order" `Quick
            test_cluster_watch_order_follows_txn_order;
          Alcotest.test_case "block unblocks" `Quick test_cluster_block_unblocks_on_create;
          Alcotest.test_case "ephemeral cleanup" `Quick
            test_cluster_ephemeral_cleanup_on_close;
          Alcotest.test_case "session expiry" `Quick
            test_cluster_session_expiry_deletes_ephemerals;
          Alcotest.test_case "leader failover" `Quick
            test_cluster_leader_failover_write_resumes;
          Alcotest.test_case "client reconnect" `Quick
            test_cluster_client_reconnects_after_replica_crash;
          Alcotest.test_case "snapshot state transfer" `Quick
            test_cluster_snapshot_state_transfer;
          Alcotest.test_case "deterministic" `Quick test_cluster_deterministic;
          Alcotest.test_case "answered request leaves no timer" `Quick
            test_cluster_answered_request_leaves_no_timer;
          Alcotest.test_case "request timeout exact" `Quick
            test_cluster_request_timeout_exact;
        ] );
    ]
