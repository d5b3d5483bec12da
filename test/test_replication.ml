(* Tests for the replication substrates: Zab-like primary-backup broadcast
   and PBFT-like BFT state machine replication. *)

open Edc_simnet
open Edc_replication

(* ------------------------------------------------------------------ *)
(* Zab harness                                                         *)
(* ------------------------------------------------------------------ *)

type zab_cluster = {
  zsim : Sim.t;
  znet : string Zab.msg Net.t;
  zreplicas : string Zab.t array;
  zdelivered : (Zab.zxid * string) list array;  (* newest first *)
}

let make_zab_cluster ?(n = 3) ?(seed = 1) ?zab_config () =
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
          ~on_deliver:(fun zxid p ->
            delivered.(i) <- (zxid, p) :: delivered.(i))
          ~initial_leader:0 ())
  in
  Array.iteri
    (fun i r ->
      Net.register net i (fun ~src ~size:_ msg -> Zab.handle r ~src msg);
      Zab.start r)
    replicas;
  { zsim = sim; znet = net; zreplicas = replicas; zdelivered = delivered }

let zab_log c i = List.rev_map snd c.zdelivered.(i)

let crash_zab c i =
  Zab.crash c.zreplicas.(i);
  Net.set_node_down c.znet i

let run_for c d = Sim.run ~until:(Sim_time.add (Sim.now c.zsim) d) c.zsim

(* ------------------------------------------------------------------ *)
(* Zab tests                                                           *)
(* ------------------------------------------------------------------ *)

let test_zab_basic_agreement () =
  let c = make_zab_cluster () in
  run_for c (Sim_time.ms 10);
  for k = 1 to 10 do
    ignore (Zab.propose c.zreplicas.(0) (Printf.sprintf "op%d" k) : Zab.zxid option)
  done;
  run_for c (Sim_time.sec 1);
  let expected = List.init 10 (fun k -> Printf.sprintf "op%d" (k + 1)) in
  for i = 0 to 2 do
    Alcotest.(check (list string))
      (Printf.sprintf "replica %d delivered all in order" i)
      expected (zab_log c i)
  done

let test_zab_propose_on_follower_fails () =
  let c = make_zab_cluster () in
  run_for c (Sim_time.ms 10);
  Alcotest.(check bool) "follower refuses" true
    (Zab.propose c.zreplicas.(1) "x" = None);
  Alcotest.(check bool) "leader accepts" true
    (Zab.propose c.zreplicas.(0) "x" <> None)

let test_zab_zxids_are_monotonic () =
  let c = make_zab_cluster () in
  run_for c (Sim_time.ms 10);
  for k = 1 to 5 do
    ignore (Zab.propose c.zreplicas.(0) (string_of_int k) : Zab.zxid option)
  done;
  run_for c (Sim_time.sec 1);
  let zxids = List.rev_map fst c.zdelivered.(1) in
  let sorted = List.sort Zab.zxid_compare zxids in
  Alcotest.(check bool) "delivered in zxid order" true (zxids = sorted)

let test_zab_leader_failover () =
  let c = make_zab_cluster () in
  run_for c (Sim_time.ms 10);
  for k = 1 to 5 do
    ignore (Zab.propose c.zreplicas.(0) (Printf.sprintf "a%d" k) : Zab.zxid option)
  done;
  run_for c (Sim_time.sec 1);
  crash_zab c 0;
  run_for c (Sim_time.sec 2);
  (* one of the survivors must now lead *)
  let leaders =
    List.filter (fun i -> Zab.is_leader c.zreplicas.(i)) [ 1; 2 ]
  in
  Alcotest.(check int) "exactly one new leader" 1 (List.length leaders);
  let leader = List.hd leaders in
  (* committed entries survived *)
  let expected = List.init 5 (fun k -> Printf.sprintf "a%d" (k + 1)) in
  Alcotest.(check (list string)) "committed ops survive failover" expected
    (zab_log c leader);
  (* and the new leader can make progress *)
  for k = 1 to 5 do
    ignore
      (Zab.propose c.zreplicas.(leader) (Printf.sprintf "b%d" k)
        : Zab.zxid option)
  done;
  run_for c (Sim_time.sec 1);
  let expected2 = expected @ List.init 5 (fun k -> Printf.sprintf "b%d" (k + 1)) in
  List.iter
    (fun i ->
      Alcotest.(check (list string))
        (Printf.sprintf "replica %d converged" i)
        expected2 (zab_log c i))
    [ 1; 2 ]

let test_zab_follower_restart_catches_up () =
  let c = make_zab_cluster () in
  run_for c (Sim_time.ms 10);
  ignore (Zab.propose c.zreplicas.(0) "one" : Zab.zxid option);
  run_for c (Sim_time.ms 500);
  crash_zab c 2;
  ignore (Zab.propose c.zreplicas.(0) "two" : Zab.zxid option);
  ignore (Zab.propose c.zreplicas.(0) "three" : Zab.zxid option);
  run_for c (Sim_time.sec 1);
  Alcotest.(check (list string)) "lagging replica missed ops" [ "one" ]
    (zab_log c 2);
  Net.set_node_up c.znet 2;
  Zab.restart c.zreplicas.(2);
  run_for c (Sim_time.sec 1);
  Alcotest.(check (list string)) "caught up after restart"
    [ "one"; "two"; "three" ] (zab_log c 2)

let test_zab_no_commit_without_quorum () =
  let c = make_zab_cluster () in
  run_for c (Sim_time.ms 10);
  crash_zab c 1;
  crash_zab c 2;
  ignore (Zab.propose c.zreplicas.(0) "lonely" : Zab.zxid option);
  run_for c (Sim_time.sec 2);
  Alcotest.(check (list string)) "no delivery without quorum" []
    (zab_log c 0)

let test_zab_single_replica_ensemble () =
  let c = make_zab_cluster ~n:1 () in
  run_for c (Sim_time.ms 10);
  ignore (Zab.propose c.zreplicas.(0) "solo" : Zab.zxid option);
  run_for c (Sim_time.ms 100);
  Alcotest.(check (list string)) "self-quorum commits" [ "solo" ] (zab_log c 0)

let test_zab_snapshot_recovery () =
  (* the app state is the delivered list; snapshots marshal it.  A
     follower that missed everything before the leader compacted must
     recover through the chunked state transfer, ending with identical
     app state. *)
  let c = make_zab_cluster () in
  let app_state = Array.map (fun l -> ref (List.rev l)) c.zdelivered in
  ignore app_state;
  run_for c (Sim_time.ms 10);
  crash_zab c 2;
  for k = 1 to 40 do
    ignore (Zab.propose c.zreplicas.(0) (Printf.sprintf "s%02d" k) : Zab.zxid option)
  done;
  run_for c (Sim_time.sec 1);
  (* compact the survivors: blob = their delivered history *)
  List.iter
    (fun i ->
      (* capture now, serialize only if a transfer asks *)
      Zab.compact c.zreplicas.(i) ~take:(fun () ->
          let hist = c.zdelivered.(i) in
          fun () -> Hist_codec.encode hist))
    [ 0; 1 ];
  Alcotest.(check bool) "leader log compacted" true
    (Zab.compaction_base c.zreplicas.(0) > 0);
  (* the restarting follower installs the snapshot into its app state *)
  Zab.set_install_snapshot c.zreplicas.(2) (fun blob ->
      Result.map (fun h -> c.zdelivered.(2) <- h) (Hist_codec.decode blob));
  Net.set_node_up c.znet 2;
  Zab.restart c.zreplicas.(2);
  run_for c (Sim_time.sec 2);
  ignore (Zab.propose c.zreplicas.(0) "after" : Zab.zxid option);
  run_for c (Sim_time.sec 1);
  let expected =
    List.init 40 (fun k -> Printf.sprintf "s%02d" (k + 1)) @ [ "after" ]
  in
  for i = 0 to 2 do
    Alcotest.(check (list string))
      (Printf.sprintf "replica %d app state complete" i)
      expected (zab_log c i)
  done

let test_zab_deterministic_runs () =
  let run () =
    let c = make_zab_cluster ~seed:99 () in
    run_for c (Sim_time.ms 10);
    for k = 1 to 20 do
      ignore (Zab.propose c.zreplicas.(0) (string_of_int k) : Zab.zxid option)
    done;
    run_for c (Sim_time.sec 1);
    (Sim.now c.zsim, zab_log c 1, Net.total_bytes_sent c.znet)
  in
  let a = run () and b = run () in
  Alcotest.(check bool) "bit-identical reruns" true (a = b)

let prop_zab_prefix_agreement =
  QCheck.Test.make ~name:"zab replicas deliver identical sequences"
    ~count:20
    QCheck.(pair small_int (int_range 1 30))
    (fun (seed, nops) ->
      let c = make_zab_cluster ~seed () in
      Sim.run ~until:(Sim_time.ms 10) c.zsim;
      for k = 1 to nops do
        ignore (Zab.propose c.zreplicas.(0) (string_of_int k) : Zab.zxid option)
      done;
      Sim.run ~until:(Sim_time.sec 2) c.zsim;
      let l0 = zab_log c 0 and l1 = zab_log c 1 and l2 = zab_log c 2 in
      List.length l0 = nops && l0 = l1 && l1 = l2)

(* ------------------------------------------------------------------ *)
(* Zab membership reconfiguration                                      *)
(* ------------------------------------------------------------------ *)

(* A cluster with spare replica slots: ids [>= voters] boot as non-voting
   learners (registered on the net at creation, started by the test when
   they should announce themselves) and join through the replicated
   config. *)
let make_elastic_cluster ?(seed = 11) ?zab_config ~voters ~slots () =
  let sim = Sim.create ~seed () in
  let net = Net.create sim in
  let delivered = Array.make slots [] in
  let send_from i ~dst msg =
    Net.send net ~src:i ~dst
      ~size:(Zab.msg_size ~payload_size:String.length msg)
      msg
  in
  let voter_peers = List.init voters Fun.id in
  let replicas =
    Array.init slots (fun i ->
        let learner = i >= voters in
        let peers = if learner then voter_peers @ [ i ] else voter_peers in
        Zab.create ?config:zab_config ~learner
          ?initial_leader:(if learner then None else Some 0)
          ~sim ~id:i ~peers ~send:(send_from i)
          ~on_deliver:(fun zxid p ->
            delivered.(i) <- (zxid, p) :: delivered.(i))
          ())
  in
  Array.iteri
    (fun i r ->
      Net.register net i (fun ~src ~size:_ msg -> Zab.handle r ~src msg);
      if i < voters then Zab.start r)
    replicas;
  { zsim = sim; znet = net; zreplicas = replicas; zdelivered = delivered }

(* Step the simulator in fine increments until [pred] holds, so a test can
   catch a protocol state that only exists for a fraction of a network
   round trip (e.g. "joint entry committed, final entry not yet"). *)
let run_until c ~timeout pred =
  let deadline = Sim_time.add (Sim.now c.zsim) timeout in
  let step = Sim_time.us 50 in
  let rec go () =
    if pred () then true
    else if Sim_time.compare (Sim.now c.zsim) deadline >= 0 then false
    else begin
      Sim.run ~until:(Sim_time.add (Sim.now c.zsim) step) c.zsim;
      go ()
    end
  in
  go ()

(* The tentpole race: the leader dies after the joint entry commits but
   before the final entry does.  The new leader must inherit the joint
   phase (elected by majorities of BOTH sets), re-propose the final entry,
   and finish the join without losing anything committed. *)
let test_zab_leader_killed_between_joint_and_final () =
  let c = make_elastic_cluster ~voters:3 ~slots:4 () in
  run_for c (Sim_time.ms 10);
  for k = 1 to 5 do
    ignore (Zab.propose c.zreplicas.(0) (Printf.sprintf "a%d" k) : Zab.zxid option)
  done;
  run_for c (Sim_time.ms 300);
  let expected = List.init 5 (fun k -> Printf.sprintf "a%d" (k + 1)) in
  Alcotest.(check (list string)) "prefix committed before reconfig" expected
    (zab_log c 0);
  (* the learner announces itself; the leader bootstraps and promotes it *)
  Zab.start c.zreplicas.(3);
  let r0 = c.zreplicas.(0) in
  let in_window () =
    (Zab.reconfig_stats r0).Zab.joint_commits >= 1
    && (Zab.reconfig_stats r0).Zab.finals_committed = 0
  in
  Alcotest.(check bool) "caught the joint->final window" true
    (run_until c ~timeout:(Sim_time.sec 5) in_window);
  (* the leader's own view is already [Stable c_new] — configs apply at
     append time, and it appended the final when proposing it — but the
     followers have not seen the final yet: the ensemble is mid-transition *)
  Alcotest.(check bool) "followers are mid-transition" true
    (match Zab.membership c.zreplicas.(1) with
    | Zab.Joint _ -> true
    | Zab.Stable _ -> false);
  crash_zab c 0;
  let finished () =
    List.for_all
      (fun i -> Zab.membership c.zreplicas.(i) = Zab.Stable [ 0; 1; 2; 3 ])
      [ 1; 2; 3 ]
  in
  Alcotest.(check bool) "survivors finish the join" true
    (run_until c ~timeout:(Sim_time.sec 10) finished);
  (* no committed entry was lost across the config boundary *)
  List.iter
    (fun i ->
      Alcotest.(check (list string))
        (Printf.sprintf "replica %d kept the committed prefix" i)
        expected (zab_log c i))
    [ 1; 2; 3 ];
  (* the grown ensemble makes progress under its new leader *)
  Alcotest.(check bool) "a survivor leads the grown ensemble" true
    (run_until c ~timeout:(Sim_time.sec 5) (fun () ->
         List.exists (fun i -> Zab.is_leader c.zreplicas.(i)) [ 1; 2; 3 ]));
  let leader =
    List.find (fun i -> Zab.is_leader c.zreplicas.(i)) [ 1; 2; 3 ]
  in
  for k = 1 to 3 do
    ignore
      (Zab.propose c.zreplicas.(leader) (Printf.sprintf "b%d" k)
        : Zab.zxid option)
  done;
  run_for c (Sim_time.sec 1);
  let expected2 = expected @ List.init 3 (fun k -> Printf.sprintf "b%d" (k + 1)) in
  List.iter
    (fun i ->
      Alcotest.(check (list string))
        (Printf.sprintf "replica %d converged post-join" i)
        expected2 (zab_log c i))
    [ 1; 2; 3 ];
  (* the crashed ex-leader rejoins the grown config as a follower *)
  Net.set_node_up c.znet 0;
  Zab.restart r0;
  run_for c (Sim_time.sec 2);
  Alcotest.(check bool) "ex-leader adopted the new config" true
    (Zab.membership r0 = Zab.Stable [ 0; 1; 2; 3 ]);
  Alcotest.(check (list string)) "ex-leader caught up" expected2 (zab_log c 0)

(* Mutation test for the joint phase itself.  A multi-server shrink
   {0..4} -> {0,1} has disjoint majorities ({0,1} vs {2,3,4}); with
   [unsafe_single_step_reconfig] the config applies as [Stable c_new]
   immediately, so the cut-off leader commits client ops with acks from
   {0,1} alone while {2,3,4} elect their own leader — two "committed"
   histories, one of which must be thrown away.  The default joint phase
   blocks the commit (it still needs a majority of c_old) and the same
   orchestration loses nothing. *)
let reconfig_disjoint_quorum_scenario ~single_step =
  let zab_config =
    { Zab.default_config with unsafe_single_step_reconfig = single_step }
  in
  let c = make_elastic_cluster ~zab_config ~voters:3 ~slots:5 () in
  run_for c (Sim_time.ms 10);
  for k = 1 to 3 do
    ignore (Zab.propose c.zreplicas.(0) (Printf.sprintf "a%d" k) : Zab.zxid option)
  done;
  run_for c (Sim_time.ms 200);
  (* grow to five voters through the normal learner path *)
  Zab.start c.zreplicas.(3);
  Zab.start c.zreplicas.(4);
  let grown () =
    List.for_all
      (fun i ->
        Zab.membership c.zreplicas.(i) = Zab.Stable [ 0; 1; 2; 3; 4 ])
      [ 0; 1; 2; 3; 4 ]
  in
  if not (run_until c ~timeout:(Sim_time.sec 10) grown) then
    Alcotest.fail "growth to 5 voters did not converge";
  (* isolate the leader with only replica 1, then shrink to {0,1}: the
     joint entry reaches 1 but never a majority of c_old *)
  List.iter (fun o -> Net.cut_link c.znet 0 o) [ 2; 3; 4 ];
  Alcotest.(check (result unit string)) "shrink accepted" (Ok ())
    (Zab.reconfigure c.zreplicas.(0) ~c_new:[ 0; 1 ]);
  ignore (Zab.propose c.zreplicas.(0) "x1" : Zab.zxid option);
  (* let the majority side elect its own leader and move the history on *)
  let other_leader () =
    List.exists (fun i -> Zab.is_leader c.zreplicas.(i)) [ 2; 3; 4 ]
  in
  if not (run_until c ~timeout:(Sim_time.sec 10) other_leader) then
    Alcotest.fail "majority side never elected a leader";
  let leader = List.find (fun i -> Zab.is_leader c.zreplicas.(i)) [ 2; 3; 4 ] in
  ignore (Zab.propose c.zreplicas.(leader) "y1" : Zab.zxid option);
  run_for c (Sim_time.sec 1);
  let x1_committed_on_0 = List.mem "x1" (zab_log c 0) in
  (* heal and converge: epoch supremacy decides which history survives *)
  List.iter (fun o -> Net.heal_link c.znet 0 o) [ 2; 3; 4 ];
  run_for c (Sim_time.sec 3);
  (x1_committed_on_0, zab_log c 0, zab_log c leader)

let test_zab_joint_phase_blocks_disjoint_quorums () =
  let x1_committed, log0, logl =
    reconfig_disjoint_quorum_scenario ~single_step:false
  in
  (* the joint phase refused to commit with a majority of c_new alone *)
  Alcotest.(check bool) "x1 never committed on the minority side" false
    x1_committed;
  Alcotest.(check (list string)) "histories converged without loss"
    [ "a1"; "a2"; "a3"; "y1" ] log0;
  Alcotest.(check (list string)) "leader log matches" log0 logl

let test_zab_single_step_reconfig_loses_committed_entry () =
  let x1_committed, log0, logl =
    reconfig_disjoint_quorum_scenario ~single_step:true
  in
  (* the bug: x1 was acked as committed on the minority side... *)
  Alcotest.(check bool) "single-step commits x1 with a c_new quorum" true
    x1_committed;
  (* ...but the surviving history (the {2,3,4} leader's, which wins on
     epoch) never contains it — a client-acknowledged write is gone, and
     the two replicas delivered divergent sequences.  Delivery is
     append-only, so x1 stays visible in 0's history as the evidence. *)
  Alcotest.(check bool) "x1 absent from the surviving history" false
    (List.mem "x1" logl);
  Alcotest.(check bool) "delivered histories diverged" true
    (List.mem "x1" log0 && not (List.mem "x1" logl))

(* ------------------------------------------------------------------ *)
(* Observers and leader leases (§6i)                                   *)
(* ------------------------------------------------------------------ *)

(* Voters [0, voters), learner slots next, observer slots last.  Only the
   voters are started; tests start learners/observers when the scenario
   calls for them. *)
let make_mixed_cluster ?(seed = 21) ?zab_config ~voters ~learners ~observers
    () =
  let slots = voters + learners + observers in
  let sim = Sim.create ~seed () in
  let net = Net.create sim in
  let delivered = Array.make slots [] in
  let send_from i ~dst msg =
    Net.send net ~src:i ~dst
      ~size:(Zab.msg_size ~payload_size:String.length msg)
      msg
  in
  let voter_peers = List.init voters Fun.id in
  let replicas =
    Array.init slots (fun i ->
        let voter = i < voters in
        let observer = i >= voters + learners in
        let peers = if voter then voter_peers else voter_peers @ [ i ] in
        Zab.create ?config:zab_config ~learner:(not (voter || observer))
          ~observer
          ?initial_leader:(if voter then Some 0 else None)
          ~sim ~id:i ~peers ~send:(send_from i)
          ~on_deliver:(fun zxid p ->
            delivered.(i) <- (zxid, p) :: delivered.(i))
          ())
  in
  Array.iteri
    (fun i r ->
      Net.register net i (fun ~src ~size:_ msg -> Zab.handle r ~src msg);
      if i < voters then Zab.start r)
    replicas;
  { zsim = sim; znet = net; zreplicas = replicas; zdelivered = delivered }

(* The observer exclusion invariant, end to end: across a 3 -> 5 -> 3
   reconfiguration, a leader crash election, and a quorum-starved commit
   attempt, the observer consumes every committed entry but never votes,
   never campaigns, never makes a no-vote promise, and never substitutes
   for a voter in any quorum. *)
let test_zab_observer_excluded_across_grow_shrink () =
  let c = make_mixed_cluster ~voters:3 ~learners:2 ~observers:1 () in
  let obs = c.zreplicas.(5) in
  let obs_roles = ref [] in
  Zab.set_on_role_change obs (fun r -> obs_roles := r :: !obs_roles);
  run_for c (Sim_time.ms 10);
  Zab.start obs;
  for k = 1 to 5 do
    ignore (Zab.propose c.zreplicas.(0) (Printf.sprintf "a%d" k) : Zab.zxid option)
  done;
  let expected = List.init 5 (fun k -> Printf.sprintf "a%d" (k + 1)) in
  Alcotest.(check bool) "observer consumed the commit stream" true
    (run_until c ~timeout:(Sim_time.sec 5) (fun () ->
         zab_log c 5 = expected));
  (* grow to five voters through the learner path; the observer stays out *)
  Zab.start c.zreplicas.(3);
  Zab.start c.zreplicas.(4);
  let grown () =
    List.for_all
      (fun i -> Zab.membership c.zreplicas.(i) = Zab.Stable [ 0; 1; 2; 3; 4 ])
      [ 0; 1; 2; 3; 4 ]
  in
  Alcotest.(check bool) "grew to 5 voters" true
    (run_until c ~timeout:(Sim_time.sec 10) grown);
  List.iter
    (fun i ->
      Alcotest.(check bool)
        (Printf.sprintf "replica %d's member set excludes the observer" i)
        false
        (List.mem 5 (Zab.members c.zreplicas.(i))))
    [ 0; 1; 2; 3; 4 ];
  Alcotest.(check (list int)) "leader tracks the observer separately" [ 5 ]
    (Zab.observers c.zreplicas.(0));
  (* shrink back to three; the observer still rides the commit stream *)
  Alcotest.(check (result unit string)) "shrink accepted" (Ok ())
    (Zab.reconfigure c.zreplicas.(0) ~c_new:[ 0; 1; 2 ]);
  let shrunk () =
    List.for_all
      (fun i -> Zab.membership c.zreplicas.(i) = Zab.Stable [ 0; 1; 2 ])
      [ 0; 1; 2 ]
  in
  Alcotest.(check bool) "shrank to 3 voters" true
    (run_until c ~timeout:(Sim_time.sec 10) shrunk);
  (* leader crash: the two surviving voters elect; the observer must not
     participate, and must keep applying the new leader's commits *)
  crash_zab c 0;
  Alcotest.(check bool) "survivors elected without the observer" true
    (run_until c ~timeout:(Sim_time.sec 10) (fun () ->
         Zab.is_leader c.zreplicas.(1) || Zab.is_leader c.zreplicas.(2)));
  let leader = if Zab.is_leader c.zreplicas.(1) then 1 else 2 in
  ignore (Zab.propose c.zreplicas.(leader) "post" : Zab.zxid option);
  Alcotest.(check bool) "observer applied the new leader's commit" true
    (run_until c ~timeout:(Sim_time.sec 5) (fun () ->
         zab_log c 5 = expected @ [ "post" ]));
  (* quorum starvation: with only the leader and the observer reachable,
     nothing may commit — the observer is not a quorum substitute *)
  let other = if leader = 1 then 2 else 1 in
  crash_zab c other;
  ignore (Zab.propose c.zreplicas.(leader) "orphan" : Zab.zxid option);
  run_for c (Sim_time.sec 2);
  Alcotest.(check bool) "no commit with only an observer reachable" false
    (List.mem "orphan" (zab_log c leader));
  Alcotest.(check bool) "observer never applied the unquorate entry" false
    (List.mem "orphan" (zab_log c 5));
  (* the observer's whole life: follower role only, no votes, no promises *)
  Alcotest.(check bool) "observer never campaigned or led" true
    (List.for_all (( = ) Zab.Follower) !obs_roles);
  Alcotest.(check bool) "observer flagged as such" true (Zab.is_observer obs);
  Alcotest.(check int) "observer made no no-vote promise" 0
    (Zab.lease_stats obs).Zab.grants_sent

(* ISSUE regression: an observer bootstrapping through the chunked
   snapshot transfer survives a mid-transfer partition by RESUMING from
   its last contiguous chunk (> 0), not restarting from scratch. *)
let test_zab_observer_bootstrap_resumes_mid_partition () =
  let zab_config =
    { Zab.default_config with snapshot_chunk_size = 512; snapshot_window = 2 }
  in
  let c =
    make_mixed_cluster ~zab_config ~voters:3 ~learners:0 ~observers:1 ()
  in
  run_for c (Sim_time.ms 10);
  for k = 1 to 40 do
    ignore
      (Zab.propose c.zreplicas.(0)
         (Printf.sprintf "s%02d%s" k (String.make 60 'x'))
        : Zab.zxid option)
  done;
  run_for c (Sim_time.sec 1);
  (* compact the voters so the observer can only bootstrap via snapshot *)
  List.iter
    (fun i ->
      Zab.compact c.zreplicas.(i) ~take:(fun () ->
          let hist = c.zdelivered.(i) in
          fun () -> Hist_codec.encode hist))
    [ 0; 1; 2 ];
  Alcotest.(check bool) "leader log compacted" true
    (Zab.compaction_base c.zreplicas.(0) > 0);
  let obs = c.zreplicas.(3) in
  Zab.set_install_snapshot obs (fun blob ->
      Result.map (fun h -> c.zdelivered.(3) <- h) (Hist_codec.decode blob));
  Zab.start obs;
  let lead_x = Zab.xfer_stats c.zreplicas.(0) in
  let obs_x = Zab.xfer_stats obs in
  let mid_flight () = lead_x.Zab.chunks_sent > 0 && obs_x.Zab.installs = 0 in
  Alcotest.(check bool) "caught the transfer mid-flight" true
    (run_until c ~timeout:(Sim_time.sec 5) mid_flight);
  Net.cut_link c.znet 0 3;
  run_for c (Sim_time.sec 1);
  Net.heal_link c.znet 0 3;
  let caught_up () = List.length c.zdelivered.(3) >= 40 in
  Alcotest.(check bool) "bootstrap completed after the heal" true
    (run_until c ~timeout:(Sim_time.sec 30) caught_up);
  let resumes = max lead_x.Zab.resumes obs_x.Zab.resumes in
  let resume_from =
    max lead_x.Zab.last_resume_from obs_x.Zab.last_resume_from
  in
  Alcotest.(check bool) "transfer resumed at least once" true (resumes > 0);
  Alcotest.(check bool)
    (Printf.sprintf "resumed mid-blob (from chunk %d), not from 0" resume_from)
    true (resume_from > 0);
  Alcotest.(check bool) "observer state equals the leader's" true
    (c.zdelivered.(3) = c.zdelivered.(0));
  (* bootstrapped, the observer is still not a member *)
  Alcotest.(check bool) "observer still outside the member set" false
    (List.mem 3 (Zab.members c.zreplicas.(0)));
  Alcotest.(check (list int)) "observer adopted as observer" [ 3 ]
    (Zab.observers c.zreplicas.(0))

(* ISSUE regression, paired with its mutation: partition the leader
   mid-lease; the majority side elects a new leader and commits past it.
   With the safe default there is NO instant at which the old leader's
   lease is valid while the new leader exists (the no-vote promises
   outlive the 2ε-trimmed lease), so its post-expiry lease read is
   refused.  With [unsafe_ignore_lease_expiry] the deposed leader keeps
   claiming the lease — exactly the stale window the checker's freshness
   detector convicts in the bench self-test. *)
let lease_partition_scenario ~unsafe =
  let zab_config =
    { Zab.default_config with unsafe_ignore_lease_expiry = unsafe }
  in
  let c = make_zab_cluster ~seed:5 ~zab_config () in
  run_for c (Sim_time.ms 10);
  ignore (Zab.propose c.zreplicas.(0) "w0" : Zab.zxid option);
  run_for c (Sim_time.ms 300);
  Alcotest.(check bool) "leader lease live before the partition" true
    (Zab.lease_valid c.zreplicas.(0));
  Net.cut_link c.znet 0 1;
  Net.cut_link c.znet 0 2;
  (* a backward clock jump on follower 2 stretches its no-vote promise in
     real time — the conservative direction (it can only delay the
     election, never break the lease) — and forces the refusal paths to
     fire deterministically before the promise lapses *)
  Zab.set_clock_skew c.zreplicas.(2) (Sim_time.ms (-150));
  (* sample at fine steps: does the old leader ever hold a valid lease
     while a new leader exists? *)
  let overlap = ref false in
  let new_leader () =
    Zab.is_leader c.zreplicas.(1) || Zab.is_leader c.zreplicas.(2)
  in
  let elected =
    run_until c ~timeout:(Sim_time.sec 5) (fun () ->
        let nl = new_leader () in
        if nl && Zab.lease_valid c.zreplicas.(0) then overlap := true;
        nl)
  in
  Alcotest.(check bool) "majority side elected a new leader" true elected;
  let leader = if Zab.is_leader c.zreplicas.(1) then 1 else 2 in
  ignore (Zab.propose c.zreplicas.(leader) "w1" : Zab.zxid option);
  run_for c (Sim_time.ms 500);
  if Zab.lease_valid c.zreplicas.(0) then overlap := true;
  Alcotest.(check bool) "new leader committed past the old one" true
    (List.mem "w1" (zab_log c leader));
  Alcotest.(check bool) "old leader never saw the new write" false
    (List.mem "w1" (zab_log c 0));
  let refusals =
    (Zab.lease_stats c.zreplicas.(1)).Zab.vote_refusals
    + (Zab.lease_stats c.zreplicas.(2)).Zab.vote_refusals
  in
  let old_leader_claims = Zab.can_serve_lease_read c.zreplicas.(0) in
  (!overlap, old_leader_claims, refusals,
   (Zab.lease_stats c.zreplicas.(0)).Zab.reads_expired)

let test_zab_deposed_leader_lease_read_refused () =
  let overlap, old_leader_claims, refusals, expired =
    lease_partition_scenario ~unsafe:false
  in
  Alcotest.(check bool) "old lease never overlaps the new leader" false
    overlap;
  Alcotest.(check bool) "post-expiry lease read refused, not served" false
    old_leader_claims;
  Alcotest.(check bool)
    "the promises did the blocking (votes/campaigns refused)" true
    (refusals > 0);
  Alcotest.(check bool) "the refusal was accounted as an expired check" true
    (expired > 0)

let test_zab_ignored_lease_expiry_serves_stale () =
  let overlap, old_leader_claims, _, _ =
    lease_partition_scenario ~unsafe:true
  in
  (* the mutation: the deposed leader's lease outlives the new leader's
     election and it keeps claiming the linearizable fast path *)
  Alcotest.(check bool) "stale lease overlaps the new leader" true overlap;
  Alcotest.(check bool) "deposed leader still serves lease reads" true
    old_leader_claims

(* ------------------------------------------------------------------ *)
(* PBFT harness                                                        *)
(* ------------------------------------------------------------------ *)

type pbft_cluster = {
  psim : Sim.t;
  pnet : string Pbft.msg Net.t;
  preplicas : string Pbft.t array;
  pdelivered : (Pbft.request_id * string) list array;  (* newest first *)
}

let make_pbft_cluster ?(f = 1) ?(seed = 1) ?pbft_config () =
  let n = (3 * f) + 1 in
  let sim = Sim.create ~seed () in
  let net = Net.create sim in
  let peers = List.init n Fun.id in
  let delivered = Array.make n [] in
  let send_from i ~dst msg =
    Net.send net ~src:i ~dst
      ~size:(Pbft.msg_size ~payload_size:String.length msg)
      msg
  in
  let replicas =
    Array.init n (fun i ->
        Pbft.create ?config:pbft_config ~sim ~id:i ~peers ~f
          ~send:(send_from i)
          ~on_deliver:(fun rid p ~ts:_ ->
            delivered.(i) <- (rid, p) :: delivered.(i))
          ())
  in
  Array.iteri
    (fun i r ->
      Net.register net i (fun ~src ~size:_ msg -> Pbft.handle r ~src msg);
      Pbft.start r)
    replicas;
  { psim = sim; pnet = net; preplicas = replicas; pdelivered = delivered }

let pbft_log c i = List.rev_map snd c.pdelivered.(i)

(* A client multicast: hand the request to every replica (the network-level
   multicast is exercised by the DepSpace tests). *)
let pbft_submit c rid payload =
  Array.iter (fun r -> Pbft.submit r rid payload) c.preplicas

let prun_for c d = Sim.run ~until:(Sim_time.add (Sim.now c.psim) d) c.psim

(* ------------------------------------------------------------------ *)
(* PBFT tests                                                          *)
(* ------------------------------------------------------------------ *)

let rid client rseq = { Pbft.client; rseq }

let test_pbft_basic_total_order () =
  let c = make_pbft_cluster () in
  for k = 1 to 10 do
    pbft_submit c (rid 7 k) (Printf.sprintf "op%d" k)
  done;
  prun_for c (Sim_time.sec 1);
  let expected = List.init 10 (fun k -> Printf.sprintf "op%d" (k + 1)) in
  for i = 0 to 3 do
    Alcotest.(check (list string))
      (Printf.sprintf "replica %d total order" i)
      expected (pbft_log c i)
  done

let test_pbft_duplicate_submission () =
  let c = make_pbft_cluster () in
  pbft_submit c (rid 7 1) "once";
  pbft_submit c (rid 7 1) "once";
  prun_for c (Sim_time.sec 1);
  Alcotest.(check (list string)) "delivered exactly once" [ "once" ]
    (pbft_log c 0)

let test_pbft_silent_backup () =
  let c = make_pbft_cluster () in
  Pbft.crash c.preplicas.(3);
  Net.set_node_down c.pnet 3;
  for k = 1 to 5 do
    pbft_submit c (rid 9 k) (Printf.sprintf "v%d" k)
  done;
  prun_for c (Sim_time.sec 1);
  let expected = List.init 5 (fun k -> Printf.sprintf "v%d" (k + 1)) in
  for i = 0 to 2 do
    Alcotest.(check (list string))
      (Printf.sprintf "replica %d progressed despite silent backup" i)
      expected (pbft_log c i)
  done

let test_pbft_primary_crash_view_change () =
  let c = make_pbft_cluster () in
  pbft_submit c (rid 3 1) "before";
  prun_for c (Sim_time.sec 1);
  Pbft.crash c.preplicas.(0);
  Net.set_node_down c.pnet 0;
  (* submit to the survivors only (the client would multicast to all) *)
  Array.iteri
    (fun i r -> if i > 0 then Pbft.submit r (rid 3 2) "after")
    c.preplicas;
  prun_for c (Sim_time.sec 3);
  for i = 1 to 3 do
    Alcotest.(check (list string))
      (Printf.sprintf "replica %d delivered across view change" i)
      [ "before"; "after" ] (pbft_log c i)
  done;
  Alcotest.(check bool) "view advanced" true (Pbft.view c.preplicas.(1) >= 1)

let test_pbft_order_preserved_across_view_change () =
  let c = make_pbft_cluster () in
  for k = 1 to 5 do
    pbft_submit c (rid 2 k) (Printf.sprintf "x%d" k)
  done;
  prun_for c (Sim_time.sec 1);
  Pbft.crash c.preplicas.(0);
  Net.set_node_down c.pnet 0;
  for k = 6 to 8 do
    Array.iteri
      (fun i r -> if i > 0 then Pbft.submit r (rid 2 k) (Printf.sprintf "x%d" k))
      c.preplicas
  done;
  prun_for c (Sim_time.sec 3);
  let expected = List.init 8 (fun k -> Printf.sprintf "x%d" (k + 1)) in
  for i = 1 to 3 do
    Alcotest.(check (list string))
      (Printf.sprintf "replica %d history prefix preserved" i)
      expected (pbft_log c i)
  done

let prop_pbft_agreement =
  QCheck.Test.make ~name:"pbft replicas agree on delivery order" ~count:10
    QCheck.(pair small_int (int_range 1 15))
    (fun (seed, nops) ->
      let c = make_pbft_cluster ~seed () in
      for k = 1 to nops do
        pbft_submit c (rid 1 k) (string_of_int k)
      done;
      Sim.run ~until:(Sim_time.sec 2) c.psim;
      let logs = List.init 4 (fun i -> pbft_log c i) in
      match logs with
      | l0 :: rest -> List.length l0 = nops && List.for_all (( = ) l0) rest
      | [] -> false)

(* ------------------------------------------------------------------ *)
(* Group-commit batching                                                *)
(* ------------------------------------------------------------------ *)

(* The Batching engine itself, on a bare simulator. *)

let test_batching_size_trigger () =
  let sim = Sim.create ~seed:3 () in
  let flushed = ref [] in
  let config =
    Batching.group_commit ~max_batch:3 ~max_delay:(Sim_time.sec 1) ()
  in
  let b =
    Batching.create ~sim ~config ~flush:(fun xs -> flushed := !flushed @ [ xs ])
  in
  Batching.add b 1;
  Batching.add b 2;
  Alcotest.(check int) "waiting for a full batch" 2 (Batching.pending b);
  Batching.add b 3;
  Alcotest.(check (list (list int))) "full batch flushed in arrival order"
    [ [ 1; 2; 3 ] ] !flushed

let test_batching_delay_trigger () =
  let sim = Sim.create ~seed:3 () in
  let flushed = ref [] in
  let config =
    Batching.group_commit ~max_batch:100 ~max_delay:(Sim_time.ms 5) ()
  in
  let b =
    Batching.create ~sim ~config ~flush:(fun xs ->
        flushed := !flushed @ [ (Sim.now sim, xs) ])
  in
  Batching.add b "a";
  Batching.add b "b";
  Sim.run ~until:(Sim_time.ms 20) sim;
  Alcotest.(check bool) "partial batch flushed when the oldest item expires"
    true
    (!flushed = [ (Sim_time.ms 5, [ "a"; "b" ]) ])

let test_batching_sync_self_clocking () =
  let sim = Sim.create ~seed:3 () in
  let flushed = ref [] in
  let config = Batching.group_commit ~max_batch:100 ~sync_cost:(Sim_time.ms 1) () in
  let b =
    Batching.create ~sim ~config ~flush:(fun xs -> flushed := !flushed @ [ xs ])
  in
  Batching.add b "a";
  (* arrivals during the 1 ms sync must ride the next batch *)
  Sim.schedule sim ~after:(Sim_time.us 500) (fun () ->
      Batching.add b "b";
      Batching.add b "c");
  Sim.run ~until:(Sim_time.ms 10) sim;
  Alcotest.(check (list (list string))) "second batch groups the stragglers"
    [ [ "a" ]; [ "b"; "c" ] ]
    !flushed

let test_batching_reset_drops_pending () =
  let sim = Sim.create ~seed:3 () in
  let flushed = ref [] in
  let config = Batching.group_commit ~max_batch:100 ~sync_cost:(Sim_time.ms 1) () in
  let b =
    Batching.create ~sim ~config ~flush:(fun xs -> flushed := !flushed @ [ xs ])
  in
  Batching.add b "doomed";
  Batching.reset b;
  Sim.run ~until:(Sim_time.ms 10) sim;
  Alcotest.(check (list (list string))) "reset cancels the in-flight sync" []
    !flushed;
  Alcotest.(check int) "nothing pending" 0 (Batching.pending b)

(* A zero [max_delay] closes the batch when the current virtual instant
   ends.  [timed_batcher] records each flush with its instant. *)

let timed_batcher config =
  let sim = Sim.create ~seed:3 () in
  let flushed = ref [] in
  let b =
    Batching.create ~sim ~config ~flush:(fun xs ->
        flushed := !flushed @ [ (Sim_time.to_ns (Sim.now sim), xs) ])
  in
  (sim, b, flushed)

let flushes = Alcotest.(list (pair int (list int)))

let test_batching_same_instant () =
  let sim, b, flushed = timed_batcher (Batching.group_commit ()) in
  Sim.schedule sim ~after:(Sim_time.ms 1) (fun () ->
      List.iter (Batching.add b) [ 1; 2; 3 ];
      Alcotest.(check int) "held until the instant ends" 3 (Batching.pending b));
  Sim.run sim;
  Alcotest.check flushes "one flush, arrival order"
    [ (Sim_time.to_ns (Sim_time.ms 1), [ 1; 2; 3 ]) ]
    !flushed

let test_batching_distinct_instants () =
  let sim, b, flushed = timed_batcher (Batching.group_commit ()) in
  List.iter
    (fun i -> Sim.schedule sim ~after:(Sim_time.ms i) (fun () -> Batching.add b i))
    [ 1; 2; 3 ];
  Sim.run sim;
  Alcotest.check flushes "one singleton per instant"
    (List.map (fun i -> (Sim_time.to_ns (Sim_time.ms i), [ i ])) [ 1; 2; 3 ])
    !flushed

let test_batching_same_instant_overflow () =
  let sim, b, flushed = timed_batcher (Batching.group_commit ~max_batch:3 ()) in
  Sim.schedule sim ~after:(Sim_time.ms 1) (fun () ->
      List.iter (Batching.add b) [ 1; 2; 3; 4; 5; 6; 7 ]);
  Sim.run sim;
  let at = Sim_time.to_ns (Sim_time.ms 1) in
  Alcotest.check flushes "full batches, then the rest, all at that instant"
    [ (at, [ 1; 2; 3 ]); (at, [ 4; 5; 6 ]); (at, [ 7 ]) ]
    !flushed

let test_batching_reset_cancels_instant_flush () =
  let sim, b, flushed = timed_batcher (Batching.group_commit ()) in
  Sim.schedule sim ~after:(Sim_time.ms 1) (fun () ->
      Batching.add b 1;
      Batching.reset b;
      Batching.add b 2);
  Sim.run sim;
  Alcotest.check flushes "only the item added after the reset"
    [ (Sim_time.to_ns (Sim_time.ms 1), [ 2 ]) ]
    !flushed

let test_batching_off_is_synchronous () =
  let _sim, b, flushed = timed_batcher Batching.off in
  Batching.add b 1;
  Batching.add b 2;
  Alcotest.check flushes "each add flushes a singleton inside add"
    [ (0, [ 1 ]); (0, [ 2 ]) ]
    !flushed

(* Batched and unbatched replication runs must end in identical state. *)

let test_zab_batched_equals_unbatched () =
  let run batch =
    let c =
      make_zab_cluster ~zab_config:{ Zab.default_config with Zab.batch } ()
    in
    run_for c (Sim_time.ms 10);
    for k = 1 to 50 do
      ignore
        (Zab.propose c.zreplicas.(0) (Printf.sprintf "op%02d" k)
          : Zab.zxid option)
    done;
    run_for c (Sim_time.sec 1);
    List.init 3 (zab_log c)
  in
  let unbatched = run Batching.off in
  List.iter
    (fun batch ->
      Alcotest.(check (list (list string)))
        "batched run converges to the unbatched final state" unbatched
        (run batch))
    [
      Batching.group_commit ~max_batch:8 ~sync_cost:(Sim_time.us 200) ();
      Batching.group_commit ~max_batch:128 ~max_delay:(Sim_time.ms 2) ();
    ]

let test_zab_batch_applies_atomically () =
  (* every entry of a batch reaches the application together, in order, on
     every replica *)
  let c =
    make_zab_cluster
      ~zab_config:
        {
          Zab.default_config with
          Zab.batch =
            Batching.group_commit ~max_batch:5 ~sync_cost:(Sim_time.us 100) ();
        }
      ()
  in
  run_for c (Sim_time.ms 10);
  (* 11 proposals in one instant: batches of 1 (leading sync), then 5, 5 *)
  for k = 1 to 11 do
    ignore (Zab.propose c.zreplicas.(0) (Printf.sprintf "t%02d" k) : Zab.zxid option)
  done;
  run_for c (Sim_time.sec 1);
  (* group replica 1's deliveries by commit instant: with max_batch = 5 no
     gap may split a batch, i.e. every op is present and ordered *)
  let log = zab_log c 1 in
  Alcotest.(check (list string))
    "all batched entries applied in order"
    (List.init 11 (fun k -> Printf.sprintf "t%02d" (k + 1)))
    log;
  Alcotest.(check int) "nothing lost or duplicated" 11 (List.length log)

let test_pbft_batched_equals_unbatched () =
  let run batch =
    let c =
      make_pbft_cluster ~pbft_config:{ Pbft.default_config with Pbft.batch } ()
    in
    for k = 1 to 30 do
      pbft_submit c (rid 4 k) (Printf.sprintf "op%02d" k)
    done;
    prun_for c (Sim_time.sec 2);
    List.init 4 (pbft_log c)
  in
  let unbatched = run Batching.off in
  let batched =
    run (Batching.group_commit ~max_batch:8 ~sync_cost:(Sim_time.us 200) ())
  in
  Alcotest.(check (list (list string)))
    "batched pbft converges to the unbatched final state" unbatched batched

let test_pbft_batched_view_change () =
  (* a primary crash with a batched configuration must still converge *)
  let batch = Batching.group_commit ~max_batch:8 ~sync_cost:(Sim_time.us 200) () in
  let c =
    make_pbft_cluster ~pbft_config:{ Pbft.default_config with Pbft.batch } ()
  in
  pbft_submit c (rid 3 1) "before";
  prun_for c (Sim_time.sec 1);
  Pbft.crash c.preplicas.(0);
  Net.set_node_down c.pnet 0;
  Array.iteri
    (fun i r -> if i > 0 then Pbft.submit r (rid 3 2) "after")
    c.preplicas;
  prun_for c (Sim_time.sec 3);
  for i = 1 to 3 do
    Alcotest.(check (list string))
      (Printf.sprintf "replica %d delivered across view change" i)
      [ "before"; "after" ] (pbft_log c i)
  done

(* A batch containing extension triggers applies atomically: full EZK
   stack, batched replication, concurrent extension-based increments. *)

let test_ezk_batched_extension_atomic () =
  let module Zk = Edc_zookeeper in
  let module R = Edc_recipes in
  let sim = Sim.create ~seed:11 () in
  let batch = Batching.group_commit ~max_batch:16 ~sync_cost:(Sim_time.us 200) () in
  let cluster = Edc_ezk.Ezk_cluster.create ~zab_config:{ Zab.default_config with batch } sim in
  let n_clients = 5 and per_client = 10 in
  let successes = ref 0 in
  let failure = ref None in
  Proc.spawn sim (fun () ->
      try
        let admin =
          R.Coord_zk.of_client ~extensible:true
            (Edc_ezk.Ezk_cluster.connected_client cluster ())
        in
        (match R.Counter.setup admin with Ok () -> () | Error e -> failwith e);
        (match R.Counter.register admin with Ok () -> () | Error e -> failwith e);
        let fibers =
          List.init n_clients (fun _ ->
              Proc.async sim (fun () ->
                  let api =
                    R.Coord_zk.of_client ~extensible:true
                      (Edc_ezk.Ezk_cluster.connected_client cluster ())
                  in
                  (match
                     (R.Coord_api.ext_exn api).R.Coord_api.acknowledge
                       R.Counter.extension_name
                   with
                  | Ok () -> ()
                  | Error e -> failwith e);
                  for _ = 1 to per_client do
                    match R.Counter.increment_ext api with
                    | Ok _ -> incr successes
                    | Error e -> failwith ("increment: " ^ e)
                  done))
        in
        Proc.join fibers
      with e -> failure := Some e);
  Sim.run ~until:(Sim_time.sec 60) sim;
  (match !failure with Some e -> raise e | None -> ());
  Alcotest.(check int) "all increments succeeded" (n_clients * per_client)
    !successes;
  (* every replica holds the same counter value = total increments, and no
     replica detected a replication anomaly: the batched extension
     triggers applied atomically and identically everywhere *)
  Array.iteri
    (fun i s ->
      let tree = Zk.Server.tree s in
      Alcotest.(check int)
        (Printf.sprintf "replica %d anomaly-free" i)
        0
        (Zk.Data_tree.anomalies tree);
      match Zk.Data_tree.get_data tree R.Counter.counter_oid with
      | Ok (data, _) ->
          Alcotest.(check string)
            (Printf.sprintf "replica %d counter value" i)
            (string_of_int !successes) data
      | Error e ->
          Alcotest.failf "replica %d: %s" i (Zk.Zerror.to_string e))
    (Edc_ezk.Ezk_cluster.servers cluster)

(* ------------------------------------------------------------------ *)
(* Sharded 2PC recovery regressions (§6j)                              *)
(*                                                                     *)
(* Deterministic fault interpositions against the cross-shard commit   *)
(* protocol: a coordinator killed at each side of its commit record    *)
(* must recover to the same outcome on every replica of every          *)
(* participant shard, and a participant partitioned during prepare     *)
(* must be presumed-aborted with its locks released.                   *)
(* ------------------------------------------------------------------ *)

module Shard_map = Edc_sharding.Shard_map
module Shard_cluster = Edc_sharding.Shard_cluster
module Shard_session = Edc_sharding.Shard_session
module Zserver = Edc_zookeeper.Server
module Zerror = Edc_zookeeper.Zerror
module Atomicity = Edc_checker.Atomicity

let in_2pc_cluster ?(seed = 11) f =
  let sim = Sim.create ~seed () in
  let rules =
    [ { Shard_map.prefix = "/s0"; shard = 0 };
      { Shard_map.prefix = "/s1"; shard = 1 } ]
  in
  let map = Shard_map.v ~rules 2 in
  let cluster = Shard_cluster.create ~map sim in
  let failure = ref None in
  Proc.spawn sim (fun () -> try f cluster with e -> failure := Some e);
  Sim.run ~until:(Sim_time.sec 120) sim;
  (match !failure with Some e -> raise e | None -> ());
  (* after quiescence: identical outcomes everywhere, nothing in doubt,
     nothing locked *)
  let vs =
    Atomicity.check
      ~audits:(Shard_cluster.audits cluster)
      ~prepared:(Shard_cluster.residual_prepared cluster)
      ~locks:(Shard_cluster.residual_locks cluster)
      ()
  in
  if vs <> [] then
    Alcotest.failf "atomicity violations: %a"
      Fmt.(list ~sep:semi Atomicity.pp_violation)
      vs

let leader_index cluster ~shard =
  let servers = Shard_cluster.servers cluster shard in
  let idx = ref None in
  Array.iteri (fun i s -> if Zserver.is_leader s then idx := Some i) servers;
  match !idx with
  | Some i -> i
  | None -> Alcotest.failf "shard %d has no leader" shard

let wait_until sim ~step_ms ~deadline_ms what cond =
  let rec go waited =
    if cond () then ()
    else if waited >= deadline_ms then
      Alcotest.failf "timed out waiting for %s" what
    else (
      Proc.sleep sim (Sim_time.ms step_ms);
      go (waited + step_ms))
  in
  go 0

let participant_prepared cluster shard () =
  match Shard_cluster.shard_leader cluster shard with
  | Some l -> Zserver.prepared_txns l <> []
  | None -> false

let check_uniform_outcome cluster ~committed =
  let audits = Shard_cluster.audits cluster in
  Alcotest.(check int) "all six replicas resolved the transaction" 6
    (List.length audits);
  List.iter
    (fun (shard, replica, outs) ->
      match outs with
      | [ (_, c) ] ->
          Alcotest.(check bool)
            (Printf.sprintf "shard %d replica %d outcome" shard replica)
            committed c
      | _ ->
          Alcotest.failf "shard %d replica %d resolved %d times" shard replica
            (List.length outs))
    audits

let everywhere cluster shard path =
  Array.for_all
    (fun s -> Edc_zookeeper.Data_tree.mem (Zserver.tree s) path)
    (Shard_cluster.servers cluster shard)

let nowhere cluster shard path =
  Array.for_all
    (fun s -> not (Edc_zookeeper.Data_tree.mem (Zserver.tree s) path))
    (Shard_cluster.servers cluster shard)

(* Coordinator leader killed after the participants logged their prepare
   records but before any commit decision was recorded.  The volatile
   coordinator round dies with it; the in-doubt participants' status
   probes must drive every replica of both shards to the same
   presumed-abort outcome, with all locks released. *)
let test_2pc_coordinator_crash_before_decision () =
  in_2pc_cluster (fun cluster ->
      let sim = Shard_cluster.sim cluster in
      let net = Shard_cluster.ishard_net cluster in
      let s = Shard_session.connect cluster in
      (match Shard_session.create_node s "/s0" "" with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "root /s0: %a" Zerror.pp e);
      (match Shard_session.create_node s "/s1" "" with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "root /s1: %a" Zerror.pp e);
      (* block participant acks: the coordinator is pinned between its
         prepare records and the commit decision *)
      Net.cut_link_one_way net ~src:1 ~dst:0;
      let outcome = ref `Pending in
      Proc.spawn sim (fun () ->
          match
            Shard_session.multi s
              [
                Two_pc.Wcreate { path = "/s0/x"; data = "l" };
                Two_pc.Wcreate { path = "/s1/y"; data = "r" };
              ]
          with
          | Ok () -> outcome := `Committed
          | Error _ -> outcome := `Aborted);
      wait_until sim ~step_ms:10 ~deadline_ms:5_000 "participant prepare"
        (participant_prepared cluster 1);
      (* kill the coordinator while the decision is still unrecorded *)
      let ci = leader_index cluster ~shard:0 in
      Shard_cluster.crash_server cluster ~shard:0 ci;
      Proc.sleep sim (Sim_time.sec 2);
      Net.heal_link_one_way net ~src:1 ~dst:0;
      Shard_cluster.restart_server cluster ~shard:0 ci;
      (* status inquiries find no decision and no open round: abort *)
      Proc.sleep sim (Sim_time.sec 20);
      (match !outcome with
      | `Committed -> Alcotest.fail "multi reported success without a decision"
      | `Aborted | `Pending -> ());
      check_uniform_outcome cluster ~committed:false;
      Alcotest.(check bool) "no partial write on shard 0" true
        (nowhere cluster 0 "/s0/x");
      Alcotest.(check bool) "no partial write on shard 1" true
        (nowhere cluster 1 "/s1/y"))

(* Coordinator leader killed after its commit record was replicated but
   with the outcome pushes to the participant lost: the decision table
   survives in the coordinator shard's log, so the participant's status
   probe must recover the transaction to commit on every replica. *)
let test_2pc_coordinator_crash_after_commit_record () =
  in_2pc_cluster ~seed:13 (fun cluster ->
      let sim = Shard_cluster.sim cluster in
      let net = Shard_cluster.ishard_net cluster in
      let s = Shard_session.connect cluster in
      (match Shard_session.create_node s "/s0" "" with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "root /s0: %a" Zerror.pp e);
      (match Shard_session.create_node s "/s1" "" with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "root /s1: %a" Zerror.pp e);
      (* interposer: the moment the participant logs its prepare, sever
         the coordinator→participant direction so the commit push is
         lost and the participant stays in doubt *)
      Proc.spawn sim (fun () ->
          wait_until sim ~step_ms:1 ~deadline_ms:5_000 "participant prepare"
            (participant_prepared cluster 1);
          Net.cut_link_one_way net ~src:0 ~dst:1);
      (match
         Shard_session.multi s
           [
             Two_pc.Wcreate { path = "/s0/x"; data = "l" };
             Two_pc.Wcreate { path = "/s1/y"; data = "r" };
           ]
       with
      | Ok () -> ()
      | Error e -> Alcotest.failf "cross-shard multi: %a" Zerror.pp e);
      (* the decision is recorded (the client heard commit) but the
         participant must not have resolved yet *)
      Alcotest.(check bool) "participant still in doubt" true
        (participant_prepared cluster 1 ());
      (* kill the coordinator: recovery must come from the replicated
         decision table, not the dead process *)
      let ci = leader_index cluster ~shard:0 in
      Shard_cluster.crash_server cluster ~shard:0 ci;
      Proc.sleep sim (Sim_time.sec 2);
      Net.heal_link_one_way net ~src:0 ~dst:1;
      Shard_cluster.restart_server cluster ~shard:0 ci;
      Proc.sleep sim (Sim_time.sec 20);
      check_uniform_outcome cluster ~committed:true;
      Alcotest.(check bool) "commit applied on shard 0" true
        (everywhere cluster 0 "/s0/x");
      Alcotest.(check bool) "commit applied on shard 1" true
        (everywhere cluster 1 "/s1/y"))

(* Participant shard partitioned off during prepare: its acks never
   reach the coordinator, which must time out to presumed-abort; the
   pushed abort releases the participant's locks. *)
let test_2pc_participant_partition_presumed_abort () =
  in_2pc_cluster ~seed:17 (fun cluster ->
      let sim = Shard_cluster.sim cluster in
      let net = Shard_cluster.ishard_net cluster in
      let s = Shard_session.connect cluster in
      (match Shard_session.create_node s "/s0" "" with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "root /s0: %a" Zerror.pp e);
      (match Shard_session.create_node s "/s1" "" with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "root /s1: %a" Zerror.pp e);
      Net.cut_link_one_way net ~src:1 ~dst:0;
      (match
         Shard_session.multi s
           [
             Two_pc.Wcreate { path = "/s0/x"; data = "l" };
             Two_pc.Wcreate { path = "/s1/y"; data = "r" };
           ]
       with
      | Ok () -> Alcotest.fail "multi committed without participant acks"
      | Error Zerror.Txn_conflict -> ()
      | Error e -> Alcotest.failf "expected txn conflict, got %a" Zerror.pp e);
      Net.heal_link_one_way net ~src:1 ~dst:0;
      Proc.sleep sim (Sim_time.sec 10);
      check_uniform_outcome cluster ~committed:false;
      (* the participant prepared and locked; the abort must have
         released everything *)
      Array.iter
        (fun srv ->
          Alcotest.(check (list (pair string string)))
            "participant locks released" [] (Zserver.locked_paths srv))
        (Shard_cluster.servers cluster 1);
      Alcotest.(check bool) "nothing applied on shard 1" true
        (nowhere cluster 1 "/s1/y"))

(* A transaction that already resolved on a participant stays resolved:
   a late duplicate [Prepare] is answered from the resolution table with
   the recorded outcome, and a late duplicate [Tprep] record neither
   re-locks nor re-parks its writes.  The table also survives a snapshot
   install onto a fresh replica. *)
let test_2pc_late_duplicate_prepare () =
  in_2pc_cluster ~seed:19 (fun cluster ->
      let sim = Shard_cluster.sim cluster in
      let s = Shard_session.connect cluster in
      (match Shard_session.create_node s "/s0" "" with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "root /s0: %a" Zerror.pp e);
      (match Shard_session.create_node s "/s1" "" with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "root /s1: %a" Zerror.pp e);
      (match
         Shard_session.multi s
           [
             Two_pc.Wcreate { path = "/s0/x"; data = "l" };
             Two_pc.Wcreate { path = "/s1/y"; data = "r" };
           ]
       with
      | Ok () -> ()
      | Error e -> Alcotest.failf "cross-shard multi: %a" Zerror.pp e);
      let participants = Shard_cluster.servers cluster 1 in
      wait_until sim ~step_ms:10 ~deadline_ms:5_000 "participant resolution"
        (fun () ->
          Array.for_all (fun srv -> Zserver.txn_audit srv <> []) participants);
      let leader =
        match Shard_cluster.shard_leader cluster 1 with
        | Some l -> l
        | None -> Alcotest.fail "shard 1 has no leader"
      in
      let txid =
        match Zserver.txn_audit leader with
        | [ (txid, true) ] -> txid
        | _ -> Alcotest.fail "expected one committed resolution"
      in
      (* tap the participant leader's inter-shard sends *)
      let sent = ref [] in
      let net = Shard_cluster.ishard_net cluster in
      Zserver.set_sharding leader ~shard_id:1
        ~route:(Shard_map.route (Shard_cluster.map cluster))
        ~send:(fun dst frame ->
          sent := (dst, frame) :: !sent;
          Net.send net ~src:1 ~dst ~size:(Two_pc.frame_size frame) frame);
      let late = [ Two_pc.Wset { path = "/s1/y"; data = "late" } ] in
      Zserver.handle_shard_frame leader
        (Two_pc.Prepare { txid; coord = 0; participants = [ 0; 1 ]; ops = late });
      (match !sent with
      | [ (0, Two_pc.Prepare_ack { txid = t; shard = 1; ok = true }) ]
        when String.equal t txid -> ()
      | _ -> Alcotest.fail "late prepare not answered with the recorded commit");
      Zserver.propose_internal leader [ Edc_zookeeper.Txn.Tprep { txid; coord = 0; ops = late } ];
      Proc.sleep sim (Sim_time.sec 1);
      Array.iter
        (fun srv ->
          Alcotest.(check (list (pair string string)))
            "late prepare locks nothing" [] (Zserver.locked_paths srv);
          Alcotest.(check (list (pair string int)))
            "late prepare parks nothing" [] (Zserver.prepared_txns srv);
          Alcotest.(check (list (pair string bool)))
            "resolved once" [ (txid, true) ] (Zserver.txn_audit srv);
          match Edc_zookeeper.Data_tree.get_data (Zserver.tree srv) "/s1/y" with
          | Ok (data, _) -> Alcotest.(check string) "committed data kept" "r" data
          | Error _ -> Alcotest.fail "/s1/y missing")
        participants;
      (* the resolution table rides the snapshot onto a fresh replica *)
      let fresh =
        (Edc_zookeeper.Cluster.servers
           (Edc_zookeeper.Cluster.create (Sim.create ~seed:20 ()))).(0)
      in
      (match Zserver.install_snapshot fresh (Zserver.snapshot_bytes leader) with
      | Ok () -> ()
      | Error e -> Alcotest.failf "snapshot install: %s" e);
      Alcotest.(check (list (pair string bool)))
        "resolution table installed" (Zserver.txn_audit leader)
        (Zserver.txn_audit fresh);
      Alcotest.(check bool) "audited after install" true
        (Zserver.audited fresh txid);
      (* a second resolution of the same txid stays visible to the
         checker: duplicate the blob's last resolution entry *)
      let doubled =
        match Edc_wire.Wire.decode (Zserver.snapshot_bytes leader) with
        | Ok (Edc_wire.Wire.List fields) -> (
            match List.rev fields with
            | Edc_wire.Wire.List [ entry ] :: rest ->
                Edc_wire.Wire.encode
                  (Edc_wire.Wire.List
                     (List.rev (Edc_wire.Wire.List [ entry; entry ] :: rest)))
            | _ -> Alcotest.fail "expected one resolution entry")
        | _ -> Alcotest.fail "snapshot blob is not a list"
      in
      (match Zserver.install_snapshot fresh doubled with
      | Ok () -> ()
      | Error e -> Alcotest.failf "doubled snapshot install: %s" e);
      match
        Atomicity.check ~audits:[ (1, 0, Zserver.txn_audit fresh) ] ()
      with
      | [ Atomicity.Duplicate_resolution { txid = t; _ } ]
        when String.equal t txid -> ()
      | _ -> Alcotest.fail "duplicate resolution not reported")

let qc = QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "edc_replication"
    [
      ( "zab",
        [
          Alcotest.test_case "basic agreement" `Quick test_zab_basic_agreement;
          Alcotest.test_case "follower refuses proposals" `Quick
            test_zab_propose_on_follower_fails;
          Alcotest.test_case "zxid monotonicity" `Quick test_zab_zxids_are_monotonic;
          Alcotest.test_case "leader failover" `Quick test_zab_leader_failover;
          Alcotest.test_case "restart catch-up" `Quick
            test_zab_follower_restart_catches_up;
          Alcotest.test_case "no quorum, no commit" `Quick
            test_zab_no_commit_without_quorum;
          Alcotest.test_case "single-replica ensemble" `Quick
            test_zab_single_replica_ensemble;
          Alcotest.test_case "snapshot recovery" `Quick test_zab_snapshot_recovery;
          Alcotest.test_case "leader killed between joint and final" `Quick
            test_zab_leader_killed_between_joint_and_final;
          Alcotest.test_case "joint phase blocks disjoint quorums" `Quick
            test_zab_joint_phase_blocks_disjoint_quorums;
          Alcotest.test_case "single-step reconfig loses committed entry"
            `Quick test_zab_single_step_reconfig_loses_committed_entry;
          Alcotest.test_case "deterministic reruns" `Quick
            test_zab_deterministic_runs;
          qc prop_zab_prefix_agreement;
        ] );
      ( "read path",
        [
          Alcotest.test_case "observer excluded across grow/shrink" `Quick
            test_zab_observer_excluded_across_grow_shrink;
          Alcotest.test_case "observer bootstrap resumes mid-partition" `Quick
            test_zab_observer_bootstrap_resumes_mid_partition;
          Alcotest.test_case "deposed leader's lease read refused" `Quick
            test_zab_deposed_leader_lease_read_refused;
          Alcotest.test_case "ignored lease expiry serves stale" `Quick
            test_zab_ignored_lease_expiry_serves_stale;
        ] );
      ( "pbft",
        [
          Alcotest.test_case "total order" `Quick test_pbft_basic_total_order;
          Alcotest.test_case "duplicate submission" `Quick
            test_pbft_duplicate_submission;
          Alcotest.test_case "silent backup tolerated" `Quick
            test_pbft_silent_backup;
          Alcotest.test_case "primary crash view change" `Quick
            test_pbft_primary_crash_view_change;
          Alcotest.test_case "order across view change" `Quick
            test_pbft_order_preserved_across_view_change;
          qc prop_pbft_agreement;
        ] );
      ( "batching",
        [
          Alcotest.test_case "size trigger" `Quick test_batching_size_trigger;
          Alcotest.test_case "delay trigger" `Quick test_batching_delay_trigger;
          Alcotest.test_case "same-instant adds share a batch" `Quick
            test_batching_same_instant;
          Alcotest.test_case "distinct instants flush singletons" `Quick
            test_batching_distinct_instants;
          Alcotest.test_case "same-instant overflow splits" `Quick
            test_batching_same_instant_overflow;
          Alcotest.test_case "reset cancels end-of-instant flush" `Quick
            test_batching_reset_cancels_instant_flush;
          Alcotest.test_case "off flushes inside add" `Quick
            test_batching_off_is_synchronous;
          Alcotest.test_case "sync self-clocking" `Quick
            test_batching_sync_self_clocking;
          Alcotest.test_case "reset drops pending" `Quick
            test_batching_reset_drops_pending;
          Alcotest.test_case "zab batched = unbatched" `Quick
            test_zab_batched_equals_unbatched;
          Alcotest.test_case "zab batch atomic" `Quick
            test_zab_batch_applies_atomically;
          Alcotest.test_case "pbft batched = unbatched" `Quick
            test_pbft_batched_equals_unbatched;
          Alcotest.test_case "pbft batched view change" `Quick
            test_pbft_batched_view_change;
          Alcotest.test_case "ezk batched extension atomic" `Quick
            test_ezk_batched_extension_atomic;
        ] );
      ( "2pc recovery",
        [
          Alcotest.test_case "coordinator crash before decision" `Quick
            test_2pc_coordinator_crash_before_decision;
          Alcotest.test_case "coordinator crash after commit record" `Quick
            test_2pc_coordinator_crash_after_commit_record;
          Alcotest.test_case "participant partition presumed abort" `Quick
            test_2pc_participant_partition_presumed_abort;
          Alcotest.test_case "late duplicate prepare after resolution" `Quick
            test_2pc_late_duplicate_prepare;
        ] );
    ]
