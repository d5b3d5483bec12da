(* Chaos soak test: several extension-based recipes running concurrently on
   one EZK ensemble while replicas crash and recover (including the
   leader).  At the end, every global invariant must hold exactly —
   counters count, queues neither lose nor duplicate, the tree agrees
   across replicas, and no state machine ever detected an anomaly. *)

open Edc_simnet
open Edc_recipes
module Api = Coord_api
module Zk = Edc_zookeeper
module Ezk_cluster = Edc_ezk.Ezk_cluster

let ok what = function
  | Ok v -> v
  | Error e -> Alcotest.failf "%s: %s" what e

let test_chaos_mixed_workload_with_crashes () =
  let sim = Sim.create ~seed:2026 () in
  (* aggressive snapshots so recoveries exercise state transfer too *)
  let server_config = { Zk.Server.default_config with snapshot_interval = 200 } in
  let cluster = Ezk_cluster.create ~server_config sim in
  let horizon = Sim_time.sec 40 in
  let failure = ref None in
  let increments_done = ref 0 in
  let produced = ref [] and consumed = ref [] in
  let leaderships = ref 0 and in_power = ref 0 and power_violations = ref 0 in
  let guard f = try f () with e -> failure := Some e in

  (* retry transient failures through the shared policy (crashing replicas
     time requests out; real clients back off and retry).  The recipes here
     are written to tolerate re-execution, so every error is transient. *)
  let retry_rng = Rng.split (Sim.rng sim) in
  let retry_policy =
    {
      Edc_core.Retry.default_policy with
      Edc_core.Retry.base = Sim_time.ms 200;
      deadline = None;
      max_attempts = 50;
    }
  in
  let with_retries what f =
    match
      Edc_core.Retry.run ~sim ~rng:retry_rng ~policy:retry_policy
        (fun ~attempt:_ ->
          Result.map_error (fun e -> Edc_core.Retry.Transient e) (f ()))
    with
    | Edc_core.Retry.Done { value; _ } -> value
    | Edc_core.Retry.Gave_up { error; _ } ->
        Alcotest.failf "%s: %s (out of retries)" what error
    | Edc_core.Retry.Maybe_applied { error; _ }
    | Edc_core.Retry.Rejected { error; _ } ->
        Alcotest.failf "%s: %s" what error
  in
  let new_api ~replica =
    let c = Ezk_cluster.connected_client ~replica cluster () in
    Coord_zk.of_client ~extensible:true c
  in

  Proc.spawn sim (fun () ->
      guard (fun () ->
          (* --- setup: one admin registers all extensions --- *)
          let admin = new_api ~replica:1 in
          ok "counter setup" (Counter.setup admin);
          ok "counter reg" (Counter.register admin);
          ok "queue setup" (Queue.setup admin);
          ok "queue reg" (Queue.register admin);
          ok "election setup" (Election.setup admin Election.election_roots);
          ok "election reg" (Election.register admin Election.election_roots);

          (* --- incrementers --- *)
          for k = 1 to 2 do
            Proc.spawn sim (fun () ->
                guard (fun () ->
                    let api = new_api ~replica:(k mod 2 + 1) in
                    ignore ((Api.ext_exn api).Api.acknowledge Counter.extension_name);
                    while Sim_time.(Sim.now sim < horizon) do
                      ignore (with_retries "increment" (fun () -> Counter.increment_ext api) : Counter.result);
                      incr increments_done;
                      Proc.sleep sim (Sim_time.ms 15)
                    done))
          done;

          (* --- producer / consumer pair --- *)
          Proc.spawn sim (fun () ->
              guard (fun () ->
                  let api = new_api ~replica:1 in
                  ignore ((Api.ext_exn api).Api.acknowledge Queue.extension_name);
                  let i = ref 0 in
                  while Sim_time.(Sim.now sim < horizon) do
                    incr i;
                    let data = Printf.sprintf "m%05d" !i in
                    with_retries "add" (fun () ->
                        Queue.add api ~eid:(Queue.make_eid api !i) ~data);
                    produced := data :: !produced;
                    Proc.sleep sim (Sim_time.ms 20)
                  done));
          Proc.spawn sim (fun () ->
              guard (fun () ->
                  let api = new_api ~replica:2 in
                  ignore ((Api.ext_exn api).Api.acknowledge Queue.extension_name);
                  while Sim_time.(Sim.now sim < horizon) do
                    let r = with_retries "remove" (fun () -> Queue.remove_ext api) in
                    (match r.Queue.data with
                    | Some d -> consumed := d :: !consumed
                    | None -> Proc.sleep sim (Sim_time.ms 10));
                    Proc.sleep sim (Sim_time.ms 10)
                  done));

          (* --- two election contenders: never two leaders at once --- *)
          for k = 1 to 2 do
            Proc.spawn sim (fun () ->
                guard (fun () ->
                    let api = new_api ~replica:(k mod 2 + 1) in
                    ignore
                      ((Api.ext_exn api).Api.acknowledge
                         Election.election_roots.Election.name);
                    while Sim_time.(Sim.now sim < horizon) do
                      with_retries "become" (fun () ->
                          Election.become_leader_ext api Election.election_roots);
                      incr in_power;
                      if !in_power > 1 then incr power_violations;
                      incr leaderships;
                      Proc.sleep sim (Sim_time.ms 30);
                      decr in_power;
                      with_retries "abdicate" (fun () ->
                          Election.abdicate_ext api Election.election_roots);
                      Proc.sleep sim (Sim_time.ms 30)
                    done))
          done;

          (* --- the chaos monkey: rolling follower crashes, one leader
                 crash in the middle --- *)
          Proc.spawn sim (fun () ->
              guard (fun () ->
                  Proc.sleep sim (Sim_time.sec 5);
                  (* crash follower 2, restart *)
                  Ezk_cluster.crash_server cluster 2;
                  Proc.sleep sim (Sim_time.sec 4);
                  Ezk_cluster.restart_server cluster 2;
                  Proc.sleep sim (Sim_time.sec 4);
                  (* crash the original leader *)
                  Ezk_cluster.crash_server cluster 0;
                  Proc.sleep sim (Sim_time.sec 8);
                  Ezk_cluster.restart_server cluster 0;
                  Proc.sleep sim (Sim_time.sec 4);
                  (* one more follower bounce *)
                  Ezk_cluster.crash_server cluster 2;
                  Proc.sleep sim (Sim_time.sec 3);
                  Ezk_cluster.restart_server cluster 2))));
  Sim.run ~until:(Sim_time.add horizon (Sim_time.sec 30)) sim;
  (match !failure with Some e -> raise e | None -> ());

  (* --- invariants --- *)
  Alcotest.(check bool) "workload made progress" true (!increments_done > 100);
  Alcotest.(check bool) "elections made progress" true (!leaderships > 10);
  Alcotest.(check int) "never two leaders at once" 0 !power_violations;

  (* counter counts exactly *)
  let checker_sim_done = ref false in
  Proc.spawn sim (fun () ->
      (try
         let api = new_api ~replica:1 in
         (match ok "final read" (api.Api.read ~oid:Counter.counter_oid) with
         | Some obj ->
             Alcotest.(check string) "counter = number of increments"
               (string_of_int !increments_done)
               obj.Api.data
         | None -> Alcotest.fail "counter vanished");
         (* drain the queue: consumed + remaining = produced, no dups *)
         let api2 = new_api ~replica:2 in
         ignore ((Api.ext_exn api2).Api.acknowledge Queue.extension_name);
         let rec drain () =
           match ok "drain" (Queue.remove_ext api2) with
           | { Queue.data = Some d; _ } ->
               consumed := d :: !consumed;
               drain ()
           | { Queue.data = None; _ } -> ()
         in
         drain ();
         Alcotest.(check (list string)) "queue: no loss, no duplication"
           (List.sort compare !produced)
           (List.sort compare !consumed)
       with e -> failure := Some e);
      checker_sim_done := true);
  Sim.run ~until:(Sim_time.add (Sim.now sim) (Sim_time.sec 60)) sim;
  (match !failure with Some e -> raise e | None -> ());
  Alcotest.(check bool) "checker ran" true !checker_sim_done;

  (* replicas agree and never saw an anomaly *)
  let servers = Ezk_cluster.servers cluster in
  Array.iter
    (fun s ->
      Alcotest.(check int) "no replication anomalies" 0
        (Zk.Data_tree.anomalies (Zk.Server.tree s)))
    servers;
  let counts =
    Array.to_list (Array.map (fun s -> Zk.Data_tree.node_count (Zk.Server.tree s)) servers)
  in
  match counts with
  | c0 :: rest ->
      List.iter (fun c -> Alcotest.(check int) "replicas converged" c0 c) rest
  | [] -> ()

(* Pinned outcomes of the harness chaos runs.  The simulator is
   deterministic, so a refactor of the harness that keeps the order of
   fiber spawns and RNG draws reproduces every count and the fault trace
   exactly; any drift here is a behaviour change, not noise. *)

module Experiment = Edc_harness.Experiment
module Systems = Edc_harness.Systems

let chaos_summary (p : Experiment.chaos_point) =
  Printf.sprintf
    "ok=%d maybe=%d failed=%d counter=%d consumed=%d remaining=%d \
     events=%d inv=[%s] trace=%s"
    p.Experiment.ch_ops_ok p.Experiment.ch_ops_maybe p.Experiment.ch_ops_failed
    p.Experiment.ch_counter_final p.Experiment.ch_consumed
    p.Experiment.ch_remaining p.Experiment.ch_history_events
    (String.concat "; " p.Experiment.ch_invariant_failures)
    (Digest.to_hex (Digest.string p.Experiment.ch_trace))

let membership_summary (p : Experiment.membership_point) =
  Printf.sprintf
    "ok=%d maybe=%d failed=%d counter=%d members=%s events=%d inv=[%s] \
     trace=%s"
    p.Experiment.mp_ops_ok p.Experiment.mp_ops_maybe
    p.Experiment.mp_ops_failed p.Experiment.mp_counter_final
    (String.concat "," (List.map string_of_int p.Experiment.mp_members_final))
    p.Experiment.mp_history_events
    (String.concat "; " p.Experiment.mp_invariant_failures)
    (Digest.to_hex (Digest.string p.Experiment.mp_trace))

let chaos_pins =
  [
    ( Systems.Zookeeper,
      "ok=2318 maybe=17 failed=0 counter=1370 consumed=443 remaining=17 \
       events=8772 inv=[] trace=45ec5a4ba90bce51b605a2476847c14e" );
    ( Systems.Ezk,
      "ok=2364 maybe=30 failed=0 counter=1397 consumed=458 remaining=1 \
       events=4792 inv=[] trace=45ec5a4ba90bce51b605a2476847c14e" );
    ( Systems.Depspace,
      "ok=3535 maybe=0 failed=0 counter=2047 consumed=719 remaining=1 \
       events=12660 inv=[] trace=c59e1a8e78f7ac49cca7ff8b96ec257f" );
    ( Systems.Eds,
      "ok=3645 maybe=0 failed=0 counter=2127 consumed=718 remaining=2 \
       events=7294 inv=[] trace=c59e1a8e78f7ac49cca7ff8b96ec257f" );
  ]

(* seed 43: both runs pass every invariant and the WGL pass *)
let membership_pins =
  [
    ( Systems.Zookeeper,
      43,
      "ok=1256 maybe=2 failed=0 counter=846 members=0,1,2 events=8374 inv=[] \
       trace=6d978515c255c7971e301e5560af17b4" );
    ( Systems.Ezk,
      43,
      "ok=2498 maybe=4 failed=0 counter=1752 members=0,1,2 events=5008 inv=[] \
       trace=ccd139608d62c94cdf9d22a26a4d819b" );
  ]

let test_chaos_point_pinned () =
  List.iter
    (fun (kind, expected) ->
      let p = Experiment.chaos_point ~seed:7 ~horizon:(Sim_time.sec 12) kind in
      Alcotest.(check string)
        (Systems.kind_name kind) expected (chaos_summary p))
    chaos_pins

let test_membership_point_pinned () =
  List.iter
    (fun (kind, seed, expected) ->
      let p = Experiment.membership_point ~seed kind in
      let what = Printf.sprintf "%s seed %d" (Systems.kind_name kind) seed in
      Alcotest.(check string) what expected (membership_summary p);
      List.iter
        (fun (obj, v) ->
          if not (Edc_checker.Wgl.is_ok v) then
            Alcotest.failf "%s: %s not linearizable" what obj)
        p.Experiment.mp_lin)
    membership_pins

let () =
  Alcotest.run "edc_chaos"
    [
      ( "soak",
        [
          Alcotest.test_case "mixed extensions under crashes" `Slow
            test_chaos_mixed_workload_with_crashes;
        ] );
      ( "pinned",
        [
          Alcotest.test_case "chaos_point outcomes, all four kinds" `Quick
            test_chaos_point_pinned;
          Alcotest.test_case "membership_point outcomes, ZooKeeper and EZK"
            `Quick test_membership_point_pinned;
        ] );
    ]
