(* Sharded namespace benchmark (§6j): write-throughput scaling across
   independent replication groups, the cross-shard 2PC ablation, and a
   chaos acceptance run that kills the coordinator shard's leader and
   partitions shards off the inter-shard plane while gating on per-shard
   linearizability and deployment-wide atomicity. *)

open Edc_simnet
open Edc_sharding
module Zk = Edc_zookeeper
module Two_pc = Edc_replication.Two_pc
module Ck_history = Edc_checker.History
module Ck_wgl = Edc_checker.Wgl
module Instrument = Edc_checker.Instrument
module Atomicity = Edc_checker.Atomicity
module Counter = Edc_recipes.Counter
module Coord_zk = Edc_recipes.Coord_zk
module Report = Edc_harness.Report

let shard_map n =
  Shard_map.v
    ~rules:
      (List.init n (fun i ->
           { Shard_map.prefix = Printf.sprintf "/s%d" i; shard = i }))
    n

let fail_on_error what = function
  | Ok _ -> ()
  | Error e -> failwith (what ^ ": " ^ Zk.Zerror.to_string e)

let mean = function
  | [] -> 0.0
  | l -> List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l)

let p99 = function
  | [] -> 0.0
  | l ->
      let a = Array.of_list l in
      Array.sort compare a;
      a.(int_of_float (0.99 *. float_of_int (Array.length a - 1)))

(* ------------------------------------------------------------------ *)
(* 1. Scaling: 0%-cross-shard write throughput vs number of groups      *)
(* ------------------------------------------------------------------ *)

type scaling_point = {
  sp_groups : int;
  sp_writers : int;
  sp_ops : int;
  sp_throughput : float;
  sp_mean_ms : float;
  sp_p99_ms : float;
}

let writers_per_shard = 4

(* Per-shard closed-loop writers on a purely single-shard workload: the
   groups share nothing, so adding groups must scale aggregate write
   throughput near-linearly. *)
let scaling_point ~quick n_groups =
  let sim = Sim.create ~seed:42 () in
  let cluster = Shard_cluster.create ~map:(shard_map n_groups) sim in
  let warmup = Sim_time.ms 500 in
  let measure = if quick then Sim_time.sec 1 else Sim_time.sec 2 in
  let t_start = warmup in
  let t_end = Sim_time.add warmup measure in
  let ops = ref 0 in
  let lats = ref [] in
  let failure = ref None in
  let payload = String.make 64 'x' in
  Proc.spawn sim (fun () ->
      try
        for s = 0 to n_groups - 1 do
          Proc.spawn sim (fun () ->
              let admin = Shard_cluster.connected_client cluster ~shard:s () in
              fail_on_error "shard root"
                (Zk.Client.create_node admin (Printf.sprintf "/s%d" s) "");
              for w = 0 to writers_per_shard - 1 do
                let path = Printf.sprintf "/s%d/w%d" s w in
                fail_on_error "writer node"
                  (Zk.Client.create_node admin path "");
                Proc.spawn sim (fun () ->
                    let c =
                      Shard_cluster.connected_client cluster ~shard:s ()
                    in
                    let rec loop () =
                      if Sim_time.(Sim.now sim < t_end) then begin
                        let t0 = Sim.now sim in
                        (match Zk.Client.set_data c path payload with
                        | Ok _ ->
                            if t0 >= t_start then begin
                              incr ops;
                              lats :=
                                Sim_time.to_float_ms
                                  (Sim_time.sub (Sim.now sim) t0)
                                :: !lats
                            end
                        | Error e ->
                            failwith
                              ("scaling write: " ^ Zk.Zerror.to_string e));
                        loop ()
                      end
                    in
                    loop ())
              done)
        done
      with e -> failure := Some e);
  Sim.run ~until:(Sim_time.add t_end (Sim_time.sec 1)) sim;
  (match !failure with Some e -> raise e | None -> ());
  {
    sp_groups = n_groups;
    sp_writers = n_groups * writers_per_shard;
    sp_ops = !ops;
    sp_throughput = float_of_int !ops /. Sim_time.to_float_s measure;
    sp_mean_ms = mean !lats;
    sp_p99_ms = p99 !lats;
  }

(* ------------------------------------------------------------------ *)
(* 2. Ablation: cross-shard transaction share vs throughput/latency     *)
(* ------------------------------------------------------------------ *)

type ablation_point = {
  ab_cross_pct : int;
  ab_ops : int;
  ab_cross_ops : int;
  ab_throughput : float;
  ab_local_mean_ms : float;
  ab_local_p99_ms : float;
  ab_cross_mean_ms : float;
  ab_cross_p99_ms : float;
}

(* Each worker owns a disjoint subtree on its home shard and on a partner
   shard, so the 2PC lock footprints never collide: the measured overhead
   is the protocol's (two replicated log entries per participant plus the
   inter-shard round trips), not lock contention. *)
let ablation_point ~quick cross_pct =
  let n_groups = 4 in
  let n_workers = 8 in
  let sim = Sim.create ~seed:42 () in
  let cluster = Shard_cluster.create ~map:(shard_map n_groups) sim in
  let warmup = Sim_time.ms 500 in
  let measure = if quick then Sim_time.sec 1 else Sim_time.sec 2 in
  let t_start = warmup in
  let t_end = Sim_time.add warmup measure in
  let ops = ref 0 and cross_ops = ref 0 in
  let local_lats = ref [] and cross_lats = ref [] in
  let failure = ref None in
  Proc.spawn sim (fun () ->
      try
        (* per-shard roots, then per-worker subtrees on home + partner *)
        let admin = Shard_session.connect cluster in
        for s = 0 to n_groups - 1 do
          fail_on_error "root"
            (Shard_session.create_node admin (Printf.sprintf "/s%d" s) "")
        done;
        for w = 0 to n_workers - 1 do
          let home = w mod n_groups and partner = (w + 1) mod n_groups in
          List.iter
            (fun s ->
              fail_on_error "subtree"
                (Shard_session.create_node admin
                   (Printf.sprintf "/s%d/w%d" s w) "");
              fail_on_error "target"
                (Shard_session.create_node admin
                   (Printf.sprintf "/s%d/w%d/n" s w) ""))
            [ home; partner ]
        done;
        for w = 0 to n_workers - 1 do
          Proc.spawn sim (fun () ->
              let rng = Rng.split (Sim.rng sim) in
              let sw = Shard_session.connect cluster in
              let home = w mod n_groups and partner = (w + 1) mod n_groups in
              let p_home = Printf.sprintf "/s%d/w%d/n" home w in
              let p_partner = Printf.sprintf "/s%d/w%d/n" partner w in
              (* a participant releases its locks one log entry after the
                 client hears commit, so the worker's next write on the
                 same footprint can transiently see [Locked] (and a
                 too-early prepare, [Txn_conflict]); retry like any 2PC
                 client.  Latency is measured across retries. *)
              let rec with_retry what tries f =
                match f () with
                | Ok () -> ()
                | Error (Zk.Zerror.Locked | Zk.Zerror.Txn_conflict)
                  when tries < 50 ->
                    Proc.sleep sim (Sim_time.ms (2 + Rng.int rng 8));
                    with_retry what (tries + 1) f
                | Error e ->
                    failwith (what ^ ": " ^ Zk.Zerror.to_string e)
              in
              let rec loop () =
                if Sim_time.(Sim.now sim < t_end) then begin
                  let cross = Rng.int rng 100 < cross_pct in
                  let t0 = Sim.now sim in
                  (if cross then begin
                     with_retry "cross write" 0 (fun () ->
                         Shard_session.multi sw
                           [
                             Two_pc.Wset { path = p_home; data = "c" };
                             Two_pc.Wset { path = p_partner; data = "c" };
                           ]);
                     if t0 >= t_start then begin
                       incr ops;
                       incr cross_ops;
                       cross_lats :=
                         Sim_time.to_float_ms (Sim_time.sub (Sim.now sim) t0)
                         :: !cross_lats
                     end
                   end
                   else begin
                     with_retry "local write" 0 (fun () ->
                         match Shard_session.set_data sw p_home "l" with
                         | Ok _ -> Ok ()
                         | Error e -> Error e);
                     if t0 >= t_start then begin
                       incr ops;
                       local_lats :=
                         Sim_time.to_float_ms (Sim_time.sub (Sim.now sim) t0)
                         :: !local_lats
                     end
                   end);
                  loop ()
                end
              in
              loop ())
        done
      with e -> failure := Some e);
  Sim.run ~until:(Sim_time.add t_end (Sim_time.sec 2)) sim;
  (match !failure with Some e -> raise e | None -> ());
  {
    ab_cross_pct = cross_pct;
    ab_ops = !ops;
    ab_cross_ops = !cross_ops;
    ab_throughput = float_of_int !ops /. Sim_time.to_float_s measure;
    ab_local_mean_ms = mean !local_lats;
    ab_local_p99_ms = p99 !local_lats;
    ab_cross_mean_ms = mean !cross_lats;
    ab_cross_p99_ms = p99 !cross_lats;
  }

(* ------------------------------------------------------------------ *)
(* 3. Chaos: coordinator kills + shard-targeted inter-shard partitions  *)
(* ------------------------------------------------------------------ *)

type chaos_point = {
  cp_seed : int;
  cp_counter_ok : int;
  cp_counter_failed : int;
  cp_cross_ok : int;
  cp_cross_failed : int;
  cp_leader_kills : int;
  cp_shard_cuts : int;
  cp_wgl : (int * string * Ck_wgl.verdict) list;  (* shard, object, verdict *)
  cp_atomicity : Atomicity.violation list;
  cp_resolved : int;
  cp_trace : string;
}

(* A do-nothing nemesis target over the shard ids: the only scheduled
   action is [Custom], whose start/stop closures cut a whole shard off
   the inter-shard plane, so the built-in disruptors never fire. *)
let inter_shard_target n_groups =
  {
    Nemesis.name = "ishard";
    nodes = List.init n_groups (fun i -> i);
    leader = (fun () -> None);
    crash = ignore;
    restart = ignore;
    cut = (fun _ _ -> ());
    heal = (fun _ _ -> ());
    cut_one_way = (fun ~src:_ ~dst:_ -> ());
    heal_one_way = (fun ~src:_ ~dst:_ -> ());
    silence = ignore;
    unsilence = ignore;
    reconfig_in_flight = (fun () -> false);
    set_skew = (fun _ _ -> ());
  }

let chaos_point ~quick seed =
  let n_groups = 4 in
  let sim = Sim.create ~seed () in
  let cluster = Shard_cluster.create ~map:(shard_map n_groups) sim in
  let horizon = if quick then Sim_time.sec 12 else Sim_time.sec 20 in
  let ops_end = Sim_time.add horizon (Sim_time.sec 2) in
  (* generous post-chaos quiescence: every in-doubt transaction must be
     driven to a resolution by the status-inquiry chain *)
  let verify_at = Sim_time.add ops_end (Sim_time.sec 25) in
  let histories = Array.init n_groups (fun _ -> Ck_history.create ~sim ()) in
  let counter_ok = ref 0 and counter_failed = ref 0 in
  let cross_ok = ref 0 and cross_failed = ref 0 in
  let nemesis_a = ref None and nemesis_b = ref None in
  let failure = ref None in
  Proc.spawn sim (fun () ->
      try
        (* per-shard setup: the counter recipe plus per-writer subtrees *)
        for s = 0 to n_groups - 1 do
          let c = Shard_cluster.connected_client cluster ~shard:s () in
          (match
             Counter.setup (Coord_zk.of_client ~extensible:false c)
           with
          | Ok () -> ()
          | Error e -> failwith ("counter setup: " ^ e))
        done;
        let admin = Shard_session.connect cluster in
        for s = 0 to n_groups - 1 do
          fail_on_error "root"
            (Shard_session.create_node admin (Printf.sprintf "/s%d" s) "")
        done;
        for w = 0 to n_groups - 1 do
          let home = w and partner = (w + 1) mod n_groups in
          List.iter
            (fun s ->
              fail_on_error "subtree"
                (Shard_session.create_node admin
                   (Printf.sprintf "/s%d/w%d" s w) "");
              fail_on_error "target"
                (Shard_session.create_node admin
                   (Printf.sprintf "/s%d/w%d/n" s w) ""))
            [ home; partner ]
        done;
        (* chaos: periodic leader kills inside the coordinator shard
           (group 0 coordinates every cross-shard transaction below),
           and a custom disruption cutting a random shard off the
           inter-shard plane *)
        nemesis_a :=
          Some
            (Nemesis.start ~sim
               ~target:(Shard_cluster.nemesis_target cluster ~shard:0)
               ~horizon
               [
                 {
                   Nemesis.start = Sim_time.sec 1;
                   period = Some (Sim_time.ms 3500);
                   action =
                     Nemesis.Crash_restart
                       {
                         downtime = Sim_time.ms 1200;
                         victim = Nemesis.Leader;
                       };
                 };
               ]);
        nemesis_b :=
          Some
            (Nemesis.start ~sim ~target:(inter_shard_target n_groups)
               ~horizon
               [
                 {
                   Nemesis.start = Sim_time.ms 2500;
                   period = Some (Sim_time.sec 5);
                   action =
                     Nemesis.Custom
                       {
                         name = "shard-partition";
                         duration = Sim_time.ms 1500;
                         victim = Nemesis.Any_replica;
                         start_fn = (fun s -> Shard_cluster.cut_shard cluster s);
                         stop_fn = (fun s -> Shard_cluster.heal_shard cluster s);
                       };
                 };
               ]);
        (* per-shard counter incrementers on resilient sessions, history-
           wrapped: each group's history must stay linearizable *)
        for s = 0 to n_groups - 1 do
          let ids =
            Array.to_list
              (Array.map Zk.Server.id (Shard_cluster.servers cluster s))
          in
          for _ = 1 to 2 do
            Proc.spawn sim (fun () ->
                let c = Shard_cluster.connected_client cluster ~shard:s () in
                let session = Zk.Session.wrap ~sim ~replicas:ids c in
                let api =
                  Instrument.wrap histories.(s)
                    (Coord_zk.of_session ~extensible:false session)
                in
                let rec loop () =
                  if Sim_time.(Sim.now sim < ops_end) then begin
                    (match Counter.increment_traditional api with
                    | Ok _ -> incr counter_ok
                    | Error _ -> incr counter_failed);
                    Proc.sleep sim (Sim_time.ms 25);
                    loop ()
                  end
                in
                loop ())
          done
        done;
        (* cross-shard writers: every transaction includes shard 0, so
           the leader kills above strike the 2PC coordinator.  [Wset] is
           idempotent, so retrying after a timeout is safe. *)
        for w = 0 to n_groups - 1 do
          Proc.spawn sim (fun () ->
              let rng = Rng.split (Sim.rng sim) in
              let sw = Shard_session.connect cluster in
              let partner = 1 + (w mod (n_groups - 1)) in
              let p0 = Printf.sprintf "/s0/w%d/n" w in
              let pp = Printf.sprintf "/s%d/w%d/n" partner w in
              let ops =
                [
                  Two_pc.Wset { path = p0; data = "c" };
                  Two_pc.Wset { path = pp; data = "c" };
                ]
              in
              let rec loop () =
                if Sim_time.(Sim.now sim < ops_end) then begin
                  let rec attempt tries =
                    match Shard_session.multi sw ops with
                    | Ok () -> incr cross_ok
                    | Error _
                      when tries < 25 && Sim_time.(Sim.now sim < ops_end) ->
                        Proc.sleep sim
                          (Sim_time.ms (20 + Rng.int rng (40 * (tries + 1))));
                        attempt (tries + 1)
                    | Error _ -> incr cross_failed
                  in
                  attempt 0;
                  Proc.sleep sim (Sim_time.ms 60);
                  loop ()
                end
              in
              loop ())
        done
      with e -> failure := Some e);
  Sim.run ~until:verify_at sim;
  (match !failure with Some e -> raise e | None -> ());
  let wgl =
    List.concat
      (List.init n_groups (fun s ->
           List.map
             (fun (obj, v) -> (s, obj, v))
             (Ck_wgl.check_history histories.(s))))
  in
  let audits = Shard_cluster.audits cluster in
  let atomicity =
    Atomicity.check ~audits
      ~prepared:(Shard_cluster.residual_prepared cluster)
      ~locks:(Shard_cluster.residual_locks cluster)
      ()
  in
  let a = Option.get !nemesis_a and b = Option.get !nemesis_b in
  {
    cp_seed = seed;
    cp_counter_ok = !counter_ok;
    cp_counter_failed = !counter_failed;
    cp_cross_ok = !cross_ok;
    cp_cross_failed = !cross_failed;
    cp_leader_kills = Nemesis.leader_kills a;
    cp_shard_cuts = Nemesis.customs b;
    cp_wgl = wgl;
    cp_atomicity = atomicity;
    cp_resolved = Atomicity.resolved_count ~audits;
    cp_trace = Nemesis.trace_to_string a ^ Nemesis.trace_to_string b;
  }

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)
(* ------------------------------------------------------------------ *)

let verdict_cell = function
  | Ck_wgl.Linearizable { states; _ } -> Printf.sprintf "ok(%d states)" states
  | Ck_wgl.Non_linearizable _ -> "VIOLATION"
  | Ck_wgl.Budget_exhausted _ -> "INCONCLUSIVE"

let json_of_scaling base (p : scaling_point) =
  Bench_json.Obj
    [
      ("groups", Bench_json.Int p.sp_groups);
      ("writers", Bench_json.Int p.sp_writers);
      ("ops", Bench_json.Int p.sp_ops);
      ("throughput_ops_s", Bench_json.Float p.sp_throughput);
      ("mean_ms", Bench_json.Float p.sp_mean_ms);
      ("p99_ms", Bench_json.Float p.sp_p99_ms);
      ("speedup_vs_1", Bench_json.Float (p.sp_throughput /. base));
    ]

let json_of_ablation (p : ablation_point) =
  Bench_json.Obj
    [
      ("cross_pct", Bench_json.Int p.ab_cross_pct);
      ("ops", Bench_json.Int p.ab_ops);
      ("cross_ops", Bench_json.Int p.ab_cross_ops);
      ("throughput_ops_s", Bench_json.Float p.ab_throughput);
      ("local_mean_ms", Bench_json.Float p.ab_local_mean_ms);
      ("local_p99_ms", Bench_json.Float p.ab_local_p99_ms);
      ("cross_mean_ms", Bench_json.Float p.ab_cross_mean_ms);
      ("cross_p99_ms", Bench_json.Float p.ab_cross_p99_ms);
    ]

let json_of_chaos deterministic (p : chaos_point) =
  Bench_json.Obj
    [
      ("seed", Bench_json.Int p.cp_seed);
      ("counter_ok", Bench_json.Int p.cp_counter_ok);
      ("counter_failed", Bench_json.Int p.cp_counter_failed);
      ("cross_committed", Bench_json.Int p.cp_cross_ok);
      ("cross_failed", Bench_json.Int p.cp_cross_failed);
      ("leader_kills", Bench_json.Int p.cp_leader_kills);
      ("shard_cuts", Bench_json.Int p.cp_shard_cuts);
      ("txns_resolved", Bench_json.Int p.cp_resolved);
      ( "atomicity_violations",
        Bench_json.List
          (List.map
             (fun v ->
               Bench_json.Str (Format.asprintf "%a" Atomicity.pp_violation v))
             p.cp_atomicity) );
      ( "wgl",
        Bench_json.List
          (List.map
             (fun (s, obj, v) ->
               Bench_json.Obj
                 [
                   ("shard", Bench_json.Int s);
                   ("object", Bench_json.Str obj);
                   ( "verdict",
                     Bench_json.Str
                       (match v with
                       | Ck_wgl.Linearizable _ -> "linearizable"
                       | Ck_wgl.Non_linearizable _ -> "violation"
                       | Ck_wgl.Budget_exhausted _ -> "inconclusive") );
                 ])
             p.cp_wgl) );
      ("deterministic", Bench_json.Bool deterministic);
    ]

let run ~quick =
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> failures := s :: !failures) fmt in

  (* 1. scaling *)
  Printf.printf
    "\n  weak scaling: %d closed-loop writers per shard, 0%% cross-shard\n\n"
    writers_per_shard;
  Printf.printf "  %7s %8s %10s %14s %9s %9s %9s\n" "groups" "writers" "ops"
    "ops/s" "mean ms" "p99 ms" "speedup";
  let scaling =
    List.map (fun n -> scaling_point ~quick n) [ 1; 2; 4; 8 ]
  in
  let base = (List.hd scaling).sp_throughput in
  List.iter
    (fun p ->
      Printf.printf "  %7d %8d %10d %14.0f %9.3f %9.3f %8.2fx\n%!" p.sp_groups
        p.sp_writers p.sp_ops p.sp_throughput p.sp_mean_ms p.sp_p99_ms
        (p.sp_throughput /. base))
    scaling;
  let speedup n =
    (List.find (fun p -> p.sp_groups = n) scaling).sp_throughput /. base
  in
  Printf.printf
    "  gates: >=3.0x at 4 groups (got %.2fx), >=5.0x at 8 (got %.2fx)\n"
    (speedup 4) (speedup 8);
  if speedup 4 < 3.0 then fail "scaling at 4 groups %.2fx < 3x" (speedup 4);
  if speedup 8 < 5.0 then fail "scaling at 8 groups %.2fx < 5x" (speedup 8);

  (* 2. ablation *)
  Printf.printf
    "\n  2PC ablation: 4 groups, 8 writers, disjoint lock footprints\n\n";
  Printf.printf "  %7s %10s %12s %11s %10s %11s %10s\n" "cross%" "ops"
    "ops/s" "local ms" "lcl p99" "cross ms" "x p99";
  let ablation =
    List.map (fun pct -> ablation_point ~quick pct) [ 0; 10; 50 ]
  in
  List.iter
    (fun p ->
      Printf.printf "  %7d %10d %12.0f %11.3f %10.3f %11.3f %10.3f\n%!"
        p.ab_cross_pct p.ab_ops p.ab_throughput p.ab_local_mean_ms
        p.ab_local_p99_ms p.ab_cross_mean_ms p.ab_cross_p99_ms)
    ablation;
  let tp pct =
    (List.find (fun p -> p.ab_cross_pct = pct) ablation).ab_throughput
  in
  let overhead =
    let p50 = List.find (fun p -> p.ab_cross_pct = 50) ablation in
    p50.ab_cross_mean_ms /. Float.max 1e-9 p50.ab_local_mean_ms
  in
  Printf.printf
    "  a cross-shard transaction costs x%.1f a single-shard write; 50%% \
     cross-shard traffic costs %.0f%% of pure-local throughput\n"
    overhead
    ((tp 0 -. tp 50) /. tp 0 *. 100.0);
  (let p50 = List.find (fun p -> p.ab_cross_pct = 50) ablation in
   if p50.ab_cross_ops = 0 then fail "ablation exercised no cross-shard ops");

  (* 3. chaos *)
  let seeds = if quick then [ 42 ] else [ 42; 43; 44 ] in
  Printf.printf
    "\n  chaos: 4 groups; leader kills inside the coordinator shard +\n\
    \  shard-targeted inter-shard partitions; seeds %s\n\n%!"
    (String.concat ", " (List.map string_of_int seeds));
  let chaos = List.map (fun seed -> chaos_point ~quick seed) seeds in
  List.iter
    (fun p ->
      Printf.printf
        "  seed %d: %d increments (%d failed), %d cross-shard commits (%d \
         gave up), %d coordinator leader kills, %d shard cuts, %d txns \
         resolved\n"
        p.cp_seed p.cp_counter_ok p.cp_counter_failed p.cp_cross_ok
        p.cp_cross_failed p.cp_leader_kills p.cp_shard_cuts p.cp_resolved;
      List.iter
        (fun (s, obj, v) ->
          Printf.printf "    shard %d %s: %s\n" s obj (verdict_cell v);
          match v with
          | Ck_wgl.Non_linearizable _ ->
              fail "seed %d: shard %d object %s not linearizable" p.cp_seed s
                obj
          | _ -> ())
        p.cp_wgl;
      List.iter
        (fun v ->
          Printf.printf "    ATOMICITY: %s\n"
            (Format.asprintf "%a" Atomicity.pp_violation v);
          fail "seed %d: atomicity violation" p.cp_seed)
        p.cp_atomicity;
      if p.cp_cross_ok = 0 then
        fail "seed %d: no cross-shard transaction committed" p.cp_seed;
      if p.cp_leader_kills = 0 then
        fail "seed %d: nemesis killed no coordinator leader" p.cp_seed;
      if p.cp_shard_cuts = 0 then
        fail "seed %d: nemesis cut no shard off the inter-shard plane"
          p.cp_seed)
    chaos;
  (* determinism: the same seed must reproduce the same fault trace *)
  let p0 = List.hd chaos in
  let rerun = chaos_point ~quick p0.cp_seed in
  let deterministic = String.equal rerun.cp_trace p0.cp_trace in
  Printf.printf "\n  same-seed rerun reproduces the fault trace: %b\n"
    deterministic;
  if not deterministic then fail "fault trace not reproducible";

  Bench_json.write_suite ~suite:"sharding"
    [
      ("scaling", Bench_json.List (List.map (json_of_scaling base) scaling));
      ("ablation", Bench_json.List (List.map json_of_ablation ablation));
      ( "chaos",
        Bench_json.List
          (List.map
             (fun p -> json_of_chaos (deterministic || p != p0) p)
             chaos) );
    ];
  if !failures <> [] then begin
    Printf.printf "\nSHARDING RUN FAILED ACCEPTANCE CHECKS:\n";
    List.iter (Printf.printf "  - %s\n") (List.rev !failures)
  end
  else Printf.printf "\nall sharding acceptance checks passed\n";
  List.rev !failures
