(* The two workloads on the discrete-event simulator, with the calibrated
   latency and CPU model left as it is, so sim-clock numbers stay the
   paper's protocol cost and host numbers measure the OCaml that runs it.

   - [eds-queue-sim]: EDS with 4 BFT replicas ([f = 1], [Net.lan_config]),
     50 closed-loop clients each adding an element and removing the head
     through the Figure 7/8 queue extension.
   - [shard-2pc-failover-sim]: 4 EZK groups of 3 under an open loop at a
     fixed simulated rate; 20% of requests are cross-shard multis that
     shard 0 coordinates.  Shard 0's leader is killed mid-window and
     restarted later; latency counts from when each request was due.

   Each trial simulates a window of fixed length, so every sim-clock
   metric is a deterministic function of the seed (see [repeats] below
   for the host-clock ones). *)

open Edc_simnet
module Zk = Edc_zookeeper
module P = Zk.Protocol
module Two_pc = Edc_replication.Two_pc
module Zab = Edc_replication.Zab
module Pbft = Edc_replication.Pbft
module Ds = Edc_depspace
module Queue_recipe = Edc_recipes.Queue
module Coord_ds = Edc_recipes.Coord_ds
module Api = Edc_recipes.Coord_api
module Atomicity = Edc_checker.Atomicity
module Sharding = Edc_sharding

let c_run = Prof.cat "simnet.run"
let c_route = Prof.cat "router.route"
let ms t = Sim_time.to_float_ms t

(* What one trial reports; every count is over the measured window. *)
type trial = {
  setup_s : float;  (** host: boot, registration, warmup *)
  host_s : float;  (** host time simulating the window *)
  chunk_s : float list;  (** host seconds per 100 ms step of sim time *)
  sim_s : float;  (** simulated window length *)
  ok : int;
  failed : int;
  timeouts : int;
  lats : Prof.Samples.t;  (** sim ms per op, from when it was due *)
  client_bytes : int;
  gc : Prof.gc;
  events : int;
  net_msgs : int;
  net_bytes : int;
  dropped : int;
  retained_mb : float;  (** reachable from the deployment at window end *)
  problems : string list;
  layers : (string * float) list;  (** workload-specific per-layer values *)
}

let timed_run sim ~until = Prof.span c_run (fun () -> Sim.run ~until sim)

(* Run the window [now, until] in 100 ms steps of simulated time, with
   the host time of each step and GC deltas over the whole window. *)
let measure sim ~until =
  let g0 = Prof.gc_now () and ev0 = Sim.executed_events sim in
  let t0 = Prof.now () in
  let chunks = ref [] in
  while Sim_time.(Sim.now sim < until) do
    let c0 = Prof.now () in
    timed_run sim ~until:(Sim_time.min until (Sim_time.add (Sim.now sim) (Sim_time.ms 100)));
    chunks := (Prof.now () -. c0) :: !chunks
  done;
  let host_s = Prof.now () -. t0 in
  (host_s, !chunks, Prof.gc_diff g0 (Prof.gc_now ()), Sim.executed_events sim - ev0)

(* ------------------------------------------------------------------ *)
(* eds-queue-sim                                                        *)
(* ------------------------------------------------------------------ *)

let eds_clients = 50

(* Queue ops of the measured window, for the Space/Manager replay:
   [>= 0] an add with that sequence number, [-1] a removal. *)
let eds_log = Prof.Samples.create ()
let logging = ref false

let eds_trial ~seed ~sim_window =
  let t0 = Prof.now () in
  let sim = Sim.create ~seed () in
  let cluster = Edc_eds.Eds_cluster.create ~net_config:Net.lan_config sim in
  let net = Edc_eds.Eds_cluster.net cluster in
  let warmup = Sim_time.ms 300 in
  let w_start = warmup and w_end = Sim_time.add warmup (Sim_time.of_float_s sim_window) in
  let in_window t0 t1 = Sim_time.(w_start <= t0) && Sim_time.(t1 <= w_end) in
  let ok = ref 0 and failed = ref 0 and timeouts = ref 0 in
  let lats = Prof.Samples.create () in
  let added = Hashtbl.create 4096 and attempted = Hashtbl.create 4096 in
  let removed = ref [] in
  let problems = ref [] in
  let client_addrs = ref [] in
  let setup_done = Proc.promise sim in
  let fail what e = problems := Printf.sprintf "%s: %s" what e :: !problems in
  let new_api () =
    let c = Edc_eds.Eds_cluster.client cluster () in
    client_addrs := Ds.Ds_client.addr c :: !client_addrs;
    Coord_ds.of_client ~extensible:true c
  in
  Proc.spawn sim (fun () ->
      let admin = new_api () in
      (match Queue_recipe.setup admin with Ok () -> () | Error e -> fail "queue setup" e);
      (match Queue_recipe.register admin with Ok () -> () | Error e -> fail "register" e);
      Proc.fulfill setup_done ());
  for _ = 1 to eds_clients do
    Proc.spawn sim (fun () ->
        Proc.await setup_done;
        let api = new_api () in
        (match (Api.ext_exn api).Api.acknowledge Queue_recipe.extension_name with
        | Ok () -> ()
        | Error e -> fail "acknowledge" e);
        let seq = ref 0 in
        let account t0 r =
          let t1 = Sim.now sim in
          if in_window t0 t1 then begin
            Prof.Samples.add lats (ms (Sim_time.sub t1 t0));
            match r with
            | Ok () -> incr ok
            | Error e ->
                incr failed;
                if e = "timeout" then incr timeouts
          end
        in
        while Sim_time.(Sim.now sim < w_end) do
          incr seq;
          let eid = Queue_recipe.make_eid api !seq in
          Hashtbl.replace attempted eid ();
          let t0 = Sim.now sim in
          if !logging then Prof.Samples.add eds_log (float_of_int !seq);
          let r = Queue_recipe.add api ~eid ~data:eid in
          if r = Ok () then Hashtbl.replace added eid ();
          account t0 r;
          let t0 = Sim.now sim in
          if !logging then Prof.Samples.add eds_log (-1.);
          let r = Queue_recipe.remove_ext api in
          (match r with
          | Ok { Queue_recipe.data = Some d; _ } -> removed := d :: !removed
          | Ok _ | Error _ -> ());
          account t0 (Result.map ignore r)
        done)
  done;
  timed_run sim ~until:w_start;
  let setup_s = Prof.now () -. t0 in
  let bytes () =
    List.fold_left (fun acc a -> acc + Net.bytes_sent_by net a) 0 !client_addrs
  in
  let b0 = bytes () and m0 = Net.total_messages net and nb0 = Net.total_bytes_sent net in
  let replicas = [ 0; 1; 2; 3 ] in
  let rsent f = List.fold_left (fun acc r -> acc + f net r) 0 replicas in
  let pm0 = rsent Net.messages_sent_by and pb0 = rsent Net.bytes_sent_by in
  let host_s, chunk_s, gc, events = measure sim ~until:w_end in
  let retained_mb = Prof.retained_mb (cluster, sim) in
  let client_bytes = bytes () - b0 in
  let net_msgs = Net.total_messages net - m0 and net_bytes = Net.total_bytes_sent net - nb0 in
  let pbft_msgs = rsent Net.messages_sent_by - pm0 and pbft_bytes = rsent Net.bytes_sent_by - pb0 in
  (* drain: in-flight calls settle, then one consumer empties the queue *)
  timed_run sim ~until:(Sim_time.add w_end (Sim_time.sec 5));
  let drained =
    Proc.async sim (fun () ->
        let api = new_api () in
        ignore ((Api.ext_exn api).Api.acknowledge Queue_recipe.extension_name);
        let rec go () =
          match Queue_recipe.remove_ext api with
          | Ok { Queue_recipe.data = Some d; _ } ->
              removed := d :: !removed;
              go ()
          | Ok _ -> ()
          | Error e -> fail "drain" e
        in
        go ())
  in
  timed_run sim ~until:(Sim_time.add w_end (Sim_time.sec 60));
  if not (Proc.is_fulfilled drained) then fail "drain" "did not finish";
  (* every removed element was added, and removed once; none is lost *)
  let seen = Hashtbl.create 4096 in
  List.iter
    (fun d ->
      if Hashtbl.mem seen d then fail "removed twice" d
      else if not (Hashtbl.mem attempted d) then fail "removed, never added" d;
      Hashtbl.replace seen d ())
    !removed;
  Hashtbl.iter (fun eid () -> if not (Hashtbl.mem seen eid) then fail "lost" eid) added;
  let n = !ok + !failed in
  let view =
    Array.fold_left
      (fun acc s -> max acc (Pbft.view (Ds.Ds_server.pbft s)))
      0 (Edc_eds.Eds_cluster.servers cluster)
  in
  {
    setup_s;
    host_s;
    chunk_s;
    sim_s = sim_window;
    ok = !ok;
    failed = !failed;
    timeouts = !timeouts;
    lats;
    client_bytes;
    gc;
    events;
    net_msgs;
    net_bytes;
    dropped = Net.dropped_messages net;
    retained_mb;
    problems = List.filteri (fun i _ -> i < 5) (List.rev !problems);
    layers =
      [
        ("pbft.msgs_per_op", Prof.per n (float_of_int pbft_msgs));
        ("pbft.bytes_per_op", Prof.per n (float_of_int pbft_bytes));
        ("pbft.view_changes", float_of_int view);
        ("client.inflight_mean", float_of_int eds_clients);
      ];
  }

(* ------------------------------------------------------------------ *)
(* shard-2pc-failover-sim                                               *)
(* ------------------------------------------------------------------ *)

let n_groups = 4
let rate = 4000 (* requests per simulated second, all shards *)
let cross_pct = 20
let sessions_per_shard = 4

(* Single-shard writes go to [keys_per_shard] keys under [/s<s>].
   Cross-shard write [j] sets [/s0/x<j>/v] and the same key on shard
   [partner j]; cross writes take keys round-robin, so concurrent ones
   touch disjoint keys, and each key has a parent of its own, because a
   prepared write locks its path and its parent. *)
let keys_per_shard = 256
let cross_keys = 4096
let key s j = Printf.sprintf "/s%d/k%d" s j
let xkey s j = Printf.sprintf "/s%d/x%d/v" s j
let partner j = 1 + (j mod (n_groups - 1))

let xkeys_of s =
  List.filter (fun j -> s = 0 || partner j = s) (List.init cross_keys Fun.id)
  |> List.map (xkey s)

let keys_of s = List.init keys_per_shard (key s) @ xkeys_of s

let shard_map =
  Sharding.Shard_map.v
    ~rules:
      (List.init n_groups (fun i ->
           { Sharding.Shard_map.prefix = Printf.sprintf "/s%d" i; shard = i }))
    n_groups

let shard_trial ~seed ~sim_window =
  let t0 = Prof.now () in
  let sim = Sim.create ~seed () in
  let cluster = Sharding.Shard_cluster.create ~net_config:Net.lan_config ~map:shard_map sim in
  (* every group is an EZK group: extension manager on each replica, the
     "/em" objects bootstrapped at the initial leader (replica 0) *)
  for s = 0 to n_groups - 1 do
    let servers = Sharding.Shard_cluster.servers cluster s in
    Array.iter (fun srv -> ignore (Edc_ezk.Ezk.install srv : Edc_ezk.Ezk.t)) servers;
    Edc_ezk.Ezk.bootstrap servers.(0)
  done;
  let rng = Random.State.make [| seed; 5 |] and backoff = Random.State.make [| seed; 6 |] in
  let client_config = { Zk.Client.request_timeout = Sim_time.ms 1000; ping_interval = Sim_time.sec 2 } in
  (* clients attach to followers (replicas 1 and 2) so the leader kill
     leaves every connection standing *)
  let conns = Array.make_matrix n_groups sessions_per_shard None in
  let client_addrs = ref [] in
  let problems = ref [] in
  let fail what e = problems := Printf.sprintf "%s: %s" what e :: !problems in
  let ready = Proc.promise sim in
  Proc.spawn sim (fun () ->
      for s = 0 to n_groups - 1 do
        for i = 0 to sessions_per_shard - 1 do
          let c =
            Sharding.Shard_cluster.connected_client ~config:client_config
              ~replica:(1 + (i mod 2)) cluster ~shard:s ()
          in
          client_addrs := (s, Zk.Client.addr c) :: !client_addrs;
          conns.(s).(i) <- Some c
        done;
        (* pipelined creates, parents first *)
        let c = Option.get conns.(s).(0) in
        let create_all paths =
          List.map
            (fun path ->
              (path, Zk.Client.request_async c
                 (P.Create { path; data = ""; ephemeral = false; sequential = false })))
            paths
          |> List.iter (fun (path, p) ->
                 match Proc.await p with
                 | P.Created _ -> ()
                 | P.Error e -> fail ("create " ^ path) (Zk.Zerror.to_string e)
                 | _ -> fail ("create " ^ path) "unexpected reply")
        in
        create_all [ Printf.sprintf "/s%d" s ];
        create_all (List.map Filename.dirname (xkeys_of s));
        create_all (keys_of s)
      done;
      Proc.fulfill ready ());
  while not (Proc.is_fulfilled ready) do
    timed_run sim ~until:(Sim_time.add (Sim.now sim) (Sim_time.ms 50))
  done;
  (* load from [load_start]; the window opens after a warmup, the kill
     lands 40% into it *)
  let load_start = Sim.now sim in
  let window = Sim_time.of_float_s sim_window in
  let w_start = Sim_time.add load_start (Sim_time.ms 500) in
  let w_end = Sim_time.add w_start window in
  let t_kill = Sim_time.add w_start (Sim_time.scale window 0.4) in
  let t_restart = Sim_time.add t_kill (Sim_time.ms 500) in
  (* the open loop: request [n] is due at [load_start + n / rate] *)
  let ok = ref 0 and failed = ref 0 and timeouts = ref 0 and cross = ref 0 in
  let lats = Prof.Samples.create () and lag = Prof.Samples.create () in
  let inflight = ref 0 and inflight_sum = ref 0. and issued = ref 0 in
  (* per shard: acknowledged ops and attempts (retries included) *)
  let acked = Array.make n_groups 0 and attempts = Array.make n_groups 0 in
  let first_commit_after_kill = ref None and cross_seq = ref 0 in
  let request n due =
    let rr = n mod sessions_per_shard in
    let is_cross = Random.State.int rng 100 < cross_pct in
    let s = Random.State.int rng n_groups in
    let j = Random.State.int rng keys_per_shard in
    let data = string_of_int n in
    let op, touched =
      if is_cross then begin
        let j = !cross_seq mod cross_keys in
        incr cross_seq;
        let partner = partner j in
        ( P.Multi
            {
              ops =
                [
                  Two_pc.Wset { path = xkey 0 j; data };
                  Two_pc.Wset { path = xkey partner j; data };
                ];
            },
          [ 0; partner ] )
      end
      else
        (P.Set_data { path = key s j; data; expected_version = None }, [ s ])
    in
    let owner =
      match Prof.span c_route (fun () -> Sharding.Router.classify_op shard_map op) with
      | `Shard s -> s
      | `Cross (s :: _) -> s
      | `Cross [] | `All -> 0
    in
    let touches_0 = List.mem 0 touched in
    let counted = Sim_time.(w_start <= due) && Sim_time.(due < w_end) in
    Proc.spawn sim (fun () ->
        Prof.Samples.add lag (ms (Sim_time.sub (Sim.now sim) due));
        incr inflight;
        inflight_sum := !inflight_sum +. float_of_int !inflight;
        if counted then incr issued;
        let c = Option.get conns.(owner).(rr) in
        let rec attempt tries =
          List.iter (fun s -> attempts.(s) <- attempts.(s) + 1) touched;
          match Zk.Client.request c op with
          | P.Set _ | P.Multi_ok -> Ok ()
          | P.Error e when Sim_time.(Sim.now sim < Sim_time.add due (Sim_time.sec 20)) ->
              (* lost to the dead leader, locked, or aborted by a
                 conflicting transaction: retry after a jittered backoff,
                 so two conflicting retries cannot stay in lockstep *)
              if e = Zk.Zerror.Timeout && counted then incr timeouts;
              Proc.sleep sim
                (Sim_time.ms (5 + Random.State.int backoff (min 200 (10 * (tries + 1)))));
              attempt (tries + 1)
          | P.Error e -> Error (Zk.Zerror.to_string e)
          | _ -> Error "unexpected reply"
        in
        let r = attempt 0 in
        decr inflight;
        let now = Sim.now sim in
        (match r with
        | Ok () ->
            List.iter (fun s -> acked.(s) <- acked.(s) + 1) touched;
            if touches_0 && Sim_time.(t_kill <= due) && !first_commit_after_kill = None then
              first_commit_after_kill := Some (ms (Sim_time.sub now t_kill))
        | Error e -> if counted then fail "request" e);
        if counted then begin
          Prof.Samples.add lats (ms (Sim_time.sub now due));
          if is_cross then incr cross;
          match r with Ok () -> incr ok | Error _ -> incr failed
        end)
  in
  Proc.spawn sim (fun () ->
      Proc.await ready;
      let n = ref 0 in
      let rec loop () =
        let due = Sim_time.add load_start (Sim_time.of_float_s (float_of_int !n /. float_of_int rate)) in
        if Sim_time.(due < w_end) then begin
          if Sim_time.(Sim.now sim < due) then Proc.sleep sim (Sim_time.sub due (Sim.now sim));
          request !n due;
          incr n;
          loop ()
        end
      in
      loop ());
  (* the failure: shard 0's leader dies mid-window, restarts 1 s later *)
  let killed = ref None in
  Sim.schedule_at sim ~at:t_kill (fun () ->
      match Sharding.Shard_cluster.shard_leader cluster 0 with
      | Some l ->
          let id = Zk.Server.id l in
          killed := Some id;
          Sharding.Shard_cluster.crash_server cluster ~shard:0 id
      | None -> fail "kill" "shard 0 has no leader");
  Sim.schedule_at sim ~at:t_restart (fun () ->
      Option.iter
        (fun id ->
          Sharding.Shard_cluster.restart_server cluster ~shard:0 id;
          (* the process restart rebuilds the extension manager from the
             replicated tree, as [Ezk_cluster.restart_server] does *)
          Edc_ezk.Ezk.reload
            (Edc_ezk.Ezk.install (Sharding.Shard_cluster.servers cluster 0).(id)))
        !killed);
  (* follower lag on shard 0, sampled every 10 ms of the window, over
     the replicas that are up *)
  let lag_max = ref 0 in
  let rec sample_lag () =
    let down = Sim_time.(t_kill <= Sim.now sim) && Sim_time.(Sim.now sim < t_restart) in
    let servers =
      Array.to_list (Sharding.Shard_cluster.servers cluster 0)
      |> List.filter (fun s -> not (down && Some (Zk.Server.id s) = !killed))
      |> Array.of_list
    in
    let lens = Array.map (fun s -> Zab.committed_length (Zk.Server.zab s)) servers in
    let hi = Array.fold_left max 0 lens and lo = Array.fold_left min max_int lens in
    lag_max := max !lag_max (hi - lo);
    if Sim_time.(Sim.now sim < w_end) then Sim.schedule sim ~after:(Sim_time.ms 10) sample_lag
  in
  Sim.schedule_at sim ~at:w_start sample_lag;
  let epoch0 () =
    match Sharding.Shard_cluster.shard_leader cluster 0 with
    | Some l -> Zab.epoch (Zk.Server.zab l)
    | None -> 0
  in
  timed_run sim ~until:w_start;
  let setup_s = Prof.now () -. t0 in
  let e0 = epoch0 () in
  let nets =
    List.init n_groups (fun s -> Zk.Cluster.net (Sharding.Shard_cluster.group cluster s))
  in
  let ishard = Sharding.Shard_cluster.ishard_net cluster in
  let totals () =
    ( List.fold_left (fun acc n -> acc + Net.total_messages n) (Net.total_messages ishard) nets,
      List.fold_left (fun acc n -> acc + Net.total_bytes_sent n) (Net.total_bytes_sent ishard) nets )
  in
  let bytes () =
    List.fold_left
      (fun acc (s, a) -> acc + Net.bytes_sent_by (List.nth nets s) a)
      0 !client_addrs
  in
  let m0, nb0 = totals () and b0 = bytes () in
  let host_s, chunk_s, gc, events = measure sim ~until:w_end in
  let retained_mb = Prof.retained_mb (cluster, sim) in
  let m1, nb1 = totals () and b1 = bytes () in
  let elections = epoch0 () - e0 in
  (* quiescence: every in-doubt transaction resolves, then check *)
  timed_run sim ~until:(Sim_time.add w_end (Sim_time.sec 30));
  let audits = Sharding.Shard_cluster.audits cluster in
  let locks = Sharding.Shard_cluster.residual_locks cluster in
  let prepared = Sharding.Shard_cluster.residual_prepared cluster in
  List.iter
    (fun v -> fail "atomicity" (Format.asprintf "%a" Atomicity.pp_violation v))
    (Atomicity.check ~audits ~prepared ~locks ());
  (* per-shard reconciliation: every replica holds the same keys at the
     same versions, and the shard's write counter (the sum of its key
     versions) lies between its acknowledged ops and its attempts *)
  for s = 0 to n_groups - 1 do
    let state srv =
      keys_of s
      |> List.map (fun p ->
             match Zk.Data_tree.get_data (Zk.Server.tree srv) p with
             | Ok (d, stat) -> (d, stat.Zk.Znode.version)
             | Error _ -> ("", -1))
    in
    let servers = Sharding.Shard_cluster.servers cluster s in
    let st0 = state servers.(0) in
    Array.iteri
      (fun i srv ->
        if state srv <> st0 then fail "reconcile" (Printf.sprintf "shard %d replica %d diverges" s i))
      servers;
    let writes = List.fold_left (fun acc (_, v) -> acc + v) 0 st0 in
    if writes < acked.(s) || writes > attempts.(s) then
      fail "reconcile"
        (Printf.sprintf "shard %d counter %d outside [%d acked, %d attempts]" s writes acked.(s)
           attempts.(s))
  done;
  let coord = Array.to_list (Sharding.Shard_cluster.servers cluster 0) in
  let sum f = List.fold_left (fun acc s -> acc + f s) 0 coord in
  let decided =
    List.fold_left
      (fun acc (shard, _, outcomes) ->
        if shard <> 0 then acc
        else
          acc
          + List.length
              (List.filter
                 (fun (txid, _) ->
                   List.exists (fun s -> Zk.Server.decided s txid <> None) coord)
                 outcomes))
      0
      (List.filter (fun (s, r, _) -> s = 0 && r = 0) audits)
  in
  let n = !ok + !failed in
  let lag_a = Prof.Samples.to_array lag in
  {
    setup_s;
    host_s;
    chunk_s;
    sim_s = sim_window;
    ok = !ok;
    failed = !failed;
    timeouts = !timeouts;
    lats;
    client_bytes = b1 - b0;
    gc;
    events;
    net_msgs = m1 - m0;
    net_bytes = nb1 - nb0;
    dropped =
      List.fold_left (fun acc n -> acc + Net.dropped_messages n) (Net.dropped_messages ishard) nets;
    retained_mb;
    problems = List.filteri (fun i _ -> i < 5) (List.rev !problems);
    layers =
      [
        ("unavailable_ms", Option.value !first_commit_after_kill ~default:(ms window));
        ("zab.elections", float_of_int elections);
        ("zab.follower_lag_max", float_of_int !lag_max);
        ("two_pc.cross_ratio", Prof.per n (float_of_int !cross));
        ( "two_pc.commit_ratio",
          Prof.per (sum Zk.Server.txns_coordinated) (float_of_int (sum Zk.Server.txns_committed)) );
        ("two_pc.decisions_retained", float_of_int decided);
        ("two_pc.residual_locks", float_of_int (List.length locks));
        ("client.inflight_mean", Prof.per !issued !inflight_sum);
        ("client.generator_lag_ms_p99", Prof.percentile lag_a 0.99);
      ];
  }

(* ------------------------------------------------------------------ *)
(* Runs                                                                 *)
(* ------------------------------------------------------------------ *)

(* A run simulates one trial (the run's seed) several times: as many
   repeats as fit in [seconds] at a nominal host cost per repeat (a 2-core
   x86 container), at least three.  Every sim-clock figure must come out
   identical across the repeats (a determinism check); the host time of
   the window is the sum, over its 100 ms steps, of the fastest repeat of
   each step, since interference on a shared host only ever slows a step
   down.  The simulated window is fixed per workload, so sim-clock figures
   depend on the seed alone. *)
let sim_window = function `Eds -> 1.4 | `Shard -> 1.25
let host_s_per_repeat = function `Eds -> 3.5 | `Shard -> 1.0
let repeats kind seconds = max 3 (int_of_float (seconds /. host_s_per_repeat kind))

let trial ~kind ~seed =
  Gc.compact ();
  let sim_window = sim_window kind in
  match kind with
  | `Eds -> eds_trial ~seed ~sim_window
  | `Shard -> shard_trial ~seed ~sim_window

let run_trials ~kind ~seed ~seconds =
  List.init (repeats kind seconds) (fun _ -> trial ~kind ~seed)

(* host seconds of the window: per step, the fastest repeat *)
let best_host_s trials =
  match trials with
  | [] -> 0.
  | t :: rest ->
      List.fold_left (fun acc u -> List.map2 Float.min acc u.chunk_s) t.chunk_s
        (List.filter (fun u -> List.length u.chunk_s = List.length t.chunk_s) rest)
      |> List.fold_left ( +. ) 0.

let same_simulation a b =
  a.ok = b.ok && a.failed = b.failed && a.events = b.events
  && Prof.Samples.to_array a.lats = Prof.Samples.to_array b.lats

let summary trials =
  let t = List.hd trials in
  let attempted = t.ok + t.failed in
  let problems =
    List.concat_map (fun t -> t.problems) trials
    @
    if List.for_all (same_simulation t) trials then []
    else [ "repeats of one seed simulated differently" ]
  in
  let p q = Prof.percentile (Prof.Samples.to_array t.lats) q in
  let m = Prof.m in
  {
    Prof.correct = problems = [] && t.failed = 0;
    attempted;
    failed = t.failed;
    problems;
    metrics =
      [
        m "setup_s" "s" "wall" (Prof.median (List.map (fun t -> t.setup_s) trials));
        m "throughput_ops_s" "1/s" "wall" (float_of_int t.ok /. best_host_s trials);
        m "latency_p50_us" "us" "sim" (p 0.5 *. 1000.);
        m "kb_per_op" "KiB" "count" (Prof.per t.ok (float_of_int t.client_bytes) /. 1024.);
        m "alloc_words_per_op" "words" "count" (Prof.per t.ok t.gc.Prof.minor_words);
        m "retained_mb" "MB" "count" t.retained_mb;
      ];
    extra =
      [
        m "latency_p99_us" "us" "sim" (p 0.99 *. 1000.);
        m "sim_throughput_ops_s" "1/s" "sim" (float_of_int t.ok /. t.sim_s);
        m "error_ratio" "ratio" "count" (Prof.per attempted (float_of_int t.failed));
        m "top_heap_mb" "MB" "count" (Prof.top_heap_mb ());
        m "latency_samples" "count" "count" (float_of_int (Prof.Samples.length t.lats));
      ]
      @ List.filter_map
          (fun (name, v) -> if name = "unavailable_ms" then Some (m name "ms" "sim" v) else None)
          t.layers;
  }

let run_untraced ~kind ~seed ~seconds = summary (run_trials ~kind ~seed ~seconds)

(* Traced: the untraced repeats, then one more with spans on (the same
   simulation, so the same op count), then the layer replays of its
   recorded op stream. *)
let run_traced ~kind ~seed ~seconds =
  let untraced = run_trials ~kind ~seed ~seconds in
  let base = summary untraced in
  let u = List.hd untraced in
  Prof.reset ();
  Prof.Samples.clear eds_log;
  logging := true;
  Prof.enabled := true;
  let t = trial ~kind ~seed in
  Prof.enabled := false;
  logging := false;
  let n = t.ok + t.failed in
  let problems =
    base.Prof.problems @ t.problems
    @ if same_simulation t u then [] else [ "the traced repeat simulated differently" ]
  in
  let us c = Prof.per n c.Prof.self_s *. 1e6 in
  let replay =
    match kind with
    | `Eds -> Replay.eds_layers ~op_log:eds_log
    | `Shard -> [ ("router.route_us_per_op", us c_route) ]
  in
  let sim_tp t = float_of_int t.ok /. t.sim_s in
  ( { base with Prof.problems; correct = base.Prof.correct && problems = [] && t.failed = 0 },
    [
      ("simnet.events_per_op", Prof.per n (float_of_int t.events));
      ("simnet.loop_self_us_per_op", us c_run);
      ("net.msgs_per_op", Prof.per n (float_of_int t.net_msgs));
      ("net.bytes_per_op", Prof.per n (float_of_int t.net_bytes));
      ("net.dropped", float_of_int t.dropped);
      ("client.timeouts", float_of_int t.timeouts);
      ("client.latency_samples", float_of_int (Prof.Samples.length t.lats));
      ("gc.minor_collections_per_kop", Prof.per n (float_of_int t.gc.Prof.minor_collections) *. 1000.);
      ("gc.major_collections", float_of_int t.gc.Prof.major_collections);
      ("gc.promoted_words_per_op", Prof.per n t.gc.Prof.promoted_words);
      ("gc.top_heap_mb", Prof.top_heap_mb ());
      ("trace.overhead_ratio", t.host_s /. best_host_s untraced);
      ("error_ratio", Prof.per n (float_of_int t.failed));
      ("sim_throughput_ops_s", sim_tp u);
      ("latency_p99_us", Prof.percentile (Prof.Samples.to_array u.lats) 0.99 *. 1000.);
    ]
    @ u.layers @ replay )
