(** The paper's evaluation experiments (§6): one function per figure, each
    returning the data series the figure plots.  Every experiment runs a
    fresh deterministic simulation per (system, client-count) point. *)

open Edc_simnet
open Edc_recipes
module Api = Coord_api
module Ck_history = Edc_checker.History
module Ck_model = Edc_checker.Model
module Ck_wgl = Edc_checker.Wgl
module Instrument = Edc_checker.Instrument

let default_client_counts = [ 1; 10; 20; 30; 40; 50 ]
let paired_client_counts = [ 2; 10; 20; 30; 40; 50 ]

type point = {
  kind : Systems.kind;
  clients : int;
  throughput : float;  (** ops per second *)
  latency_ms : float;
  p99_ms : float;
  kb_per_op : float;  (** client-transmitted data per completed op *)
  attempts : float;
  errors : int;
}

let point_of_results kind clients (r : Workload.results) =
  {
    kind;
    clients;
    throughput = r.Workload.throughput;
    latency_ms = r.Workload.mean_latency_ms;
    p99_ms = r.Workload.p99_latency_ms;
    kb_per_op = r.Workload.kb_per_op;
    attempts = r.Workload.attempts_per_op;
    errors = r.Workload.errors;
  }

let ack_if_ext (api : Api.t) name =
  match api.Api.ext with
  | Some ext -> (
      match ext.Api.acknowledge name with
      | Ok () -> ()
      | Error e -> failwith ("acknowledge: " ^ e))
  | None -> ()

let fail_on_error what = function Ok _ -> () | Error e -> failwith (what ^ ": " ^ e)

(* ------------------------------------------------------------------ *)
(* Figure 6: shared counter                                            *)
(* ------------------------------------------------------------------ *)

let counter_point ?(seed = 42) ?net_config ?batch ~warmup ~measure kind
    n_clients =
  let sim = Sim.create ~seed () in
  let sys = Systems.make ?net_config ?batch kind sim in
  let extensible = Systems.is_extensible kind in
  let r =
    Workload.run sys
      {
        Workload.n_clients;
        warmup;
        measure;
        ops_per_iteration = 1;
        setup =
          (fun api ->
            fail_on_error "counter setup" (Counter.setup api);
            if extensible then fail_on_error "register" (Counter.register api));
        prepare =
          (fun api -> if extensible then ack_if_ext api Counter.extension_name);
        op =
          (fun api ->
            let r =
              if extensible then Counter.increment_ext api
              else Counter.increment_traditional api
            in
            Result.map (fun (r : Counter.result) -> r.Counter.attempts) r);
      }
  in
  point_of_results kind n_clients r

(* ------------------------------------------------------------------ *)
(* Figure 8: distributed queue (add + remove per iteration)            *)
(* ------------------------------------------------------------------ *)

let queue_point ?(seed = 42) ?net_config ?batch ~warmup ~measure kind
    n_clients =
  let sim = Sim.create ~seed () in
  let sys = Systems.make ?net_config ?batch kind sim in
  let extensible = Systems.is_extensible kind in
  let iteration_counter = ref 0 in
  let r =
    Workload.run sys
      {
        Workload.n_clients;
        warmup;
        measure;
        ops_per_iteration = 2;
        setup =
          (fun api ->
            fail_on_error "queue setup" (Queue.setup api);
            if extensible then fail_on_error "register" (Queue.register api));
        prepare =
          (fun api -> if extensible then ack_if_ext api Queue.extension_name);
        op =
          (fun api ->
            incr iteration_counter;
            let eid = Queue.make_eid api !iteration_counter in
            (* empty payload: the cost measured is pure coordination
               overhead (§6.1.2) *)
            match Queue.add api ~eid ~data:"" with
            | Error e -> Error e
            | Ok () -> (
                let r =
                  if extensible then Queue.remove_ext api
                  else Queue.remove_traditional api
                in
                match r with
                | Ok rem -> Ok (1 + rem.Queue.attempts)
                | Error e -> Error e));
      }
  in
  point_of_results kind n_clients r

(* ------------------------------------------------------------------ *)
(* Figure 10: distributed barrier (round-based)                        *)
(* ------------------------------------------------------------------ *)

let barrier_point ?(seed = 42) ?net_config ?(rounds = 30) ?(warmup_rounds = 5)
    kind n_clients =
  let sim = Sim.create ~seed () in
  let sys = Systems.make ?net_config kind sim in
  let extensible = Systems.is_extensible kind in
  let latencies = Stats.Series.create () in
  let enters = ref 0 in
  let bytes_start = ref 0 and bytes_end = ref 0 in
  let apis = ref [] in
  let addrs = ref [] in
  let failure = ref None in
  Proc.spawn sim (fun () ->
      try
        let admin, _ = sys.Systems.new_api () in
        if extensible then fail_on_error "register" (Barrier.register admin);
        for _ = 1 to n_clients do
          let api, addr = sys.Systems.new_api () in
          if extensible then ack_if_ext api Barrier.extension_name;
          apis := api :: !apis;
          addrs := addr :: !addrs
        done;
        let snapshot () =
          List.fold_left (fun acc a -> acc + sys.Systems.bytes_sent_by a) 0 !addrs
        in
        for round = 1 to rounds do
          if round = warmup_rounds + 1 then bytes_start := snapshot ();
          let base = Printf.sprintf "/bar%06d" round in
          fail_on_error "barrier setup" (Barrier.setup admin ~base ~threshold:n_clients);
          let fibers =
            List.map
              (fun api ->
                Proc.async sim (fun () ->
                    let t0 = Sim.now sim in
                    (if extensible then
                       fail_on_error "enter" (Barrier.enter_ext api ~base)
                     else
                       fail_on_error "enter"
                         (Barrier.enter_traditional api ~base ~threshold:n_clients));
                    if round > warmup_rounds then begin
                      incr enters;
                      Stats.Series.add latencies
                        (Sim_time.to_float_ms (Sim_time.sub (Sim.now sim) t0))
                    end))
              !apis
          in
          Proc.join fibers
        done;
        bytes_end := snapshot ()
      with e -> failure := Some e);
  Sim.run ~until:(Sim_time.sec 3600) sim;
  (match !failure with Some e -> raise e | None -> ());
  {
    kind;
    clients = n_clients;
    throughput = 0.0;
    latency_ms = Stats.Series.mean latencies;
    p99_ms = Stats.Series.p99 latencies;
    kb_per_op =
      (if !enters = 0 then 0.0
       else float_of_int (!bytes_end - !bytes_start) /. 1024.0 /. float_of_int !enters);
    attempts = 1.0;
    errors = 0;
  }

(* ------------------------------------------------------------------ *)
(* Figure 12: leader election (become + immediately abdicate)          *)
(* ------------------------------------------------------------------ *)

let election_point ?(seed = 42) ?net_config ~warmup ~measure kind n_clients =
  let sim = Sim.create ~seed () in
  let sys = Systems.make ?net_config kind sim in
  let extensible = Systems.is_extensible kind in
  let roots = Election.election_roots in
  let window_start = Sim_time.add (Sim.now sim) warmup in
  let window_end = Sim_time.add window_start measure in
  let changes = ref 0 in
  let signaling = Stats.Series.create () in
  let last_abdication = ref None in
  let failure = ref None in
  Proc.spawn sim (fun () ->
      try
        let admin, _ = sys.Systems.new_api () in
        fail_on_error "election setup" (Election.setup admin roots);
        if extensible then fail_on_error "register" (Election.register admin roots);
        for _ = 1 to n_clients do
          Proc.spawn sim (fun () ->
              let api, _ = sys.Systems.new_api () in
              let handle = Election.new_handle () in
              if extensible then ack_if_ext api roots.Election.name;
              let rec loop () =
                if Sim_time.(Sim.now sim < window_end) then begin
                  (if extensible then
                     fail_on_error "become" (Election.become_leader_ext api roots)
                   else
                     fail_on_error "become"
                       (Election.become_leader_traditional api roots handle));
                  let now = Sim.now sim in
                  if Sim_time.(window_start <= now) && Sim_time.(now <= window_end)
                  then begin
                    incr changes;
                    match !last_abdication with
                    | Some t ->
                        Stats.Series.add signaling
                          (Sim_time.to_float_ms (Sim_time.sub now t));
                        last_abdication := None
                    | None -> ()
                  end;
                  (* the newly appointed leader immediately abdicates *)
                  last_abdication := Some (Sim.now sim);
                  (if extensible then
                     fail_on_error "abdicate" (Election.abdicate_ext api roots)
                   else
                     fail_on_error "abdicate"
                       (Election.abdicate_traditional api roots handle));
                  loop ()
                end
              in
              loop ())
        done
      with e -> failure := Some e);
  Sim.run ~until:(Sim_time.add window_end (Sim_time.sec 30)) sim;
  (match !failure with Some e -> raise e | None -> ());
  {
    kind;
    clients = n_clients;
    throughput = float_of_int !changes /. Sim_time.to_float_s measure;
    latency_ms = Stats.Series.mean signaling;
    p99_ms = Stats.Series.p99 signaling;
    kb_per_op = 0.0;
    attempts = 1.0;
    errors = 0;
  }

(* ------------------------------------------------------------------ *)
(* Figure 13: impact of the queue extension on regular clients         *)
(* ------------------------------------------------------------------ *)

type fig13_point = {
  f13_kind : Systems.kind;
  f13_queue_clients : int;
  f13_queue_throughput : float;  (** kOps/s equivalent: ops/s *)
  f13_read_ms : float;
  f13_write_ms : float;
}

let fig13_point ?(seed = 42) ?net_config ~warmup ~measure kind n_queue_clients =
  assert (Systems.is_extensible kind);
  let sim = Sim.create ~seed () in
  let sys = Systems.make ?net_config kind sim in
  let window_start = Sim_time.add (Sim.now sim) warmup in
  let window_end = Sim_time.add window_start measure in
  let queue_ops = ref 0 in
  let read_lat = Stats.Series.create () and write_lat = Stats.Series.create () in
  let payload = String.make 256 'x' in
  let failure = ref None in
  let in_window t0 t1 =
    Sim_time.(window_start <= t0) && Sim_time.(t1 <= window_end)
  in
  Proc.spawn sim (fun () ->
      try
        let admin, _ = sys.Systems.new_api () in
        fail_on_error "queue setup" (Queue.setup admin);
        fail_on_error "register" (Queue.register admin);
        (match admin.Api.create ~oid:"/regular" ~data:"" with
        | Ok _ | Error ("exists" | "node exists") -> ()
        | Error e -> failwith ("regular parent: " ^ e));
        (* queue stress clients *)
        for _ = 1 to n_queue_clients do
          Proc.spawn sim (fun () ->
              let api, _ = sys.Systems.new_api () in
              ack_if_ext api Queue.extension_name;
              let i = ref 0 in
              let rec loop () =
                if Sim_time.(Sim.now sim < window_end) then begin
                  incr i;
                  let t0 = Sim.now sim in
                  (match Queue.add api ~eid:(Queue.make_eid api !i) ~data:"" with
                  | Ok () -> (
                      match Queue.remove_ext api with
                      | Ok _ ->
                          if in_window t0 (Sim.now sim) then queue_ops := !queue_ops + 2
                      | Error _ -> ())
                  | Error _ -> ());
                  loop ()
                end
              in
              loop ())
        done;
        (* 30 regular clients: 15 readers, 15 writers on private 256-byte
           objects (§6.2) *)
        for k = 1 to 30 do
          Proc.spawn sim (fun () ->
              let api, _ = sys.Systems.new_api () in
              let oid = Printf.sprintf "/regular/obj%02d" k in
              (match api.Api.create ~oid ~data:payload with
              | Ok _ | Error ("exists" | "node exists") -> ()
              | Error e -> failwith ("regular setup: " ^ e));
              let writer = k > 15 in
              let rec loop () =
                if Sim_time.(Sim.now sim < window_end) then begin
                  let t0 = Sim.now sim in
                  (if writer then
                     match api.Api.update ~oid ~data:payload with
                     | Ok () ->
                         if in_window t0 (Sim.now sim) then
                           Stats.Series.add write_lat
                             (Sim_time.to_float_ms (Sim_time.sub (Sim.now sim) t0))
                     | Error _ -> ()
                   else
                     match api.Api.read ~oid with
                     | Ok _ ->
                         if in_window t0 (Sim.now sim) then
                           Stats.Series.add read_lat
                             (Sim_time.to_float_ms (Sim_time.sub (Sim.now sim) t0))
                     | Error _ -> ());
                  loop ()
                end
              in
              loop ())
        done
      with e -> failure := Some e);
  Sim.run ~until:(Sim_time.add window_end (Sim_time.sec 10)) sim;
  (match !failure with Some e -> raise e | None -> ());
  {
    f13_kind = kind;
    f13_queue_clients = n_queue_clients;
    f13_queue_throughput = float_of_int !queue_ops /. Sim_time.to_float_s measure;
    f13_read_ms = Stats.Series.mean read_lat;
    f13_write_ms = Stats.Series.mean write_lat;
  }

(* ------------------------------------------------------------------ *)
(* §6.2: extensibility overhead on regular operations                  *)
(* ------------------------------------------------------------------ *)

type overhead_point = {
  oh_kind : Systems.kind;
  oh_read_ms : float;
  oh_write_ms : float;
}

(** Regular read/write latency with no extension triggered; on the
    extensible systems an unrelated extension is registered so the
    manager's matching path is live. *)
let overhead_point ?(seed = 42) ?net_config ~warmup ~measure kind =
  let sim = Sim.create ~seed () in
  let sys = Systems.make ?net_config kind sim in
  let extensible = Systems.is_extensible kind in
  let window_start = Sim_time.add (Sim.now sim) warmup in
  let window_end = Sim_time.add window_start measure in
  let read_lat = Stats.Series.create () and write_lat = Stats.Series.create () in
  let payload = String.make 256 'x' in
  let failure = ref None in
  Proc.spawn sim (fun () ->
      try
        let admin, _ = sys.Systems.new_api () in
        if extensible then begin
          fail_on_error "counter setup" (Counter.setup admin);
          fail_on_error "register" (Counter.register admin)
        end;
        (match admin.Api.create ~oid:"/regular" ~data:"" with
        | Ok _ | Error ("exists" | "node exists") -> ()
        | Error e -> failwith ("regular parent: " ^ e));
        for k = 1 to 20 do
          Proc.spawn sim (fun () ->
              let api, _ = sys.Systems.new_api () in
              let oid = Printf.sprintf "/regular/obj%02d" k in
              (match api.Api.create ~oid ~data:payload with
              | Ok _ | Error ("exists" | "node exists") -> ()
              | Error e -> failwith ("setup: " ^ e));
              let writer = k > 10 in
              let rec loop () =
                if Sim_time.(Sim.now sim < window_end) then begin
                  let t0 = Sim.now sim in
                  let record series =
                    let t1 = Sim.now sim in
                    if Sim_time.(window_start <= t0) && Sim_time.(t1 <= window_end)
                    then
                      Stats.Series.add series
                        (Sim_time.to_float_ms (Sim_time.sub t1 t0))
                  in
                  (if writer then
                     match api.Api.update ~oid ~data:payload with
                     | Ok () -> record write_lat
                     | Error _ -> ()
                   else
                     match api.Api.read ~oid with
                     | Ok _ -> record read_lat
                     | Error _ -> ());
                  loop ()
                end
              in
              loop ())
        done
      with e -> failure := Some e);
  Sim.run ~until:(Sim_time.add window_end (Sim_time.sec 10)) sim;
  (match !failure with Some e -> raise e | None -> ());
  {
    oh_kind = kind;
    oh_read_ms = Stats.Series.mean read_lat;
    oh_write_ms = Stats.Series.mean write_lat;
  }

(* ------------------------------------------------------------------ *)
(* Linearizability of the blocking recipes (election-as-lock, barrier) *)
(* ------------------------------------------------------------------ *)

type lin_point = {
  lp_kind : Systems.kind;
  lp_seed : int;
  lp_events : int;  (** history events captured *)
  lp_lock : Edc_checker.Wgl.verdict;
      (** mutual exclusion: leadership checked against the mutex model *)
  lp_barrier : (unit, string) result;
      (** gate property: nobody passes before the threshold-th entry *)
}

(** Healthy-cluster check of the recipes whose semantic unit is a whole
    blocking call rather than a single API operation: leadership
    acquire/release against the mutex model, barrier rounds against the
    real-time gate property.  Histories are captured with
    {!Edc_checker.Instrument.record} at recipe granularity. *)
let lin_recipes_point ?(seed = 42) ?(contenders = 3) ?(rounds = 6)
    ?(barrier_clients = 4) ?(barrier_rounds = 5) ?lin_max_steps kind =
  let sim = Sim.create ~seed () in
  let sys = Systems.make kind sim in
  let extensible = Systems.is_extensible kind in
  let history = Ck_history.create ~sim () in
  let roots = Election.election_roots in
  let failure = ref None in
  Proc.spawn sim (fun () ->
      try
        let admin, _ = sys.Systems.new_api () in
        fail_on_error "election setup" (Election.setup admin roots);
        if extensible then begin
          fail_on_error "election reg" (Election.register admin roots);
          fail_on_error "barrier reg" (Barrier.register admin)
        end;
        (* leadership contenders: leadership = the lock *)
        for _ = 1 to contenders do
          Proc.spawn sim (fun () ->
              let api, _ = sys.Systems.new_api () in
              let handle = Election.new_handle () in
              if extensible then ack_if_ext api roots.Election.name;
              let client = api.Api.client_id in
              for _ = 1 to rounds do
                fail_on_error "become"
                  (Instrument.record history ~client ~op:Ck_history.Acquire
                     ~response:(fun () -> Ck_history.R_unit)
                     (fun () ->
                       if extensible then Election.become_leader_ext api roots
                       else
                         Election.become_leader_traditional api roots handle));
                Proc.sleep sim (Sim_time.ms 5);
                fail_on_error "abdicate"
                  (Instrument.record history ~client ~op:Ck_history.Release
                     ~response:(fun () -> Ck_history.R_unit)
                     (fun () ->
                       if extensible then Election.abdicate_ext api roots
                       else Election.abdicate_traditional api roots handle))
              done)
        done;
        (* barrier rounds (base must start with "/bar", the extension's
           subscription prefix) *)
        let apis =
          List.init barrier_clients (fun _ ->
              let api, _ = sys.Systems.new_api () in
              if extensible then ack_if_ext api Barrier.extension_name;
              api)
        in
        for round = 1 to barrier_rounds do
          let base = Printf.sprintf "/barlin%04d" round in
          fail_on_error "barrier setup"
            (Barrier.setup admin ~base ~threshold:barrier_clients);
          let fibers =
            List.map
              (fun (api : Api.t) ->
                Proc.async sim (fun () ->
                    fail_on_error "enter"
                      (Instrument.record history ~client:api.Api.client_id
                         ~op:(Ck_history.Enter base)
                         ~response:(fun () -> Ck_history.R_unit)
                         (fun () ->
                           if extensible then Barrier.enter_ext api ~base
                           else
                             Barrier.enter_traditional api ~base
                               ~threshold:barrier_clients))))
              apis
          in
          Proc.join fibers
        done
      with e -> failure := Some e);
  Sim.run ~until:(Sim_time.sec 600) sim;
  (match !failure with Some e -> raise e | None -> ());
  let parts = Ck_history.split (Ck_history.entries history) in
  let part obj = Option.value ~default:[] (List.assoc_opt obj parts) in
  {
    lp_kind = kind;
    lp_seed = seed;
    lp_events = Ck_history.n_events history;
    lp_lock =
      Ck_wgl.check ?max_steps:lin_max_steps Ck_model.mutex (part "lock");
    lp_barrier =
      Ck_model.check_gate ~threshold:barrier_clients (part "barrier");
  }

(* ------------------------------------------------------------------ *)
(* Chaos: availability under the nemesis fault schedule               *)
(* ------------------------------------------------------------------ *)

type chaos_point = {
  ch_kind : Systems.kind;
  ch_seed : int;
  ch_ops_ok : int;
  ch_ops_maybe : int;  (** concluded [Maybe_applied] (ambiguous writes) *)
  ch_ops_failed : int;
  ch_success_rate : float;
  ch_errors : (string * int) list;  (** taxonomy of non-ok outcomes *)
  ch_counter_confirmed : int;
  ch_counter_maybe : int;
  ch_counter_final : int;
  ch_adds_confirmed : int;
  ch_adds_maybe : int;
  ch_consumed : int;
  ch_remaining : int;
  ch_removes_maybe : int;
  ch_crashes : int;
  ch_leader_kills : int;
  ch_partitions : int;
  ch_partitions_healed : int;
  ch_storms : int;
  ch_faults : int;
  ch_dropped : int;  (** messages discarded by the simulated network *)
  ch_recovery_ms : Stats.Series.t;
      (** per-disruption time to the next successful client operation *)
  ch_unrecovered : int;
  ch_anomalies : int;
  ch_invariant_failures : string list;  (** empty = all invariants intact *)
  ch_trace : string;
  ch_lin : (string * Ck_wgl.verdict) list;
      (** per-object linearizability verdicts over the captured history
          (empty when the run was started with [~check:false]) *)
  ch_history_events : int;
  ch_snap : Systems.snapshot_stats;
      (** snapshot/state-transfer activity during the run (zeros for the
          BFT deployments) *)
  ch_wire : Systems.wire_stats;
      (** serializer work during the run: frames encoded vs per-destination
          sends (zeros for the BFT deployments) *)
  ch_reconfig : Edc_replication.Zab.reconfig_stats;
      (** membership-change activity (all-zero when the schedule contains
          no reconfiguration and none was driven externally) *)
  ch_reconfig_kills : int;  (** reconfiguration-targeted leader strikes *)
}

(* What the clients of one chaos run were told, and the state read back
   after it: the conservation invariants compare the two. *)
type ledger = {
  mutable ok : int;
  mutable maybe : int;
  mutable failed : int;
  taxonomy : (string, int) Hashtbl.t;
  mutable success_times : Sim_time.t list;  (* newest first *)
  mutable incr_confirmed : int;
  mutable incr_maybe : int;
  adds_confirmed : (string, unit) Hashtbl.t;
  adds_maybe : (string, unit) Hashtbl.t;
  mutable consumed : string list;
  mutable removes_maybe : int;
  mutable counter_final : int;
  mutable remaining : string list;
  mutable invariant_failures : string list;  (* newest first *)
}

type chaos_run = {
  l : ledger;
  nem : Nemesis.t;
  anomalies : int;
  errors : (string * int) list;  (* most frequent first *)
  lin : (string * Ck_wgl.verdict) list;
  history_events : int;
}

let invariant l name cond =
  if not cond then l.invariant_failures <- name :: l.invariant_failures

(* The chaos run both [chaos_point] and [membership_point] are made of:
   [incrementers] counter clients (think time [think ()]) plus queue
   [producers] and [consumers] on resilient sessions while the nemesis runs
   [schedule] until [horizon]; [driver], if any, runs in a fiber of its
   own beside them.  Clients stop at [ops_end]; once every op has
   concluded, the final state is read back through a fresh client and
   checked against the ledger.

   The safety invariants tolerate exactly the ambiguity the session layer
   surfaces: every [Maybe_applied] write may or may not have executed, so
   [confirmed <= final <= confirmed + maybe] for the counter, and a
   confirmed queue element may only be missing if some remove concluded
   ambiguously. *)
let run_chaos ~(sys : Systems.t) ~check ?lin_max_steps ~schedule ~horizon
    ~ops_end ~incrementers ~producers ~consumers ~think ?driver () =
  let sim = sys.Systems.sim in
  let history = Ck_history.create ~sim () in
  let client () =
    let api = fst (sys.Systems.new_resilient_api ()) in
    if check then Instrument.wrap history api else api
  in
  let extensible = Systems.is_extensible sys.Systems.kind in
  (* every resilient op concludes within the session deadline of its
     start, so final-state verification waits that long after [ops_end] *)
  let deadline =
    Option.value Edc_core.Retry.default_policy.Edc_core.Retry.deadline
      ~default:(Sim_time.sec 30)
  in
  let verify_at = Sim_time.add ops_end (Sim_time.add deadline (Sim_time.sec 1)) in
  let l =
    {
      ok = 0;
      maybe = 0;
      failed = 0;
      taxonomy = Hashtbl.create 8;
      success_times = [];
      incr_confirmed = 0;
      incr_maybe = 0;
      adds_confirmed = Hashtbl.create 64;
      adds_maybe = Hashtbl.create 16;
      consumed = [];
      removes_maybe = 0;
      counter_final = 0;
      remaining = [];
      invariant_failures = [];
    }
  in
  let succeed () =
    l.ok <- l.ok + 1;
    l.success_times <- Sim.now sim :: l.success_times
  in
  let classify e ~on_maybe =
    if e = "maybe applied" then begin
      on_maybe ();
      l.maybe <- l.maybe + 1
    end
    else l.failed <- l.failed + 1;
    Hashtbl.replace l.taxonomy e
      (1 + Option.value ~default:0 (Hashtbl.find_opt l.taxonomy e))
  in
  let rec until_ops_end step =
    if Sim_time.(Sim.now sim < ops_end) then begin
      step ();
      until_ops_end step
    end
  in
  let nemesis = ref None in
  let failure = ref None in
  Proc.spawn sim (fun () ->
      try
        let admin, _ = sys.Systems.new_api () in
        fail_on_error "counter setup" (Counter.setup admin);
        fail_on_error "queue setup" (Queue.setup admin);
        if extensible then begin
          fail_on_error "register counter" (Counter.register admin);
          fail_on_error "register queue" (Queue.register admin)
        end;
        nemesis :=
          Some
            (Nemesis.start ~sim ~target:(sys.Systems.nemesis_target ())
               ~horizon schedule);
        for _ = 1 to incrementers do
          Proc.spawn sim (fun () ->
              let api = client () in
              if extensible then ack_if_ext api Counter.extension_name;
              until_ops_end (fun () ->
                  (match
                     if extensible then Counter.increment_ext api
                     else Counter.increment_traditional api
                   with
                  | Ok _ ->
                      l.incr_confirmed <- l.incr_confirmed + 1;
                      succeed ()
                  | Error e ->
                      classify e ~on_maybe:(fun () ->
                          l.incr_maybe <- l.incr_maybe + 1));
                  Proc.sleep sim (think ())))
        done;
        (* element data = eid, so consumed elements are identifiable for
           the conservation check *)
        for _ = 1 to producers do
          Proc.spawn sim (fun () ->
              let api = client () in
              if extensible then ack_if_ext api Queue.extension_name;
              let i = ref 0 in
              until_ops_end (fun () ->
                  incr i;
                  let eid = Queue.make_eid api !i in
                  (match Queue.add api ~eid ~data:eid with
                  | Ok () ->
                      Hashtbl.replace l.adds_confirmed eid ();
                      succeed ()
                  | Error e ->
                      classify e ~on_maybe:(fun () ->
                          Hashtbl.replace l.adds_maybe eid ()));
                  Proc.sleep sim (Sim_time.ms 40)))
        done;
        for _ = 1 to consumers do
          Proc.spawn sim (fun () ->
              let api = client () in
              if extensible then ack_if_ext api Queue.extension_name;
              until_ops_end (fun () ->
                  (match
                     if extensible then Queue.remove_ext api
                     else Queue.remove_traditional api
                   with
                  | Ok { Queue.data = Some d; _ } ->
                      l.consumed <- d :: l.consumed;
                      succeed ()
                  | Ok { Queue.data = None; _ } ->
                      (* an empty poll is still a served request *)
                      succeed ();
                      Proc.sleep sim (Sim_time.ms 60)
                  | Error e ->
                      classify e ~on_maybe:(fun () ->
                          l.removes_maybe <- l.removes_maybe + 1));
                  Proc.sleep sim (Sim_time.ms 30)))
        done;
        Option.iter
          (fun driver ->
            Proc.spawn sim (fun () ->
                try driver ~invariant:(invariant l)
                with e -> failure := Some e))
          driver
      with e -> failure := Some e);
  Sim.run ~until:verify_at sim;
  (match !failure with Some e -> raise e | None -> ());
  Proc.spawn sim (fun () ->
      try
        (* the final reads go through the instrumented wrapper too: they
           pin the final state in the recorded history, so a lost or
           double-applied write has to show up as a non-linearizable read.
           A fenced replica refuses them, so they land on a live member. *)
        let api = client () in
        (match api.Api.read ~oid:Counter.counter_oid with
        | Ok (Some o) -> l.counter_final <- int_of_string o.Api.data
        | Ok None -> failwith "counter object vanished"
        | Error e -> failwith ("final counter read: " ^ e));
        match api.Api.sub_objects ~oid:Queue.root with
        | Ok objs ->
            l.remaining <- List.map (fun (o : Api.obj) -> o.Api.data) objs
        | Error e -> failwith ("final queue read: " ^ e)
      with e -> failure := Some e);
  Sim.run ~until:(Sim_time.add verify_at (Sim_time.sec 10)) sim;
  (match !failure with Some e -> raise e | None -> ());
  let anomalies = sys.Systems.anomalies () in
  invariant l "replication anomalies = 0" (anomalies = 0);
  invariant l "counter >= confirmed increments"
    (l.counter_final >= l.incr_confirmed);
  invariant l "counter <= confirmed + ambiguous increments"
    (l.counter_final <= l.incr_confirmed + l.incr_maybe);
  let rec has_dup = function
    | a :: (b :: _ as rest) -> a = b || has_dup rest
    | _ -> false
  in
  invariant l "no queue element consumed twice"
    (not (has_dup (List.sort compare l.consumed)));
  invariant l "consumed elements were added"
    (List.for_all
       (fun d -> Hashtbl.mem l.adds_confirmed d || Hashtbl.mem l.adds_maybe d)
       l.consumed);
  let present : (string, unit) Hashtbl.t = Hashtbl.create 64 in
  List.iter (fun d -> Hashtbl.replace present d ()) (l.consumed @ l.remaining);
  let missing =
    Hashtbl.fold
      (fun eid () acc -> if Hashtbl.mem present eid then acc else acc + 1)
      l.adds_confirmed 0
  in
  invariant l "lost queue elements covered by ambiguous removes"
    (missing <= l.removes_maybe);
  {
    l;
    nem = Option.get !nemesis;
    anomalies;
    errors =
      Hashtbl.fold (fun e n acc -> (e, n) :: acc) l.taxonomy []
      |> List.sort (fun (_, a) (_, b) -> compare b a);
    (* compositional: one WGL search per object *)
    lin =
      (if check then Ck_wgl.check_history ?max_steps:lin_max_steps history
       else []);
    history_events = Ck_history.n_events history;
  }

(** Counter incrementers plus queue producers/consumers on resilient
    sessions while the nemesis runs the fault [schedule]; afterwards the
    final state is read back and checked against what clients were told. *)
let chaos_point ?(seed = 42) ?net_config ?zab_config ?server_config
    ?(schedule = Nemesis.standard_schedule) ?(horizon = Sim_time.sec 22)
    ?(check = true) ?lin_max_steps kind =
  let sim = Sim.create ~seed () in
  let sys = Systems.make ?net_config ?zab_config ?server_config kind sim in
  let r =
    run_chaos ~sys ~check ?lin_max_steps ~schedule ~horizon
      ~ops_end:(Sim_time.add horizon (Sim_time.sec 3))
      ~incrementers:3 ~producers:2 ~consumers:2
      ~think:(fun () -> Sim_time.ms 20)
      ()
  in
  let l = r.l and nem = r.nem in
  (* per-disruption recovery: time to the next successful client op *)
  let successes = List.rev l.success_times in
  let recovery = Stats.Series.create () in
  let unrecovered = ref 0 in
  List.iter
    (fun { Nemesis.at; fault } ->
      match fault with
      | Nemesis.Crash _ | Nemesis.Partition _ | Nemesis.Storm_start _ -> (
          match List.find_opt (fun ts -> Sim_time.(at <= ts)) successes with
          | Some ts ->
              Stats.Series.add recovery
                (Sim_time.to_float_ms (Sim_time.sub ts at))
          | None -> incr unrecovered)
      | _ -> ())
    (Nemesis.trace nem);
  let total = l.ok + l.maybe + l.failed in
  {
    ch_kind = kind;
    ch_seed = seed;
    ch_ops_ok = l.ok;
    ch_ops_maybe = l.maybe;
    ch_ops_failed = l.failed;
    ch_success_rate =
      (if total = 0 then 0. else float_of_int l.ok /. float_of_int total);
    ch_errors = r.errors;
    ch_counter_confirmed = l.incr_confirmed;
    ch_counter_maybe = l.incr_maybe;
    ch_counter_final = l.counter_final;
    ch_adds_confirmed = Hashtbl.length l.adds_confirmed;
    ch_adds_maybe = Hashtbl.length l.adds_maybe;
    ch_consumed = List.length l.consumed;
    ch_remaining = List.length l.remaining;
    ch_removes_maybe = l.removes_maybe;
    ch_crashes = Nemesis.crashes nem;
    ch_leader_kills = Nemesis.leader_kills nem;
    ch_partitions = Nemesis.partitions nem;
    ch_partitions_healed = Nemesis.partitions_healed nem;
    ch_storms = Nemesis.storms nem;
    ch_faults = Nemesis.faults_injected nem;
    ch_dropped = sys.Systems.dropped_messages ();
    ch_recovery_ms = recovery;
    ch_unrecovered = !unrecovered;
    ch_anomalies = r.anomalies;
    ch_invariant_failures = List.rev l.invariant_failures;
    ch_trace = Nemesis.trace_to_string nem;
    ch_lin = r.lin;
    ch_history_events = r.history_events;
    ch_snap = sys.Systems.snapshot_stats ();
    ch_wire = sys.Systems.wire_stats ();
    ch_reconfig = sys.Systems.reconfig_stats ();
    ch_reconfig_kills = Nemesis.reconfig_kills nem;
  }

(* ------------------------------------------------------------------ *)
(* Elastic membership: 3 -> 5 -> 3 autoscaling under chaos             *)
(* ------------------------------------------------------------------ *)

type membership_point = {
  mp_kind : Systems.kind;
  mp_seed : int;
  mp_ops_ok : int;
  mp_ops_maybe : int;
  mp_ops_failed : int;
  mp_errors : (string * int) list;
  mp_members_final : int list;
  mp_grow_ms : float list;  (** add_replica -> stable config, per join *)
  mp_shrink_ms : float list;  (** remove accepted -> stable config *)
  mp_reconfig : Edc_replication.Zab.reconfig_stats;
  mp_reconfig_kills : int;
  mp_crashes : int;
  mp_leader_kills : int;
  mp_steady_ops_s : float;  (** pre-reconfiguration write throughput *)
  mp_trough_ops_s : float;  (** worst bucket during the elastic phase *)
  mp_recovery_s : float list;
      (** per reconfiguration event: time until bucket throughput is back
          to >= 90% of steady state *)
  mp_unrecovered : int;
  mp_counter_confirmed : int;
  mp_counter_maybe : int;
  mp_counter_final : int;
  mp_anomalies : int;
  mp_invariant_failures : string list;
  mp_lin : (string * Ck_wgl.verdict) list;
  mp_history_events : int;
  mp_trace : string;
  mp_snap : Systems.snapshot_stats;
}

(** The autoscaling scenario: a 3-replica ensemble under a diurnal write
    curve grows to 5 (each joiner bootstrapped as a learner via chunked
    snapshot transfer) and shrinks back to 3, while a reconfiguration-
    targeted nemesis kills the leader mid-change and the first learner's
    links are cut mid-bootstrap (the transfer must resume, not restart).
    Safety is checked three ways: the replication anomaly counters, the
    counter/queue conservation invariants, and a WGL linearizability pass
    over the full client history spanning every config boundary. *)
let membership_point ?(seed = 42) ?net_config ?(check = true) ?lin_max_steps
    kind =
  let sim = Sim.create ~seed () in
  (* a regional (few-ms) network, not the 100 us LAN: agreement rounds and
     the learner bootstrap must span real time or every race window the
     nemesis aims for closes within a single poll *)
  let net_config =
    match net_config with
    | Some c -> Some c
    | None -> Some { Net.lan_config with Net.base_latency = Sim_time.ms 3 }
  in
  (* a tight snapshot interval + small chunks so a joiner always
     bootstraps through a multi-chunk state transfer *)
  let server_config =
    {
      Edc_zookeeper.Server.default_config with
      Edc_zookeeper.Server.snapshot_interval = 40;
    }
  in
  let zab_config =
    {
      Edc_replication.Zab.default_config with
      Edc_replication.Zab.snapshot_chunk_size = 192;
      snapshot_window = 4;
    }
  in
  let sys =
    Systems.make ?net_config ~zab_config ~server_config kind sim
  in
  let ops_end = Sim_time.sec 21 in
  let grow_ms = ref [] and shrink_ms = ref [] in
  let reconfig_marks = ref [] in  (* initiation times, for recovery windows *)
  let wait_until ?(poll = Sim_time.ms 50) ~timeout pred =
    let wait_deadline = Sim_time.add (Sim.now sim) timeout in
    let rec go () =
      if pred () then true
      else if Sim_time.(wait_deadline <= Sim.now sim) then false
      else begin
        Proc.sleep sim poll;
        go ()
      end
    in
    go ()
  in
  let stable_members n () =
    (not (sys.Systems.reconfig_in_flight ()))
    && List.length (sys.Systems.members ()) = n
  in
  (* diurnal write curve: think time swings 12..28 ms on an 8 s period *)
  let diurnal_sleep () =
    let t = Sim_time.to_float_s (Sim.now sim) in
    let phase = sin (2. *. Float.pi *. t /. 8.) in
    Sim_time.of_float_s (0.012 +. 0.016 *. (1. +. phase) /. 2.)
  in
  (* the autoscaling driver: 3 -> 4 -> 5 -> 4 -> 3 *)
  let driver ~invariant =
    let grow ~cut_bootstrap ~timeout =
      let t0 = Sim.now sim in
      reconfig_marks := t0 :: !reconfig_marks;
      match sys.Systems.add_replica () with
      | Error e ->
          invariant (Printf.sprintf "add_replica accepted (%s)" e) false
      | Ok lid ->
          if cut_bootstrap then
            Proc.spawn sim (fun () ->
                (* isolate the learner once its chunked bootstrap is
                   demonstrably in flight; on heal the transfer must resume
                   from chunk > 0 *)
                let tgt = sys.Systems.nemesis_target () in
                let peers =
                  List.filter (fun n -> n <> lid) (sys.Systems.members ())
                in
                if
                  wait_until ~poll:(Sim_time.ms 2) ~timeout:(Sim_time.sec 4)
                    (fun () ->
                      (sys.Systems.snapshot_stats ()).Systems.ss_chunks_sent
                      >= 3)
                then begin
                  List.iter (fun o -> tgt.Nemesis.cut lid o) peers;
                  Proc.sleep sim (Sim_time.ms 400);
                  List.iter (fun o -> tgt.Nemesis.heal lid o) peers
                end);
          let n = List.length (sys.Systems.members ()) + 1 in
          if wait_until ~timeout (stable_members n) then
            grow_ms :=
              Sim_time.to_float_ms (Sim_time.sub (Sim.now sim) t0) :: !grow_ms
          else
            invariant (Printf.sprintf "grow to %d members completed" n) false
    in
    let shrink ~id ~timeout =
      let t0 = Sim.now sim in
      reconfig_marks := t0 :: !reconfig_marks;
      let accept_deadline = Sim_time.add (Sim.now sim) (Sim_time.sec 6) in
      let rec request () =
        match sys.Systems.remove_replica id with
        | Ok () -> true
        | Error _ ->
            if Sim_time.(accept_deadline <= Sim.now sim) then false
            else begin
              Proc.sleep sim (Sim_time.ms 100);
              request ()
            end
      in
      if not (request ()) then
        invariant (Printf.sprintf "remove_replica %d accepted" id) false
      else
        let n = List.length (sys.Systems.members ()) - 1 in
        if
          wait_until ~timeout (fun () ->
              stable_members n ()
              && not (List.mem id (sys.Systems.members ())))
        then
          shrink_ms :=
            Sim_time.to_float_ms (Sim_time.sub (Sim.now sim) t0) :: !shrink_ms
        else
          invariant (Printf.sprintf "shrink past replica %d completed" id) false
    in
    Proc.sleep sim (Sim_time.sec 4);
    (* join 1: clean of scheduled chaos (the nemesis arms at t=8s), but the
       learner's links are cut mid-bootstrap *)
    grow ~cut_bootstrap:true ~timeout:(Sim_time.sec 8);
    (* join 2 lands inside the nemesis window: the leader dies within
       120 ms of the change getting underway *)
    Proc.sleep sim (Sim_time.sec 4);
    grow ~cut_bootstrap:false ~timeout:(Sim_time.sec 10);
    Proc.sleep sim (Sim_time.ms 500);
    (* scale back down under the same fire *)
    shrink ~id:4 ~timeout:(Sim_time.sec 10);
    shrink ~id:3 ~timeout:(Sim_time.sec 10)
  in
  (* the only scheduled chaos: from t=8s, strike the leader within 120 ms
     whenever a reconfiguration is in flight; one producer and one
     consumer so the history spans two object types across every config
     boundary *)
  let r =
    run_chaos ~sys ~check ?lin_max_steps
      ~schedule:
        [
          {
            Nemesis.start = Sim_time.sec 8;
            period = Some (Sim_time.ms 1200);
            action =
              Nemesis.Reconfig_kill
                { grace = Sim_time.ms 120; downtime = Sim_time.ms 1200 };
          };
        ]
      ~horizon:(Sim_time.sec 16) ~ops_end ~incrementers:3 ~producers:1
      ~consumers:1 ~think:diurnal_sleep ~driver ()
  in
  let l = r.l and nem = r.nem in
  let snap = sys.Systems.snapshot_stats () in
  let reconfig = sys.Systems.reconfig_stats () in
  let members_final = sys.Systems.members () in
  invariant l "membership returned to the original three"
    (members_final = [ 0; 1; 2 ]);
  invariant l "both joins completed"
    (reconfig.Edc_replication.Zab.joins_completed >= 2);
  invariant l "both leaves completed"
    (reconfig.Edc_replication.Zab.leaves_completed >= 2);
  invariant l "interrupted learner bootstrap resumed from chunk > 0"
    (snap.Systems.ss_last_resume_from > 0);
  (* throughput: 500 ms buckets; steady state = the pre-reconfiguration
     plateau; recovery = time from each reconfiguration event until a
     bucket is back to >= 90% of steady *)
  let bucket = 0.5 in
  let n_buckets =
    int_of_float (ceil (Sim_time.to_float_s ops_end /. bucket))
  in
  let rates = Array.make (Stdlib.max n_buckets 1) 0. in
  List.iter
    (fun ts ->
      let i = int_of_float (Sim_time.to_float_s ts /. bucket) in
      if i >= 0 && i < Array.length rates then
        rates.(i) <- rates.(i) +. (1. /. bucket))
    l.success_times;
  let mean_over lo hi =
    let sum = ref 0. and n = ref 0 in
    Array.iteri
      (fun i r ->
        let start = float_of_int i *. bucket in
        if start >= lo && start < hi then begin
          sum := !sum +. r;
          incr n
        end)
      rates;
    if !n = 0 then 0. else !sum /. float_of_int !n
  in
  let steady = mean_over 1.0 4.0 in
  let events =
    List.rev_map Sim_time.to_float_s !reconfig_marks
    @ List.filter_map
        (fun { Nemesis.at; fault } ->
          match fault with
          | Nemesis.Reconfig_fault _ -> Some (Sim_time.to_float_s at)
          | _ -> None)
        (Nemesis.trace nem)
  in
  let recovery_s = ref [] and unrecovered = ref 0 in
  List.iter
    (fun te ->
      let rec scan i =
        if i >= Array.length rates then incr unrecovered
        else
          let start = float_of_int i *. bucket in
          if start +. bucket <= te then scan (i + 1)
          else if rates.(i) >= 0.9 *. steady then
            recovery_s := Float.max 0. (start +. bucket -. te) :: !recovery_s
          else scan (i + 1)
      in
      scan 0)
    events;
  let trough =
    let m = ref infinity in
    Array.iteri
      (fun i r ->
        let start = float_of_int i *. bucket in
        if start >= 4.0 && start +. bucket <= Sim_time.to_float_s ops_end then
          m := Float.min !m r)
      rates;
    if !m = infinity then 0. else !m
  in
  {
    mp_kind = kind;
    mp_seed = seed;
    mp_ops_ok = l.ok;
    mp_ops_maybe = l.maybe;
    mp_ops_failed = l.failed;
    mp_errors = r.errors;
    mp_members_final = members_final;
    mp_grow_ms = List.rev !grow_ms;
    mp_shrink_ms = List.rev !shrink_ms;
    mp_reconfig = reconfig;
    mp_reconfig_kills = Nemesis.reconfig_kills nem;
    mp_crashes = Nemesis.crashes nem;
    mp_leader_kills = Nemesis.leader_kills nem;
    mp_steady_ops_s = steady;
    mp_trough_ops_s = trough;
    mp_recovery_s = List.rev !recovery_s;
    mp_unrecovered = !unrecovered;
    mp_counter_confirmed = l.incr_confirmed;
    mp_counter_maybe = l.incr_maybe;
    mp_counter_final = l.counter_final;
    mp_anomalies = r.anomalies;
    mp_invariant_failures = List.rev l.invariant_failures;
    mp_lin = r.lin;
    mp_history_events = r.history_events;
    mp_trace = Nemesis.trace_to_string nem;
    mp_snap = snap;
  }

(* ------------------------------------------------------------------ *)
(* §6i: the scale-free read path — observer scaling, lease economics,  *)
(* and the stale-read detector self-test                               *)
(* ------------------------------------------------------------------ *)

module Zk = Edc_zookeeper
module Ck_freshness = Edc_checker.Freshness

type read_scaling_point = {
  rp_observers : int;
  rp_clients : int;
  rp_reads : int;  (** completed inside the measure window *)
  rp_throughput : float;  (** reads per second *)
  rp_mean_ms : float;
  rp_p99_ms : float;
  rp_observer_reads : int;  (** reads served by observer replicas *)
  rp_invariant_failures : string list;
}

(** Read throughput of a fixed 3-voter ensemble as permanent observers
    are attached.  [read_cost] is raised well above the LAN round trip so
    the replicas' serial read CPU — the resource observers multiply — is
    the bottleneck; clients are allocated after the observers bootstrap
    and round-robin across the whole deployment.  Write quorums, election
    quorums and lease quorums stay at 2-of-3 throughout: the observers
    only widen the read plane. *)
let read_scaling_point ?(seed = 42) ?net_config ?(read_cost = Sim_time.us 200)
    ~warmup ~measure ~observers n_clients =
  let sim = Sim.create ~seed () in
  let server_config = { Zk.Server.default_config with Zk.Server.read_cost } in
  let cluster =
    Zk.Cluster.create ~n_replicas:3 ?net_config ~server_config sim
  in
  let reads = ref 0 in
  let lat = Stats.Series.create () in
  let invariant_failures = ref [] in
  let invariant name cond =
    if not cond then invariant_failures := name :: !invariant_failures
  in
  let failure = ref None in
  Proc.spawn sim (fun () ->
      try
        let admin = Zk.Cluster.connected_client ~replica:0 cluster () in
        (match Zk.Client.create_node admin "/obj" (String.make 64 'x') with
        | Ok _ -> ()
        | Error e -> failwith ("setup: " ^ Zk.Zerror.to_string e));
        let obs_ids =
          List.init observers (fun _ -> Zk.Cluster.add_observer cluster)
        in
        (* let the chunked bootstraps land before attaching load *)
        Proc.sleep sim (Sim_time.ms 800);
        let servers = Zk.Cluster.servers cluster in
        List.iter
          (fun oid ->
            invariant
              (Printf.sprintf "observer %d applied the commit stream" oid)
              (Zk.Server.txns_applied servers.(oid) > 0))
          obs_ids;
        let window_start = Sim_time.add (Sim.now sim) warmup in
        let window_end = Sim_time.add window_start measure in
        for _ = 1 to n_clients do
          Proc.spawn sim (fun () ->
              let c = Zk.Cluster.connected_client cluster () in
              let rec loop () =
                if Sim_time.(Sim.now sim < window_end) then begin
                  let t0 = Sim.now sim in
                  (match Zk.Client.get_data c "/obj" with
                  | Ok _ ->
                      let t1 = Sim.now sim in
                      if
                        Sim_time.(window_start <= t0)
                        && Sim_time.(t1 <= window_end)
                      then begin
                        incr reads;
                        Stats.Series.add lat
                          (Sim_time.to_float_ms (Sim_time.sub t1 t0))
                      end
                  | Error _ -> ());
                  loop ()
                end
              in
              loop ())
        done
      with e -> failure := Some e);
  Sim.run
    ~until:(Sim_time.add (Sim_time.add warmup measure) (Sim_time.sec 3))
    sim;
  (match !failure with Some e -> raise e | None -> ());
  let servers = Zk.Cluster.servers cluster in
  let obs_reads = ref 0 in
  Array.iteri
    (fun i s ->
      if i >= 3 then begin
        obs_reads := !obs_reads + Zk.Server.reads_served s;
        let z = Zk.Server.zab s in
        invariant
          (Printf.sprintf "observer %d is marked observer" i)
          (Edc_replication.Zab.is_observer z);
        invariant
          (Printf.sprintf "observer %d stayed out of the voter set" i)
          (not (List.mem i (Edc_replication.Zab.members z)));
        invariant
          (Printf.sprintf "observer %d never led" i)
          (not (Zk.Server.is_leader s));
        invariant
          (Printf.sprintf "observer %d served reads" i)
          (Zk.Server.reads_served s > 0)
      end)
    servers;
  {
    rp_observers = observers;
    rp_clients = n_clients;
    rp_reads = !reads;
    rp_throughput = float_of_int !reads /. Sim_time.to_float_s measure;
    rp_mean_ms = Stats.Series.mean lat;
    rp_p99_ms = Stats.Series.p99 lat;
    rp_observer_reads = !obs_reads;
    rp_invariant_failures = List.rev !invariant_failures;
  }

type lease_cost_point = {
  lc_leases : bool;
  lc_reads : int;  (** leader-accounted linearizable reads in the window *)
  lc_lease_reads : int;  (** of which lease-served (window delta) *)
  lc_quorum_reads : int;  (** of which commit-path fallbacks *)
  lc_mean_ms : float;
  lc_p99_ms : float;
  lc_bytes_per_read : float;
      (** server-to-server coordination bytes per linearizable read
          (proposals, acks, commits, heartbeats, lease grants): the cost
          the lease removes.  Client request/response bytes are excluded
          — identical in both modes. *)
  lc_invariant_failures : string list;
}

(** The economics of the lease fast path: the same linearizable-read
    workload with leases on (every read served locally at the leader under
    a majority lease) versus off ([lease_duration = 0], so every read is
    ordered through the commit path as a quiet no-op).  Compared on
    coordination bytes per read and latency. *)
let lease_cost_point ?(seed = 42) ?net_config ~warmup ~measure ~leases () =
  let sim = Sim.create ~seed () in
  let server_config =
    { Zk.Server.default_config with Zk.Server.linearizable_reads = true }
  in
  let zab_config =
    if leases then Edc_replication.Zab.default_config
    else
      {
        Edc_replication.Zab.default_config with
        Edc_replication.Zab.lease_duration = Sim_time.zero;
      }
  in
  let cluster =
    Zk.Cluster.create ~n_replicas:3 ?net_config ~server_config ~zab_config sim
  in
  let net = Zk.Cluster.net cluster in
  (* Server-to-server bytes only: everything servers received minus what
     clients sent (clients only ever address servers), leaving proposals,
     acks, commits, heartbeats and lease grants — the coordination plane.
     Client requests and responses are identical in both modes and would
     dilute the comparison. *)
  let server_bytes () =
    let sent =
      Net.bytes_sent_by net 0 + Net.bytes_sent_by net 1
      + Net.bytes_sent_by net 2
    and recv =
      Net.bytes_received_by net 0 + Net.bytes_received_by net 1
      + Net.bytes_received_by net 2
    in
    recv - (Net.total_bytes_sent net - sent)
  in
  let lease_quorum () =
    Array.fold_left
      (fun (l, q) s -> (l + Zk.Server.lease_reads s, q + Zk.Server.quorum_reads s))
      (0, 0) (Zk.Cluster.servers cluster)
  in
  let lat = Stats.Series.create () in
  let marks = ref None in  (* (bytes0, lease0, quorum0, bytes1, lease1, quorum1) *)
  let invariant_failures = ref [] in
  let invariant name cond =
    if not cond then invariant_failures := name :: !invariant_failures
  in
  let failure = ref None in
  Proc.spawn sim (fun () ->
      try
        let admin = Zk.Cluster.connected_client ~replica:0 cluster () in
        (match Zk.Client.create_node admin "/obj" (String.make 64 'x') with
        | Ok _ -> ()
        | Error e -> failwith ("setup: " ^ Zk.Zerror.to_string e));
        let window_start = Sim_time.add (Sim.now sim) warmup in
        let window_end = Sim_time.add window_start measure in
        (* bracket the window with byte/counter snapshots *)
        Proc.spawn sim (fun () ->
            Proc.sleep sim (Sim_time.sub window_start (Sim.now sim));
            let b0 = server_bytes () and l0, q0 = lease_quorum () in
            Proc.sleep sim measure;
            let b1 = server_bytes () and l1, q1 = lease_quorum () in
            marks := Some (b0, l0, q0, b1, l1, q1));
        for _ = 1 to 4 do
          Proc.spawn sim (fun () ->
              let c = Zk.Cluster.connected_client cluster () in
              let rec loop () =
                if Sim_time.(Sim.now sim < window_end) then begin
                  let t0 = Sim.now sim in
                  (match Zk.Client.get_data c "/obj" with
                  | Ok _ ->
                      let t1 = Sim.now sim in
                      if
                        Sim_time.(window_start <= t0)
                        && Sim_time.(t1 <= window_end)
                      then
                        Stats.Series.add lat
                          (Sim_time.to_float_ms (Sim_time.sub t1 t0))
                  | Error _ -> ());
                  loop ()
                end
              in
              loop ())
        done
      with e -> failure := Some e);
  Sim.run
    ~until:(Sim_time.add (Sim_time.add warmup measure) (Sim_time.sec 3))
    sim;
  (match !failure with Some e -> raise e | None -> ());
  let b0, l0, q0, b1, l1, q1 =
    match !marks with Some m -> m | None -> failwith "window never closed"
  in
  let lease_reads = l1 - l0 and quorum_reads = q1 - q0 in
  let reads = lease_reads + quorum_reads in
  if leases then begin
    invariant "lease mode: reads were lease-served" (lease_reads > 0);
    invariant "lease mode: no read fell back to the commit path"
      (quorum_reads = 0)
  end
  else begin
    invariant "quorum mode: reads took the commit path" (quorum_reads > 0);
    invariant "quorum mode: no lease read possible" (lease_reads = 0)
  end;
  {
    lc_leases = leases;
    lc_reads = reads;
    lc_lease_reads = lease_reads;
    lc_quorum_reads = quorum_reads;
    lc_mean_ms = Stats.Series.mean lat;
    lc_p99_ms = Stats.Series.p99 lat;
    lc_bytes_per_read =
      (if reads = 0 then 0. else float_of_int (b1 - b0) /. float_of_int reads);
    lc_invariant_failures = List.rev !invariant_failures;
  }

type stale_read_point = {
  sr_seed : int;
  sr_unsafe : bool;
  sr_violations : int;  (** real-time freshness convictions *)
  sr_witnesses : string list;  (** first few, pretty-printed *)
  sr_reads_ok : int;
  sr_reads_refused : int;
      (** reads the deposed leader refused (timed out on the dead commit
          path) instead of serving stale *)
  sr_writes_ok : int;
  sr_clock_skews : int;
  sr_partitions : int;
  sr_lease_reads : int;  (** lease-served reads at the initial leader *)
  sr_trace : string;
}

(** The stale-read detector's conviction scenario (§6i): a reader pinned
    to the initial leader while a clock-skew + partition nemesis isolates
    that leader mid-lease and a writer fails over to the new majority's
    leader.  With the safe default the deposed leader's lease expires
    (2ε early) before the new leader can commit anything, so post-expiry
    reads are refused — they fall back to a commit path that cannot
    commit — and {!Edc_checker.Freshness.check_realtime} finds nothing.
    With [unsafe:true] ([unsafe_ignore_lease_expiry]) the deposed leader
    keeps serving its stale tree and the detector must convict. *)
let stale_read_point ?(seed = 42) ?net_config ~unsafe () =
  let sim = Sim.create ~seed () in
  let server_config =
    { Zk.Server.default_config with Zk.Server.linearizable_reads = true }
  in
  let zab_config =
    {
      Edc_replication.Zab.default_config with
      Edc_replication.Zab.unsafe_ignore_lease_expiry = unsafe;
    }
  in
  let cluster =
    Zk.Cluster.create ~n_replicas:3 ?net_config ~server_config ~zab_config sim
  in
  let target =
    Zk.Cluster.nemesis_target cluster ~name:"zookeeper"
      ~crash:(Zk.Cluster.crash_server cluster)
      ~restart:(Zk.Cluster.restart_server cluster)
  in
  (* drifts stay inside the protocol's ±ε bound (10 ms): the safe run must
     survive them, which is exactly the 2ε margin's job *)
  let schedule =
    [
      {
        Nemesis.start = Sim_time.ms 200;
        period = Some (Sim_time.ms 900);
        action =
          Nemesis.Clock_skew
            {
              duration = Sim_time.ms 250;
              victim = Nemesis.Any_replica;
              skew = Sim_time.ms 8;
            };
      };
      {
        Nemesis.start = Sim_time.ms 650;
        period = Some (Sim_time.ms 900);
        action =
          Nemesis.Clock_skew
            {
              duration = Sim_time.ms 250;
              victim = Nemesis.Any_replica;
              skew = Sim_time.ms (-8);
            };
      };
      (* the kill shot: isolate the initial leader mid-lease *)
      {
        Nemesis.start = Sim_time.sec 1;
        period = None;
        action =
          Nemesis.Isolate
            {
              duration = Sim_time.sec 4;
              victim = Nemesis.Node 0;
              asymmetric = false;
            };
      };
    ]
  in
  let history = Ck_history.create ~sim () in
  let ops_end = Sim_time.sec 6 in
  let reads_ok = ref 0 and reads_refused = ref 0 and writes_ok = ref 0 in
  let nemesis = ref None in
  let failure = ref None in
  Proc.spawn sim (fun () ->
      try
        let admin = Zk.Cluster.connected_client ~replica:1 cluster () in
        (match Zk.Client.create_node admin "/ctr" "0" with
        | Ok _ -> ()
        | Error e -> failwith ("setup: " ^ Zk.Zerror.to_string e));
        nemesis :=
          Some (Nemesis.start ~sim ~target ~horizon:ops_end schedule);
        (* reader pinned to the initial leader; a short timeout so refused
           lease reads surface as errors rather than stalls *)
        Proc.spawn sim (fun () ->
            let c =
              Zk.Cluster.connected_client
                ~config:
                  {
                    Zk.Client.request_timeout = Sim_time.ms 300;
                    ping_interval = Sim_time.ms 500;
                  }
                ~replica:0 cluster ()
            in
            let rec loop () =
              if Sim_time.(Sim.now sim < ops_end) then begin
                let id =
                  Ck_history.invoke history ~client:0 Ck_history.Ctr_read
                in
                (match Zk.Client.get_data c "/ctr" with
                | Ok (data, stat) ->
                    incr reads_ok;
                    Ck_history.ok history id
                      (Ck_history.R_obj
                         { data; version = stat.Zk.Znode.version })
                | Error e ->
                    incr reads_refused;
                    Ck_history.fail history id (Zk.Zerror.to_string e));
                Proc.sleep sim (Sim_time.ms 25);
                loop ()
              end
            in
            loop ());
        (* writer on a resilient session over the survivors: after the
           partition it lands on the new majority's leader *)
        Proc.spawn sim (fun () ->
            let c =
              Zk.Cluster.connected_client
                ~config:
                  {
                    Zk.Client.request_timeout = Sim_time.ms 500;
                    ping_interval = Sim_time.ms 500;
                  }
                ~replica:1 cluster ()
            in
            let s = Zk.Session.wrap ~sim ~replicas:[ 1; 2 ] c in
            let i = ref 0 in
            let rec loop () =
              if Sim_time.(Sim.now sim < ops_end) then begin
                incr i;
                let v = !i in
                let id = Ck_history.invoke history ~client:1 Ck_history.Incr in
                (match
                   Zk.Session.call s
                     ~op:(Zk.Session.Write { idempotent = true })
                     (fun c -> Zk.Client.set_data c "/ctr" (string_of_int v))
                 with
                | Ok _ ->
                    incr writes_ok;
                    Ck_history.ok history id (Ck_history.R_int v)
                | Error e ->
                    Ck_history.fail history id (Zk.Zerror.to_string e));
                Proc.sleep sim (Sim_time.ms 40);
                loop ()
              end
            in
            loop ())
      with e -> failure := Some e);
  Sim.run ~until:(Sim_time.add ops_end (Sim_time.sec 3)) sim;
  (match !failure with Some e -> raise e | None -> ());
  let nem = Option.get !nemesis in
  let violations = Ck_freshness.check_realtime (Ck_history.entries history) in
  {
    sr_seed = seed;
    sr_unsafe = unsafe;
    sr_violations = List.length violations;
    sr_witnesses =
      List.filteri (fun i _ -> i < 3) violations
      |> List.map (fun v -> Fmt.str "%a" Ck_freshness.pp_violation v);
    sr_reads_ok = !reads_ok;
    sr_reads_refused = !reads_refused;
    sr_writes_ok = !writes_ok;
    sr_clock_skews = Nemesis.clock_skews nem;
    sr_partitions = Nemesis.partitions nem;
    sr_lease_reads = Zk.Server.lease_reads (Zk.Cluster.servers cluster).(0);
    sr_trace = Nemesis.trace_to_string nem;
  }
