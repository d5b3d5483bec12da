(** The paper's evaluation experiments (§6): one function per figure, each
    running a fresh deterministic simulation per (system, client-count)
    point and returning what the figure plots. *)

open Edc_simnet

val default_client_counts : int list
val paired_client_counts : int list

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

(** Figure 6: shared counter under contention.  [batch] configures
    replication group commit (off when omitted). *)
val counter_point :
  ?seed:int ->
  ?net_config:Net.config ->
  ?batch:Edc_replication.Batching.config ->
  warmup:Sim_time.t ->
  measure:Sim_time.t ->
  Systems.kind ->
  int ->
  point

(** Figure 8: distributed queue (add + remove per iteration). *)
val queue_point :
  ?seed:int ->
  ?net_config:Net.config ->
  ?batch:Edc_replication.Batching.config ->
  warmup:Sim_time.t ->
  measure:Sim_time.t ->
  Systems.kind ->
  int ->
  point

(** Figure 10: distributed barrier (round-based; [latency_ms] = avg per
    enter, [kb_per_op] over measured rounds). *)
val barrier_point :
  ?seed:int ->
  ?net_config:Net.config ->
  ?rounds:int ->
  ?warmup_rounds:int ->
  Systems.kind ->
  int ->
  point

(** Figure 12: leader election ([throughput] = leader changes/s,
    [latency_ms] = signaling latency). *)
val election_point :
  ?seed:int ->
  ?net_config:Net.config ->
  warmup:Sim_time.t ->
  measure:Sim_time.t ->
  Systems.kind ->
  int ->
  point

(** Figure 13: queue extension load vs regular clients. *)
type fig13_point = {
  f13_kind : Systems.kind;
  f13_queue_clients : int;
  f13_queue_throughput : float;
  f13_read_ms : float;
  f13_write_ms : float;
}

val fig13_point :
  ?seed:int ->
  ?net_config:Net.config ->
  warmup:Sim_time.t ->
  measure:Sim_time.t ->
  Systems.kind ->
  int ->
  fig13_point

(** §6.2: regular-operation latency with extensibility installed but not
    triggered. *)
type overhead_point = {
  oh_kind : Systems.kind;
  oh_read_ms : float;
  oh_write_ms : float;
}

val overhead_point :
  ?seed:int ->
  ?net_config:Net.config ->
  warmup:Sim_time.t ->
  measure:Sim_time.t ->
  Systems.kind ->
  overhead_point

(** Healthy-cluster linearizability of the blocking recipes, captured at
    recipe granularity: leadership acquire/release checked against the
    mutex sequential model, barrier rounds against the real-time gate
    property. *)
type lin_point = {
  lp_kind : Systems.kind;
  lp_seed : int;
  lp_events : int;
  lp_lock : Edc_checker.Wgl.verdict;
  lp_barrier : (unit, string) result;
}

val lin_recipes_point :
  ?seed:int ->
  ?contenders:int ->
  ?rounds:int ->
  ?barrier_clients:int ->
  ?barrier_rounds:int ->
  ?lin_max_steps:int ->
  Systems.kind ->
  lin_point

(** Availability under fault injection: counter + queue recipes on
    resilient sessions while a {!Edc_simnet.Nemesis} runs [schedule] until
    [horizon]; final state is read back and checked against what clients
    were told (see the fault model in DESIGN.md). *)
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
  ch_trace : string;  (** equal seeds produce equal traces *)
  ch_lin : (string * Edc_checker.Wgl.verdict) list;
      (** per-object linearizability verdicts over the history captured
          by {!Edc_checker.Instrument} (empty with [~check:false]): the
          recorded counter and queue operations, including the final
          state reads, must admit a legal sequential ordering *)
  ch_history_events : int;
  ch_snap : Systems.snapshot_stats;
      (** snapshot/state-transfer activity during the run (zeros for the
          BFT deployments) *)
  ch_wire : Systems.wire_stats;
      (** serializer work during the run: frames encoded vs per-destination
          sends — the gap is the encode-once broadcast saving (zeros for
          the BFT deployments) *)
  ch_reconfig : Edc_replication.Zab.reconfig_stats;
      (** membership-change activity aggregated over the replicas (see
          {!Systems.t.reconfig_stats}); all-zero unless the run
          reconfigures *)
  ch_reconfig_kills : int;
      (** leader kills the nemesis timed against an in-flight reconfig *)
}

(** [check] (default [true]) wraps every chaos client in the
    history-capturing instrument and runs a WGL linearizability search
    per object after the run.  [zab_config] and [server_config] reach
    the Zab deployments only — the mutation self-test uses the former to
    re-enable a known-bad behaviour and assert the checker notices; the
    snapshot tests use the latter to tighten the snapshot interval so
    crash recovery goes through the chunked state transfer. *)
val chaos_point :
  ?seed:int ->
  ?net_config:Net.config ->
  ?zab_config:Edc_replication.Zab.config ->
  ?server_config:Edc_zookeeper.Server.config ->
  ?schedule:Nemesis.schedule ->
  ?horizon:Sim_time.t ->
  ?check:bool ->
  ?lin_max_steps:int ->
  Systems.kind ->
  chaos_point

(** Elastic membership under chaos: a 3-replica ensemble grows to 5 and
    shrinks back to 3 through the joint-consensus log path while clients
    drive a diurnal write curve.  The first joiner's links are cut while
    its chunked snapshot bootstrap is in flight (the transfer must resume
    from a nonzero chunk); from t=8s a reconfiguration-targeted nemesis
    kills the leader within 120 ms of any in-flight config change. *)
type membership_point = {
  mp_kind : Systems.kind;
  mp_seed : int;
  mp_ops_ok : int;
  mp_ops_maybe : int;
  mp_ops_failed : int;
  mp_errors : (string * int) list;
  mp_members_final : int list;
  mp_grow_ms : float list;
      (** add_replica call -> stable grown config, per join *)
  mp_shrink_ms : float list;  (** removal requested -> stable config *)
  mp_reconfig : Edc_replication.Zab.reconfig_stats;
  mp_reconfig_kills : int;
  mp_crashes : int;
  mp_leader_kills : int;
  mp_steady_ops_s : float;  (** write throughput before any reconfig *)
  mp_trough_ops_s : float;  (** worst 500 ms bucket of the elastic phase *)
  mp_recovery_s : float list;
      (** per reconfiguration event: time until bucket throughput is back
          to >= 90% of steady state *)
  mp_unrecovered : int;
  mp_counter_confirmed : int;
  mp_counter_maybe : int;
  mp_counter_final : int;
  mp_anomalies : int;
  mp_invariant_failures : string list;  (** empty = all invariants intact *)
  mp_lin : (string * Edc_checker.Wgl.verdict) list;
      (** per-object WGL verdicts over the full history, which spans
          every configuration boundary *)
  mp_history_events : int;
  mp_trace : string;  (** equal seeds produce equal traces *)
  mp_snap : Systems.snapshot_stats;
}

(** Meaningful for the Zab deployments (ZooKeeper/EZK); the static BFT
    deployments fail the [add_replica accepted] invariant immediately. *)
val membership_point :
  ?seed:int ->
  ?net_config:Net.config ->
  ?check:bool ->
  ?lin_max_steps:int ->
  Systems.kind ->
  membership_point

(** {2 The scale-free read path (§6i)} *)

(** Observer scaling: read throughput of a fixed 3-voter ensemble with
    [observers] permanent non-voting replicas attached.  [read_cost]
    (default 200 µs) keeps the replicas' serial read CPU the bottleneck,
    so throughput should grow near-linearly with the number of
    read-serving replicas while every quorum stays 2-of-3. *)
type read_scaling_point = {
  rp_observers : int;
  rp_clients : int;
  rp_reads : int;  (** completed inside the measure window *)
  rp_throughput : float;  (** reads per second *)
  rp_mean_ms : float;
  rp_p99_ms : float;
  rp_observer_reads : int;  (** reads served by observer replicas *)
  rp_invariant_failures : string list;
      (** empty = every observer bootstrapped, applied the commit stream,
          served reads, and stayed out of the voter set *)
}

val read_scaling_point :
  ?seed:int ->
  ?net_config:Net.config ->
  ?read_cost:Sim_time.t ->
  warmup:Sim_time.t ->
  measure:Sim_time.t ->
  observers:int ->
  int ->
  read_scaling_point

(** Lease economics: the same linearizable-read workload with leases on
    (reads served locally at the leader under a majority lease) versus
    off (every read ordered through the commit path as a quiet no-op),
    compared on coordination bytes per read and latency. *)
type lease_cost_point = {
  lc_leases : bool;
  lc_reads : int;  (** leader-accounted linearizable reads in the window *)
  lc_lease_reads : int;
  lc_quorum_reads : int;
  lc_mean_ms : float;
  lc_p99_ms : float;
  lc_bytes_per_read : float;
      (** server-to-server coordination bytes per read (client
          request/response traffic excluded) *)
  lc_invariant_failures : string list;
}

val lease_cost_point :
  ?seed:int ->
  ?net_config:Net.config ->
  warmup:Sim_time.t ->
  measure:Sim_time.t ->
  leases:bool ->
  unit ->
  lease_cost_point

(** The stale-read detector's self-test scenario: a reader pinned to the
    initial leader while a clock-skew + partition nemesis isolates that
    leader mid-lease and a writer fails over to the new majority.  With
    the safe default, post-expiry reads at the deposed leader are refused
    and the detector must find nothing; with [unsafe:true]
    ([Zab.config.unsafe_ignore_lease_expiry]) the deposed leader keeps
    serving its stale tree and the detector must convict. *)
type stale_read_point = {
  sr_seed : int;
  sr_unsafe : bool;
  sr_violations : int;  (** real-time freshness convictions *)
  sr_witnesses : string list;  (** first few, pretty-printed *)
  sr_reads_ok : int;
  sr_reads_refused : int;
      (** reads the deposed leader refused instead of serving stale *)
  sr_writes_ok : int;
  sr_clock_skews : int;
  sr_partitions : int;
  sr_lease_reads : int;  (** lease-served reads at the initial leader *)
  sr_trace : string;  (** equal seeds produce equal traces *)
}

val stale_read_point :
  ?seed:int ->
  ?net_config:Net.config ->
  unsafe:bool ->
  unit ->
  stale_read_point
