(** Zab-like primary-backup atomic broadcast.

    Reproduces the replication substrate that ZooKeeper (and therefore the
    paper's EZK) runs on: a single primary orders all state transactions,
    disseminates them to backups, commits on a majority quorum, and backups
    apply the committed prefix in order (Junqueira et al., "Zab:
    High-performance broadcast for primary-backup systems", DSN '11).

    For leader recovery we use a vote-based election (a la Raft): a replica
    that stops hearing the leader's heartbeats becomes a candidate for the
    next epoch; voters grant at most one vote per epoch and only to
    candidates whose log is at least as up to date as theirs, which
    guarantees the winner holds every committed transaction.  The winner
    then synchronizes followers by shipping its log suffix.  This differs
    from ZooKeeper's Fast Leader Election in mechanism but provides the
    same guarantee the paper relies on (committed state survives primary
    failure, cf. §3.8), which is what our fault-tolerance experiments
    exercise.

    Membership is dynamic: the member set itself is replicated through the
    log using joint consensus (Raft §6 / ZooKeeper reconfig).  A change
    from [c_old] to [c_new] is proposed as a [Cc_joint] entry; from the
    moment that entry is *appended*, commits and elections require
    majorities of BOTH sets, so no decision can be made by [c_old] alone or
    [c_new] alone — the two-quorum overlap is what makes the transition
    safe under leader failure.  Once the joint entry commits, the leader
    proposes the [Cc_final] entry that collapses membership to [c_new].
    New replicas join as non-voting learners: they are bootstrapped with
    the chunked snapshot transfer plus log sync and only enter a config
    (gaining a vote) once caught up.  Replicas outside the config are
    fenced: voters ignore their campaigns and the leader tells them to
    stand down, so a deposed member can never win an election (and the
    deployment uses {!is_fenced} to refuse serving reads).

    The module is transport-agnostic: the deployment supplies a [send]
    function and feeds incoming messages to {!handle}.  All timers run on
    the shared simulator. *)

open Edc_simnet

type zxid = { epoch : int; counter : int }

let zxid_zero = { epoch = 0; counter = 0 }

let zxid_compare a b =
  match Int.compare a.epoch b.epoch with
  | 0 -> Int.compare a.counter b.counter
  | c -> c

let zxid_geq a b = zxid_compare a b >= 0

let pp_zxid ppf z = Fmt.pf ppf "%d.%d" z.epoch z.counter

(* ------------------------------------------------------------------ *)
(* Membership                                                          *)
(* ------------------------------------------------------------------ *)

type member_set = int list

type membership =
  | Stable of member_set
  | Joint of { c_old : member_set; c_new : member_set }

type config_change =
  | Cc_joint of { c_old : member_set; c_new : member_set }
  | Cc_final of { members : member_set }

let pp_member_set ppf m = Fmt.pf ppf "{%a}" Fmt.(list ~sep:comma int) m

let pp_membership ppf = function
  | Stable m -> pp_member_set ppf m
  | Joint { c_old; c_new } ->
      Fmt.pf ppf "joint(%a->%a)" pp_member_set c_old pp_member_set c_new

let pp_config_change ppf = function
  | Cc_joint { c_old; c_new } ->
      Fmt.pf ppf "joint(%a->%a)" pp_member_set c_old pp_member_set c_new
  | Cc_final { members } -> Fmt.pf ppf "final(%a)" pp_member_set members

type 'p payload = App of 'p | Config of config_change

type 'p entry = { zxid : zxid; payload : 'p payload }

type 'p msg =
  | Ping of { epoch : int; committed : int; sent : Sim_time.t }
      (** leader heartbeat; also carries the commit horizon so idle
          followers still learn about commits.  [sent] is the leader's
          local (possibly skewed) clock reading at transmission time: the
          lease grant echoes it back, so the leader can anchor the lease
          expiry at its own send time — the only anchor that is provably
          on the follower's side of the promise under bounded clock
          error (see {!Lease_grant}). *)
  | Propose of {
      epoch : int;
      index : int;
      prev_zxid : zxid;  (** zxid of the leader's entry at [index - 1] *)
      entries : 'p entry list;
    }
      (** a group-committed batch of consecutive entries starting at
          absolute index [index]; each entry carries its own zxid.
          [prev_zxid] is the log-matching check (Raft's AppendEntries
          rule): a follower whose entry at [index - 1] differs holds a
          divergent tail and must re-sync instead of acking *)
  | Ack of { epoch : int; upto : int }
      (** cumulative: the follower durably holds the log prefix of length
          [upto] (FIFO links make per-entry acks redundant) *)
  | Commit of { epoch : int; index : int }
  | Request_vote of { epoch : int; candidate : int; last_zxid : zxid }
  | Vote of { epoch : int }
  | Sync_request of { epoch : int; have : int }
      (** follower asks the leader for entries from index [have] *)
  | Sync of { epoch : int; from : int; entries : 'p entry list; committed : int }
  | Snapshot_begin of {
      epoch : int;
      base : int;  (** the snapshot covers entries [0, base) *)
      total : int;  (** blob size in bytes *)
      chunk_size : int;
      digest : string;  (** of the whole blob; guards chunk-resume *)
      committed : int;
      config : membership;
          (** membership in effect at [base]: config entries below the
              compaction horizon live only here, so a bootstrapping
              learner can reconstruct the member set *)
    }
      (** opens a chunked state transfer to a follower that lags behind the
          leader's log-compaction horizon (ZooKeeper's snapshot + txn-log
          recovery).  The blob itself follows in [Snapshot_chunk]s under
          flow control; the retained log suffix is fetched afterwards via
          the ordinary [Sync_request]/[Sync] path. *)
  | Snapshot_chunk of { epoch : int; base : int; seq : int; data : string }
      (** chunk [seq] (0-based) of the snapshot blob for horizon [base] *)
  | Snapshot_ack of { epoch : int; base : int; received : int }
      (** cumulative: the follower holds the contiguous chunk prefix
          [0, received).  A duplicate ack (no progress since the last one)
          doubles as a retransmit solicit after drops or a partition heal —
          the leader resumes from [received], never from chunk 0. *)
  | Join_request of { epoch : int; id : int }
      (** learner handshake: a non-member asks the leader to adopt it as a
          non-voting learner and bootstrap it (snapshot + log sync);
          re-broadcast on silence, so it survives leader changes and
          crash/restart of a half-bootstrapped learner *)
  | Fence of { epoch : int }
      (** leader to a replica outside the config: stand down.  The
          recipient stops campaigning and stops serving reads; it unfences
          only if a later config readmits it. *)
  | Lease_grant of { epoch : int; sent : Sim_time.t }
      (** a voter's answer to a [Ping]: "I promise not to grant any vote
          for the next [lease_duration] on my clock".  [sent] echoes the
          ping's send timestamp; the leader treats the grant as live until
          [sent + lease_duration - 2ε] on its OWN clock — anchoring at the
          grant's receive time would be unsound, since message delay can
          push a receive-anchored expiry past the end of the follower's
          promise. *)
  | Observer_request of { epoch : int; id : int }
      (** observer handshake: a permanent non-voting replica asks the
          leader to feed it the commit stream (bootstrap via snapshot +
          log sync, same as a learner) — but unlike [Join_request] it
          never leads to promotion; re-broadcast on silence so it
          survives leader changes *)

type role = Leader | Follower | Candidate

let pp_role ppf = function
  | Leader -> Fmt.string ppf "leader"
  | Follower -> Fmt.string ppf "follower"
  | Candidate -> Fmt.string ppf "candidate"

type config = {
  heartbeat_interval : Sim_time.t;
  election_timeout : Sim_time.t;
      (** base timeout; each replica adds [id * election_stagger] so that
          timeouts are staggered deterministically *)
  election_stagger : Sim_time.t;
  batch : Batching.config;
      (** leader-side group commit: proposals accumulated while the
          previous batch syncs ride the next one.  The default closes a
          batch (at most 32 entries) when the current virtual instant
          ends, so proposals made at one instant share one [Propose];
          [Batching.off] proposes each entry alone, synchronously. *)
  unsafe_skip_log_matching : bool;
      (** TEST ONLY: disable the follower-side log-matching checks below,
          resurrecting the divergent-tail double-apply bug for the
          linearizability checker's mutation self-test *)
  unsafe_single_step_reconfig : bool;
      (** TEST ONLY: apply a [Cc_joint] entry as [Stable c_new] the moment
          it is appended — the classic one-step reconfiguration bug.
          During the transition a majority of [c_old] and a majority of
          [c_new] can be disjoint, so two leaders can commit independently
          and committed entries are lost.  Used to prove the checker and
          the regression tests convict exactly this. *)
  snapshot_chunk_size : int;
      (** state transfer streams the snapshot blob in pieces of this many
          bytes (counted by the deployment's [wire_size]) *)
  snapshot_window : int;
      (** chunks the leader keeps in flight beyond the follower's
          cumulative ack *)
  lease_duration : Sim_time.t;
      (** leader-lease length [D].  Voters answering a heartbeat promise
          not to grant votes (or campaign) for [D] on their local clock;
          the leader holding live grants from a majority serves
          linearizable reads locally.  Must stay below
          [election_timeout], so a promise never outlives the silence
          that triggers elections and availability is unaffected.
          [Sim_time.zero] disables leases entirely. *)
  clock_skew_bound : Sim_time.t;
      (** ε: the assumed bound on any replica's virtual-clock offset from
          real time.  The leader subtracts 2ε from every grant (its own
          clock may read up to ε late at expiry while the follower's read
          up to ε early at the promise), so lease reads stay linearizable
          for any skew within ±ε; skew beyond the bound voids the
          safety argument (which is what the clock-skew nemesis probes) *)
  unsafe_ignore_lease_expiry : bool;
      (** TEST ONLY: the leader treats every grant it ever received as
          live forever, so a deposed leader keeps serving "linearizable"
          reads from stale state.  Exists to prove the checker's
          stale-read detector convicts exactly this; never enable outside
          tests. *)
}

let default_config =
  {
    heartbeat_interval = Sim_time.ms 50;
    election_timeout = Sim_time.ms 200;
    election_stagger = Sim_time.ms 40;
    batch = Batching.group_commit ();
    unsafe_skip_log_matching = false;
    unsafe_single_step_reconfig = false;
    snapshot_chunk_size = 8192;
    snapshot_window = 8;
    lease_duration = Sim_time.ms 120;
    clock_skew_bound = Sim_time.ms 10;
    unsafe_ignore_lease_expiry = false;
  }

type lease_stats = {
  mutable grants_sent : int;  (** follower: promises made (Lease_grants sent) *)
  mutable grants_received : int;  (** leader: grants accepted from voters *)
  mutable reads_held : int;  (** leader: {!can_serve_lease_read} said yes *)
  mutable reads_expired : int;
      (** leader: {!can_serve_lease_read} said no (expired/never acquired) *)
  mutable vote_refusals : int;
      (** votes (or own campaigns) refused because a promise was
          outstanding *)
}

type reconfig_stats = {
  mutable joins_requested : int;
      (** leader: distinct learners adopted after a [Join_request] *)
  mutable joint_proposed : int;  (** leader: [Cc_joint] entries proposed *)
  mutable joint_commits : int;  (** [Cc_joint] entries committed (delivered) *)
  mutable finals_committed : int;  (** [Cc_final] entries committed *)
  mutable joins_completed : int;
      (** members that entered the stable config via a committed final *)
  mutable leaves_requested : int;  (** leader: [remove_server] accepted *)
  mutable leaves_completed : int;
      (** members that left the stable config via a committed final *)
  mutable aborted : int;
      (** joint entries truncated away uncommitted (a new leader that never
          saw the joint entry rewrote the tail) *)
  mutable fences : int;  (** times this replica was fenced *)
  mutable catchup_ms : float list;
      (** leader: per-promoted-learner bootstrap time, newest first — from
          [Join_request] adoption to the ack that proved it caught up *)
}

type 'p t = {
  sim : Sim.t;
  id : int;
  send : dst:int -> 'p msg -> unit;
  send_many : dsts:int list -> 'p msg -> unit;
      (** one message value to many peers; the TCP transport encodes it
          once (encode-once broadcast) *)
  on_deliver : zxid -> 'p -> unit;
  mutable on_role_change : role -> unit;
  config : config;
  (* --- persistent state (survives crash/restart) --- *)
  log : 'p entry Vec.t;  (** entries [base, base + Vec.length log) *)
  mutable base : int;  (** log-compaction horizon: absolute index of log.(0) *)
  mutable last_compacted_zxid : zxid;
  mutable snap_take : (unit -> string) option;
      (** lazy serializer for the app snapshot covering [0, base): captured
          (cheaply) at compaction time, forced only when a state transfer
          actually needs the bytes *)
  mutable snap_cache : (int * string) option;
      (** (base, blob): the forced serialization, reused until the next
          compaction moves the horizon *)
  mutable install_snapshot : (string -> (unit, string) result) option;
  mutable current_epoch : int;
  mutable voted_epoch : int;  (** highest epoch we granted a vote in *)
  mutable committed : int;  (** length of the committed log prefix *)
  mutable verified : int;
      (** length of the log prefix known to match the current epoch's
          leader.  Entries above it may be a divergent uncommitted tail
          from a deposed leader, so acks and commit advancement are both
          clamped to it; grafts and matching proposals extend it.  Resets
          to [committed] (always consistent, by the election rule) when a
          new epoch is adopted.  Invariant: committed <= verified <=
          abs_len. *)
  mutable base_config : membership;
      (** membership in effect just below [base]: the fold of every config
          entry that was compacted away, starting from the creation-time
          member set (persistent, moves only at compaction/installation) *)
  mutable members : membership;
      (** membership per this replica's log: [base_config] folded over the
          retained config entries.  Configs take effect at APPEND time
          (Raft §6), so this can run ahead of the committed prefix. *)
  mutable config_index : int;
      (** absolute index of the entry that set [members]; [base - 1] when
          no retained entry did (i.e. [members = base_config]) *)
  mutable last_stable : member_set;
      (** the last committed stable config (for join/leave accounting) *)
  mutable fenced : bool;
      (** outside the config per the leader (or a committed final): don't
          campaign, don't serve reads.  Persists across crash/restart;
          cleared if a config readmits us. *)
  created_learner : bool;
  created_observer : bool;
      (** permanent non-voting member: consumes the commit stream and
          serves sequentially-consistent reads, never promoted, never in
          any quorum or election *)
  mutable joining : bool;
      (** we are a learner still working toward a vote: keep broadcasting
          [Join_request] on silence until a committed final admits us *)
  mutable finalized : bool;
      (** a committed final admitted us at least once (always true for
          replicas created as members) *)
  (* --- volatile state --- *)
  mutable role : role;
  mutable leader_hint : int option;
  mutable alive : bool;
  mutable generation : int;  (** invalidates timers across crash/restart *)
  mutable votes : int list;  (** voters for us in [current_epoch] *)
  mutable next_counter : int;  (** leader: next zxid counter to assign *)
  match_len : (int, int) Hashtbl.t;
      (** leader: per-follower acked prefix length in [current_epoch] *)
  mutable learners : int list;
      (** leader: adopted non-voting learners (receive the replication
          stream, excluded from quorums); volatile — learners re-adopt
          themselves at the next leader via [Join_request] *)
  mutable observers : int list;
      (** leader: adopted observers — like learners they receive the full
          replication stream and count toward no quorum, but they are
          never promoted; volatile, observers re-announce via
          [Observer_request] *)
  mutable clock_skew : Sim_time.t;
      (** offset of this replica's virtual clock from simulated real time
          (nemesis-settable, may be negative).  Skew affects only local
          clock READINGS — lease promises and expiries — never the
          simulator's timer scheduling. *)
  mutable lease_promise_until : Sim_time.t;
      (** voter: end (on the LOCAL clock) of the no-vote promise made
          with the latest lease grant; never shrinks *)
  lease_grants : (int, Sim_time.t) Hashtbl.t;
      (** leader: per-voter expiry (on the leader's LOCAL clock) of the
          latest grant: ping-send time + lease_duration - 2ε *)
  lease : lease_stats;
  mutable pending_joins : (int * Sim_time.t) list;
      (** leader: learners awaiting promotion, with adoption time *)
  mutable pending_joint : bool;  (** leader: a [Cc_joint] sits in the batcher *)
  mutable pending_final : bool;  (** leader: a [Cc_final] sits in the batcher *)
  mutable batcher : (zxid * 'p payload) Batching.t option;
      (** set right after create *)
  mutable delivered : int;  (** length of the prefix passed to on_deliver *)
  mutable last_leader_contact : Sim_time.t;
  xfers : (int, xfer) Hashtbl.t;
      (** leader: per-follower in-flight snapshot transfer (volatile) *)
  mutable pending_snap : pending_snap option;
      (** follower: partially received snapshot (volatile; chunks are
          buffered in memory and only installed once complete) *)
  mutable stats : xfer_stats;
  reconfig : reconfig_stats;
}

(** Leader-side transfer state for one follower. *)
and xfer = {
  x_base : int;
  x_total : int;
  x_chunks : int;
  mutable x_acked : int;  (** cumulative ack: follower holds [0, x_acked) *)
  mutable x_sent : int;  (** high-water chunk sent so far *)
  mutable x_retx_after : Sim_time.t;
      (** earliest time the next duplicate-ack rewind is honoured: damps
          redundant solicits (ping re-acks, [Snapshot_begin] acks) that
          would otherwise each rewind and retransmit the same window *)
  mutable x_activity : Sim_time.t;
      (** last time the follower acked anything on this transfer: an
          active transfer pins the compaction horizon (see [compact]), so
          a follower that went silent past the TTL is abandoned rather
          than allowed to pin the log forever *)
}

(** Follower-side partial transfer: the contiguous chunk prefix received. *)
and pending_snap = {
  ps_base : int;
  ps_total : int;
  ps_chunks : int;
  ps_digest : string;
  ps_config : membership;  (** membership at [ps_base], from [Snapshot_begin] *)
  ps_buf : Buffer.t;
  mutable ps_received : int;
}

and xfer_stats = {
  mutable serializations : int;
      (** times the lazy snapshot was actually marshaled *)
  mutable chunks_sent : int;
  mutable chunk_retx : int;  (** chunks re-sent below the high-water mark *)
  mutable bytes_streamed : int;  (** chunk payload bytes put on the wire *)
  mutable transfers_started : int;
  mutable transfers_completed : int;  (** leader saw the final cumulative ack *)
  mutable resumes : int;
      (** transfers continued from a non-zero chunk after drops/heal *)
  mutable last_resume_from : int;
      (** chunk index the latest resume restarted from (0 = none yet) *)
  mutable installs : int;  (** follower: complete blobs handed to the app *)
  mutable install_rejects : int;
      (** follower: assembled blobs the application refused to decode *)
}

let set_union a b = List.sort_uniq compare (a @ b)

let voters t =
  match t.members with
  | Stable m -> m
  | Joint { c_old; c_new } -> set_union c_old c_new

(* [majority s ids]: do [ids] contain a majority of member set [s]? *)
let majority s ids =
  let n = List.length (List.filter (fun x -> List.mem x ids) s) in
  n >= (List.length s / 2) + 1

(* The election/decision quorum under the current membership: a single
   majority when stable, majorities of BOTH sets during a joint phase. *)
let quorum_met t ids =
  match t.members with
  | Stable m -> majority m ids
  | Joint { c_old; c_new } -> majority c_old ids && majority c_new ids

(* absolute log length and indexed access over the compacted log *)
let abs_len t = t.base + Vec.length t.log
let log_get t i = Vec.get t.log (i - t.base)

let last_zxid t =
  match Vec.last_opt t.log with
  | Some e -> e.zxid
  | None -> t.last_compacted_zxid

let is_leader t = t.role = Leader
let role t = t.role
let leader_hint t = t.leader_hint
let epoch t = t.current_epoch
let log_length t = abs_len t
let committed_length t = t.committed
let compaction_base t = t.base

let set_install_snapshot t f = t.install_snapshot <- Some f
let xfer_stats t = t.stats
let delivered_length t = t.delivered
let members t = voters t
let membership t = t.members
let learners t = t.learners
let is_fenced t = t.fenced
let reconfig_stats t = t.reconfig
let is_observer t = t.created_observer
let observers t = t.observers
let lease_stats t = t.lease

(* ------------------------------------------------------------------ *)
(* Leader leases                                                       *)
(* ------------------------------------------------------------------ *)

(* The replica's virtual clock: simulated real time plus a (nemesis-
   settable) offset.  Everything lease-related reads THIS clock, never
   [Sim.now] directly, so clock-skew faults hit exactly the code whose
   correctness depends on the ε assumption. *)
let local_now t = Sim_time.add (Sim.now t.sim) t.clock_skew
let set_clock_skew t d = t.clock_skew <- d
let clock_skew t = t.clock_skew
let leases_on t = Sim_time.compare t.config.lease_duration Sim_time.zero > 0

(* A voter that promised (by granting a lease) must not help elect a new
   leader — or campaign itself — until the promise runs out on its own
   clock.  Both majorities (lease grants counted by the old leader, votes
   counted by a candidate) draw from the voter set, so they intersect in
   at least one voter whose promise proves the old leader's lease expired
   before the new leader could commit anything. *)
let lease_promise_outstanding t =
  leases_on t
  && Sim_time.compare (local_now t) t.lease_promise_until < 0

(* Is [v]'s grant still live on the leader's clock?  The grant expires at
   [ping_sent + D - 2ε]: the follower's promise holds until at least
   [ping_sent + D] in real time minus its own skew (≤ ε), and our clock
   may read up to ε ahead, hence the 2ε margin.  The leader always counts
   itself (it cannot vote against itself while it believes it leads). *)
let grant_live t v =
  v = t.id
  ||
  match Hashtbl.find_opt t.lease_grants v with
  | None -> false
  | Some expiry ->
      t.config.unsafe_ignore_lease_expiry
      || Sim_time.compare (local_now t) expiry < 0

(* The lease mirrors the commit rule: a majority of the stable set, or —
   during a joint phase — majorities of BOTH sets (the intersection rule:
   a new leader elected under either configuration must overlap the set
   that promised us the lease). *)
let lease_valid t =
  t.alive && t.role = Leader && leases_on t
  &&
  let live = List.filter (grant_live t) (voters t) in
  match t.members with
  | Stable m -> majority m live
  | Joint { c_old; c_new } -> majority c_old live && majority c_new live

(* [can_serve_lease_read t]: the deployment's fast-path gate, with
   accounting.  False means the read must fall back to the commit path
   (quorum round trip through the log). *)
let can_serve_lease_read t =
  let ok = lease_valid t in
  if t.role = Leader && leases_on t then
    if ok then t.lease.reads_held <- t.lease.reads_held + 1
    else t.lease.reads_expired <- t.lease.reads_expired + 1;
  ok

let reconfig_in_flight t =
  t.pending_joint || t.pending_final
  || (match t.members with Joint _ -> true | Stable _ -> false)

(* Force (or reuse) the serialized snapshot for the current horizon.
   Followers that never fall behind never call this, so they never pay the
   serialization cost — compaction only stores the thunk. *)
let snapshot_blob t =
  match t.snap_cache with
  | Some (b, blob) when b = t.base -> blob
  | _ ->
      let blob = match t.snap_take with Some f -> f () | None -> "" in
      t.stats.serializations <- t.stats.serializations + 1;
      t.snap_cache <- Some (t.base, blob);
      blob

let chunk_count ~total ~chunk_size =
  if total = 0 then 0 else ((total - 1) / chunk_size) + 1

(* Stream the next window of chunks to [dst]: everything between the
   high-water mark and [acked + window].  Called on transfer start and on
   every ack, so the window self-clocks off the follower's progress. *)
let send_chunks t ~dst =
  match Hashtbl.find_opt t.xfers dst with
  | None -> ()
  | Some x ->
      let blob = snapshot_blob t in
      let cs = t.config.snapshot_chunk_size in
      let limit = Stdlib.min x.x_chunks (x.x_acked + t.config.snapshot_window) in
      while x.x_sent < limit do
        let seq = x.x_sent in
        let off = seq * cs in
        let len = Stdlib.min cs (x.x_total - off) in
        let data = String.sub blob off len in
        t.stats.chunks_sent <- t.stats.chunks_sent + 1;
        t.stats.bytes_streamed <- t.stats.bytes_streamed + len;
        t.send ~dst
          (Snapshot_chunk { epoch = t.current_epoch; base = x.x_base; seq; data });
        x.x_sent <- seq + 1
      done

(* Open (or re-open after a leader change / recompaction) a chunked state
   transfer to [dst].  [resume_from] carries the follower's cumulative ack
   when known, so a new leader with the same horizon — deterministic
   serialization makes its blob byte-identical, which the digest in
   [Snapshot_begin] lets the follower verify — continues where the old one
   stopped. *)
let begin_snapshot_xfer ?(resume_from = 0) t ~dst =
  let blob = snapshot_blob t in
  let total = String.length blob in
  let cs = t.config.snapshot_chunk_size in
  let chunks = chunk_count ~total ~chunk_size:cs in
  let resume_from = Stdlib.min resume_from chunks in
  (match Hashtbl.find_opt t.xfers dst with
  | Some x when x.x_base = t.base -> ()
  | _ ->
      Hashtbl.replace t.xfers dst
        {
          x_base = t.base;
          x_total = total;
          x_chunks = chunks;
          x_acked = resume_from;
          x_sent = resume_from;
          x_retx_after = Sim.now t.sim;
          x_activity = Sim.now t.sim;
        };
      t.stats.transfers_started <- t.stats.transfers_started + 1);
  Trace.debugf t.sim "zab[%d] snapshot xfer -> %d base=%d chunks=%d resume=%d"
    t.id dst t.base chunks resume_from;
  t.send ~dst
    (Snapshot_begin
       {
         epoch = t.current_epoch;
         base = t.base;
         total;
         chunk_size = cs;
         digest = Digest.string blob;
         committed = t.committed;
         config = t.base_config;
       });
  send_chunks t ~dst

let batcher t =
  match t.batcher with Some b -> b | None -> invalid_arg "zab not wired"

(* Everybody this replica talks to: the voters of its current membership
   view plus (on a leader) the adopted learners and observers, which
   receive the full replication stream without counting toward quorums. *)
let others t =
  List.filter
    (fun p -> p <> t.id)
    (set_union (voters t) (set_union t.learners t.observers))

(* Every broadcast goes through [send_many], so a transport that
   serializes pays one encode per fan-out — Propose/Commit on the hot
   path, and heartbeat [Ping]s, which PR 8's lease widening would
   otherwise re-encode per follower every beat. *)
let broadcast t msg = t.send_many ~dsts:(others t) msg

(* ------------------------------------------------------------------ *)
(* Membership bookkeeping                                              *)
(* ------------------------------------------------------------------ *)

let apply_cc t cc =
  match cc with
  | Cc_joint { c_old; c_new } ->
      if t.config.unsafe_single_step_reconfig then Stable c_new
      else Joint { c_old; c_new }
  | Cc_final { members } -> Stable members

(* React to a membership-view change: a config that readmits us lifts the
   fence; a leader drops learners that just became voters (they keep
   receiving the stream as members). *)
let refresh_membership_flags t =
  let v = voters t in
  if List.mem t.id v && t.fenced then begin
    t.fenced <- false;
    Trace.debugf t.sim "zab[%d] unfenced by config %a" t.id pp_membership
      t.members
  end;
  t.learners <- List.filter (fun l -> not (List.mem l v)) t.learners

(* A config entry was appended at absolute index [idx]: configs take
   effect at APPEND time, not commit time (Raft §6). *)
let note_appended t idx (e : 'p entry) =
  match e.payload with
  | App _ -> ()
  | Config cc ->
      t.members <- apply_cc t cc;
      t.config_index <- idx;
      (match cc with
      | Cc_joint _ -> t.pending_joint <- false
      | Cc_final _ -> t.pending_final <- false);
      Trace.debugf t.sim "zab[%d] config@%d -> %a" t.id idx pp_membership
        t.members;
      refresh_membership_flags t

(* Recompute [members] from scratch after a truncating graft or snapshot
   install: [base_config] folded over the retained config entries.  A
   previously known joint entry that vanished means the reconfiguration it
   started was aborted (its proposer lost leadership before commit). *)
let recompute_membership t =
  let was = t.members and was_idx = t.config_index in
  let m = ref t.base_config and idx = ref (t.base - 1) in
  Vec.iteri
    (fun i e ->
      match e.payload with
      | Config cc ->
          m := apply_cc t cc;
          idx := t.base + i
      | App _ -> ())
    t.log;
  t.members <- !m;
  t.config_index <- !idx;
  (match was with
  | Joint _ when t.config_index < was_idx ->
      t.reconfig.aborted <- t.reconfig.aborted + 1;
      Trace.debugf t.sim "zab[%d] reconfig aborted (joint@%d truncated)" t.id
        was_idx
  | _ -> ());
  refresh_membership_flags t

let set_role t role =
  if t.role <> role then begin
    if t.role = Leader then begin
      Batching.reset (batcher t);
      (* a deposed leader's transfer state is meaningless: the follower
         will re-solicit from whoever leads next *)
      Hashtbl.reset t.xfers;
      (* so is its reconfiguration state: adopted learners re-announce
         themselves to the next leader, and any config entry still in the
         batcher died with the reset above *)
      t.learners <- [];
      t.observers <- [];
      t.pending_joins <- [];
      t.pending_joint <- false;
      t.pending_final <- false;
      (* a deposed leader's grants are dead weight: if it leads again it
         must re-acquire the lease from scratch in the new epoch *)
      Hashtbl.reset t.lease_grants
    end;
    t.role <- role;
    Trace.debugf t.sim "zab[%d] -> %a (epoch %d)" t.id pp_role role
      t.current_epoch;
    t.on_role_change role
  end

(* ------------------------------------------------------------------ *)
(* Delivery and the config state machine                               *)
(* ------------------------------------------------------------------ *)

(* [propose_config], [config_committed] and [maybe_promote] recurse
   through [deliver_ready]: committing a joint entry makes the leader
   propose the final one, and Batching.add can flush synchronously into
   the append/commit path (always with [Batching.off]). *)
let rec deliver_ready t =
  while t.delivered < t.committed do
    let e = log_get t t.delivered in
    t.delivered <- t.delivered + 1;
    match e.payload with
    | App p -> t.on_deliver e.zxid p
    | Config cc -> config_committed t cc
  done

and config_committed t cc =
  match cc with
  | Cc_joint { c_new; _ } ->
      t.reconfig.joint_commits <- t.reconfig.joint_commits + 1;
      (* the joint entry is committed under both majorities: the leader
         finalizes by proposing the entry that collapses to [c_new] *)
      if t.role = Leader && not t.pending_final then begin
        match t.members with
        | Joint _ -> propose_config t (Cc_final { members = c_new })
        | Stable _ -> ()
      end
  | Cc_final { members = m } ->
      t.reconfig.finals_committed <- t.reconfig.finals_committed + 1;
      let joined = List.filter (fun x -> not (List.mem x t.last_stable)) m in
      let left = List.filter (fun x -> not (List.mem x m)) t.last_stable in
      t.reconfig.joins_completed <-
        t.reconfig.joins_completed + List.length joined;
      t.reconfig.leaves_completed <-
        t.reconfig.leaves_completed + List.length left;
      t.last_stable <- m;
      let was_leader = t.role = Leader in
      if List.mem t.id m then begin
        t.fenced <- false;
        t.joining <- false;
        t.finalized <- true
      end
      else begin
        (* removed: fence ourselves.  A leader that removed itself led
           until the final entry committed (Raft §6) and steps down now —
           the Commit broadcast already went out above us on the stack. *)
        if not t.fenced then begin
          t.fenced <- true;
          t.reconfig.fences <- t.reconfig.fences + 1;
          Trace.debugf t.sim "zab[%d] fenced: removed by committed final"
            t.id
        end;
        if t.role <> Follower then set_role t Follower
      end;
      (* Farewell: departed replicas just left the broadcast set, so this
         Commit is the last thing they would ever hear from us — without
         an explicit stand-down they would sit on their joint view and
         campaign forever.  (Lost farewells are repaired by the fence
         echo on their eventual vote refusal.) *)
      if was_leader then
        List.iter
          (fun r ->
            if r <> t.id then
              t.send ~dst:r (Fence { epoch = t.current_epoch }))
          left;
      if t.role = Leader then maybe_promote t

(* Promote at most one caught-up learner at a time: membership changes are
   serialized — the next promotion waits until the previous change's final
   entry committed and delivered. *)
and maybe_promote t =
  if t.role = Leader && not (reconfig_in_flight t) then
    match t.members with
    | Joint _ -> ()
    | Stable m -> (
        let ready =
          List.find_opt
            (fun (jid, _) ->
              (not (List.mem jid m))
              &&
              match Hashtbl.find_opt t.match_len jid with
              | Some n -> n >= t.committed
              | None -> false)
            (List.rev t.pending_joins)
        in
        match ready with
        | None -> ()
        | Some (jid, t0) ->
            t.pending_joins <-
              List.filter (fun (j, _) -> j <> jid) t.pending_joins;
            t.reconfig.catchup_ms <-
              Sim_time.to_float_ms (Sim_time.sub (Sim.now t.sim) t0)
              :: t.reconfig.catchup_ms;
            t.reconfig.joint_proposed <- t.reconfig.joint_proposed + 1;
            Trace.debugf t.sim "zab[%d] promotes learner %d" t.id jid;
            propose_config t
              (Cc_joint { c_old = m; c_new = set_union [ jid ] m }))

(* Config entries ride the ordinary group-commit batcher so zxids stay in
   assignment order relative to concurrent app proposals. *)
and propose_config t cc =
  if t.alive && t.role = Leader then begin
    let zxid = { epoch = t.current_epoch; counter = t.next_counter } in
    t.next_counter <- t.next_counter + 1;
    (match cc with
    | Cc_joint _ -> t.pending_joint <- true
    | Cc_final _ -> t.pending_final <- true);
    Trace.debugf t.sim "zab[%d] proposes config %a" t.id pp_config_change cc;
    Batching.add (batcher t) (zxid, Config cc)
  end

(* ------------------------------------------------------------------ *)
(* Leader side                                                         *)
(* ------------------------------------------------------------------ *)

(* The longest prefix committable by member set [s]: the (majority)-th
   largest acked length among its members (our own log is an implicit
   ack). *)
let commit_target_of_set t s =
  let lens =
    List.map
      (fun p ->
        if p = t.id then abs_len t
        else match Hashtbl.find_opt t.match_len p with Some n -> n | None -> 0)
      s
  in
  let sorted = List.sort (fun a b -> Int.compare b a) lens in
  List.nth sorted ((List.length s / 2) + 1 - 1)

let leader_commit_check t =
  (* Advance the commit horizon to the longest prefix held by a quorum.
     During a joint phase that means a majority of BOTH member sets — the
     defining property of joint consensus. *)
  let target =
    match t.members with
    | Stable m -> commit_target_of_set t m
    | Joint { c_old; c_new } ->
        Stdlib.min (commit_target_of_set t c_old) (commit_target_of_set t c_new)
  in
  if target > t.committed then begin
    t.committed <- target;
    broadcast t (Commit { epoch = t.current_epoch; index = t.committed });
    deliver_ready t
  end

(* Flush callback of the group-commit batcher: append the batch to the
   leader's log as consecutive entries and disseminate it as ONE proposal.
   Replicas apply its entries in order within a single simulation event, so
   a batch is atomic on every replica. *)
let commit_batch t items =
  if t.alive && t.role = Leader then begin
    (* a stale flush can straddle a re-election; drop foreign-epoch items *)
    let items =
      List.filter (fun ((zxid : zxid), _) -> zxid.epoch = t.current_epoch) items
    in
    if items <> [] then begin
      let index = abs_len t in
      let prev_zxid = last_zxid t in
      let entries = List.map (fun (zxid, payload) -> { zxid; payload }) items in
      List.iteri
        (fun i e ->
          Vec.push t.log e;
          note_appended t (index + i) e)
        entries;
      broadcast t
        (Propose { epoch = t.current_epoch; index; prev_zxid; entries });
      (* A single-replica ensemble commits immediately. *)
      leader_commit_check t
    end
  end

(** [propose t payload] — leader only — assigns the next zxid and hands the
    payload to the group-commit batcher.  With the default batcher it is
    appended and disseminated when the current virtual instant ends,
    together with every other proposal of that instant; with
    [Batching.off], synchronously, exactly as without a batcher.  Returns
    the assigned zxid, or [None] if this replica is not the leader. *)
let propose t payload =
  if (not t.alive) || t.role <> Leader then None
  else begin
    let zxid = { epoch = t.current_epoch; counter = t.next_counter } in
    t.next_counter <- t.next_counter + 1;
    Batching.add (batcher t) (zxid, App payload);
    Some zxid
  end

(** [remove_server t ~id] — leader only — starts the joint-consensus
    removal of [id] from the stable config.  At most one reconfiguration
    runs at a time. *)
let remove_server t ~id =
  if (not t.alive) || t.role <> Leader then Error "not leader"
  else if reconfig_in_flight t then Error "reconfiguration already in flight"
  else
    match t.members with
    | Joint _ -> Error "reconfiguration already in flight"
    | Stable m ->
        if not (List.mem id m) then Error "not a member"
        else if List.length m <= 1 then Error "cannot remove the last member"
        else begin
          t.reconfig.leaves_requested <- t.reconfig.leaves_requested + 1;
          t.reconfig.joint_proposed <- t.reconfig.joint_proposed + 1;
          propose_config t
            (Cc_joint { c_old = m; c_new = List.filter (fun x -> x <> id) m });
          Ok ()
        end

let reconfigure t ~c_new =
  let c_new = List.sort_uniq Int.compare c_new in
  if (not t.alive) || t.role <> Leader then Error "not leader"
  else if reconfig_in_flight t then Error "reconfiguration already in flight"
  else
    match t.members with
    | Joint _ -> Error "reconfiguration already in flight"
    | Stable m ->
        if c_new = [] then Error "empty member set"
        else if c_new = m then Error "no change"
        else begin
          let joins = List.filter (fun x -> not (List.mem x m)) c_new in
          let leaves = List.filter (fun x -> not (List.mem x c_new)) m in
          t.reconfig.joins_requested <-
            t.reconfig.joins_requested + List.length joins;
          t.reconfig.leaves_requested <-
            t.reconfig.leaves_requested + List.length leaves;
          t.reconfig.joint_proposed <- t.reconfig.joint_proposed + 1;
          propose_config t (Cc_joint { c_old = m; c_new });
          Ok ()
        end

(* ------------------------------------------------------------------ *)
(* Election                                                            *)
(* ------------------------------------------------------------------ *)

let become_leader t =
  set_role t Leader;
  t.leader_hint <- Some t.id;
  t.next_counter <- 0;
  t.verified <- abs_len t;
  Hashtbl.reset t.match_len;
  Hashtbl.reset t.xfers;
  Hashtbl.reset t.lease_grants;
  t.learners <- [];
  t.observers <- [];
  t.pending_joins <- [];
  t.pending_joint <- false;
  t.pending_final <- false;
  (* Synchronize followers: ship the retained log suffix.  A follower whose
     own state does not reach our compaction horizon answers the Sync with
     a [Sync_request { have < base }] (or a [Snapshot_ack] if it holds a
     partial transfer from the deposed leader), which opens — or resumes —
     a chunked state transfer.  Followers that kept up never see snapshot
     traffic at all. *)
  broadcast t
    (Sync
       {
         epoch = t.current_epoch;
         from = t.base;
         entries = Vec.to_list t.log;
         committed = t.committed;
       });
  broadcast t
    (Ping
       { epoch = t.current_epoch; committed = t.committed; sent = local_now t });
  (* An inherited joint phase is now our job to finish.  If its entry is
     already delivered, the commit-time trigger fired on the old leader
     (or on us as a follower, uselessly): re-propose the final entry.
     Otherwise [config_committed] fires when it commits under us. *)
  match t.members with
  | Joint { c_new; _ } when t.config_index < t.delivered ->
      propose_config t (Cc_final { members = c_new })
  | _ -> ()

let start_election t =
  t.current_epoch <- t.current_epoch + 1;
  t.voted_epoch <- t.current_epoch;
  t.votes <- [ t.id ];
  t.leader_hint <- None;
  set_role t Candidate;
  Trace.debugf t.sim "zab[%d] starts election for epoch %d" t.id
    t.current_epoch;
  broadcast t
    (Request_vote
       { epoch = t.current_epoch; candidate = t.id; last_zxid = last_zxid t });
  (* A single-replica ensemble (or one whose quorum is just us) elects
     itself immediately. *)
  if quorum_met t t.votes then become_leader t

(* ------------------------------------------------------------------ *)
(* Message handling                                                    *)
(* ------------------------------------------------------------------ *)

let note_leader t ~src ~epoch =
  if epoch > t.current_epoch then begin
    t.current_epoch <- epoch;
    set_role t Follower
  end;
  if epoch = t.current_epoch then begin
    if t.role <> Follower then set_role t Follower;
    (* replication traffic from the current leader proves we are inside
       its world — leaders address only voters and adopted learners — so
       any fence we carry is stale (e.g. from a deposed minority leader
       that had not seen the config that readmitted us) *)
    if t.fenced then begin
      t.fenced <- false;
      Trace.debugf t.sim "zab[%d] unfenced by leader %d contact" t.id src
    end;
    t.leader_hint <- Some src;
    t.last_leader_contact <- Sim.now t.sim
  end

let follower_commit t upto =
  (* Never commit past the verified prefix: entries above it may be a
     divergent tail that merely occupies the same indices as what the
     leader actually committed. *)
  let upto = Stdlib.min upto t.verified in
  if upto > t.committed then begin
    t.committed <- upto;
    deliver_ready t
  end

(* Graft a leader-shipped suffix starting at absolute index [from] onto our
   (possibly compacted) log, then cumulatively ack the prefix we now hold. *)
let graft_entries t ~src ~epoch ~from entries =
  (if from >= t.base then begin
     Vec.replace_from t.log (from - t.base) entries;
     t.verified <- abs_len t;
     recompute_membership t;
     t.send ~dst:src (Ack { epoch; upto = abs_len t })
   end
   else begin
     (* the shipped suffix starts before our own compaction horizon: drop
        what we already snapshotted *)
     let drop = t.base - from in
     if List.length entries >= drop then begin
       let keep = List.filteri (fun i _ -> i >= drop) entries in
       Vec.replace_from t.log 0 keep;
       t.verified <- abs_len t;
       recompute_membership t;
       t.send ~dst:src (Ack { epoch; upto = abs_len t })
     end
   end)

let epoch_of_msg = function
  | Ping { epoch; _ }
  | Propose { epoch; _ }
  | Ack { epoch; _ }
  | Commit { epoch; _ }
  | Request_vote { epoch; _ }
  | Vote { epoch }
  | Sync_request { epoch; _ }
  | Sync { epoch; _ }
  | Snapshot_begin { epoch; _ }
  | Snapshot_chunk { epoch; _ }
  | Snapshot_ack { epoch; _ }
  | Join_request { epoch; _ }
  | Fence { epoch }
  | Lease_grant { epoch; _ }
  | Observer_request { epoch; _ } ->
      epoch

(* Raft's term rule, applied to every message: a higher epoch proves our
   current role is stale, so adopt it and fall back to follower even when
   the message itself is refused (e.g. a vote request from a lagging log).
   Without this, a deposed replica that restarts with a stale log can
   campaign at ever-higher epochs that nobody adopts: the old leader —
   whose uncommitted tail makes it refuse every vote — keeps serving an
   epoch its followers have moved past, the healthy follower's campaign
   epoch never catches the straggler's [voted_epoch], and no election
   converges. *)
let maybe_adopt_epoch t epoch =
  if epoch > t.current_epoch then begin
    t.current_epoch <- epoch;
    t.votes <- [];
    (* the new epoch's leader may hold a different tail: only the
       committed prefix is known consistent *)
    t.verified <- t.committed;
    if t.role <> Follower then begin
      t.leader_hint <- None;
      set_role t Follower
    end
  end

(* Whether a message's epoch participates in the term rule.  A campaign by
   a non-member must not drag the config's epochs upward (that is exactly
   the disruption fencing exists to prevent), and a [Fence] is an order to
   stand down, not evidence about the current leader's epoch. *)
let adopts_epoch t = function
  | Request_vote { candidate; _ } -> List.mem candidate (voters t)
  | Fence _ -> false
  | _ -> true

(* Is [src] inside the leader's world — a voter, an adopted learner, or an
   adopted observer?  Anything else is a deposed/foreign replica and gets
   fenced. *)
let known t src =
  List.mem src (voters t) || List.mem src t.learners
  || List.mem src t.observers

(* [epoch] echoes the epoch the offender used: a removed replica keeps
   bumping its own epoch with every failed campaign, so a fence carrying
   only our (lower) epoch would fail its staleness check and never land. *)
let fence ?(epoch = 0) t ~dst =
  t.send ~dst (Fence { epoch = Stdlib.max t.current_epoch epoch })

let rec handle t ~src msg =
  if t.alive then begin
    if adopts_epoch t msg then maybe_adopt_epoch t (epoch_of_msg msg);
    match msg with
    | Ping { epoch; committed; sent } ->
        if epoch >= t.current_epoch then begin
          note_leader t ~src ~epoch;
          (* Lease grant piggybacks on the heartbeat: record the no-vote
             promise FIRST (on our clock), then echo the leader's send
             timestamp so it can anchor the expiry at its own send time.
             Only voters grant — an observer's promise would be
             meaningless (it never votes) and must not count. *)
          if leases_on t && (not t.fenced) && List.mem t.id (voters t)
          then begin
            t.lease_promise_until <-
              Sim_time.max t.lease_promise_until
                (Sim_time.add (local_now t) t.config.lease_duration);
            t.lease.grants_sent <- t.lease.grants_sent + 1;
            t.send ~dst:src (Lease_grant { epoch; sent })
          end;
          follower_commit t committed;
          if committed > t.verified then
            match t.pending_snap with
            | Some ps ->
                (* mid-transfer and the stream stalled (drops, partition):
                   re-issue the cumulative ack so the leader resumes from
                   the last contiguous chunk instead of starting over *)
                t.send ~dst:src
                  (Snapshot_ack
                     { epoch; base = ps.ps_base; received = ps.ps_received })
            | None ->
                (* the leader has committed past what we know matches its
                   log (e.g. the post-election sync was lost): re-sync from
                   the verified prefix so the graft can repair our tail *)
                t.send ~dst:src (Sync_request { epoch; have = t.verified })
        end
        else if not (List.mem src (voters t)) then
          (* a deposed leader outside our config pings from a dead epoch:
             it can never hear the new epoch through replication (nobody
             sends to it), so tell it to stand down — this is what stops a
             removed ex-leader from serving stale reads forever *)
          fence t ~dst:src
    | Propose { epoch; index = _; _ } when epoch < t.current_epoch ->
        () (* stale leader; drop *)
    | Propose { epoch; index; prev_zxid; entries } ->
        note_leader t ~src ~epoch;
        let len = List.length entries in
        (* Log matching: the entry before the batch, and any entry the
           batch overlaps, must agree with ours.  A mismatch means our
           uncommitted tail came from a deposed leader and the
           post-election sync that should have repaired it was lost. *)
        let prev_matches =
          t.config.unsafe_skip_log_matching
          || index <= t.base || index = 0
          || index > abs_len t
          || (log_get t (index - 1)).zxid = prev_zxid
        in
        let first_matches =
          t.config.unsafe_skip_log_matching
          ||
          match entries with
          | e :: _ when t.base <= index && index < abs_len t ->
              (log_get t index).zxid = e.zxid
          | _ -> true
        in
        if index > abs_len t then
          (* Gap: we missed entries (fresh restart).  Ask for a sync from
             our committed prefix — anything above it may be a divergent
             tail the graft must be allowed to truncate. *)
          t.send ~dst:src (Sync_request { epoch; have = t.committed })
        else if not (prev_matches && first_matches) then
          (* divergent tail: re-sync from the committed prefix, which the
             leader's graft will repair by truncation *)
          t.send ~dst:src (Sync_request { epoch; have = t.committed })
        else if index + len <= abs_len t then begin
          (* Entirely a duplicate (e.g. resent around a sync).  The prev
             and first checks passed, so the batch's span matches; re-ack
             it, but no further — anything above may still diverge. *)
          t.verified <- Stdlib.max t.verified (index + len);
          t.send ~dst:src (Ack { epoch; upto = t.verified })
        end
        else begin
          (* Append the suffix of the batch we are missing, in one event so
             the batch lands atomically.  Within an epoch the leader's log
             is append-only, so overlapping entries are identical and a
             duplicate never truncates what we already hold. *)
          let start = abs_len t in
          let fresh = List.filteri (fun i _ -> index + i >= start) entries in
          List.iteri
            (fun i e ->
              Vec.push t.log e;
              note_appended t (start + i) e)
            fresh;
          t.verified <- abs_len t;
          t.send ~dst:src (Ack { epoch; upto = abs_len t })
        end
    | Ack { epoch; upto } ->
        if t.role = Leader && epoch = t.current_epoch then begin
          if not (known t src) then fence t ~dst:src
          else begin
            let prev =
              match Hashtbl.find_opt t.match_len src with
              | Some n -> n
              | None -> 0
            in
            if upto > prev then begin
              Hashtbl.replace t.match_len src upto;
              leader_commit_check t;
              maybe_promote t
            end
          end
        end
    | Commit { epoch; index } ->
        if epoch = t.current_epoch && t.role = Follower then begin
          t.last_leader_contact <- Sim.now t.sim;
          follower_commit t index
        end
    | Request_vote { epoch; candidate; last_zxid = candidate_last } ->
        if not (List.mem candidate (voters t)) then begin
          (* a replica outside our config can never win here: refuse
             without adopting its epoch, and (as leader, authoritatively)
             order it to stand down *)
          if t.role = Leader then fence t ~epoch ~dst:candidate
        end
        else if
          (* the epoch itself was adopted above; grant at most one vote per
             epoch, and only to a log at least as up to date as ours — and
             never while fenced, so a deposed replica cannot help elect,
             and only if we hold a vote at all (observers and other
             non-members have none to give) *)
          (not t.fenced)
          && List.mem t.id (voters t)
          && epoch = t.current_epoch && epoch > t.voted_epoch
          && zxid_geq candidate_last (last_zxid t)
        then begin
          if lease_promise_outstanding t then begin
            (* the no-vote promise behind a lease grant: refusing here is
               exactly what keeps a still-leased leader's local reads
               linearizable — no new leader can form until the promises
               (and with them, by the 2ε margin, the lease) have run out *)
            t.lease.vote_refusals <- t.lease.vote_refusals + 1;
            Trace.debugf t.sim
              "zab[%d] refuses vote for %d (epoch %d): lease promise held"
              t.id candidate epoch
          end
          else begin
            t.voted_epoch <- epoch;
            t.leader_hint <- None;
            (* Reset the clock so we do not immediately start a competing
               election while the new leader synchronizes. *)
            t.last_leader_contact <- Sim.now t.sim;
            Trace.debugf t.sim "zab[%d] votes for %d (epoch %d)" t.id
              candidate epoch;
            t.send ~dst:candidate (Vote { epoch })
          end
        end
    | Vote { epoch } ->
        if t.role = Candidate && epoch = t.current_epoch then begin
          if not (List.mem src t.votes) then t.votes <- src :: t.votes;
          (* during a joint phase the election needs majorities of BOTH
             member sets (votes from non-members never help: quorum_met
             intersects with the sets) *)
          if quorum_met t t.votes then become_leader t
        end
    | Sync_request { epoch; have } ->
        if t.role = Leader && epoch = t.current_epoch then
          if not (known t src) then fence t ~dst:src
          else
            let have = Stdlib.min have (abs_len t) in
            if have < t.base then
              (* the follower needs entries we compacted away: chunked state
                 transfer (§3.8's recovery path) *)
              begin_snapshot_xfer t ~dst:src
            else
              t.send ~dst:src
                (Sync
                   {
                     epoch;
                     from = have;
                     entries = Vec.sub t.log (have - t.base) (abs_len t - have);
                     committed = t.committed;
                   })
    | Sync { epoch; from; entries; committed } ->
        if epoch >= t.current_epoch then begin
          note_leader t ~src ~epoch;
          (* Replace our log from [from] with the leader's suffix.  The
             election rule guarantees the leader holds every committed
             entry, so truncation never loses committed state. *)
          if from <= abs_len t then begin
            graft_entries t ~src ~epoch ~from entries;
            follower_commit t committed
          end
          else begin
            match t.pending_snap with
            | Some ps when ps.ps_base = from ->
                (* a new leader covers the same horizon as our partial
                   transfer (deterministic serialization makes its blob
                   identical — the next [Snapshot_begin]'s digest checks
                   that): ask it to resume, not restart *)
                t.send ~dst:src
                  (Snapshot_ack { epoch; base = from; received = ps.ps_received })
            | _ -> t.send ~dst:src (Sync_request { epoch; have = t.committed })
          end
        end
    | Snapshot_begin { epoch; base; total; chunk_size; digest; committed; config }
      ->
        if epoch >= t.current_epoch then begin
          note_leader t ~src ~epoch;
          if base <= abs_len t && t.delivered >= base then
            (* our state already covers the snapshot: decline the transfer
               and fetch the retained suffix through the normal path *)
            t.send ~dst:src (Sync_request { epoch; have = t.verified })
          else begin
            (match t.pending_snap with
            | Some ps when ps.ps_base = base && ps.ps_digest = digest ->
                () (* keep the partial prefix: the ack below resumes it *)
            | _ ->
                t.pending_snap <-
                  Some
                    {
                      ps_base = base;
                      ps_total = total;
                      ps_chunks = chunk_count ~total ~chunk_size;
                      ps_digest = digest;
                      ps_config = config;
                      ps_buf = Buffer.create (Stdlib.max total 16);
                      ps_received = 0;
                    });
            follower_commit t committed;
            let ps = Option.get t.pending_snap in
            if ps.ps_received >= ps.ps_chunks then
              finish_snapshot_install t ~src ~epoch
            else if ps.ps_received > 0 then
              (* resuming: tell the (possibly new) leader where we are.  On
                 a fresh transfer the leader already assumes chunk 0 and
                 has the first window in flight — acking here would read as
                 a duplicate ack and trigger a spurious retransmit. *)
              t.send ~dst:src
                (Snapshot_ack { epoch; base; received = ps.ps_received })
          end
        end
    | Snapshot_chunk { epoch; base; seq; data } ->
        if epoch >= t.current_epoch then begin
          note_leader t ~src ~epoch;
          match t.pending_snap with
          | Some ps when ps.ps_base = base ->
              if seq = ps.ps_received then begin
                Buffer.add_string ps.ps_buf data;
                ps.ps_received <- ps.ps_received + 1;
                if ps.ps_received >= ps.ps_chunks then
                  finish_snapshot_install t ~src ~epoch
                else
                  t.send ~dst:src
                    (Snapshot_ack { epoch; base; received = ps.ps_received })
              end
              else if seq > ps.ps_received then
                (* gap: a chunk below [seq] was dropped — the duplicate
                   cumulative ack solicits a retransmit *)
                t.send ~dst:src
                  (Snapshot_ack { epoch; base; received = ps.ps_received })
              (* [seq < ps_received] is a stale duplicate from a window
                 retransmit we already advanced past.  Acking it would hand
                 the leader another duplicate ack and re-trigger the very
                 retransmit that produced it (a self-sustaining storm);
                 staying silent is safe because any genuine stall is broken
                 by the ping-driven re-ack. *)
          | _ -> () (* stale transfer (horizon moved on); drop *)
        end
    | Snapshot_ack { epoch; base; received } ->
        if t.role = Leader && epoch = t.current_epoch then begin
          if not (known t src) then fence t ~dst:src
          else if base <> t.base then
            (* we compacted past the transfer's horizon: restart at the new
               one (the follower drops its stale prefix on Snapshot_begin) *)
            begin_snapshot_xfer t ~dst:src
          else begin
            (match Hashtbl.find_opt t.xfers src with
            | None ->
                (* no transfer state (leader change or restart): adopt the
                   follower's progress and continue from there *)
                t.stats.resumes <- t.stats.resumes + 1;
                t.stats.last_resume_from <-
                  Stdlib.max t.stats.last_resume_from received;
                begin_snapshot_xfer ~resume_from:received t ~dst:src
            | Some x ->
                x.x_activity <- Sim.now t.sim;
                if received > x.x_acked then begin
                  (* forward progress: slide the window.  A jump of more
                     than one chunk means our view of the follower was
                     stale — its acks were lost (cut link, partition) while
                     our chunks got through — and this ack is really the
                     post-heal resume solicitation, so record it as one. *)
                  if received > x.x_acked + 1 then begin
                    t.stats.resumes <- t.stats.resumes + 1;
                    t.stats.last_resume_from <-
                      Stdlib.max t.stats.last_resume_from received;
                    Trace.debugf t.sim
                      "zab[%d] snapshot to %d resumes at chunk %d (acked %d)"
                      t.id src received x.x_acked
                  end;
                  x.x_acked <- received;
                  send_chunks t ~dst:src
                end
                else if
                  Sim_time.compare (Sim.now t.sim) x.x_retx_after >= 0
                  && x.x_sent > received
                then begin
                  (* duplicate ack: chunks past [received] were dropped
                     (link cut, partition).  Rewind the high-water mark and
                     retransmit the window — from [received], not from 0.
                     At most once per heartbeat: several solicits can
                     arrive for the same loss (ping re-acks, gap acks) and
                     honouring each would retransmit the window as many
                     times over. *)
                  t.stats.resumes <- t.stats.resumes + 1;
                  t.stats.last_resume_from <-
                    Stdlib.max t.stats.last_resume_from received;
                  t.stats.chunk_retx <- t.stats.chunk_retx + (x.x_sent - received);
                  x.x_acked <- received;
                  x.x_sent <- received;
                  x.x_retx_after <-
                    Sim_time.add (Sim.now t.sim) t.config.heartbeat_interval;
                  send_chunks t ~dst:src
                end);
            match Hashtbl.find_opt t.xfers src with
            | Some x when x.x_acked >= x.x_chunks ->
                t.stats.transfers_completed <- t.stats.transfers_completed + 1;
                Hashtbl.remove t.xfers src
            | _ -> ()
          end
        end
    | Join_request { epoch = _; id = jid } ->
        if t.role = Leader && jid <> t.id then begin
          if (not (List.mem jid (voters t))) && not (List.mem jid t.learners)
          then begin
            (* adopt as a non-voting learner: it receives the replication
               stream (so its acks track its catch-up) but never counts
               toward a quorum until a committed config admits it *)
            t.learners <- jid :: t.learners;
            t.pending_joins <- (jid, Sim.now t.sim) :: t.pending_joins;
            t.reconfig.joins_requested <- t.reconfig.joins_requested + 1;
            Trace.debugf t.sim "zab[%d] adopts learner %d" t.id jid
          end;
          (* bootstrap (or re-bootstrap after a stall): ship the retained
             log; a learner behind our compaction horizon answers with
             [Sync_request { have < base }], which opens the chunked
             snapshot transfer *)
          t.send ~dst:jid
            (Sync
               {
                 epoch = t.current_epoch;
                 from = t.base;
                 entries = Vec.to_list t.log;
                 committed = t.committed;
               })
        end
    | Lease_grant { epoch; sent } ->
        if
          t.role = Leader && epoch = t.current_epoch
          && List.mem src (voters t)
        then begin
          (* Anchor the expiry at OUR send time of the ping this grant
             echoes: the follower's promise covers at least
             [sent + D] minus its skew in real time, and our clock may
             read up to ε ahead of real time, so [sent + D - 2ε] on our
             clock is provably inside the promise.  (Anchoring at receive
             time would not be: the network delay between send and
             receive has no bound that helps us.) *)
          let expiry =
            Sim_time.sub
              (Sim_time.add sent t.config.lease_duration)
              (Sim_time.scale t.config.clock_skew_bound 2.)
          in
          let prev =
            Option.value ~default:Sim_time.zero
              (Hashtbl.find_opt t.lease_grants src)
          in
          t.lease.grants_received <- t.lease.grants_received + 1;
          Hashtbl.replace t.lease_grants src (Sim_time.max prev expiry)
        end
    | Observer_request { epoch = _; id = oid } ->
        if t.role = Leader && oid <> t.id then begin
          if (not (List.mem oid (voters t))) && not (List.mem oid t.observers)
          then begin
            (* adopt as a permanent non-voting observer: it gets the full
               replication stream (so it can serve sequentially-consistent
               reads from its applied prefix) but — unlike a learner — is
               never queued for promotion and never enters a quorum *)
            t.observers <- oid :: t.observers;
            Trace.debugf t.sim "zab[%d] adopts observer %d" t.id oid
          end;
          (* bootstrap (or re-bootstrap after a stall): same path as a
             learner — ship the retained log; an observer behind our
             compaction horizon answers with [Sync_request { have < base }],
             which opens the chunked snapshot transfer *)
          t.send ~dst:oid
            (Sync
               {
                 epoch = t.current_epoch;
                 from = t.base;
                 entries = Vec.to_list t.log;
                 committed = t.committed;
               })
        end
    | Fence { epoch } ->
        if epoch >= t.current_epoch then
          if t.created_observer then
            (* an observer is outside every config by design, so a fence
               from a new leader that has not adopted it yet is routine:
               re-announce instead of standing down (its reads are only
               sequentially consistent, so serving from the applied prefix
               stays correct) *)
            broadcast t (Observer_request { epoch = t.current_epoch; id = t.id })
          else begin
            if not t.fenced then begin
              t.fenced <- true;
              t.reconfig.fences <- t.reconfig.fences + 1;
              Trace.debugf t.sim "zab[%d] fenced by %d (epoch %d)" t.id src
                epoch
            end;
            t.votes <- [];
            if t.role <> Follower then set_role t Follower;
            (* a learner whose half-finished join was aborted (its joint
               entry died with the old leader) starts the join over *)
            if t.created_learner && not t.finalized then t.joining <- true
          end
  end

(* The whole blob arrived: verify it against the digest from
   [Snapshot_begin], hand it to the application in ONE atomic step, and
   adopt the leader's horizon.  Chunked delivery never exposes a partially
   installed state — the application sees either its old tree or the
   complete new one.  The retained log suffix is fetched afterwards through
   the ordinary sync path. *)
and finish_snapshot_install t ~src ~epoch =
  match t.pending_snap with
  | None -> ()
  | Some ps ->
      let blob = Buffer.contents ps.ps_buf in
      t.pending_snap <- None;
      if Digest.string blob <> ps.ps_digest then
        (* corrupted assembly (should be impossible on FIFO links): restart
           the transfer from scratch *)
        t.send ~dst:src (Sync_request { epoch; have = t.committed })
      else begin
        match
          match t.install_snapshot with Some f -> f blob | None -> Ok ()
        with
        | Error _ ->
            (* the application refused the blob (it failed to decode): our
               state is untouched — reject the snapshot cleanly and ask the
               leader to sync us again instead of dying on bad bytes *)
            t.stats.install_rejects <- t.stats.install_rejects + 1;
            t.send ~dst:src (Sync_request { epoch; have = t.committed })
        | Ok () ->
            t.stats.installs <- t.stats.installs + 1;
            t.base <- ps.ps_base;
            t.delivered <- ps.ps_base;
            t.committed <- ps.ps_base;
            t.verified <- ps.ps_base;
            Vec.clear t.log;
            (* the blob covers every config entry below [base] too: adopt
               the membership the leader snapshotted with it *)
            t.base_config <- ps.ps_config;
            recompute_membership t;
            (* our own snapshot of [0, base) is exactly the blob we
               installed: cache it, so if we lead later we can serve
               transfers without re-serializing *)
            t.snap_take <- Some (fun () -> blob);
            t.snap_cache <- Some (ps.ps_base, blob);
            t.send ~dst:src
              (Snapshot_ack
                 { epoch; base = ps.ps_base; received = ps.ps_chunks });
            (* fetch the retained suffix *)
            t.send ~dst:src (Sync_request { epoch; have = ps.ps_base })
      end

(* ------------------------------------------------------------------ *)
(* Timers                                                              *)
(* ------------------------------------------------------------------ *)

let election_deadline t =
  Sim_time.add t.config.election_timeout
    (Sim_time.scale t.config.election_stagger (float_of_int t.id))

let rec tick t generation () =
  if t.alive && generation = t.generation then begin
    (match t.role with
    | Leader ->
        broadcast t
          (Ping
             {
               epoch = t.current_epoch;
               committed = t.committed;
               sent = local_now t;
             })
    | Follower | Candidate ->
        let silence = Sim_time.sub (Sim.now t.sim) t.last_leader_contact in
        if Sim_time.(election_deadline t <= silence) then begin
          if List.mem t.id (voters t) && not t.fenced then begin
            if lease_promise_outstanding t then
              (* our own campaign counts as a vote for ourselves: a live
                 no-vote promise defers it (retried next tick; the promise
                 is shorter than the election timeout, so this never
                 delays an election that real silence justifies) *)
              t.lease.vote_refusals <- t.lease.vote_refusals + 1
            else begin
              t.last_leader_contact <- Sim.now t.sim;
              start_election t
            end
          end
          else begin
            t.last_leader_contact <- Sim.now t.sim;
            if t.joining then
              (* learners never campaign: they (re-)announce themselves to
                 whoever leads now *)
              broadcast t
                (Join_request { epoch = t.current_epoch; id = t.id })
            else if t.created_observer then
              (* observers re-announce on silence too, so they survive
                 leader changes and find whoever leads now *)
              broadcast t
                (Observer_request { epoch = t.current_epoch; id = t.id })
          end
        end);
    Sim.schedule t.sim ~after:t.config.heartbeat_interval (tick t generation)
  end

(** [start t] begins heartbeats/election timers.  If [t.id] matches
    [initial_leader] given at [create], the replica starts as leader of
    epoch 1 immediately (mirrors a freshly booted ensemble that has already
    elected its first leader, so experiments skip the cold election). *)
let start t =
  t.generation <- t.generation + 1;
  t.last_leader_contact <- Sim.now t.sim;
  Sim.schedule t.sim ~after:Sim_time.zero (tick t t.generation);
  if t.joining then
    (* announce immediately; the tick path re-broadcasts on silence *)
    broadcast t (Join_request { epoch = t.current_epoch; id = t.id })
  else if t.created_observer then
    broadcast t (Observer_request { epoch = t.current_epoch; id = t.id })

let create ?(config = default_config) ?initial_leader ?(learner = false)
    ?(observer = false) ?send_many ~sim ~id ~peers ~send ~on_deliver () =
  let send_many =
    match send_many with
    | Some f -> f
    | None -> fun ~dsts msg -> List.iter (fun dst -> send ~dst msg) dsts
  in
  let peers = List.sort_uniq compare peers in
  let initial_members =
    if learner || observer then List.filter (fun p -> p <> id) peers else peers
  in
  let t =
    {
      sim;
      id;
      send;
      send_many;
      on_deliver;
      on_role_change = (fun _ -> ());
      config;
      log = Vec.create ();
      base = 0;
      last_compacted_zxid = zxid_zero;
      snap_take = None;
      snap_cache = None;
      install_snapshot = None;
      current_epoch = 0;
      voted_epoch = 0;
      committed = 0;
      verified = 0;
      base_config = Stable initial_members;
      members = Stable initial_members;
      config_index = -1;
      last_stable = initial_members;
      fenced = false;
      created_learner = learner;
      created_observer = observer;
      joining = learner;
      finalized = not learner;
      role = Follower;
      leader_hint = None;
      alive = true;
      generation = 0;
      votes = [];
      next_counter = 0;
      match_len = Hashtbl.create 8;
      learners = [];
      observers = [];
      clock_skew = Sim_time.zero;
      lease_promise_until = Sim_time.zero;
      lease_grants = Hashtbl.create 8;
      lease =
        {
          grants_sent = 0;
          grants_received = 0;
          reads_held = 0;
          reads_expired = 0;
          vote_refusals = 0;
        };
      pending_joins = [];
      pending_joint = false;
      pending_final = false;
      batcher = None;
      delivered = 0;
      last_leader_contact = Sim.now sim;
      xfers = Hashtbl.create 4;
      pending_snap = None;
      stats =
        {
          serializations = 0;
          chunks_sent = 0;
          chunk_retx = 0;
          bytes_streamed = 0;
          transfers_started = 0;
          transfers_completed = 0;
          resumes = 0;
          last_resume_from = 0;
          installs = 0;
          install_rejects = 0;
        };
      reconfig =
        {
          joins_requested = 0;
          joint_proposed = 0;
          joint_commits = 0;
          finals_committed = 0;
          joins_completed = 0;
          leaves_requested = 0;
          leaves_completed = 0;
          aborted = 0;
          fences = 0;
          catchup_ms = [];
        };
    }
  in
  t.batcher <-
    Some
      (Batching.create ~sim ~config:config.batch ~flush:(fun items ->
           commit_batch t items));
  (match initial_leader with
  | Some leader ->
      t.current_epoch <- 1;
      t.voted_epoch <- 1;
      t.leader_hint <- Some leader;
      if leader = id then t.role <- Leader
  | None -> ());
  t

let set_on_role_change t f = t.on_role_change <- f

(** [crash t] stops the replica.  Persistent state (log, epoch, committed
    prefix, membership) is retained, modeling ZooKeeper's on-disk
    transaction log. *)
let crash t =
  t.alive <- false;
  t.generation <- t.generation + 1;
  t.role <- Follower;
  t.votes <- [];
  Hashtbl.reset t.match_len;
  (* in-flight transfers are volatile: partially received chunks live in
     memory, so a crashed follower restarts its transfer from scratch
     (resume is for link drops, which lose no local state) *)
  Hashtbl.reset t.xfers;
  t.pending_snap <- None;
  t.learners <- [];
  t.observers <- [];
  (* leader-side grants are volatile; the follower-side no-vote promise
     ([lease_promise_until]) deliberately survives — modeling a promise
     persisted to disk, since forgetting it across a quick crash/restart
     would let us vote inside a window another leader still leases *)
  Hashtbl.reset t.lease_grants;
  t.pending_joins <- [];
  t.pending_joint <- false;
  t.pending_final <- false;
  Batching.reset (batcher t)

(** [restart t] brings a crashed replica back as a follower; it will catch
    up via [Sync_request] when it hears from the current leader. *)
let restart t =
  t.alive <- true;
  t.leader_hint <- None;
  t.verified <- t.committed;
  t.last_leader_contact <- Sim.now t.sim;
  start t;
  if (not t.joining) && not t.created_observer then
    (* Proactively ask whoever leads now for the missing suffix: we cannot
       address them yet, so we ask everyone; non-leaders ignore it.  (A
       still-joining learner already re-announced itself in [start]: a
       [Sync_request] from a non-member would just get it fenced.) *)
    List.iter
      (fun dst ->
        (* ask from the committed prefix: our uncommitted tail may predate
           the crash and diverge from the current leader's log *)
        t.send ~dst
          (Sync_request { epoch = t.current_epoch; have = t.committed }))
      (others t)

(** [compact t ~take] discards the delivered log prefix after capturing an
    application snapshot that covers exactly the delivered entries
    (ZooKeeper's fuzzy-snapshot-plus-log made crisp by the simulator's
    synchronous apply).  [take ()] runs now — it must pin the state at the
    horizon — but only returns a serializer; the encoding work happens the
    first time a state transfer needs the bytes, and the result is cached
    until the next compaction.  A replica that never serves a transfer
    never serializes at all. *)
let compact t ~take =
  (* An in-flight state transfer pins the compaction horizon: the
     follower's partial prefix is only resumable while the blob at
     [t.base] stays the serialization source — moving the base would
     force every interrupted bootstrap to restart from chunk 0.  A
     follower that stopped acking (crashed learner, permanent partition)
     is abandoned after a TTL so one silent peer can't pin the log
     forever. *)
  let xfer_ttl = Sim_time.scale t.config.heartbeat_interval 20. in
  let stale =
    Hashtbl.fold
      (fun dst x acc ->
        if Sim_time.(compare (sub (Sim.now t.sim) x.x_activity) xfer_ttl > 0)
        then dst :: acc
        else acc)
      t.xfers []
  in
  List.iter
    (fun dst ->
      Trace.debugf t.sim "zab[%d] abandons stalled snapshot xfer -> %d" t.id
        dst;
      Hashtbl.remove t.xfers dst)
    stale;
  if t.alive && Hashtbl.length t.xfers = 0 && t.delivered > t.base then begin
    t.snap_take <- Some (take ());
    t.snap_cache <- None;
    t.last_compacted_zxid <- (log_get t (t.delivered - 1)).zxid;
    (* config entries about to be dropped fold into the base config, so
       [members] stays reconstructible from [base_config] + retained log *)
    for i = t.base to t.delivered - 1 do
      match (log_get t i).payload with
      | Config cc -> t.base_config <- apply_cc t cc
      | App _ -> ()
    done;
    let suffix = Vec.sub t.log (t.delivered - t.base) (abs_len t - t.delivered) in
    Vec.replace_from t.log 0 suffix;
    t.base <- t.delivered
  end

(* modelled wire sizes for membership data: ~8 bytes per member id *)
let member_set_size m = 8 * List.length m

let membership_size = function
  | Stable m -> 8 + member_set_size m
  | Joint { c_old; c_new } -> 8 + member_set_size c_old + member_set_size c_new

let config_change_size = function
  | Cc_joint { c_old; c_new } ->
      16 + member_set_size c_old + member_set_size c_new
  | Cc_final { members } -> 16 + member_set_size members

(** [msg_size ~payload_size msg] models the wire size of a protocol
    message: a fixed header plus the payload. *)
let msg_size ~payload_size =
  let entry_size (e : _ entry) =
    match e.payload with
    | App p -> 48 + payload_size p
    | Config cc -> 48 + config_change_size cc
  in
  function
  | Ping _ -> 32
  | Propose { entries; _ } ->
      List.fold_left (fun acc e -> acc + entry_size e) 0 entries
  | Ack _ -> 24
  | Commit _ -> 24
  | Request_vote _ -> 32
  | Vote _ -> 16
  | Sync_request _ -> 24
  | Sync { entries; _ } ->
      List.fold_left (fun acc e -> acc + entry_size e) 32 entries
  | Snapshot_begin { digest; config; _ } ->
      56 + String.length digest + membership_size config
  | Snapshot_chunk { data; _ } -> 40 + String.length data
  | Snapshot_ack _ -> 32
  | Join_request _ -> 24
  | Fence _ -> 16
  | Lease_grant _ -> 24
  | Observer_request _ -> 24
