(** ZooKeeper server replica (the paper's Figure 3 chain): preprocessor
    (validation, txn minting, the EZK intercept), proposer (Zab), final
    processor (apply, watches, reply routing from the client's replica).
    Reads are served locally from committed state; updates are forwarded
    to the leader.  Extensibility enters only through {!section-hooks}. *)

open Edc_simnet
open Edc_replication
module P = Protocol

(** Wire format shared by the whole deployment. *)
type wire =
  | Client_msg of P.client_to_server
  | Server_msg of P.server_to_client
  | Zab_msg of Txn.t Zab.msg
  | Forward of { origin : int; session : int; xid : int; op : P.op }
  | Forward_connect of { origin : int; client_addr : int }
  | Forward_reconnect of { origin : int; session : int }
  | Forward_close of { session : int }
  | Touch of { session : int }

val wire_size : wire -> int

(** {2:hooks Hooks (extension points used by EZK)} *)

type hook_action =
  | Pass  (** process the request normally *)
  | Handled of Txn.op list * P.result
      (** replace normal processing: one multi-transaction plus the
          piggybacked result (operation extensions, §5.1.2) *)
  | Handled_deferred of Txn.op list
      (** like [Handled] but without an immediate reply: the transaction
          contains a [Tblock] and the client is answered when the awaited
          object appears *)
  | Reject of Zerror.t

type session_info = { client_addr : int; mutable owner_replica : int }

type config = {
  session_timeout : Sim_time.t;
  expiry_check_interval : Sim_time.t;
  snapshot_interval : int;
      (** snapshot + compact the replicated log every N applied
          transactions; [0] disables (ZooKeeper's snapCount) *)
  preprocess_cost : Sim_time.t;  (** serial CPU per validated update *)
  read_cost : Sim_time.t;  (** serial CPU per locally served read *)
  linearizable_reads : bool;
      (** route every read through the leader: served locally there under
          a valid lease ({!Zab.can_serve_lease_read}), otherwise ordered
          through the commit path as a quiet no-op barrier (§6i).  The
          default [false] keeps ZooKeeper's sequentially-consistent local
          read fast path. *)
  txn_retry_interval : Sim_time.t;
      (** coordinator heartbeat: re-send [Prepare] to silent participant
          shards at this interval (§6j) *)
  txn_coord_timeout : Sim_time.t;
      (** coordinator presumed-aborts a cross-shard transaction that has
          not gathered every vote within this budget *)
  txn_status_interval : Sim_time.t;
      (** participant in-doubt inquiry interval: while a prepared
          transaction is unresolved, the participant leader asks the
          coordinator shard for the outcome this often *)
}

val default_config : config

type t

(** [create ~sim ~net ~id ~replica_ids ()] — one server replica.  With
    [initial_leader] the ensemble boots pre-elected.  With [learner:true]
    the server starts as a non-voting Zab learner outside the member set:
    it announces itself to the leader, is bootstrapped by snapshot + log
    sync, and gains a vote when a committed config admits it (used by
    {!Cluster.add_server} for elastic growth).  With [observer:true] the
    server is a permanent non-voting consumer of the commit stream: it
    bootstraps like a learner but never joins the member set, never votes,
    and serves sequentially-consistent local reads. *)
val create :
  ?config:config ->
  ?zab_config:Zab.config ->
  ?initial_leader:int ->
  ?learner:bool ->
  ?observer:bool ->
  sim:Sim.t ->
  net:wire Transport.t ->
  id:int ->
  replica_ids:int list ->
  unit ->
  t

val start : t -> unit

(** Process crash (network detachment is the caller's job); the tree and
    log persist, modeling durable storage. *)
val crash : t -> unit

val restart : t -> unit

val tree : t -> Data_tree.t
val zab : t -> Txn.t Zab.t
val spec : t -> Spec_view.t
val is_leader : t -> bool
val id : t -> int
val sim : t -> Sim.t
val session_exists : t -> int -> bool

(** Statistics. *)

val reads_served : t -> int

(** Leader reads served locally under a valid lease / ordered through the
    commit path because the lease had lapsed (both only grow when
    [linearizable_reads] is on). *)

val lease_reads : t -> int
val quorum_reads : t -> int
val txns_applied : t -> int
val proposals : t -> int

(** Serialization-cost observables: [wire_encodes] counts distinct message
    values handed to the transport (one serialization each on an encoding
    transport — a broadcast through [send_many] counts once, however wide
    the fan-out); [wire_sends] counts per-destination deliveries.  The gap
    between them is the work the encode-once broadcast saves. *)

val wire_encodes : t -> int
val wire_sends : t -> int

(** Snapshot pipeline counters. *)

(** O(1) copy-on-write captures taken at compaction points. *)
val snapshot_captures : t -> int

(** Captures that were actually serialized (a state transfer needed the
    bytes); stays 0 on replicas whose peers never fall behind. *)
val snapshot_serializations : t -> int

(** Times [snapshot_interval] fired with the log already compacted to the
    horizon, so no capture was taken. *)
val snapshots_skipped : t -> int

(** Complete state-transfer blobs imported atomically. *)
val snapshot_installs : t -> int

(** {2 Snapshot blobs (state transfer, §3.8)}

    Blobs are framed by the deterministic binary codec ([Edc_wire.Wire]):
    equal replicated states serialize to byte-identical bytes, across COW
    histories and OCaml versions. *)

(** Capture and serialize the replica's current replicated state (via the
    streaming writer — no intermediate [Wire.t]). *)
val snapshot_bytes : t -> string

(** [install_snapshot t blob] replaces the replica's state with an
    untrusted blob.  The blob is decoded in full before any state is
    touched: on [Error] (corrupt, truncated, or bit-flipped bytes) the
    replica is left exactly as it was. *)
val install_snapshot : t -> string -> (unit, string) result

(** Leader-side entry point for service-internal multi-transactions
    (bootstrap objects, event-extension follow-ups).  [quiet] transactions
    do not trigger event extensions. *)
val propose_internal : t -> ?quiet:bool -> Txn.op list -> unit

(** {2 Sharded deployments (§6j)}

    A replica can serve as one member of a sharded deployment: the
    namespace is partitioned across independent replication groups, and
    atomic cross-shard multi-writes commit via presumed-abort two-phase
    commit whose coordinator and participant state both ride the groups'
    replicated logs. *)

(** [set_sharding t ~shard_id ~route ~send] plugs the replica into a
    sharded deployment: its own shard id, the deployment's path router,
    and a sender on the inter-shard plane ([send dst frame] delivers
    [frame] to shard [dst]'s current leader). *)
val set_sharding :
  t ->
  shard_id:int ->
  route:(string -> int) ->
  send:(int -> Two_pc.frame -> unit) ->
  unit

val shard_id : t -> int

(** Deliver an inter-shard 2PC frame to this replica.  Frames are only
    meaningful to a ready leader; anyone else drops them and lets the
    sender's retry / in-doubt inquiry loop find the new leader. *)
val handle_shard_frame : t -> Two_pc.frame -> unit

(** Resolved cross-shard outcomes on this replica, sorted by txid — the
    atomicity checker's observation stream.  A txid resolved twice
    appears twice. *)
val txn_audit : t -> (string * bool) list

(** Whether [txid] has resolved on this replica (an O(1) lookup in the
    replicated resolution table). *)
val audited : t -> string -> bool

(** Replicated coordinator decision for [txid], if one was logged here. *)
val decided : t -> string -> bool option

(** In-doubt transactions parked on this replica (txid, coordinator). *)
val prepared_txns : t -> (string * int) list

(** Paths currently write-locked by prepared transactions (path, txid). *)
val locked_paths : t -> (string * string) list

(** 2PC statistics (coordinator side). *)

val txns_coordinated : t -> int
val txns_committed : t -> int
val txns_aborted : t -> int

(** Hook installation (used by EZK). *)

val set_hook_intercept :
  t -> (t -> origin:int -> session:int -> xid:int -> P.op -> hook_action) -> unit

val set_hook_read_needs_leader : t -> (t -> session:int -> P.op -> bool) -> unit
val set_hook_on_applied : t -> (t -> Txn.t -> unit) -> unit

val set_hook_suppress_watch :
  t -> (t -> session:int -> path:string -> P.watch_kind -> bool) -> unit

val set_hook_on_snapshot_installed : t -> (t -> unit) -> unit
