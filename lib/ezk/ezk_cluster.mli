(** An EXTENSIBLE ZOOKEEPER deployment: a ZooKeeper cluster with an
    extension manager installed on every replica and the ["/em"] objects
    bootstrapped. *)

open Edc_simnet
open Edc_zookeeper

type t

val create :
  ?n_replicas:int ->
  ?net_config:Net.config ->
  ?server_config:Server.config ->
  ?zab_config:Edc_replication.Zab.config ->
  Sim.t ->
  t

val cluster : t -> Cluster.t
val sim : t -> Sim.t
val net : t -> Server.wire Net.t
val ezk : t -> int -> Ezk.t
val servers : t -> Server.t array

val client : ?config:Client.config -> ?replica:int -> t -> unit -> Client.t

val connected_client :
  ?config:Client.config -> ?replica:int -> t -> unit -> Client.t

val crash_server : t -> int -> unit

(** Restart a replica and rebuild its extension manager from the
    replicated tree (§3.8). *)
val restart_server : t -> int -> unit

(** Elastic growth: boot a learner replica with its extension manager
    installed; the manager reconciles itself from the replicated tree as
    the snapshot bootstrap lands.  Returns the new replica id. *)
val add_server : t -> int

(** Attach a permanent non-voting observer replica with its extension
    manager installed.  Returns the new replica id. *)
val add_observer : t -> int

(** Joint-consensus removal of replica [id] via the current leader. *)
val remove_server : t -> id:int -> (unit, string) result

val run_for : t -> Sim_time.t -> unit
