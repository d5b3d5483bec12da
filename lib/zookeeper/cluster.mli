(** Deployment assembly: a simulated ZooKeeper ensemble plus clients —
    [2f + 1] replicas (three for the paper's [f = 1]), clients spread
    round-robin across replicas as in §6. *)

open Edc_simnet

type t

val create :
  ?n_replicas:int ->
  ?net_config:Net.config ->
  ?server_config:Server.config ->
  ?zab_config:Edc_replication.Zab.config ->
  Sim.t ->
  t

val sim : t -> Sim.t
val net : t -> Server.wire Net.t
val servers : t -> Server.t array
val n_replicas : t -> int
val leader : t -> Server.t option

(** [client t ()] allocates a client endpoint (round-robin replica unless
    [replica] pins one); connect it with {!Client.connect} from a fiber. *)
val client : ?config:Client.config -> ?replica:int -> t -> unit -> Client.t

(** Allocate and connect in one step (call from a fiber). *)
val connected_client :
  ?config:Client.config -> ?replica:int -> t -> unit -> Client.t

(** {2 Elastic membership}

    Reconfiguration rides the replicated log (joint consensus): growth
    admits a caught-up learner, shrinkage fences the removed replica. *)

(** Boot a fresh replica as a non-voting learner and hand it to the leader
    for bootstrap + admission; returns its id. *)
val add_server : t -> int

(** Boot a permanent non-voting observer replica: bootstrapped like a
    learner, it consumes the commit stream and serves sequentially-
    consistent local reads but never joins the member set, votes, or
    counts toward any quorum.  Returns its id. *)
val add_observer : t -> int

(** Ask the current leader to remove replica [id] through the log.
    [Error] if no leader is known or the leader refuses (reconfig already
    in flight, unknown id, or last member). *)
val remove_server : t -> id:int -> (unit, string) result

(** Failure injection (process + network). *)

val crash_server : t -> int -> unit
val restart_server : t -> int -> unit

(** The Nemesis adapter for this ensemble: leader = the Zab leader;
    a reconfiguration is in flight from learner adoption until the final
    config entry commits.  [crash]/[restart] are the deployment's own
    (EZK's restart also rebuilds the extension manager). *)
val nemesis_target :
  t ->
  name:string ->
  crash:(int -> unit) ->
  restart:(int -> unit) ->
  Nemesis.target

(** Advance the simulation by a duration. *)
val run_for : t -> Sim_time.t -> unit
