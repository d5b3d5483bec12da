(** Deployment assembly: a simulated DepSpace ensemble plus clients —
    [3f + 1] replicas (four for the paper's [f = 1]); every client talks
    to all replicas. *)

open Edc_simnet

type t

val create :
  ?f:int ->
  ?net_config:Net.config ->
  ?server_config:Ds_server.config ->
  ?pbft_config:Edc_replication.Pbft.config ->
  Sim.t ->
  t

val sim : t -> Sim.t
val net : t -> Ds_protocol.wire Net.t
val servers : t -> Ds_server.t array
val f : t -> int

val client : ?config:Ds_client.config -> t -> unit -> Ds_client.t

(** Crash a replica (process + network). *)
val crash_server : t -> int -> unit

(** Revive a crashed replica (network + PBFT view/state recovery). *)
val restart_server : t -> int -> unit

(** The Nemesis adapter for this ensemble: leader = the PBFT primary;
    membership is static.  [crash]/[restart] are the deployment's own
    (EDS's restart also rebuilds the extension manager). *)
val nemesis_target :
  t ->
  name:string ->
  crash:(int -> unit) ->
  restart:(int -> unit) ->
  Nemesis.target

val run_for : t -> Sim_time.t -> unit
