(** A sharded deployment (§6j): [n_groups] independent replication groups
    — each a full {!Edc_zookeeper.Cluster} on its own client/replica
    message plane — glued together by a shard map and an inter-shard
    plane carrying 2PC frames between group leaders.

    Groups share nothing in the steady state: a group's leader
    preprocesses, orders, and applies only its own shard's writes, which
    is what buys the near-linear write scaling the single leader's serial
    preprocessor CPU otherwise caps (§6d).  The inter-shard plane is used
    only by atomic cross-shard multis. *)

open Edc_simnet
open Edc_zookeeper
module Two_pc = Edc_replication.Two_pc

type t = {
  sim : Sim.t;
  map : Shard_map.t;
  groups : Cluster.t array;
  ishard_net : Two_pc.frame Net.t;
      (** inter-shard plane; node id = shard id *)
  ishard : Two_pc.frame Transport.t;
}

let shard_leader t shard = Cluster.leader t.groups.(shard)

let create ?(n_replicas = 3) ?net_config ?ishard_net_config ?server_config
    ?zab_config ~map sim =
  let n_groups = Shard_map.n_shards map in
  let groups =
    Array.init n_groups (fun _ ->
        Cluster.create ~n_replicas ?net_config ?server_config ?zab_config sim)
  in
  let ishard_net = Net.create ?config:ishard_net_config sim in
  let ishard = Transport.of_net ishard_net in
  let t = { sim; map; groups; ishard_net; ishard } in
  (* Frames are addressed to a *shard*; the plane hands them to that
     shard's current leader (which re-checks leadership itself — a frame
     landing on a deposed or not-yet-ready leader is dropped and covered
     by the sender's retry / in-doubt inquiry loop). *)
  Array.iteri
    (fun shard _ ->
      Transport.register ishard shard (fun ~src:_ ~size:_ frame ->
          match shard_leader t shard with
          | Some leader -> Server.handle_shard_frame leader frame
          | None -> ()))
    groups;
  let route path = Shard_map.route map path in
  Array.iteri
    (fun shard group ->
      let send dst frame =
        Transport.send ishard ~src:shard ~dst
          ~size:(Two_pc.frame_size frame) frame
      in
      Array.iter
        (fun server ->
          Server.set_sharding server ~shard_id:shard ~route ~send)
        (Cluster.servers group))
    groups;
  t

let sim t = t.sim
let map t = t.map
let n_groups t = Array.length t.groups
let group t shard = t.groups.(shard)
let servers t shard = Cluster.servers t.groups.(shard)
let ishard_net t = t.ishard_net

(** [client t ~shard ()] — a client endpoint on [shard]'s message plane
    (round-robin across its replicas); connect from a fiber. *)
let client ?config ?replica t ~shard () =
  Cluster.client ?config ?replica t.groups.(shard) ()

let connected_client ?config ?replica t ~shard () =
  Cluster.connected_client ?config ?replica t.groups.(shard) ()

let crash_server t ~shard i = Cluster.crash_server t.groups.(shard) i
let restart_server t ~shard i = Cluster.restart_server t.groups.(shard) i

(** Partition shard [s] off the inter-shard plane (both directions, all
    peers): prepares reaching into [s] stall and time out; in-doubt
    participants on [s] keep inquiring until healed. *)
let cut_shard t s =
  Array.iteri
    (fun peer _ -> if peer <> s then Net.cut_link t.ishard_net s peer)
    t.groups

let heal_shard t s =
  Array.iteri
    (fun peer _ -> if peer <> s then Net.heal_link t.ishard_net s peer)
    t.groups

(** Nemesis adapter for one group (same shape as the unsharded
    deployments'), so the standard chaos schedules drive crashes,
    partitions, and clock skew inside any single shard. *)
let nemesis_target t ~shard =
  let cluster = t.groups.(shard) in
  Cluster.nemesis_target cluster ~name:(Fmt.str "shard%d" shard)
    ~crash:(Cluster.crash_server cluster)
    ~restart:(Cluster.restart_server cluster)

(* --- deployment-wide 2PC observations (checker inputs) --- *)

(** Per-replica resolved outcomes: [(shard, replica, (txid, committed)
    list)] — the atomicity checker's observation stream. *)
let audits t =
  Array.to_list
    (Array.mapi
       (fun shard group ->
         Array.to_list
           (Array.mapi
              (fun replica server -> (shard, replica, Server.txn_audit server))
              (Cluster.servers group)))
       t.groups)
  |> List.concat

(** Paths still write-locked anywhere (shard, replica, path, txid). *)
let residual_locks t =
  Array.to_list
    (Array.mapi
       (fun shard group ->
         Array.to_list
           (Array.mapi
              (fun replica server ->
                List.map
                  (fun (path, txid) -> (shard, replica, path, txid))
                  (Server.locked_paths server))
              (Cluster.servers group))
         |> List.concat)
       t.groups)
  |> List.concat

(** In-doubt transactions still parked anywhere. *)
let residual_prepared t =
  Array.to_list
    (Array.mapi
       (fun shard group ->
         Array.to_list
           (Array.mapi
              (fun replica server ->
                List.map
                  (fun (txid, coord) -> (shard, replica, txid, coord))
                  (Server.prepared_txns server))
              (Cluster.servers group))
         |> List.concat)
       t.groups)
  |> List.concat

let run_for t d = Sim.run ~until:(Sim_time.add (Sim.now t.sim) d) t.sim
