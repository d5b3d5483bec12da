(** ZooKeeper client library.

    One client object = one network endpoint = one session.  All calls are
    blocking from the calling fiber's point of view (direct style over
    {!Edc_simnet.Proc}), mirroring the synchronous client API the paper's
    recipes are written against. *)

open Edc_simnet
module P = Protocol

type config = {
  request_timeout : Sim_time.t;
  ping_interval : Sim_time.t;
}

let default_config =
  { request_timeout = Sim_time.sec 4; ping_interval = Sim_time.sec 2 }

type t = {
  sim : Sim.t;
  net : Server.wire Transport.t;
  addr : int;
  config : config;
  mutable replica : int;
  mutable session : int;
  mutable xid : int;
  mutable connected : bool;
  mutable closed : bool;
  outstanding : (int, P.result Proc.promise) Hashtbl.t;
  mutable connect_waiter : int Proc.promise option;
  watch_waiters : (string, (string * P.watch_kind) Proc.promise list ref) Hashtbl.t;
  mutable on_watch_event : string -> P.watch_kind -> unit;
      (** fires on every delivered watch event, waiters or not — the
          session cache's invalidation feed *)
  mutable generation : int;
  (* statistics *)
  mutable requests_sent : int;
  mutable replies_received : int;
}

let session t = t.session
let addr t = t.addr
let requests_sent t = t.requests_sent
let is_connected t = t.connected

let handle_server_msg t msg =
  match msg with
  | P.Connect_ok { session } -> (
      t.session <- session;
      t.connected <- true;
      match t.connect_waiter with
      | Some p ->
          t.connect_waiter <- None;
          ignore (Proc.try_fulfill p session : bool)
      | None -> ())
  | P.Reply { xid; result } -> (
      t.replies_received <- t.replies_received + 1;
      match Hashtbl.find_opt t.outstanding xid with
      | Some p ->
          Hashtbl.remove t.outstanding xid;
          ignore (Proc.try_fulfill p result : bool)
      | None -> () (* reply raced with a timeout; drop *))
  | P.Watch_event { path; kind } -> (
      t.on_watch_event path kind;
      match Hashtbl.find_opt t.watch_waiters path with
      | Some waiters ->
          Hashtbl.remove t.watch_waiters path;
          List.iter
            (fun p -> ignore (Proc.try_fulfill p (path, kind) : bool))
            (List.rev !waiters)
      | None -> ())
  | P.Expired -> t.connected <- false

let create ?(config = default_config) ~sim ~net ~addr ~replica () =
  let t =
    {
      sim;
      net;
      addr;
      config;
      replica;
      session = 0;
      xid = 0;
      connected = false;
      closed = false;
      outstanding = Hashtbl.create 8;
      connect_waiter = None;
      watch_waiters = Hashtbl.create 8;
      on_watch_event = (fun _ _ -> ());
      generation = 0;
      requests_sent = 0;
      replies_received = 0;
    }
  in
  Transport.register net addr (fun ~src:_ ~size:_ msg ->
      match msg with
      | Server.Server_msg m -> handle_server_msg t m
      | Server.Client_msg _ | Server.Zab_msg _ | Server.Forward _
      | Server.Forward_connect _ | Server.Forward_reconnect _
      | Server.Forward_close _ | Server.Touch _ ->
          ());
  t

let send_client_msg t msg =
  Transport.send t.net ~src:t.addr ~dst:t.replica
    ~size:(Server.wire_size (Server.Client_msg msg))
    (Server.Client_msg msg)

let rec ping_loop t generation () =
  if t.connected && (not t.closed) && generation = t.generation then begin
    send_client_msg t (P.Ping { session = t.session });
    Sim.schedule t.sim ~after:t.config.ping_interval (ping_loop t generation)
  end

(** [connect t] establishes the session (fiber-blocking).  Retries until
    the cluster answers (e.g. while a leader election is in progress). *)
let connect t =
  let rec attempt () =
    let p = Proc.promise t.sim in
    t.connect_waiter <- Some p;
    send_client_msg t P.Connect;
    match Proc.await_timeout t.sim p ~timeout:t.config.request_timeout with
    | Some _session ->
        t.generation <- t.generation + 1;
        Sim.schedule t.sim ~after:t.config.ping_interval
          (ping_loop t t.generation)
    | None -> attempt ()
  in
  attempt ()

(** [reconnect t ~replica] re-attaches an existing session to another
    replica (client failover). *)
let reconnect t ~replica =
  t.replica <- replica;
  let p = Proc.promise t.sim in
  t.connect_waiter <- Some p;
  send_client_msg t (P.Reconnect { session = t.session });
  match Proc.await_timeout t.sim p ~timeout:t.config.request_timeout with
  | Some _ -> true
  | None -> false

(** [request t op] issues one operation and blocks the fiber for the
    result.  Times out with [Error Timeout] (the request may still execute
    server-side — same ambiguity as a real network client). *)
let request t op =
  if not t.connected then P.Error Zerror.Session_expired
  else begin
    t.xid <- t.xid + 1;
    let xid = t.xid in
    let p = Proc.promise t.sim in
    Hashtbl.replace t.outstanding xid p;
    t.requests_sent <- t.requests_sent + 1;
    send_client_msg t (P.Request { session = t.session; xid; op });
    (* blocking calls park server-side for arbitrarily long; everything
       else times out *)
    match op with
    | P.Block _ -> Proc.await p
    | _ -> (
        match Proc.await_timeout t.sim p ~timeout:t.config.request_timeout with
        | Some result -> result
        | None ->
            Hashtbl.remove t.outstanding xid;
            P.Error Zerror.Timeout)
  end

(** [request_async t op] issues one operation without blocking: the
    returned promise fulfills with the result (or [Error Timeout] after
    [request_timeout]; blocking ops never time out).  A reply cancels the
    timeout's timer.  Lets one fiber keep
    a window of requests in flight — the TCP transport corks the whole
    window into one write, and replies pipeline back.  [request] stays
    the one-in-flight path the recipes are written against. *)
let request_async t op =
  let p = Proc.promise t.sim in
  if not t.connected then ignore (Proc.try_fulfill p (P.Error Zerror.Session_expired) : bool)
  else begin
    t.xid <- t.xid + 1;
    let xid = t.xid in
    Hashtbl.replace t.outstanding xid p;
    t.requests_sent <- t.requests_sent + 1;
    send_client_msg t (P.Request { session = t.session; xid; op });
    match op with
    | P.Block _ -> ()
    | _ ->
        let timer =
          Sim.schedule_timer t.sim ~after:t.config.request_timeout (fun () ->
              if Proc.try_fulfill p (P.Error Zerror.Timeout) then
                Hashtbl.remove t.outstanding xid)
        in
        Proc.on_fulfill p (fun _ -> Sim.cancel t.sim timer)
  end;
  p

(** [watch_waiter t path] registers interest in the next event on [path];
    must be called before issuing the read that sets the server watch. *)
let watch_waiter t path =
  let p = Proc.promise t.sim in
  (match Hashtbl.find_opt t.watch_waiters path with
  | Some l -> l := p :: !l
  | None -> Hashtbl.replace t.watch_waiters path (ref [ p ]));
  p

let set_on_watch_event t f = t.on_watch_event <- f

(* ------------------------------------------------------------------ *)
(* Convenience wrappers (Table 2, ZooKeeper column)                    *)
(* ------------------------------------------------------------------ *)

let create_node t ?(ephemeral = false) ?(sequential = false) path data =
  match request t (P.Create { path; data; ephemeral; sequential }) with
  | P.Created actual -> Ok actual
  | P.Error e -> Error e
  | _ -> Error Zerror.Unsupported

let delete t ?version path =
  match request t (P.Delete { path; version }) with
  | P.Deleted -> Ok ()
  | P.Error e -> Error e
  | _ -> Error Zerror.Unsupported

let set_data t ?expected_version path data =
  match request t (P.Set_data { path; data; expected_version }) with
  | P.Set { version } -> Ok version
  | P.Error e -> Error e
  | _ -> Error Zerror.Unsupported

let get_data t ?(watch = false) path =
  match request t (P.Get_data { path; watch }) with
  | P.Data (d, s) -> Ok (d, s)
  | P.Error e -> Error e
  | _ -> Error Zerror.Unsupported

let get_children t ?(watch = false) path =
  match request t (P.Get_children { path; watch }) with
  | P.Children c -> Ok c
  | P.Error e -> Error e
  | _ -> Error Zerror.Unsupported

let exists t ?(watch = false) path =
  match request t (P.Exists { path; watch }) with
  | P.Stat_of s -> Ok s
  | P.Error e -> Error e
  | _ -> Error Zerror.Unsupported

(** [sync t] — read-your-writes barrier: the reply travels through the
    commit path and back via the replica this client is connected to, so
    once it returns, that replica (and any session cache flushed on it)
    has applied every update ordered before the barrier. *)
let sync t =
  match request t P.Sync with
  | P.Synced -> Ok ()
  | P.Error e -> Error e
  | _ -> Error Zerror.Unsupported

(** [multi t ops] — atomic multi-write; on a sharded deployment, ops
    spanning shards commit via 2PC (§6j). *)
let multi t ops =
  match request t (P.Multi { ops }) with
  | P.Multi_ok -> Ok ()
  | P.Error e -> Error e
  | _ -> Error Zerror.Unsupported

(** [block t path] — Table 2's [block(o)] for plain ZooKeeper: set an
    exists-watch and wait for the creation event (two to three RPC-ish
    steps client-side). *)
let rec block t path =
  let waiter = watch_waiter t path in
  match exists t ~watch:true path with
  | Ok (Some _) -> Ok ()
  | Ok None -> (
      let _ = Proc.await waiter in
      (* One-shot watch: the event may have been a deletion of an earlier
         incarnation; re-check. *)
      match exists t path with Ok (Some _) -> Ok () | _ -> block t path)
  | Error e -> Error e

(** [server_block t path] — EZK's single-RPC blocking read, served by an
    operation extension; returns the created object's data. *)
let server_block t path =
  match request t (P.Block { path }) with
  | P.Unblocked data -> Ok data
  | P.Error e -> Error e
  | _ -> Error Zerror.Unsupported

(** [monitor t path] — Table 2's [monitor(x, o)]: create [path] as an
    ephemeral node tied to this client's session. *)
let monitor t path = create_node t ~ephemeral:true path ""

let close t =
  t.closed <- true;
  if t.connected then begin
    send_client_msg t (P.Close_session { session = t.session });
    t.connected <- false
  end
