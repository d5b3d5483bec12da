(* The two EZK workloads over loopback TCP: [ezk-tcp-write] (the Figure 5
   counter extension, every op fires it) and [ezk-tcp-read] (95% reads of
   1 KiB znodes out of 10k, 5% 1 KiB writes, the counter extension
   registered but never matched by an op).

   One process, one thread: three replicas and two client connections
   share a single {!Edc_wire.Tcp_transport} hub, and the benchmark pumps it.
   Each connection keeps [depth] requests in flight (closed loop).  Every
   replica runs with zero modelled CPU cost, because [Tcp_transport.drive]
   ties virtual time to wall time and a non-zero [preprocess_cost] would
   become a real delay: wall-clock numbers here measure host work. *)

open Edc_simnet
module Zk = Edc_zookeeper
module P = Zk.Protocol
module Tcp = Edc_wire.Tcp_transport
module Counter = Edc_recipes.Counter
module Zab = Edc_replication.Zab
module Value = Edc_core.Value

let server_config =
  {
    Zk.Server.default_config with
    preprocess_cost = Sim_time.zero;
    read_cost = Sim_time.zero;
  }

(* Each request arms a timeout event in the simulator; 1 s (against
   ~1 ms latencies) keeps the number of pending events, and the memory
   they hold, small. *)
let client_config = { Zk.Client.default_config with request_timeout = Sim_time.ms 250 }

let client_addrs = [| 1000; 1001 |]
let depth = 32
let warmup_ops = 2_000

(* ------------------------------------------------------------------ *)
(* Ports                                                                *)
(* ------------------------------------------------------------------ *)

let port_free port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      try
        Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
        true
      with Unix.Unix_error _ -> false)

let port_rng = lazy (Random.State.make_self_init ())

(* A base port whose every derived port ([base + addr]) binds right now. *)
let find_base_port addrs =
  let rec go tries =
    if tries = 0 then failwith "no free loopback port range found"
    else
      let base = 20_000 + Random.State.int (Lazy.force port_rng) 30_000 in
      if List.for_all (fun a -> port_free (base + a)) addrs then base
      else go (tries - 1)
  in
  go 200

(* ------------------------------------------------------------------ *)
(* Span categories (traced run only)                                    *)
(* ------------------------------------------------------------------ *)

let c_drive = Prof.cat "tcp_transport.drive"
let c_encode = Prof.cat "wire.encode"
let c_decode = Prof.cat "wire.decode"
let c_server = Prof.cat "server.client_handler"
let c_zab = Prof.cat "zab.handler"
let c_client = Prof.cat "client.reply_handler"
let c_request = Prof.cat "client.request"

(* message-kind counters filled by the traced transport *)
type kinds = {
  mutable zab_msgs : int;  (** per-destination Zab deliveries *)
  mutable proposals : int;  (** Propose messages handed over (a broadcast once) *)
  mutable proposed_entries : int;
}

let kinds = { zab_msgs = 0; proposals = 0; proposed_entries = 0 }

let count_kind (m : Zk.Server.wire) fanout =
  match m with
  | Zk.Server.Zab_msg z -> (
      kinds.zab_msgs <- kinds.zab_msgs + fanout;
      match z with
      | Zab.Propose { entries; _ } ->
          kinds.proposals <- kinds.proposals + 1;
          kinds.proposed_entries <- kinds.proposed_entries + List.length entries
      | _ -> ())
  | _ -> ()

let handler_cat (m : Zk.Server.wire) =
  match m with
  | Zk.Server.Zab_msg _ -> c_zab
  | Server_msg _ -> c_client
  | Client_msg _ | Forward _ | Forward_connect _ | Forward_reconnect _
  | Forward_close _ | Touch _ ->
      c_server

let traced_transport (tr : Zk.Server.wire Transport.t) =
  {
    Transport.send =
      (fun ~src ~dst ~size m ->
        count_kind m 1;
        tr.send ~src ~dst ~size m);
    send_many =
      (fun ~src ~dsts ~size m ->
        count_kind m (List.length dsts);
        tr.send_many ~src ~dsts ~size m);
    register =
      (fun addr h ->
        tr.register addr (fun ~src ~size m ->
            Prof.span (handler_cat m) (fun () -> h ~src ~size m)));
  }

(* ------------------------------------------------------------------ *)
(* Deployment                                                           *)
(* ------------------------------------------------------------------ *)

type deployment = {
  sim : Sim.t;
  hub : Zk.Server.wire Tcp.t;
  servers : Zk.Server.t array;
  clients : Zk.Client.t array;
  client_bytes : int ref;  (** encoded bytes sent by the clients, framed *)
}

let boot ~seed ~n_replicas ~traced =
  let sim = Sim.create ~seed () in
  let replica_ids = List.init n_replicas Fun.id in
  let base_port = find_base_port (replica_ids @ Array.to_list client_addrs) in
  (* client-sent bytes are the real encoded frames, attributed to the
     sender at [Transport.send]: the client-side record raises
     [from_client] around its sends and the encoder counts meanwhile *)
  let from_client = ref false and client_bytes = ref 0 in
  let encode m =
    let s = Zk.Server_wire.encode m in
    if !from_client then client_bytes := !client_bytes + String.length s + 8;
    s
  in
  let encode, decode =
    if traced then
      ( (fun m -> Prof.span c_encode (fun () -> encode m)),
        fun s ~pos ~len ->
          Prof.span c_decode (fun () -> Zk.Server_wire.decode_sub s ~pos ~len) )
    else (encode, Zk.Server_wire.decode_sub)
  in
  let hub = Tcp.create ~sim ~base_port ~encode ~decode () in
  let tr = Tcp.transport hub in
  let tr = if traced then traced_transport tr else tr in
  let client_tr =
    {
      tr with
      Transport.send =
        (fun ~src ~dst ~size m ->
          from_client := true;
          Fun.protect
            ~finally:(fun () -> from_client := false)
            (fun () -> tr.send ~src ~dst ~size m));
    }
  in
  let servers =
    Array.init n_replicas (fun id ->
        Zk.Server.create ~config:server_config ~sim ~net:tr ~id ~replica_ids
          ~initial_leader:0 ())
  in
  Array.iter Zk.Server.start servers;
  Array.iter (fun s -> ignore (Edc_ezk.Ezk.install s : Edc_ezk.Ezk.t)) servers;
  Edc_ezk.Ezk.bootstrap servers.(0);
  let clients =
    Array.mapi
      (fun i addr ->
        Zk.Client.create ~config:client_config ~sim ~net:client_tr ~addr
          ~replica:((i + 1) mod n_replicas) ())
      client_addrs
  in
  { sim; hub; servers; clients; client_bytes }

exception Deadline

(* Pump the hub until [cond] holds; [Deadline] past the run's hard limit. *)
let pump d ~deadline cond =
  while not (cond ()) do
    if Prof.now () > deadline then raise Deadline;
    Prof.span c_drive (fun () -> Tcp.drive d.hub ~wall:0.002)
  done

(* Run a blocking client fiber to completion. *)
let run_fiber d ~deadline f =
  let p = Proc.async d.sim f in
  pump d ~deadline (fun () -> Proc.is_fulfilled p);
  Option.get (Proc.value_opt p)

let ok_or what = function
  | Ok v -> v
  | Error e -> failwith (what ^ ": " ^ Zk.Zerror.to_string e)

(* ------------------------------------------------------------------ *)
(* Closed-loop driver                                                   *)
(* ------------------------------------------------------------------ *)

(* A workload: the next op for a connection, and the check of its
   result ([true] = correct and acknowledged). *)
type gen = { next : int -> P.op * (P.result -> bool) }

type load = {
  gen : gen;
  mutable issuing : bool;
  mutable issue_cap : int;  (** stop issuing after this many (max_int = none) *)
  mutable issued : int;
  mutable acked : int;
  mutable failed : int;
  mutable timeouts : int;
  mutable inflight : int;
  mutable inflight_sum : float;
  mutable recording : bool;
  lats : Prof.Samples.t;  (** us, completions while [recording] *)
}

let new_load gen =
  {
    gen;
    issuing = true;
    issue_cap = max_int;
    issued = 0;
    acked = 0;
    failed = 0;
    timeouts = 0;
    inflight = 0;
    inflight_sum = 0.;
    recording = false;
    lats = Prof.Samples.create ();
  }

let rec issue d st c =
  if st.issuing && st.issued < st.issue_cap then begin
    let op, check = st.gen.next c in
    st.issued <- st.issued + 1;
    st.inflight <- st.inflight + 1;
    let t0 = Prof.now () in
    let p =
      Prof.span c_request (fun () -> Zk.Client.request_async d.clients.(c) op)
    in
    Proc.on_fulfill p (fun r ->
        st.inflight_sum <- st.inflight_sum +. float_of_int st.inflight;
        st.inflight <- st.inflight - 1;
        (* failed ops stay in the latency sample, at their time to failure *)
        if st.recording then Prof.Samples.add st.lats ((Prof.now () -. t0) *. 1e6);
        if check r then st.acked <- st.acked + 1
        else begin
          st.failed <- st.failed + 1;
          if r = P.Error Zk.Zerror.Timeout then st.timeouts <- st.timeouts + 1
        end;
        issue d st c)
  end

let start_load d st =
  Array.iteri
    (fun c _ ->
      for _ = 1 to depth do
        issue d st c
      done)
    d.clients

(* ------------------------------------------------------------------ *)
(* Workloads                                                            *)
(* ------------------------------------------------------------------ *)

(* What a workload adds to a booted deployment (its set-up runs when it
   is built): the op generator, and the output checks run after the
   drain.  Generators log each op of a traced window for the layer
   replays. *)
type workload = {
  gen : gen;
  verify : deployment -> deadline:float -> load -> string list;
}

let register_counter d ~deadline =
  run_fiber d ~deadline (fun () ->
      ok_or "register"
        (Result.map ignore (Edc_ezk.Ezk_client.register d.clients.(0) Counter.program));
      ok_or "acknowledge"
        (Result.map ignore
           (Edc_ezk.Ezk_client.acknowledge d.clients.(1) Counter.extension_name)))

(* Op log of the traced window: [key * 2 + is_write] per op. *)
let op_log = Prof.Samples.create ()
let logging = ref false
let log_op key is_write =
  if !logging then
    Prof.Samples.add op_log (float_of_int ((key * 2) + if is_write then 1 else 0))

(* ezk-tcp-write: every op is a read of the trigger object, which fires
   the counter extension at the leader (one increment, one Zab round). *)
let write_workload d ~deadline ~seed:_ =
  run_fiber d ~deadline (fun () ->
      ignore (ok_or "create counter" (Zk.Client.create_node d.clients.(0) Counter.counter_oid "0")));
  register_counter d ~deadline;
  let sum = ref 0 and top = ref 0 in
  let check = function
    | P.Ext s -> (
        match Value.deserialize s with
        | Ok (Value.Int n) ->
            sum := !sum + n;
            top := max !top n;
            true
        | _ -> false)
    | _ -> false
  in
  let op = P.Get_data { path = Counter.trigger_oid; watch = false } in
  let gen = { next = (fun _ -> log_op 0 true; (op, check)) } in
  let verify d ~deadline st =
    let final =
      run_fiber d ~deadline (fun () ->
          ignore (ok_or "sync" (Zk.Client.sync d.clients.(0)));
          fst (ok_or "read counter" (Zk.Client.get_data d.clients.(0) Counter.counter_oid)))
    in
    let counter = int_of_string final in
    let n = st.acked in
    List.concat
      [
        (if st.failed = 0 && counter <> n then
           [ Printf.sprintf "counter %d <> %d acknowledged increments" counter n ]
         else if counter < n || counter > st.issued then
           [ Printf.sprintf "counter %d outside [%d acked, %d issued]" counter n st.issued ]
         else []);
        (if st.failed = 0 && (!sum <> n * (n + 1) / 2 || !top <> n) then
           [ "increment results are not exactly 1..n" ]
         else []);
      ]
  in
  { gen; verify }

let n_keys = 10_000
let payload_len = 1024
let header_len = 16
let key_path k = Printf.sprintf "/kv/%05d" k

(* 1 KiB payloads: a [key:serial:] header (serial 0 = preload) and a
   filler drawn from the seed; a read is checked on its header, length
   and a spread of filler bytes. *)
let payload fill k serial =
  Printf.sprintf "%05d:%09d:" k serial
  ^ String.sub fill header_len (payload_len - header_len)

let filler_ok fill d =
  String.length d = payload_len
  &&
  let ok = ref true in
  let i = ref header_len in
  while !ok && !i < payload_len do
    if String.unsafe_get d !i <> String.unsafe_get fill !i then ok := false;
    i := !i + 61
  done;
  !ok

(* Pipelined creates from one fiber, [w] in flight. *)
let preload d ~deadline ~fill =
  run_fiber d ~deadline (fun () ->
      let c = d.clients.(0) in
      ignore (ok_or "create /kv" (Zk.Client.create_node c "/kv" ""));
      let q = Queue.create () in
      let drain () =
        match Proc.await (Queue.pop q) with
        | P.Created _ -> ()
        | r -> failwith ("preload: " ^ (match r with P.Error e -> Zk.Zerror.to_string e | _ -> "?"))
      in
      for k = 0 to n_keys - 1 do
        if Queue.length q >= 64 then drain ();
        Queue.add
          (Zk.Client.request_async c
             (P.Create
                { path = key_path k; data = payload fill k 0; ephemeral = false; sequential = false }))
          q
      done;
      while not (Queue.is_empty q) do
        drain ()
      done)

(* ezk-tcp-read: 95% get_data on a uniform key, 5% 1 KiB set_data. *)
let read_filler seed =
  let rng = Random.State.make [| seed; 23 |] in
  String.init payload_len (fun _ -> Char.chr (97 + Random.State.int rng 26))

let read_workload d ~deadline ~seed =
  let rng = Random.State.make [| seed; 17 |] in
  let fill = read_filler seed in
  register_counter d ~deadline;
  preload d ~deadline ~fill;
  let serial = ref 0 in
  let write_key = Hashtbl.create 4096 in
  let acked = Hashtbl.create 4096 in
  let unacked_reads = ref [] in
  let problems = ref [] in
  let problem p = if List.length !problems < 5 then problems := p :: !problems in
  let last_version = Array.map (fun _ -> Array.make n_keys 0) d.clients in
  let next c =
    let k = Random.State.int rng n_keys in
    if Random.State.int rng 100 < 5 then begin
      incr serial;
      let s = !serial in
      Hashtbl.replace write_key s k;
      log_op k true;
      ( P.Set_data { path = key_path k; data = payload fill k s; expected_version = None },
        function
        | P.Set _ ->
            Hashtbl.replace acked s ();
            true
        | _ -> false )
    end
    else begin
      log_op k false;
      ( P.Get_data { path = key_path k; watch = false },
        function
        | P.Data (d, stat) ->
            (match
               ( int_of_string_opt (String.sub d 0 5),
                 int_of_string_opt (String.sub d 6 9) )
             with
            | Some k', Some s when k' = k && filler_ok fill d ->
                if s > 0 && not (Hashtbl.mem acked s) then
                  if Hashtbl.find_opt write_key s = Some k then
                    unacked_reads := s :: !unacked_reads
                  else problem (Printf.sprintf "read of key %d returned unknown write %d" k s)
            | _ -> problem (Printf.sprintf "read of key %d returned a foreign payload" k));
            let v = stat.Zk.Znode.version in
            if v < last_version.(c).(k) then
              problem (Printf.sprintf "version of key %d went back %d -> %d" k last_version.(c).(k) v);
            last_version.(c).(k) <- v;
            true
        | _ -> false )
    end
  in
  let verify _d ~deadline:_ _st =
    List.iter
      (fun s ->
        if not (Hashtbl.mem acked s) then
          problem (Printf.sprintf "a read returned write %d, never acknowledged" s))
      !unacked_reads;
    List.rev !problems
  in
  { gen = { next }; verify }

let workload_of = function
  | `Write -> write_workload
  | `Read -> read_workload

(* ------------------------------------------------------------------ *)
(* Trials                                                               *)
(* ------------------------------------------------------------------ *)

(* One measured window: a fixed number of completed requests. *)
type window = { w_s : float; w_ok : int; w_p50 : float; w_p99 : float }

type trial = {
  setup_s : float;
  windows : window list;
  window_s : float;  (** all windows together *)
  done_ops : int;  (** completions inside the windows, acked or failed *)
  ok_ops : int;
  failed : int;
  timeouts : int;
  inflight_mean : float;
  client_bytes : int;
  gc : Prof.gc;
  samples : int;  (** latency samples over all windows *)
  problems : string list;
  frames : int;
  bytes_sent : int;
  encodes : int;
  send_failures : int;
  decode_errors : int;
  events : int;
  reads_served : int;
  wire_sends : int;
  wire_encodes : int;
  nodes : int;
  epoch_changes : int;
  retained_mb : float;  (** reachable from the deployment after warmup *)
}

let sum_servers d f = Array.fold_left (fun acc s -> acc + f s) 0 d.servers

(* A trial cut by the run's hard deadline: what was in flight counts as
   failed, and the run reports itself incorrect. *)
let timed_out ~in_flight =
  {
    setup_s = 0.;
    windows = [];
    window_s = 0.;
    done_ops = max 1 in_flight;
    ok_ops = 0;
    failed = max 1 in_flight;
    timeouts = 0;
    inflight_mean = 0.;
    client_bytes = 0;
    gc = Prof.gc_diff (Prof.gc_now ()) (Prof.gc_now ());
    samples = 0;
    problems = [ Printf.sprintf "hard deadline hit with %d requests in flight" in_flight ];
    frames = 0;
    bytes_sent = 0;
    encodes = 0;
    send_failures = 0;
    decode_errors = 0;
    events = 0;
    reads_served = 0;
    wire_sends = 0;
    wire_encodes = 0;
    nodes = 0;
    epoch_changes = 0;
    retained_mb = 0.;
  }

(* One trial: boot, set up and warm up (timed as set-up), then [n_windows]
   back-to-back windows of [window_ops] completed requests each under the
   same closed loop; then drain and check the outputs. *)
let trial ~kind ~seed ~n_replicas ~traced ~deadline ~window_ops ~n_windows =
  Gc.compact ();
  let t0 = Prof.now () in
  let d = boot ~seed ~n_replicas ~traced in
  let in_flight = ref 0 in
  Fun.protect
    ~finally:(fun () ->
      Prof.enabled := false;
      logging := false;
      Tcp.shutdown d.hub)
    (fun () ->
      try
        run_fiber d ~deadline (fun () -> Array.iter Zk.Client.connect d.clients);
        let w = workload_of kind d ~deadline ~seed in
        let st = new_load w.gen in
        start_load d st;
        in_flight := depth * Array.length d.clients;
        pump d ~deadline (fun () -> st.acked + st.failed >= warmup_ops);
        let setup_s = Prof.now () -. t0 in
        (* memory after a fixed amount of work, so it does not depend on
           how fast the host ran the windows *)
        let retained_mb = Prof.retained_mb (d.servers, d.clients, d.sim) in
        let a0 = st.acked and f0 = st.failed and to0 = st.timeouts in
        let b0 = !(d.client_bytes) and fr0 = Tcp.frames_received d.hub in
        let bs0 = Tcp.bytes_sent d.hub and en0 = Tcp.encodes d.hub in
        let ev0 = Sim.executed_events d.sim in
        let rs0 = sum_servers d Zk.Server.reads_served in
        let ws0 = sum_servers d Zk.Server.wire_sends in
        let we0 = sum_servers d Zk.Server.wire_encodes in
        let ep0 = Zab.epoch (Zk.Server.zab d.servers.(0)) in
        st.inflight_sum <- 0.;
        st.recording <- true;
        if traced then begin
          Prof.reset ();
          kinds.zab_msgs <- 0;
          kinds.proposals <- 0;
          kinds.proposed_entries <- 0;
          logging := true;
          Prof.enabled := true
        end;
        let g0 = Prof.gc_now () in
        let w0 = Prof.now () in
        (* window targets count from one origin, so the few requests a
           drive step completes past a target do not add up over the run *)
        let origin = st.acked + st.failed in
        let total = origin + (n_windows * window_ops) in
        let windows =
          List.init n_windows (fun i ->
              let last = i = n_windows - 1 in
              let target = origin + ((i + 1) * window_ops) in
              let t0 = Prof.now () in
              (* the last window stops issuing and drains, so the windows
                 complete exactly [n_windows * window_ops] requests *)
              if last then
                st.issue_cap <- st.issued + (total - st.acked - st.failed) - st.inflight;
              let ok0 = st.acked in
              pump d ~deadline (fun () ->
                  if last then st.inflight = 0 else st.acked + st.failed >= target);
              (Prof.now () -. t0, st.acked - ok0, Prof.Samples.length st.lats))
        in
        let window_s = Prof.now () -. w0 in
        let gc = Prof.gc_diff g0 (Prof.gc_now ()) in
        (* window latency percentiles, computed outside the measurement *)
        let windows, _ =
          List.fold_left
            (fun (acc, from) (w_s, w_ok, upto) ->
              let a = Prof.Samples.slice st.lats from upto in
              ({ w_s; w_ok; w_p50 = Prof.percentile a 0.5; w_p99 = Prof.percentile a 0.99 } :: acc, upto))
            ([], 0) windows
        in
        let windows = List.rev windows in
        Prof.enabled := false;
        logging := false;
        st.recording <- false;
        let ok_ops = st.acked - a0 and failed = st.failed - f0 in
        let done_ops = ok_ops + failed in
        let snapshot =
          {
            setup_s;
            windows;
            window_s;
            done_ops;
            ok_ops;
            failed;
            timeouts = st.timeouts - to0;
            inflight_mean = Prof.per done_ops st.inflight_sum;
            client_bytes = !(d.client_bytes) - b0;
            gc;
            samples = List.fold_left (fun acc w -> acc + w.w_ok) 0 windows + failed;
            problems = [];
            frames = Tcp.frames_received d.hub - fr0;
            bytes_sent = Tcp.bytes_sent d.hub - bs0;
            encodes = Tcp.encodes d.hub - en0;
            send_failures = Tcp.send_failures d.hub;
            decode_errors = Tcp.decode_errors d.hub;
            events = Sim.executed_events d.sim - ev0;
            reads_served = sum_servers d Zk.Server.reads_served - rs0;
            wire_sends = sum_servers d Zk.Server.wire_sends - ws0;
            wire_encodes = sum_servers d Zk.Server.wire_encodes - we0;
            nodes = Zk.Data_tree.node_count (Zk.Server.tree d.servers.(0));
            epoch_changes = Zab.epoch (Zk.Server.zab d.servers.(0)) - ep0;
            retained_mb;
          }
        in
        st.issuing <- false;
        pump d ~deadline (fun () -> st.inflight = 0);
        { snapshot with problems = w.verify d ~deadline st }
      with Deadline -> timed_out ~in_flight:!in_flight)

(* ------------------------------------------------------------------ *)
(* Runs                                                                 *)
(* ------------------------------------------------------------------ *)

(* Wall-clock figures on a shared host swing by tens of percent within
   seconds, and interference only ever slows the program down.  So a run
   sets up [deployments] deployments (set-up time is their median) and
   measures many short windows and reports a best-of figure: the 98th
   percentile of window throughputs and the 2nd percentile of window
   latency percentiles, the speed of the program when least disturbed.
   The amount of work is fixed by [--seconds] at a nominal rate, so the
   state a run leaves behind does not depend on the host's speed. *)
let window_ops = 2_000
let nominal_rate = function `Write -> 60_000. | `Read -> 90_000.
let deployments = 5

let n_windows kind seconds =
  max 3
    (int_of_float
       (seconds *. nominal_rate kind /. float_of_int (deployments * window_ops)))

let w_tp w = float_of_int w.w_ok /. w.w_s
let throughput t = float_of_int t.ok_ops /. t.window_s
let windows_of trials = Array.of_list (List.concat_map (fun t -> t.windows) trials)
let best_of q f trials = Prof.percentile (Array.map f (windows_of trials)) q
let problems_of trials = List.concat_map (fun t -> t.problems) trials

let run_untraced ~kind ~seed ~seconds ~deadline =
  let n_windows = n_windows kind seconds in
  let trials =
    List.init deployments (fun i ->
        trial ~kind ~seed:(seed + i) ~n_replicas:3 ~traced:false ~deadline ~window_ops ~n_windows)
  in
  let sum f = List.fold_left (fun acc t -> acc + f t) 0 trials in
  let med f = Prof.median (List.map f trials) in
  let ok = sum (fun t -> t.ok_ops) and attempted = sum (fun t -> t.done_ops) in
  let failed = sum (fun t -> t.failed) in
  let problems = problems_of trials in
  let m = Prof.m in
  {
    Prof.correct = problems = [] && failed = 0;
    attempted;
    failed;
    problems;
    metrics =
      [
        m "setup_s" "s" "wall" (med (fun t -> t.setup_s));
        m "throughput_ops_s" "1/s" "wall" (best_of 0.98 w_tp trials);
        m "latency_p50_us" "us" "wall" (best_of 0.02 (fun w -> w.w_p50) trials);
        m "kb_per_op" "KiB" "count"
          (Prof.per ok (float_of_int (sum (fun t -> t.client_bytes))) /. 1024.);
        m "alloc_words_per_op" "words" "count" (med (fun t -> Prof.per t.ok_ops t.gc.Prof.minor_words));
        m "retained_mb" "MB" "count" (med (fun t -> t.retained_mb));
      ];
    extra =
      [
        m "latency_p99_us" "us" "wall" (best_of 0.02 (fun w -> w.w_p99) trials);
        m "latency_samples" "count" "count" (float_of_int (sum (fun t -> t.samples)));
        m "throughput_ops_s_mean" "1/s" "wall"
          (float_of_int ok /. List.fold_left (fun acc t -> acc +. t.window_s) 0. trials);
        m "error_ratio" "ratio" "count" (Prof.per attempted (float_of_int failed));
        m "top_heap_mb" "MB" "count" (Prof.top_heap_mb ());
      ];
  }

(* Traced: an untraced 3-replica trial and (on the write workload) a
   1-replica one, the single-node baseline, then the same windows again
   with spans on, so the traced trial completes the same op count.
   Layers reachable only inside the program are timed by replaying the
   traced op log on standalone instances. *)
let run_traced ~kind ~seed ~seconds ~deadline =
  let n_windows = max 3 (n_windows kind seconds / 3) in
  let run n_replicas traced =
    trial ~kind ~seed ~n_replicas ~traced ~deadline ~window_ops ~n_windows
  in
  let a = run 3 false in
  let one = match kind with `Write -> Some (run 1 false) | `Read -> None in
  let speedup =
    match one with
    | Some o -> best_of 0.98 w_tp [ o ] /. best_of 0.98 w_tp [ a ]
    | None -> 0.
  in
  Prof.Samples.clear op_log;
  let b = run 3 true in
  let ops = b.done_ops in
  let us (c : Prof.cat) = Prof.per ops c.Prof.self_s *. 1e6 in
  let pf x = Prof.per ops (float_of_int x) in
  let replay =
    match kind with
    | `Write ->
        Replay.zk_layers ~counter:true ~op_log ~key_path ~init:(fun t ->
            Replay.create t Counter.counter_oid "0")
    | `Read ->
        let fill = read_filler seed in
        Replay.zk_layers ~counter:false ~op_log ~key_path ~init:(fun t ->
            Replay.create t "/kv" "";
            for k = 0 to n_keys - 1 do
              Replay.create t (key_path k) (payload fill k 0)
            done)
  in
  let all = a :: b :: Option.to_list one in
  let problems =
    problems_of all
    @ if b.done_ops <> a.done_ops then [ "the traced trial completed a different op count" ] else []
  in
  let failed = List.fold_left (fun acc t -> acc + t.failed) 0 all in
  let attempted = List.fold_left (fun acc t -> acc + t.done_ops) 0 all in
  ( {
      Prof.correct = problems = [] && failed = 0;
      attempted;
      failed;
      problems;
      metrics = [];
      extra = [];
    },
    [
      ("tcp_transport.self_us_per_op", us c_drive);
      ("tcp_transport.frames_per_op", pf b.frames);
      ("tcp_transport.bytes_per_op", pf b.bytes_sent);
      ("tcp_transport.send_failures", float_of_int b.send_failures);
      ("tcp_transport.decode_errors", float_of_int b.decode_errors);
      ("wire.encode_us_per_op", us c_encode);
      ("wire.decode_us_per_op", us c_decode);
      ("wire.encodes_per_op", pf b.encodes);
      ("wire.words_per_op", Prof.per ops (c_encode.words +. c_decode.words));
      ("server.client_handler_self_us_per_op", us c_server);
      ("server.reads_served_per_op", pf b.reads_served);
      ("server.sends_per_encode", Prof.per b.wire_encodes (float_of_int b.wire_sends));
      ("data_tree.nodes", float_of_int b.nodes);
      ("zab.handler_self_us_per_op", us c_zab);
      ("zab.msgs_per_op", pf kinds.zab_msgs);
      ("zab.ops_per_proposal", Prof.per kinds.proposals (float_of_int kinds.proposed_entries));
      ("zab.elections", float_of_int b.epoch_changes);
      ("simnet.events_per_op", pf b.events);
      ("client.request_us_per_op", us c_request);
      ("client.reply_handler_self_us_per_op", us c_client);
      ("client.inflight_mean", b.inflight_mean);
      ("client.timeouts", float_of_int b.timeouts);
      ("client.latency_samples", float_of_int b.samples);
      ("latency_p99_us", best_of 0.02 (fun w -> w.w_p99) [ a ]);
      ("gc.minor_collections_per_kop", pf b.gc.Prof.minor_collections *. 1000.);
      ("gc.major_collections", float_of_int b.gc.Prof.major_collections);
      ("gc.promoted_words_per_op", Prof.per ops b.gc.Prof.promoted_words);
      ("gc.top_heap_mb", Prof.top_heap_mb ());
      ("trace.overhead_ratio", throughput a /. throughput b);
      ("zab.single_replica_speedup", speedup);
      ("error_ratio", Prof.per attempted (float_of_int failed));
    ]
    @ replay )
