(* Wire codec benchmarks (PR: untrusted-bytes binary codec + pluggable
   transport; PR: zero-tree streaming serialization + coalescing TCP).

   Three experiments, results in BENCH_wire.json (schema 2):
   - codec: encode/decode wall-clock of the Wire frame codec on the two
     shapes that dominate traffic — a group-committed transaction batch
     and a full snapshot image — for the deployment's streaming codec
     ("wire_stream", [Wire.Writer]/[Wire.Reader]) and the unchecked
     [Marshal] baseline the servers no longer link.  Each shape's four
     timings run in interleaved repeated trials, each on a settled heap
     and charged the collection of its own garbage; tables report the min
     and the median per call.  The streaming
     rows are gated on the min: in full mode they must land within 2x of
     Marshal both ways on both shapes; in quick mode (CI) the measured
     stream-vs-marshal ratios are compared against the committed
     bench/wire_baseline.json with a 2x tolerance, so a codec regression
     fails the job without depending on absolute runner speed.
   - decode_reject: time to reject corrupt input (truncated and
     bit-flipped blobs) — the untrusted path must fail fast, not scale
     with the declared (attacker-chosen) sizes
   - e2e: the counter workload end to end.  The sim row is the unchanged
     synchronous workload on the virtual-time message plane; the tcp row
     drives real loopback sockets through {!Edc_wire.Tcp_transport} with
     a window of pipelined in-flight requests ([Client.request_async]),
     a warmup phase, and per-op latency percentiles.  Full mode gates
     tcp throughput at >= 6700 ops/s over >= 5000 timed ops. *)

open Edc_simnet
module Zk = Edc_zookeeper
module Dt = Zk.Data_tree
module Txn = Zk.Txn
module Zab = Edc_replication.Zab
module Zab_wire = Edc_replication.Zab_wire
module Wire = Edc_wire.Wire
module Tcp_transport = Edc_wire.Tcp_transport
module J = Bench_json
module P = Zk.Protocol

let now_us () = Unix.gettimeofday () *. 1e6

let time_us ~reps f =
  let t0 = now_us () in
  for _ = 1 to reps do
    f ()
  done;
  (now_us () -. t0) /. float_of_int reps

(* ------------------------------------------------------------------ *)
(* Representative payloads                                             *)
(* ------------------------------------------------------------------ *)

(* a group-committed Propose carrying [n] set transactions *)
let txn_batch n : Txn.t Zab.msg =
  let entries =
    List.init n (fun i ->
        {
          Zab.zxid = { Zab.epoch = 3; counter = 1000 + i };
          payload =
            Zab.App
              {
                Txn.origin = Some (i mod 3);
                session = 7_000_000 + i;
                xid = i;
                ops =
                  [
                    Txn.Tset
                      {
                        path = Printf.sprintf "/bench/n%04d" (i mod 64);
                        data = Printf.sprintf "value-%06d" i;
                        version = i;
                      };
                  ];
                result = Zk.Protocol.Set { version = i };
                quiet = false;
              };
        })
  in
  Zab.Propose
    { epoch = 3; index = 1000; prev_zxid = { epoch = 3; counter = 999 }; entries }

let snapshot_portable n =
  let t = Dt.create () in
  Dt.apply_create t ~path:"/b" ~data:"" ~ephemeral_owner:None;
  for i = 0 to n - 1 do
    Dt.apply_create t
      ~path:(Printf.sprintf "/b/n%06d" i)
      ~data:(Printf.sprintf "payload-%06d" i)
      ~ephemeral_owner:None
  done;
  let img = Dt.export t in
  let p = Dt.materialize img in
  Dt.release img;
  p

(* ------------------------------------------------------------------ *)
(* Codec throughput vs the Marshal baseline                            *)
(* ------------------------------------------------------------------ *)

(* Per-call wall clock over repeated trials: the gates read [min_us],
   the tables also report [median_us]. *)
type timing = { min_us : float; median_us : float }

type codec_row = {
  c_shape : string;
  c_codec : string;
  c_bytes : int;
  c_encode : timing;
  c_decode : timing;
}

(* [interleaved_trials ~trials ~trial_us fs] times every closure of [fs]
   once per trial, starting each trial one closure later so no closure
   always runs first.  Each timing starts on a settled heap and runs
   enough calls to last about [trial_us], then a full major collection.
   That collection's cost, less the cost of collecting the settled heap
   just before, is charged to the calls: a codec that allocates straight
   into the major heap (Marshal, on large values) pays for collecting its
   garbage like one that allocates young, and none pays for another's. *)
let interleaved_trials ~trials ~trial_us fs =
  let fs = Array.of_list fs in
  let n = Array.length fs in
  let reps =
    Array.map
      (fun f ->
        ignore (time_us ~reps:1 f : float);
        max 1 (int_of_float (trial_us /. Float.max 1.0 (time_us ~reps:1 f))))
      fs
  in
  let samples = Array.make_matrix n trials 0.0 in
  for t = 0 to trials - 1 do
    for k = 0 to n - 1 do
      let i = (t + k) mod n in
      Gc.full_major ();
      let t0 = now_us () in
      Gc.full_major ();
      let settled = now_us () -. t0 in
      let t1 = now_us () in
      for _ = 1 to reps.(i) do
        fs.(i) ()
      done;
      Gc.full_major ();
      samples.(i).(t) <- (now_us () -. t1 -. settled) /. float_of_int reps.(i)
    done
  done;
  Array.map
    (fun a ->
      Array.sort Float.compare a;
      { min_us = a.(0); median_us = a.(trials / 2) })
    samples

let codec_experiment ~quick =
  let trials = if quick then 11 else 21 in
  let trial_us = if quick then 10_000.0 else 40_000.0 in
  let batch = txn_batch 64 in
  let portable = snapshot_portable (if quick then 2_000 else 10_000) in
  let write_batch w m = Zab_wire.write ~payload:Zk.Wire_format.write_txn w m in
  let read_batch r = Zab_wire.read ~payload:Zk.Wire_format.read_txn r in
  let stream_shapes =
    [
      ( "txn_batch_64",
        (fun () -> Wire.Writer.with_writer (fun w -> write_batch w batch)),
        fun s ->
          match Wire.Reader.run s read_batch with
          | Ok _ -> ()
          | Error e -> failwith e );
      ( "snapshot_10k",
        (fun () ->
          Wire.Writer.with_writer (fun w ->
              Zk.Wire_format.write_portable w portable)),
        fun s ->
          match Wire.Reader.run s Zk.Wire_format.read_portable with
          | Ok _ -> ()
          | Error e -> failwith e );
    ]
  in
  let marshal_shapes =
    [
      ( "txn_batch_64",
        (fun () -> Marshal.to_string batch []),
        fun s -> ignore (Marshal.from_string s 0 : Txn.t Zab.msg) );
      ( "snapshot_10k",
        (fun () -> Marshal.to_string portable []),
        fun s -> ignore (Marshal.from_string s 0 : Dt.portable) );
    ]
  in
  (* the streamed bytes must be canonical frames: the reference frame
     parser accepts them and re-encodes them byte for byte — a cheap
     standing check on top of the golden corpus and the fuzz suite *)
  List.iter
    (fun (shape, stream_enc, _) ->
      let s = stream_enc () in
      match Wire.decode s with
      | Ok v when String.equal (Wire.encode v) s -> ()
      | Ok _ -> failwith (shape ^ ": streamed bytes are not canonical")
      | Error e -> failwith (shape ^ ": streamed bytes do not parse: " ^ e))
    stream_shapes;
  Printf.printf
    "\n  codec throughput (wall clock per call with its GC, min / median of \
     %d interleaved trials of ~%.0f ms):\n"
    trials (trial_us /. 1000.0);
  Printf.printf "  %14s %12s %9s %21s %21s\n" "shape" "codec" "bytes"
    "encode us" "decode us";
  (* one shape at a time, its two codecs' encodes and decodes
     interleaved trial by trial *)
  let codecs = [ ("wire_stream", stream_shapes); ("marshal", marshal_shapes) ] in
  let measure_shape shape =
    let cases =
      List.map
        (fun (codec, shapes) ->
          let _, enc, dec = List.find (fun (s, _, _) -> s = shape) shapes in
          (codec, enc, dec, enc ()))
        codecs
    in
    let t =
      interleaved_trials ~trials ~trial_us
        (List.concat_map
           (fun (_, enc, dec, blob) ->
             [ (fun () -> ignore (enc () : string)); (fun () -> dec blob) ])
           cases)
    in
    List.mapi
      (fun i (codec, _, _, blob) ->
        { c_shape = shape; c_codec = codec; c_bytes = String.length blob;
          c_encode = t.(2 * i); c_decode = t.((2 * i) + 1) })
      cases
  in
  let rows = List.concat_map measure_shape [ "txn_batch_64"; "snapshot_10k" ] in
  List.iter
    (fun r ->
      Printf.printf "  %14s %12s %9d %10.2f %10.2f %10.2f %10.2f\n" r.c_shape
        r.c_codec r.c_bytes r.c_encode.min_us r.c_encode.median_us
        r.c_decode.min_us r.c_decode.median_us)
    rows;
  Printf.printf
    "  (marshal is the unchecked baseline the servers no longer link)\n";
  rows

(* ------------------------------------------------------------------ *)
(* Codec gates                                                         *)
(* ------------------------------------------------------------------ *)

let find_row rows ~codec ~shape =
  List.find (fun r -> r.c_codec = codec && r.c_shape = shape) rows

(* stream-vs-marshal cost ratios per shape, of the per-trial minima: the
   unit the gates and the committed baseline speak (machine-independent,
   unlike raw us) *)
let stream_ratios rows =
  List.map
    (fun shape ->
      let s = find_row rows ~codec:"wire_stream" ~shape in
      let m = find_row rows ~codec:"marshal" ~shape in
      ( shape,
        s.c_encode.min_us /. m.c_encode.min_us,
        s.c_decode.min_us /. m.c_decode.min_us ))
    [ "txn_batch_64"; "snapshot_10k" ]

let baseline_path = Filename.concat "bench" "wire_baseline.json"

(* Full mode: absolute gate — streaming must land within 2x of Marshal
   both ways on both shapes.  Quick mode (CI): compare the measured
   ratios against the committed baseline with a 2x tolerance, so the
   guard tracks codec regressions without trusting runner speed. *)
let codec_gates ~quick rows ~fail_gate =
  let ratios = stream_ratios rows in
  if quick then begin
    match J.of_file baseline_path with
    | Error e ->
        Printf.printf "  [gate] no codec baseline (%s): %s — skipping\n"
          baseline_path e
    | Ok doc ->
        let baseline_of shape =
          match Option.bind (J.member "ratios" doc) J.to_list with
          | None -> None
          | Some rs ->
              List.find_map
                (fun r ->
                  match Option.bind (J.member "shape" r) J.to_str with
                  | Some s when s = shape ->
                      Option.bind
                        (Option.bind (J.member "encode_ratio" r) J.to_float)
                        (fun e ->
                          Option.map
                            (fun d -> (e, d))
                            (Option.bind (J.member "decode_ratio" r)
                               J.to_float))
                  | _ -> None)
                rs
        in
        List.iter
          (fun (shape, enc, dec) ->
            match baseline_of shape with
            | None -> fail_gate (shape ^ ": missing from codec baseline")
            | Some (benc, bdec) ->
                let check dir v b =
                  if v > b *. 2.0 then
                    fail_gate
                      (Printf.sprintf
                         "%s %s: stream/marshal ratio %.2f exceeds 2x \
                          baseline %.2f"
                         shape dir v b)
                  else
                    Printf.printf
                      "  [gate] %s %s ratio %.2f within 2x baseline %.2f\n"
                      shape dir v b
                in
                check "encode" enc benc;
                check "decode" dec bdec)
          ratios
  end
  else
    List.iter
      (fun (shape, enc, dec) ->
        let check dir v =
          if v > 2.0 then
            fail_gate
              (Printf.sprintf "%s %s: streaming is %.2fx Marshal (gate: 2x)"
                 shape dir v)
          else
            Printf.printf "  [gate] %s %s: %.2fx Marshal (gate: 2x)\n" shape
              dir v
        in
        check "encode" enc;
        check "decode" dec)
      ratios

(* ------------------------------------------------------------------ *)
(* Rejection cost: corrupt input must fail fast                        *)
(* ------------------------------------------------------------------ *)

type reject_row = { r_case : string; r_us : float }

let reject_experiment ~quick =
  let reps = if quick then 1_000 else 10_000 in
  let portable = snapshot_portable (if quick then 2_000 else 10_000) in
  let blob =
    Wire.Writer.with_writer (fun w -> Zk.Wire_format.write_portable w portable)
  in
  let truncated = String.sub blob 0 (String.length blob / 2) in
  let flipped =
    let b = Bytes.of_string blob in
    Bytes.set b 1 (Char.chr (Char.code (Bytes.get b 1) lxor 0xff));
    Bytes.to_string b
  in
  (* a 5-byte input claiming a multi-gigabyte payload *)
  let bomb = "\x02\xff\xff\xff\xff\x1f" in
  let cases =
    [ ("truncated_snapshot", truncated); ("flipped_header", flipped);
      ("length_bomb", bomb) ]
  in
  Printf.printf "\n  rejection cost (mean wall clock, %d reps):\n" reps;
  Printf.printf "  %20s %12s\n" "case" "us";
  List.map
    (fun (name, s) ->
      let us =
        time_us ~reps (fun () ->
            match Wire.decode s with Ok _ -> failwith name | Error _ -> ())
      in
      Printf.printf "  %20s %12.3f\n%!" name us;
      { r_case = name; r_us = us })
    cases

(* ------------------------------------------------------------------ *)
(* End to end: counter workload, in-sim vs real sockets                *)
(* ------------------------------------------------------------------ *)

type e2e_row = {
  e_transport : string;
  e_ops : int;  (** timed operations *)
  e_warmup : int;
  e_window : int;  (** max pipelined in-flight requests *)
  e_wall_s : float;
  e_ops_s : float;
  e_lat : (float * float * float) option;  (** p50/p95/p99 us, tcp only *)
}

let counter_workload client ~increments =
  (match Zk.Client.create_node client "/ctr" "0" with
  | Ok _ -> ()
  | Error e -> failwith (Format.asprintf "create: %a" Zk.Zerror.pp e));
  for i = 1 to increments do
    match Zk.Client.set_data client "/ctr" (string_of_int i) with
    | Ok _ -> ()
    | Error e -> failwith (Format.asprintf "set %d: %a" i Zk.Zerror.pp e)
  done

let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else
    (* nearest-rank *)
    let rank = int_of_float (ceil (p *. float_of_int n)) in
    sorted.(max 0 (min (n - 1) (rank - 1)))

(* Pipelined counter workload: one fiber keeps up to [window] increments
   in flight via [request_async]; the first [warmup] ops are untimed.
   Returns (timed wall seconds, per-op latencies in us). *)
let pipelined_workload sim client ~ops ~warmup ~window =
  ignore sim;
  (match Zk.Client.create_node client "/ctr" "0" with
  | Ok _ -> ()
  | Error e -> failwith (Format.asprintf "create: %a" Zk.Zerror.pp e));
  let lats = ref [] in
  let q = Queue.create () in
  let t_start = ref 0.0 in
  let submit i =
    if i = warmup then t_start := Unix.gettimeofday ();
    let timed = i >= warmup in
    let t0 = Unix.gettimeofday () in
    let p =
      Zk.Client.request_async client
        (P.Set_data
           { path = "/ctr"; data = string_of_int i; expected_version = None })
    in
    Proc.on_fulfill p (fun r ->
        (match r with
        | P.Set _ -> ()
        | P.Error e -> failwith (Format.asprintf "set %d: %a" i Zk.Zerror.pp e)
        | _ -> failwith "unexpected reply");
        if timed then lats := (Unix.gettimeofday () -. t0) *. 1e6 :: !lats);
    Queue.add p q
  in
  let drain_one () = ignore (Proc.await (Queue.pop q) : P.result) in
  for i = 0 to warmup + ops - 1 do
    if Queue.length q >= window then drain_one ();
    submit i
  done;
  while not (Queue.is_empty q) do
    drain_one ()
  done;
  (Unix.gettimeofday () -. !t_start, !lats)

let e2e_tcp ~ops ~warmup ~window =
  let sim = Sim.create ~seed:5 () in
  let base_port = 22000 + (Unix.getpid () mod 18000) in
  let hub =
    Tcp_transport.create ~sim ~base_port ~encode:Zk.Server_wire.encode
      ~decode:Zk.Server_wire.decode_sub ()
  in
  let tr = Tcp_transport.transport hub in
  let replica_ids = [ 0; 1; 2 ] in
  let servers =
    List.map
      (fun id -> Zk.Server.create ~sim ~net:tr ~id ~replica_ids ~initial_leader:0 ())
      replica_ids
  in
  List.iter Zk.Server.start servers;
  let client = Zk.Client.create ~sim ~net:tr ~addr:100 ~replica:1 () in
  let t0 = Unix.gettimeofday () in
  let fin =
    Proc.async sim (fun () ->
        Zk.Client.connect client;
        pipelined_workload sim client ~ops ~warmup ~window)
  in
  let deadline = t0 +. 120. in
  while (not (Proc.is_fulfilled fin)) && Unix.gettimeofday () < deadline do
    Tcp_transport.drive hub ~wall:0.05
  done;
  Tcp_transport.shutdown hub;
  if not (Proc.is_fulfilled fin) then failwith "tcp workload did not finish";
  let wall, lats =
    match Proc.value_opt fin with Some v -> v | None -> assert false
  in
  let sorted = Array.of_list lats in
  Array.sort compare sorted;
  {
    e_transport = "tcp";
    e_ops = ops;
    e_warmup = warmup;
    e_window = window;
    e_wall_s = wall;
    e_ops_s = float_of_int ops /. wall;
    e_lat =
      Some
        ( percentile sorted 0.50,
          percentile sorted 0.95,
          percentile sorted 0.99 );
  }

let e2e_sim ~increments =
  let sim = Sim.create ~seed:5 () in
  let cluster = Zk.Cluster.create sim in
  let t0 = Unix.gettimeofday () in
  let fin =
    Proc.async sim (fun () ->
        let client = Zk.Cluster.connected_client cluster () in
        counter_workload client ~increments)
  in
  Sim.run ~until:(Sim_time.sec 60) sim;
  if not (Proc.is_fulfilled fin) then failwith "sim workload did not finish";
  let wall = Unix.gettimeofday () -. t0 in
  let ops = increments + 1 in
  { e_transport = "sim"; e_ops = ops; e_warmup = 0; e_window = 1;
    e_wall_s = wall; e_ops_s = float_of_int ops /. wall; e_lat = None }

let e2e_experiment ~quick =
  let increments = if quick then 100 else 500 in
  let ops = if quick then 1_000 else 5_000 in
  let warmup = if quick then 64 else 256 in
  let window = 64 in
  Printf.printf
    "\n\
    \  end to end, identical replica code (counter workload; sim: %d \
     synchronous updates,\n\
    \   tcp: %d pipelined updates after %d warmup, window %d):\n"
    increments ops warmup window;
  Printf.printf "  %9s %8s %10s %12s %10s %10s %10s\n" "transport" "ops"
    "wall s" "ops/s" "p50 us" "p95 us" "p99 us";
  let rows = [ e2e_sim ~increments; e2e_tcp ~ops ~warmup ~window ] in
  List.iter
    (fun r ->
      match r.e_lat with
      | Some (p50, p95, p99) ->
          Printf.printf "  %9s %8d %10.2f %12.1f %10.1f %10.1f %10.1f\n%!"
            r.e_transport r.e_ops r.e_wall_s r.e_ops_s p50 p95 p99
      | None ->
          Printf.printf "  %9s %8d %10.2f %12.1f %10s %10s %10s\n%!"
            r.e_transport r.e_ops r.e_wall_s r.e_ops_s "-" "-" "-")
    rows;
  Printf.printf
    "  (tcp wall time includes real socket round trips; the sim row is the\n\
    \   same workload on the virtual-time message plane)\n";
  rows

(* ------------------------------------------------------------------ *)

let run ~quick =
  let gate_failures = ref [] in
  let fail_gate msg =
    Printf.printf "  [gate] FAILED: %s\n%!" msg;
    gate_failures := msg :: !gate_failures
  in
  let codec_rows = codec_experiment ~quick in
  Printf.printf "\n  codec gates (%s):\n"
    (if quick then "ratios vs committed baseline, 2x tolerance"
     else "absolute, <= 2x Marshal");
  codec_gates ~quick codec_rows ~fail_gate;
  let reject_rows = reject_experiment ~quick in
  let e2e_rows = e2e_experiment ~quick in
  (if not quick then
     let tcp = List.find (fun r -> r.e_transport = "tcp") e2e_rows in
     if tcp.e_ops < 5_000 then
       fail_gate (Printf.sprintf "tcp e2e ran %d ops (gate: >= 5000)" tcp.e_ops)
     else if tcp.e_ops_s < 6_700.0 then
       fail_gate
         (Printf.sprintf "tcp e2e %.0f ops/s (gate: >= 6700)" tcp.e_ops_s)
     else
       Printf.printf "  [gate] tcp e2e %.0f ops/s over %d ops (gate: >= 6700)\n"
         tcp.e_ops_s tcp.e_ops);
  J.write_suite ~schema:2 ~suite:"wire"
    [
      ( "codec",
        J.List
          (List.map
             (fun r ->
               J.Obj
                 [
                   ("shape", J.Str r.c_shape);
                   ("codec", J.Str r.c_codec);
                   ("bytes", J.Int r.c_bytes);
                   ("encode_us", J.Float r.c_encode.median_us);
                   ("decode_us", J.Float r.c_decode.median_us);
                   ("encode_us_min", J.Float r.c_encode.min_us);
                   ("decode_us_min", J.Float r.c_decode.min_us);
                 ])
             codec_rows) );
      ( "reject",
        J.List
          (List.map
             (fun r -> J.Obj [ ("case", J.Str r.r_case); ("us", J.Float r.r_us) ])
             reject_rows) );
      ( "e2e",
        J.List
          (List.map
             (fun r ->
               J.Obj
                 ([
                    ("transport", J.Str r.e_transport);
                    ("ops", J.Int r.e_ops);
                    ("warmup", J.Int r.e_warmup);
                    ("window", J.Int r.e_window);
                    ("wall_s", J.Float r.e_wall_s);
                    ("ops_per_s", J.Float r.e_ops_s);
                  ]
                 @
                 match r.e_lat with
                 | Some (p50, p95, p99) ->
                     [
                       ("p50_us", J.Float p50);
                       ("p95_us", J.Float p95);
                       ("p99_us", J.Float p99);
                     ]
                 | None -> []))
             e2e_rows) );
    ];
  if !gate_failures <> [] then begin
    Printf.printf "\n  wire bench gates FAILED:\n";
    List.iter (Printf.printf "    - %s\n") (List.rev !gate_failures)
  end;
  List.rev !gate_failures
