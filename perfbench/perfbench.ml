(* Repository benchmark entry point.

     perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>

   Prints one line per metric (name, value, unit, clock), then, as the
   last line of standard output, one JSON object
   [{"correct", "attempted", "failed", "metrics"}].  With [--trace 0] the
   metrics are the end-to-end set; with [--trace 1] the per-layer set,
   where a layer the workload does not exercise reads 0.  See README.md
   beside this file for the workloads and what each metric should move. *)

let workloads = [ "ezk-tcp-write"; "ezk-tcp-read"; "eds-queue-sim"; "shard-2pc-failover-sim" ]

(* Every per-layer metric, with its unit; the traced run reports all of
   them on every workload. *)
let per_layer =
  [
    ("tcp_transport.self_us_per_op", "us");
    ("tcp_transport.frames_per_op", "count");
    ("tcp_transport.bytes_per_op", "B");
    ("tcp_transport.send_failures", "count");
    ("tcp_transport.decode_errors", "count");
    ("wire.encode_us_per_op", "us");
    ("wire.decode_us_per_op", "us");
    ("wire.encodes_per_op", "count");
    ("wire.words_per_op", "words");
    ("server.client_handler_self_us_per_op", "us");
    ("server.reads_served_per_op", "count");
    ("server.sends_per_encode", "ratio");
    ("manager.match_us_per_op", "us");
    ("manager.exec_us_per_op", "us");
    ("manager.words_per_op", "words");
    ("data_tree.read_us_per_op", "us");
    ("data_tree.apply_us_per_op", "us");
    ("data_tree.words_per_op", "words");
    ("data_tree.nodes", "count");
    ("zab.handler_self_us_per_op", "us");
    ("zab.msgs_per_op", "count");
    ("zab.ops_per_proposal", "count");
    ("zab.single_replica_speedup", "ratio");
    ("zab.elections", "count");
    ("zab.follower_lag_max", "count");
    ("pbft.msgs_per_op", "count");
    ("pbft.bytes_per_op", "B");
    ("pbft.view_changes", "count");
    ("space.op_us_per_op", "us");
    ("space.words_per_op", "words");
    ("simnet.events_per_op", "count");
    ("simnet.loop_self_us_per_op", "us");
    ("net.msgs_per_op", "count");
    ("net.bytes_per_op", "B");
    ("net.dropped", "count");
    ("router.route_us_per_op", "us");
    ("two_pc.cross_ratio", "ratio");
    ("two_pc.commit_ratio", "ratio");
    ("two_pc.decisions_retained", "count");
    ("two_pc.residual_locks", "count");
    ("client.request_us_per_op", "us");
    ("client.reply_handler_self_us_per_op", "us");
    ("client.inflight_mean", "count");
    ("client.timeouts", "count");
    ("client.generator_lag_ms_p99", "ms");
    ("client.latency_samples", "count");
    ("gc.minor_collections_per_kop", "count");
    ("gc.major_collections", "count");
    ("gc.promoted_words_per_op", "words");
    ("gc.top_heap_mb", "MB");
    ("trace.overhead_ratio", "ratio");
    ("error_ratio", "ratio");
    ("sim_throughput_ops_s", "1/s");
    ("unavailable_ms", "ms");
    ("latency_p99_us", "us");
  ]

let clock_of ~sim name unit_ =
  match unit_ with
  | "us" when name = "latency_p99_us" && sim -> "sim"
  | "us" -> "wall"
  | "ms" | "1/s" -> "sim"
  | _ -> "count"

let layer_outcome ~sim (o : Prof.outcome) measured =
  List.iter
    (fun (name, _) ->
      if not (List.mem_assoc name per_layer) then
        failwith ("unregistered per-layer metric " ^ name))
    measured;
  let metrics =
    List.map
      (fun (name, unit_) ->
        let v = Option.value (List.assoc_opt name measured) ~default:0. in
        let v = if Float.is_nan v then 0. else v in
        Prof.m name unit_ (clock_of ~sim name unit_) v)
      per_layer
  in
  { o with Prof.metrics; extra = [] }

let usage () =
  prerr_endline
    ("usage: perfbench --workload <" ^ String.concat "|" workloads
   ^ "> --seed <n> --seconds <s> --trace <0|1>");
  exit 2

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let rec parse = function
    | "--workload" :: v :: rest -> workload := v; parse rest
    | "--seed" :: v :: rest -> seed := int_of_string v; parse rest
    | "--seconds" :: v :: rest -> seconds := float_of_string v; parse rest
    | "--trace" :: v :: rest -> trace := int_of_string v; parse rest
    | [] -> ()
    | _ -> usage ()
  in
  (try parse (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  if not (List.mem !workload workloads) || (!trace <> 0 && !trace <> 1) then usage ();
  (* hard limit for the whole run: a hung socket ends as a counted error *)
  let deadline = Prof.now () +. !seconds +. 100. in
  let traced = !trace = 1 in
  let seed = !seed and seconds = !seconds in
  let outcome =
    match !workload with
    | ("ezk-tcp-write" | "ezk-tcp-read") as w ->
        let kind = if w = "ezk-tcp-write" then `Write else `Read in
        if traced then
          let o, layers = Tcp_load.run_traced ~kind ~seed ~seconds ~deadline in
          layer_outcome ~sim:false o layers
        else Tcp_load.run_untraced ~kind ~seed ~seconds ~deadline
    | w ->
        let kind = if w = "eds-queue-sim" then `Eds else `Shard in
        if traced then
          let o, layers = Sim_load.run_traced ~kind ~seed ~seconds in
          layer_outcome ~sim:true o layers
        else Sim_load.run_untraced ~kind ~seed ~seconds
  in
  Prof.print_outcome ~workload:!workload outcome
