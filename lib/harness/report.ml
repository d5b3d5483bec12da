(** Paper-style text output: one table per figure, plus the two static
    tables. *)

open Edc_simnet

let hline width = print_endline (String.make width '-')

let section title =
  print_newline ();
  hline 78;
  Printf.printf "%s\n" title;
  hline 78

(** Print a metric table: rows = client counts, columns = systems. *)
let metric_table ~title ~unit ~clients ~systems ~value =
  Printf.printf "\n%s [%s]\n" title unit;
  Printf.printf "%8s |" "clients";
  List.iter (fun k -> Printf.printf " %12s" (Systems.kind_name k)) systems;
  print_newline ();
  hline (10 + (13 * List.length systems));
  List.iter
    (fun n ->
      Printf.printf "%8d |" n;
      List.iter (fun k -> Printf.printf " %12.2f" (value k n)) systems;
      print_newline ())
    clients

let lookup points kind clients metric =
  match
    List.find_opt
      (fun (p : Experiment.point) -> p.Experiment.kind = kind && p.Experiment.clients = clients)
      points
  with
  | Some p -> metric p
  | None -> nan

(* ------------------------------------------------------------------ *)
(* Table 1: coordination services and their characteristics (static)   *)
(* ------------------------------------------------------------------ *)

let table1 () =
  section "Table 1: Coordination services and their characteristics";
  let rows =
    [
      ("Boxwood", "Key-Value store", "Locks", "No");
      ("Chubby", "(Small) File system", "Locks", "No");
      ("Sinfonia", "Key-Value store", "Microtransactions", "Yes");
      ("DepSpace", "Tuple space", "cas/replace ops", "Yes");
      ("ZooKeeper", "Hierar. of data nodes", "Sequencers", "Yes");
      ("etcd", "Hierar. of data nodes", "Sequen./Atomic ops", "Yes");
      ("LogCabin", "Hierar. of data nodes", "Conditions", "Yes");
    ]
  in
  Printf.printf "%-12s %-24s %-20s %-9s\n" "System" "Data Model" "Sync. Primitive"
    "Wait-free";
  hline 68;
  List.iter
    (fun (s, d, p, w) -> Printf.printf "%-12s %-24s %-20s %-9s\n" s d p w)
    rows;
  Printf.printf
    "\n(This repository implements the DepSpace and ZooKeeper rows in full,\n\
    \ plus their extensible variants EDS and EZK.)\n"

(* ------------------------------------------------------------------ *)
(* Table 2: abstract API mapping (static; validated by the test suite) *)
(* ------------------------------------------------------------------ *)

let table2 () =
  section "Table 2: Abstract coordination methods and their mappings";
  let rows =
    [
      ("create(o)", "create(o)", "out(o) [via cas]");
      ("delete(o)", "delete(o, ANY_VERSION)", "inp(<o,*>)");
      ("read(o)", "getData(o)", "rdp(<o,*>)");
      ("update(o,c)", "setData(o, c, ANY_VERSION)", "replace(<o,*>, <o,c>)");
      ("cas(o,cc,nc)", "setData(o, nc, v_observed)", "replace(<o,cc>, <o,nc>)");
      ("subObjects(o)", "getChildren + k x getData", "rdAll(<o/, SUB_ANY>)");
      ("block(o)", "exists-watch + notification", "rd(<o,*>)");
      ("monitor(x,o)", "ephemeral node + session", "lease tuple + renewals");
    ]
  in
  Printf.printf "%-14s | %-28s | %-24s\n" "Method" "ZooKeeper" "DepSpace";
  hline 74;
  List.iter (fun (m, z, d) -> Printf.printf "%-14s | %-28s | %-24s\n" m z d) rows;
  Printf.printf
    "\n(Exercised by test/test_recipes.ml: every recipe runs against both\n\
    \ mappings through the shared Coord_api interface.)\n"

(* ------------------------------------------------------------------ *)
(* Figures                                                             *)
(* ------------------------------------------------------------------ *)

let figure_points ~title ~clients ~systems ~point_fn =
  section title;
  List.concat_map
    (fun kind ->
      List.map
        (fun n ->
          let p = point_fn kind n in
          Printf.printf "  %-10s clients=%2d done\n%!" (Systems.kind_name kind) n;
          p)
        clients)
    systems

let summarize_speedup points ~clients ~base ~ext ~what =
  let t kind = lookup points kind clients (fun p -> p.Experiment.throughput) in
  let b = t base and e = t ext in
  if b > 0.0 then
    Printf.printf "%s at %d clients: %s %.0f ops/s vs %s %.0f ops/s -> %.1fx\n"
      what clients (Systems.kind_name ext) e (Systems.kind_name base) b (e /. b)

(* ------------------------------------------------------------------ *)
(* Availability under fault injection                                  *)
(* ------------------------------------------------------------------ *)

let availability_table points =
  Printf.printf "\n%-10s %5s | %6s %5s %4s %6s | %7s %9s | %5s %6s\n" "system"
    "seed" "ok" "maybe" "fail" "rate" "dropped" "recov ms" "unrec" "invar";
  hline 86;
  List.iter
    (fun (p : Experiment.chaos_point) ->
      let r = p.Experiment.ch_recovery_ms in
      let recov =
        if Stats.Series.count r = 0 then "-"
        else
          Printf.sprintf "%.0f/%.0f" (Stats.Series.mean r) (Stats.Series.max r)
      in
      Printf.printf "%-10s %5d | %6d %5d %4d %5.1f%% | %7d %9s | %5d %6s\n"
        (Systems.kind_name p.Experiment.ch_kind)
        p.Experiment.ch_seed p.Experiment.ch_ops_ok p.Experiment.ch_ops_maybe
        p.Experiment.ch_ops_failed
        (100.0 *. p.Experiment.ch_success_rate)
        p.Experiment.ch_dropped recov p.Experiment.ch_unrecovered
        (if p.Experiment.ch_invariant_failures = [] then "OK" else "BROKEN"))
    points

let fault_summary points =
  Printf.printf
    "\n%-10s %5s | %6s %7s %10s %6s %6s | %8s %8s %9s\n" "system" "seed"
    "faults" "crashes" "ldr-kills" "parts" "storms" "healed" "ctr" "queue";
  hline 96;
  List.iter
    (fun (p : Experiment.chaos_point) ->
      Printf.printf
        "%-10s %5d | %6d %7d %10d %6d %6d | %8d %4d/%-4d %4d/%-4d\n"
        (Systems.kind_name p.Experiment.ch_kind)
        p.Experiment.ch_seed p.Experiment.ch_faults p.Experiment.ch_crashes
        p.Experiment.ch_leader_kills p.Experiment.ch_partitions
        p.Experiment.ch_storms p.Experiment.ch_partitions_healed
        p.Experiment.ch_counter_final p.Experiment.ch_counter_confirmed
        p.Experiment.ch_consumed p.Experiment.ch_adds_confirmed)
    points

let snapshot_summary points =
  (* only meaningful for the Zab deployments; skip the table entirely when
     no run saw snapshot activity (e.g. a BFT-only sweep) *)
  let active =
    List.exists
      (fun (p : Experiment.chaos_point) ->
        p.Experiment.ch_snap <> Systems.snapshot_stats_zero)
      points
  in
  if active then begin
    Printf.printf
      "\n%-10s %5s | %8s %6s %7s | %6s %8s %9s | %7s %7s\n" "system" "seed"
      "captures" "serial" "skipped" "xfers" "chunks" "bytes" "retx" "resume";
    hline 96;
    List.iter
      (fun (p : Experiment.chaos_point) ->
        let s = p.Experiment.ch_snap in
        Printf.printf
          "%-10s %5d | %8d %6d %7d | %3d/%-3d %8d %9d | %7d %7d\n"
          (Systems.kind_name p.Experiment.ch_kind)
          p.Experiment.ch_seed s.Systems.ss_captures s.Systems.ss_serializations
          s.Systems.ss_skipped s.Systems.ss_transfers_completed
          s.Systems.ss_transfers_started s.Systems.ss_chunks_sent
          s.Systems.ss_bytes_streamed s.Systems.ss_chunk_retx
          s.Systems.ss_resumes)
      points
  end

let wire_summary points =
  (* serializer work (Zab deployments only): distinct frames encoded vs
     per-destination sends; saved = sends - encodes is the serialization
     work the encode-once broadcast avoided *)
  let active =
    List.exists
      (fun (p : Experiment.chaos_point) ->
        p.Experiment.ch_wire <> Systems.wire_stats_zero)
      points
  in
  if active then begin
    Printf.printf "\n%-10s %5s | %10s %10s %10s %6s\n" "system" "seed"
      "encodes" "sends" "saved" "ratio";
    hline 60;
    List.iter
      (fun (p : Experiment.chaos_point) ->
        let w = p.Experiment.ch_wire in
        if w <> Systems.wire_stats_zero then
          Printf.printf "%-10s %5d | %10d %10d %10d %6.2f\n"
            (Systems.kind_name p.Experiment.ch_kind)
            p.Experiment.ch_seed w.Systems.ws_encodes w.Systems.ws_sends
            (w.Systems.ws_sends - w.Systems.ws_encodes)
            (float_of_int w.Systems.ws_sends
            /. float_of_int (max 1 w.Systems.ws_encodes)))
      points
  end

module Zab = Edc_replication.Zab

let reconfig_summary rows =
  (* membership-change activity; silent unless some run reconfigured *)
  let active (_, _, (r : Zab.reconfig_stats), _) =
    r.Zab.joins_requested + r.Zab.leaves_requested + r.Zab.joint_commits
    + r.Zab.fences
    > 0
  in
  if List.exists active rows then begin
    Printf.printf "\n%-10s %5s | %9s %9s | %5s %5s %5s | %6s %5s | %s\n"
      "system" "seed" "joins a/c" "leave a/c" "joint" "final" "abort" "fences"
      "kills" "catchup ms avg/max (n)";
    hline 96;
    List.iter
      (fun (kind, seed, (r : Zab.reconfig_stats), kills) ->
        let catchup =
          match r.Zab.catchup_ms with
          | [] -> "-"
          | ms ->
              let n = List.length ms in
              let sum = List.fold_left ( +. ) 0.0 ms in
              let mx = List.fold_left Float.max 0.0 ms in
              Printf.sprintf "%.0f/%.0f (%d)" (sum /. float_of_int n) mx n
        in
        Printf.printf
          "%-10s %5d | %4d/%-4d %4d/%-4d | %5d %5d %5d | %6d %5d | %s\n"
          (Systems.kind_name kind) seed r.Zab.joins_requested
          r.Zab.joins_completed r.Zab.leaves_requested r.Zab.leaves_completed
          r.Zab.joint_commits r.Zab.finals_committed r.Zab.aborted r.Zab.fences
          kills catchup)
      rows
  end

(* ------------------------------------------------------------------ *)
(* Elastic membership                                                   *)
(* ------------------------------------------------------------------ *)

let membership_table points =
  Printf.printf
    "\n%-10s %5s | %6s %5s %4s | %7s | %6s %6s | %9s %5s | %6s %6s\n" "system"
    "seed" "ok" "maybe" "fail" "members" "steady" "trough" "recov s" "unrec"
    "resume" "invar";
  hline 100;
  List.iter
    (fun (p : Experiment.membership_point) ->
      let recov =
        match p.Experiment.mp_recovery_s with
        | [] -> "-"
        | rs ->
            let n = List.length rs in
            let sum = List.fold_left ( +. ) 0.0 rs in
            let mx = List.fold_left Float.max 0.0 rs in
            Printf.sprintf "%.1f/%.1f" (sum /. float_of_int n) mx
      in
      Printf.printf
        "%-10s %5d | %6d %5d %4d | %7s | %6.0f %6.0f | %9s %5d | %6d %6s\n"
        (Systems.kind_name p.Experiment.mp_kind)
        p.Experiment.mp_seed p.Experiment.mp_ops_ok p.Experiment.mp_ops_maybe
        p.Experiment.mp_ops_failed
        (String.concat ","
           (List.map string_of_int p.Experiment.mp_members_final))
        p.Experiment.mp_steady_ops_s p.Experiment.mp_trough_ops_s recov
        p.Experiment.mp_unrecovered
        p.Experiment.mp_snap.Systems.ss_last_resume_from
        (if p.Experiment.mp_invariant_failures = [] then "OK" else "BROKEN"))
    points

let error_taxonomy points =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (p : Experiment.chaos_point) ->
      List.iter
        (fun (e, n) ->
          Hashtbl.replace tbl e
            (n + Option.value ~default:0 (Hashtbl.find_opt tbl e)))
        p.Experiment.ch_errors)
    points;
  let all = Hashtbl.fold (fun e n acc -> (e, n) :: acc) tbl [] in
  let all = List.sort (fun (_, a) (_, b) -> Int.compare b a) all in
  if all <> [] then begin
    Printf.printf "\nerror taxonomy (all runs):\n";
    List.iter (fun (e, n) -> Printf.printf "  %6d  %s\n" n e) all
  end

let invariant_failures rows =
  List.iter
    (fun (kind, seed, failures) ->
      List.iter
        (fun f ->
          Printf.printf "INVARIANT VIOLATED [%s seed=%d]: %s\n"
            (Systems.kind_name kind) seed f)
        failures)
    rows

let fault_trace (p : Experiment.chaos_point) =
  Printf.printf "\nfault trace (%s, seed %d):\n%s"
    (Systems.kind_name p.Experiment.ch_kind)
    p.Experiment.ch_seed p.Experiment.ch_trace
