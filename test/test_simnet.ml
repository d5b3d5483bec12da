(* Tests for the discrete-event simulation substrate. *)

open Edc_simnet

let time = Alcotest.testable Sim_time.pp Sim_time.equal

(* ------------------------------------------------------------------ *)
(* Sim_time                                                            *)
(* ------------------------------------------------------------------ *)

let test_time_units () =
  Alcotest.(check int) "us" 1_000 (Sim_time.us 1);
  Alcotest.(check int) "ms" 1_000_000 (Sim_time.ms 1);
  Alcotest.(check int) "sec" 1_000_000_000 (Sim_time.sec 1);
  Alcotest.(check (float 1e-9)) "to_ms" 1.5 (Sim_time.to_float_ms (Sim_time.us 1500));
  Alcotest.check time "of_float_s" (Sim_time.ms 250) (Sim_time.of_float_s 0.25)

let test_time_scale () =
  Alcotest.check time "scale x1.5" (Sim_time.us 150) (Sim_time.scale (Sim_time.us 100) 1.5);
  Alcotest.check time "scale x0" Sim_time.zero (Sim_time.scale (Sim_time.ms 3) 0.0)

(* ------------------------------------------------------------------ *)
(* Event_queue                                                         *)
(* ------------------------------------------------------------------ *)

let test_queue_order () =
  let q = Event_queue.create ~vacant:"" () in
  Event_queue.push q ~time:30 "c";
  Event_queue.push q ~time:10 "a";
  Event_queue.push q ~time:20 "b";
  let popped = ref [] in
  let rec drain () =
    match Event_queue.pop q with
    | None -> ()
    | Some (_, x) ->
        popped := x :: !popped;
        drain ()
  in
  drain ();
  Alcotest.(check (list string)) "sorted" [ "a"; "b"; "c" ] (List.rev !popped)

let test_queue_fifo_ties () =
  let q = Event_queue.create ~vacant:0 () in
  for i = 0 to 99 do
    Event_queue.push q ~time:5 i
  done;
  let out = ref [] in
  let rec drain () =
    match Event_queue.pop q with
    | None -> ()
    | Some (_, x) ->
        out := x :: !out;
        drain ()
  in
  drain ();
  Alcotest.(check (list int)) "insertion order preserved at equal times"
    (List.init 100 Fun.id) (List.rev !out)

let test_queue_clear () =
  let q = Event_queue.create ~vacant:() () in
  Event_queue.push q ~time:1 ();
  Event_queue.push q ~time:2 ();
  Alcotest.(check int) "len" 2 (Event_queue.length q);
  Event_queue.clear q;
  Alcotest.(check bool) "empty" true (Event_queue.is_empty q);
  Alcotest.(check (option (pair int unit))) "pop none" None (Event_queue.pop q)

(* A fired, cleared or cancelled event must not stay reachable through
   the slot it vacated: each payload is only weakly held by the test, so
   after a full major GC it must be gone while the queue itself is still
   live.  Twenty pushes force a [grow], covering the resized array's
   spare slots too.  A cancelled payload is released at once, while its
   dead entry waits in the heap for a compaction. *)
let test_queue_releases_popped () =
  let q = Event_queue.create ~vacant:Bytes.empty () in
  let n = 20 in
  let weak = Weak.create n in
  let[@inline never] fill () =
    for i = 0 to n - 1 do
      let payload = Bytes.make 16 (Char.chr (65 + i)) in
      Weak.set weak i (Some payload);
      Event_queue.push q ~time:(n - i) payload
    done
  in
  let live () = List.length (List.filter (Weak.check weak) (List.init n Fun.id)) in
  fill ();
  for _ = 1 to n / 2 do
    ignore (Sys.opaque_identity (Event_queue.pop q))
  done;
  Gc.full_major ();
  Alcotest.(check int) "popped payloads collected, pending ones kept" (n / 2)
    (live ());
  Event_queue.clear q;
  Gc.full_major ();
  Alcotest.(check int) "cleared payloads collected" 0 (live ());
  Alcotest.(check bool) "queue still live" true (Event_queue.is_empty q);
  let[@inline never] fill_cancellable () =
    List.init n (fun i ->
        let payload = Bytes.make 16 (Char.chr (97 + i)) in
        Weak.set weak i (Some payload);
        Event_queue.push_cancellable q ~time:i payload)
  in
  let handles = fill_cancellable () in
  (* The earliest entry stays live; the 11th cancel compacts 20 entries
     to 9, and the 16th compacts again, down to the 4 live ones. *)
  List.iteri (fun i h -> if i mod 5 <> 0 then Event_queue.cancel q h) handles;
  Gc.full_major ();
  Alcotest.(check int) "cancelled payloads collected, live ones kept" (n / 5)
    (live ());
  Alcotest.(check int) "live entries" (n / 5) (Event_queue.length q)

let prop_queue_sorted =
  QCheck.Test.make ~name:"event_queue pops in nondecreasing time order"
    ~count:200
    QCheck.(list (int_bound 10_000))
    (fun times ->
      let q = Event_queue.create ~vacant:0 () in
      List.iter (fun t -> Event_queue.push q ~time:t t) times;
      let rec drain acc =
        match Event_queue.pop q with
        | None -> List.rev acc
        | Some (t, _) -> drain (t :: acc)
      in
      let out = drain [] in
      out = List.sort compare times)

(* Model-based test: random interleavings of push, cancellable push,
   pop, cancel and clear, checked after every step against the sorted
   list in [Queue_model].  Times come from a small range, so equal-time
   ties are common; cancels pick among every handle ever issued, so many
   name entries already popped, cancelled or cleared.  Each case runs a
   push-heavy phase, a cancel-heavy one (cancelled entries come to
   outnumber live ones: the queue compacts) and a mixed one (live
   entries outnumber cancelled ones again). *)
type queue_op = Push of int | Push_cancellable of int | Pop | Cancel of int | Clear

let pp_queue_op = function
  | Push t -> Printf.sprintf "push %d" t
  | Push_cancellable t -> Printf.sprintf "push_cancellable %d" t
  | Pop -> "pop"
  | Cancel i -> Printf.sprintf "cancel #%d" i
  | Clear -> "clear"

let gen_queue_ops =
  let open QCheck.Gen in
  let time = int_bound 8 in
  let phase weights = list_size (int_bound 60) (frequency weights) in
  let push w = (w, map (fun t -> Push t) time)
  and push_c w = (w, map (fun t -> Push_cancellable t) time)
  and pop w = (w, return Pop)
  and cancel w = (w, map (fun i -> Cancel i) nat) in
  let* fill = phase [ push 1; push_c 6; pop 1 ] in
  let* drain = phase [ push_c 1; pop 1; cancel 8 ] in
  let* mixed = phase [ push 4; push_c 4; pop 3; cancel 3; (1, return Clear) ] in
  return (fill @ drain @ mixed)

let prop_queue_matches_model =
  QCheck.Test.make ~name:"event_queue matches the sorted-list model" ~count:500
    (QCheck.make ~print:(QCheck.Print.list pp_queue_op) gen_queue_ops)
    (fun ops ->
      let q = Event_queue.create ~vacant:(-1) () and m = Queue_model.create () in
      (* handles in issue order, each paired with the model's seq *)
      let handles = ref [||] in
      let apply = function
        | Push time -> Event_queue.push q ~time (Queue_model.push m ~time)
        | Push_cancellable time ->
            let seq = Queue_model.push m ~time in
            let h = Event_queue.push_cancellable q ~time seq in
            handles := Array.append !handles [| (h, seq) |]
        | Pop ->
            if Event_queue.pop q <> Queue_model.pop m then
              QCheck.Test.fail_report "pop differs"
        | Cancel i ->
            let n = Array.length !handles in
            if n > 0 then begin
              let h, seq = !handles.(n - 1 - (i mod n)) in
              Event_queue.cancel q h;
              Queue_model.cancel m seq
            end
        | Clear ->
            Event_queue.clear q;
            Queue_model.clear m
      in
      List.iter
        (fun op ->
          apply op;
          if Event_queue.length q <> Queue_model.length m
             || Event_queue.peek_time q <> Queue_model.peek_time m
          then QCheck.Test.fail_reportf "after %s: queue and model differ" (pp_queue_op op))
        ops;
      let rec drain () =
        match (Event_queue.pop q, Queue_model.pop m) with
        | None, None -> true
        | a, b -> a = b && drain ()
      in
      drain ())

(* Pushing and taking from a warmed queue allocates nothing: the heap
   moves unboxed ints, payloads stay in their slots, and [top_time] /
   [take] return no option or tuple.  The payload closures are built
   before the measured region. *)
let test_queue_no_allocation () =
  let payloads = Array.init 64 (fun i () -> ignore (Sys.opaque_identity i)) in
  let q = Event_queue.create ~vacant:ignore () in
  for i = 0 to 4096 do
    Event_queue.push q ~time:((i * 7919) land 4095) payloads.(i land 63)
  done;
  ignore (Event_queue.take q : unit -> unit);
  let pairs = 20_000 in
  let before = Gc.minor_words () in
  for i = 1 to pairs do
    let now = Event_queue.top_time q in
    Event_queue.push q ~time:(now + ((i * 7919) land 4095)) payloads.(i land 63);
    let f = Event_queue.take q in
    ignore (Sys.opaque_identity f : unit -> unit)
  done;
  let words = Gc.minor_words () -. before in
  Alcotest.(check (float 0.)) "minor words allocated by push + take" 0. words;
  Alcotest.(check int) "size unchanged" 4096 (Event_queue.length q)

(* ------------------------------------------------------------------ *)
(* Rng                                                                 *)
(* ------------------------------------------------------------------ *)

let test_rng_deterministic () =
  let a = Rng.create 7 and b = Rng.create 7 in
  for _ = 1 to 100 do
    Alcotest.(check int) "same stream" (Rng.int a 1_000_000) (Rng.int b 1_000_000)
  done

let test_rng_split_independent () =
  let a = Rng.create 7 in
  let c = Rng.split a in
  let before = Rng.int c 1_000_000 in
  (* Drawing from the parent must not perturb the child's stream. *)
  let a2 = Rng.create 7 in
  let c2 = Rng.split a2 in
  ignore (Rng.int a2 10 : int);
  Alcotest.(check int) "child unaffected by parent draws" before (Rng.int c2 1_000_000 |> fun x -> if x = before then before else x);
  ignore before

let prop_rng_int_bounds =
  QCheck.Test.make ~name:"rng int within bounds" ~count:500
    QCheck.(pair small_int (int_range 1 1_000_000))
    (fun (seed, bound) ->
      let r = Rng.create seed in
      let x = Rng.int r bound in
      x >= 0 && x < bound)

let prop_rng_float_range =
  QCheck.Test.make ~name:"rng float in [0,1)" ~count:500 QCheck.small_int
    (fun seed ->
      let r = Rng.create seed in
      let x = Rng.float r in
      x >= 0.0 && x < 1.0)

(* ------------------------------------------------------------------ *)
(* Sim                                                                 *)
(* ------------------------------------------------------------------ *)

let test_sim_ordering () =
  let sim = Sim.create () in
  let log = ref [] in
  Sim.schedule sim ~after:(Sim_time.ms 3) (fun () -> log := "c" :: !log);
  Sim.schedule sim ~after:(Sim_time.ms 1) (fun () -> log := "a" :: !log);
  Sim.schedule sim ~after:(Sim_time.ms 2) (fun () -> log := "b" :: !log);
  Sim.run sim;
  Alcotest.(check (list string)) "in time order" [ "a"; "b"; "c" ] (List.rev !log);
  Alcotest.check time "clock at last event" (Sim_time.ms 3) (Sim.now sim)

let test_sim_until () =
  let sim = Sim.create () in
  let fired = ref 0 in
  Sim.schedule sim ~after:(Sim_time.ms 1) (fun () -> incr fired);
  Sim.schedule sim ~after:(Sim_time.ms 10) (fun () -> incr fired);
  Sim.run ~until:(Sim_time.ms 5) sim;
  Alcotest.(check int) "only first fired" 1 !fired;
  Alcotest.check time "clock at horizon" (Sim_time.ms 5) (Sim.now sim);
  Sim.run sim;
  Alcotest.(check int) "second fires on resume" 2 !fired

let test_sim_nested_schedule () =
  let sim = Sim.create () in
  let log = ref [] in
  Sim.schedule sim ~after:(Sim_time.ms 1) (fun () ->
      log := "outer" :: !log;
      Sim.schedule sim ~after:(Sim_time.ms 1) (fun () -> log := "inner" :: !log));
  Sim.run sim;
  Alcotest.(check (list string)) "nested" [ "outer"; "inner" ] (List.rev !log);
  Alcotest.check time "clock" (Sim_time.ms 2) (Sim.now sim)

let test_sim_max_events () =
  let sim = Sim.create () in
  (* A self-perpetuating event chain: max_events must bound it. *)
  let rec tick () = Sim.schedule sim ~after:(Sim_time.us 1) (fun () -> tick ()) in
  tick ();
  Sim.run ~max_events:100 sim;
  Alcotest.(check int) "bounded" 100 (Sim.executed_events sim)

let test_sim_cancel () =
  let sim = Sim.create () in
  let fired = ref 0 in
  let timer = Sim.schedule_timer sim ~after:(Sim_time.ms 5) (fun () -> incr fired) in
  Alcotest.(check int) "armed timer pending" 1 (Sim.pending sim);
  Sim.cancel sim timer;
  Alcotest.(check int) "cancelled timer not pending" 0 (Sim.pending sim);
  Sim.cancel sim timer;
  Sim.run sim;
  Alcotest.(check int) "never ran" 0 !fired;
  Alcotest.check time "clock not moved" Sim_time.zero (Sim.now sim);
  let timer = Sim.schedule_timer sim ~after:(Sim_time.ms 5) (fun () -> incr fired) in
  Sim.schedule sim ~after:(Sim_time.ms 9) ignore;
  Sim.run ~until:(Sim_time.ms 7) sim;
  Sim.cancel sim timer;
  Alcotest.(check int) "fired once" 1 !fired;
  Alcotest.(check int) "cancelling a fired timer is a no-op" 1 (Sim.pending sim)

(* Cancelled timers are skipped, not executed: [max_events] and
   [executed_events] count live events only. *)
let test_sim_max_events_live_only () =
  let sim = Sim.create () in
  let log = ref [] in
  let timers =
    List.init 10 (fun i ->
        Sim.schedule_timer sim ~after:(Sim_time.ms (i + 1)) (fun () -> log := (i + 1) :: !log))
  in
  List.iteri (fun i timer -> if i mod 2 = 0 then Sim.cancel sim timer) timers;
  Alcotest.(check int) "live pending" 5 (Sim.pending sim);
  Sim.run ~max_events:3 sim;
  Alcotest.(check (list int)) "three live timers ran" [ 2; 4; 6 ] (List.rev !log);
  Alcotest.(check int) "executed" 3 (Sim.executed_events sim);
  Alcotest.check time "clock at the last one run" (Sim_time.ms 6) (Sim.now sim);
  Alcotest.(check int) "still pending" 2 (Sim.pending sim)

let test_sim_stop () =
  let sim = Sim.create () in
  let fired = ref 0 in
  Sim.schedule sim ~after:(Sim_time.ms 1) (fun () ->
      incr fired;
      Sim.stop sim);
  Sim.schedule sim ~after:(Sim_time.ms 2) (fun () -> incr fired);
  Sim.run sim;
  Alcotest.(check int) "stopped after first" 1 !fired

(* ------------------------------------------------------------------ *)
(* Proc                                                                *)
(* ------------------------------------------------------------------ *)

let test_proc_async_await () =
  let sim = Sim.create () in
  let result = ref 0 in
  let p = Proc.async sim (fun () -> 41 + 1) in
  Proc.spawn sim (fun () -> result := Proc.await p);
  Sim.run sim;
  Alcotest.(check int) "async value" 42 !result

let test_proc_sleep_ordering () =
  let sim = Sim.create () in
  let log = ref [] in
  Proc.spawn sim (fun () ->
      Proc.sleep sim (Sim_time.ms 2);
      log := "slow" :: !log);
  Proc.spawn sim (fun () ->
      Proc.sleep sim (Sim_time.ms 1);
      log := "fast" :: !log);
  Sim.run sim;
  Alcotest.(check (list string)) "wakeup order" [ "fast"; "slow" ] (List.rev !log)

let test_proc_promise_roundtrip () =
  let sim = Sim.create () in
  let p = Proc.promise sim in
  let got = ref "" in
  Proc.spawn sim (fun () -> got := Proc.await p);
  Sim.schedule sim ~after:(Sim_time.ms 5) (fun () -> Proc.fulfill p "hello");
  Sim.run sim;
  Alcotest.(check string) "value through promise" "hello" !got;
  Alcotest.check time "awaiter resumed at fulfill time" (Sim_time.ms 5) (Sim.now sim)

let test_proc_await_already_fulfilled () =
  let sim = Sim.create () in
  let p = Proc.promise sim in
  Proc.fulfill p 7;
  let got = ref 0 in
  Proc.spawn sim (fun () -> got := Proc.await p);
  Sim.run sim;
  Alcotest.(check int) "immediate value" 7 !got

let test_proc_try_fulfill () =
  let sim = Sim.create () in
  let p = Proc.promise sim in
  Alcotest.(check bool) "first wins" true (Proc.try_fulfill p 1);
  Alcotest.(check bool) "second loses" false (Proc.try_fulfill p 2);
  Alcotest.(check (option int)) "kept first" (Some 1) (Proc.value_opt p)

let test_proc_fulfill_twice_raises () =
  let sim = Sim.create () in
  let p = Proc.promise sim in
  Proc.fulfill p ();
  Alcotest.check_raises "double fulfill"
    (Invalid_argument "Proc.fulfill: already fulfilled") (fun () ->
      Proc.fulfill p ())

let test_proc_await_timeout_expires () =
  let sim = Sim.create () in
  let p = Proc.promise sim in
  let got = ref (Some 99) in
  Proc.spawn sim (fun () ->
      got := Proc.await_timeout sim p ~timeout:(Sim_time.ms 1));
  Sim.schedule sim ~after:(Sim_time.ms 10) (fun () -> Proc.fulfill p 5);
  Sim.run sim;
  Alcotest.(check (option int)) "timed out" None !got

let test_proc_await_timeout_wins () =
  let sim = Sim.create () in
  let p = Proc.promise sim in
  let got = ref None in
  Proc.spawn sim (fun () ->
      got := Proc.await_timeout sim p ~timeout:(Sim_time.ms 10));
  Sim.schedule sim ~after:(Sim_time.ms 1) (fun () -> Proc.fulfill p 5);
  Sim.run sim;
  Alcotest.(check (option int)) "value before timeout" (Some 5) !got

(* An answered wait leaves no timer behind: the queue is back to its
   size before the wait, and draining it stops at the answer, not at the
   abandoned deadline. *)
let test_proc_await_timeout_cancels_timer () =
  let sim = Sim.create () in
  let p = Proc.promise sim in
  let pending_before = ref (-1) and pending_after = ref (-1) in
  Proc.spawn sim (fun () ->
      pending_before := Sim.pending sim;
      Sim.schedule sim ~after:(Sim_time.ms 1) (fun () -> Proc.fulfill p 5);
      ignore (Proc.await_timeout sim p ~timeout:(Sim_time.sec 1) : int option);
      pending_after := Sim.pending sim);
  Sim.run sim;
  Alcotest.(check int) "pending back to its value before the wait" !pending_before
    !pending_after;
  Alcotest.check time "clock stops at the answer" (Sim_time.ms 1) (Sim.now sim)

let test_proc_join () =
  let sim = Sim.create () in
  let ps = List.init 5 (fun i -> Proc.async sim (fun () ->
      Proc.sleep sim (Sim_time.ms i)))
  in
  let done_ = ref false in
  Proc.spawn sim (fun () ->
      Proc.join ps;
      done_ := true);
  Sim.run sim;
  Alcotest.(check bool) "joined all" true !done_

(* ------------------------------------------------------------------ *)
(* Net                                                                 *)
(* ------------------------------------------------------------------ *)

let test_net_delivery () =
  let sim = Sim.create () in
  let net = Net.create sim in
  let got = ref None in
  Net.register net 2 (fun ~src ~size msg -> got := Some (src, size, msg));
  Net.send net ~src:1 ~dst:2 ~size:100 "ping";
  Sim.run sim;
  Alcotest.(check (option (triple int int string)))
    "delivered with metadata" (Some (1, 100, "ping")) !got;
  Alcotest.(check bool) "latency at least base" true
    Sim_time.(Net.lan_config.base_latency <= Sim.now sim)

let test_net_byte_accounting () =
  let sim = Sim.create () in
  let net = Net.create sim in
  Net.register net 2 (fun ~src:_ ~size:_ _ -> ());
  Net.send net ~src:1 ~dst:2 ~size:100 ();
  Net.send net ~src:1 ~dst:2 ~size:50 ();
  Sim.run sim;
  Alcotest.(check int) "sender bytes" 150 (Net.bytes_sent_by net 1);
  Alcotest.(check int) "receiver bytes" 150 (Net.bytes_received_by net 2);
  Alcotest.(check int) "sender msgs" 2 (Net.messages_sent_by net 1);
  Alcotest.(check int) "total" 150 (Net.total_bytes_sent net)

let test_net_node_down () =
  let sim = Sim.create () in
  let net = Net.create sim in
  let got = ref 0 in
  Net.register net 2 (fun ~src:_ ~size:_ _ -> incr got);
  Net.set_node_down net 2;
  Net.send net ~src:1 ~dst:2 ~size:10 ();
  Sim.run sim;
  Alcotest.(check int) "not delivered" 0 !got;
  Alcotest.(check int) "counted as dropped" 1 (Net.dropped_messages net);
  Alcotest.(check int) "bytes still charged to sender" 10 (Net.bytes_sent_by net 1);
  Net.set_node_up net 2;
  Net.send net ~src:1 ~dst:2 ~size:10 ();
  Sim.run sim;
  Alcotest.(check int) "delivered after recovery" 1 !got

let test_net_cut_link () =
  let sim = Sim.create () in
  let net = Net.create sim in
  let got = ref 0 in
  Net.register net 2 (fun ~src:_ ~size:_ _ -> incr got);
  Net.cut_link net 1 2;
  Net.send net ~src:1 ~dst:2 ~size:10 ();
  Net.send net ~src:2 ~dst:1 ~size:10 ();
  Sim.run sim;
  Alcotest.(check int) "both directions cut" 0 !got;
  Net.heal_link net 2 1;
  Net.send net ~src:1 ~dst:2 ~size:10 ();
  Sim.run sim;
  Alcotest.(check int) "healed" 1 !got

let test_net_broadcast () =
  let sim = Sim.create () in
  let net = Net.create sim in
  let got = ref [] in
  List.iter (fun n -> Net.register net n (fun ~src:_ ~size:_ _ -> got := n :: !got))
    [ 2; 3; 4; 5 ];
  Net.broadcast net ~src:1 ~dsts:[ 2; 3; 4; 5 ] ~size:25 ();
  Sim.run sim;
  Alcotest.(check int) "all received" 4 (List.length !got);
  Alcotest.(check int) "bytes charged per copy" 100 (Net.bytes_sent_by net 1)

let test_net_reset_counters () =
  let sim = Sim.create () in
  let net = Net.create sim in
  Net.register net 2 (fun ~src:_ ~size:_ _ -> ());
  Net.send net ~src:1 ~dst:2 ~size:99 ();
  Sim.run sim;
  Net.reset_counters net;
  Alcotest.(check int) "zeroed" 0 (Net.bytes_sent_by net 1);
  Alcotest.(check int) "total zeroed" 0 (Net.total_bytes_sent net)

let test_net_loopback_fast () =
  let sim = Sim.create () in
  let net = Net.create sim in
  let at = ref Sim_time.zero in
  Net.register net 1 (fun ~src:_ ~size:_ _ -> at := Sim.now sim);
  Net.send net ~src:1 ~dst:1 ~size:0 ();
  Sim.run sim;
  Alcotest.(check bool) "self-send much faster than LAN" true
    Sim_time.(!at < Net.lan_config.base_latency)

(* ------------------------------------------------------------------ *)
(* Cpu                                                                 *)
(* ------------------------------------------------------------------ *)

let test_cpu_serializes_work () =
  let sim = Sim.create () in
  let cpu = Cpu.create sim in
  let finished = ref [] in
  for i = 1 to 5 do
    Cpu.exec cpu ~cost:(Sim_time.ms 10) (fun () ->
        finished := (i, Sim.now sim) :: !finished)
  done;
  Sim.run sim;
  let order = List.rev_map fst !finished in
  Alcotest.(check (list int)) "completion order = submission order"
    [ 1; 2; 3; 4; 5 ] order;
  (* five tasks of ~10ms each on one core take ~50ms total (± jitter) *)
  let total = Sim.now sim in
  Alcotest.(check bool) "work serialized, not parallel" true
    Sim_time.(Sim_time.ms 37 <= total && total <= Sim_time.ms 63)

let test_cpu_backlog () =
  let sim = Sim.create () in
  let cpu = Cpu.create sim in
  Alcotest.(check bool) "idle" true (Cpu.backlog cpu = Sim_time.zero);
  Cpu.exec cpu ~cost:(Sim_time.ms 10) (fun () -> ());
  Alcotest.(check bool) "busy" true Sim_time.(Sim_time.zero < Cpu.backlog cpu);
  Sim.run sim;
  Alcotest.(check bool) "drained" true (Cpu.backlog cpu = Sim_time.zero)

let test_cpu_deterministic_jitter () =
  let run () =
    let sim = Sim.create ~seed:3 () in
    let cpu = Cpu.create sim in
    let at = ref [] in
    for _ = 1 to 10 do
      Cpu.exec cpu ~cost:(Sim_time.us 100) (fun () -> at := Sim.now sim :: !at)
    done;
    Sim.run sim;
    !at
  in
  Alcotest.(check bool) "same seed, same schedule" true (run () = run ())

(* ------------------------------------------------------------------ *)
(* Vec                                                                 *)
(* ------------------------------------------------------------------ *)

let test_vec_basics () =
  let v = Vec.create () in
  Alcotest.(check bool) "empty" true (Vec.is_empty v);
  List.iter (Vec.push v) [ 1; 2; 3; 4 ];
  Alcotest.(check int) "length" 4 (Vec.length v);
  Alcotest.(check int) "get" 3 (Vec.get v 2);
  Vec.set v 2 30;
  Alcotest.(check int) "set" 30 (Vec.get v 2);
  Alcotest.(check (option int)) "last" (Some 4) (Vec.last_opt v);
  Alcotest.(check (list int)) "to_list" [ 1; 2; 30; 4 ] (Vec.to_list v);
  Alcotest.(check (list int)) "sub" [ 2; 30 ] (Vec.sub v 1 2);
  Vec.truncate v 2;
  Alcotest.(check (list int)) "truncate" [ 1; 2 ] (Vec.to_list v);
  Vec.replace_from v 1 [ 9; 8 ];
  Alcotest.(check (list int)) "replace_from" [ 1; 9; 8 ] (Vec.to_list v);
  Alcotest.check_raises "oob get" (Invalid_argument "Vec.get: out of bounds")
    (fun () -> ignore (Vec.get v 5))

let prop_vec_mirrors_list =
  QCheck.Test.make ~name:"vec push/to_list mirrors list" ~count:200
    QCheck.(list int)
    (fun xs ->
      let v = Vec.of_list xs in
      Vec.to_list v = xs
      && Vec.length v = List.length xs
      && Vec.fold_left (fun acc x -> acc + x) 0 v = List.fold_left ( + ) 0 xs)

(* ------------------------------------------------------------------ *)
(* Stats                                                               *)
(* ------------------------------------------------------------------ *)

let test_stats_summary () =
  let s = Stats.Summary.create () in
  List.iter (Stats.Summary.add s) [ 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 ];
  Alcotest.(check int) "count" 8 (Stats.Summary.count s);
  Alcotest.(check (float 1e-9)) "mean" 5.0 (Stats.Summary.mean s);
  Alcotest.(check (float 1e-6)) "stddev (sample)" 2.13809 (Stats.Summary.stddev s);
  Alcotest.(check (float 1e-9)) "min" 2.0 (Stats.Summary.min s);
  Alcotest.(check (float 1e-9)) "max" 9.0 (Stats.Summary.max s)

let test_stats_series_percentiles () =
  let s = Stats.Series.create () in
  for i = 1 to 100 do
    Stats.Series.add s (float_of_int i)
  done;
  Alcotest.(check (float 1e-9)) "median" 50.0 (Stats.Series.median s);
  (* nearest-rank: p99 of 1..100 is exactly 99 *)
  Alcotest.(check (float 1e-9)) "p99" 99.0 (Stats.Series.p99 s);
  Alcotest.(check (float 1e-9)) "min" 1.0 (Stats.Series.min s);
  Alcotest.(check (float 1e-9)) "max" 100.0 (Stats.Series.max s);
  Alcotest.(check (float 1e-9)) "percentile 0 = min" 1.0
    (Stats.Series.percentile s 0.0);
  Alcotest.(check (float 1e-9)) "percentile 100 = max" 100.0
    (Stats.Series.percentile s 100.0);
  Alcotest.(check (float 1e-9)) "mean" 50.5 (Stats.Series.mean s);
  (* small samples: high percentiles must not under-select (the old
     rounding made p99 of a 5-sample series pick the 4th value) *)
  let small = Stats.Series.create () in
  List.iter (Stats.Series.add small) [ 1.0; 2.0; 3.0; 4.0; 5.0 ];
  Alcotest.(check (float 1e-9)) "p99 of 5 samples is the max" 5.0
    (Stats.Series.percentile small 99.0);
  Alcotest.(check (float 1e-9)) "p50 of 5 samples (nearest rank)" 3.0
    (Stats.Series.percentile small 50.0)

let test_stats_series_interleaved_reads () =
  let s = Stats.Series.create () in
  Stats.Series.add s 10.0;
  ignore (Stats.Series.median s : float);
  Stats.Series.add s 2.0;
  Alcotest.(check (float 1e-9)) "min after re-sort" 2.0 (Stats.Series.min s)

let test_stats_counter_rate () =
  let c = Stats.Counter.create () in
  Stats.Counter.add c 500;
  Alcotest.(check (float 1e-9)) "rate over 2s" 250.0
    (Stats.Counter.rate c ~window:(Sim_time.sec 2));
  Stats.Counter.clear c;
  Alcotest.(check int) "cleared" 0 (Stats.Counter.get c)

let prop_summary_mean_bounded =
  QCheck.Test.make ~name:"summary mean between min and max" ~count:200
    QCheck.(list_of_size Gen.(int_range 1 50) (float_range 0.0 1000.0))
    (fun xs ->
      let s = Stats.Summary.create () in
      List.iter (Stats.Summary.add s) xs;
      let m = Stats.Summary.mean s in
      m >= Stats.Summary.min s -. 1e-9 && m <= Stats.Summary.max s +. 1e-9)

let qc = QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "edc_simnet"
    [
      ( "sim_time",
        [
          Alcotest.test_case "units" `Quick test_time_units;
          Alcotest.test_case "scale" `Quick test_time_scale;
        ] );
      ( "event_queue",
        [
          Alcotest.test_case "ordering" `Quick test_queue_order;
          Alcotest.test_case "fifo ties" `Quick test_queue_fifo_ties;
          Alcotest.test_case "clear" `Quick test_queue_clear;
          Alcotest.test_case "releases popped payloads" `Quick
            test_queue_releases_popped;
          Alcotest.test_case "push and take allocate nothing" `Quick
            test_queue_no_allocation;
          qc prop_queue_sorted;
          qc prop_queue_matches_model;
        ] );
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "split independent" `Quick test_rng_split_independent;
          qc prop_rng_int_bounds;
          qc prop_rng_float_range;
        ] );
      ( "sim",
        [
          Alcotest.test_case "ordering" `Quick test_sim_ordering;
          Alcotest.test_case "run until" `Quick test_sim_until;
          Alcotest.test_case "nested schedule" `Quick test_sim_nested_schedule;
          Alcotest.test_case "max events" `Quick test_sim_max_events;
          Alcotest.test_case "cancel" `Quick test_sim_cancel;
          Alcotest.test_case "max events counts live only" `Quick
            test_sim_max_events_live_only;
          Alcotest.test_case "stop" `Quick test_sim_stop;
        ] );
      ( "proc",
        [
          Alcotest.test_case "async await" `Quick test_proc_async_await;
          Alcotest.test_case "sleep ordering" `Quick test_proc_sleep_ordering;
          Alcotest.test_case "promise roundtrip" `Quick test_proc_promise_roundtrip;
          Alcotest.test_case "await fulfilled" `Quick test_proc_await_already_fulfilled;
          Alcotest.test_case "try_fulfill" `Quick test_proc_try_fulfill;
          Alcotest.test_case "double fulfill raises" `Quick test_proc_fulfill_twice_raises;
          Alcotest.test_case "timeout expires" `Quick test_proc_await_timeout_expires;
          Alcotest.test_case "timeout beaten" `Quick test_proc_await_timeout_wins;
          Alcotest.test_case "beaten timeout cancelled" `Quick
            test_proc_await_timeout_cancels_timer;
          Alcotest.test_case "join" `Quick test_proc_join;
        ] );
      ( "net",
        [
          Alcotest.test_case "delivery" `Quick test_net_delivery;
          Alcotest.test_case "byte accounting" `Quick test_net_byte_accounting;
          Alcotest.test_case "node down" `Quick test_net_node_down;
          Alcotest.test_case "cut link" `Quick test_net_cut_link;
          Alcotest.test_case "broadcast" `Quick test_net_broadcast;
          Alcotest.test_case "reset counters" `Quick test_net_reset_counters;
          Alcotest.test_case "loopback fast" `Quick test_net_loopback_fast;
        ] );
      ( "cpu",
        [
          Alcotest.test_case "serializes work" `Quick test_cpu_serializes_work;
          Alcotest.test_case "backlog" `Quick test_cpu_backlog;
          Alcotest.test_case "deterministic jitter" `Quick
            test_cpu_deterministic_jitter;
        ] );
      ( "vec",
        [
          Alcotest.test_case "basics" `Quick test_vec_basics;
          qc prop_vec_mirrors_list;
        ] );
      ( "stats",
        [
          Alcotest.test_case "summary" `Quick test_stats_summary;
          Alcotest.test_case "series percentiles" `Quick test_stats_series_percentiles;
          Alcotest.test_case "series re-sort" `Quick test_stats_series_interleaved_reads;
          Alcotest.test_case "counter rate" `Quick test_stats_counter_rate;
          qc prop_summary_mean_bounded;
        ] );
    ]
