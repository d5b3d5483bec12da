(* Layer replays for the traced run.  [Data_tree], the extension
   [Manager] and the DepSpace [Space] are reachable only from inside the
   replicas, so the traced run replays the op stream it recorded through
   each layer's public API on a standalone instance, under spans, to get
   the layer's self time and words per op. *)

module Zk = Edc_zookeeper
module Dt = Zk.Data_tree
module Core = Edc_core
module Value = Core.Value
module Counter = Edc_recipes.Counter

let c_match = Prof.cat "replay.manager.match"
let c_exec = Prof.cat "replay.manager.exec"
let c_read = Prof.cat "replay.data_tree.read"
let c_apply = Prof.cat "replay.data_tree.apply"

let create t path data = Dt.apply_create t ~path ~data ~ephemeral_owner:None

let unsupported _ = Error "unsupported in replay"

(* The state proxy an operation extension sees, over a standalone tree
   (the service's speculative view reduced to direct reads and applies). *)
let proxy tree =
  let read oid =
    match Prof.span c_read (fun () -> Dt.get_data tree oid) with
    | Ok (data, stat) ->
        Ok (Value.obj ~id:oid ~data ~version:stat.Zk.Znode.version ~ctime:stat.Zk.Znode.czxid)
    | Error e -> Error (Zk.Zerror.to_string e)
  in
  {
    Core.Sandbox.p_read = read;
    p_exists = (fun oid -> Dt.mem tree oid);
    p_sub_objects = unsupported;
    p_create = (fun ~sequential:_ ~oid:_ ~data:_ -> Error "unsupported in replay");
    p_update =
      (fun ~oid ~data ->
        match Dt.exists tree oid with
        | None -> Error "no node"
        | Some stat ->
            let version = stat.Zk.Znode.version + 1 in
            Prof.span c_apply (fun () -> Dt.apply_set tree ~path:oid ~data ~version);
            Ok version);
    p_cas = (fun ~oid:_ ~expected:_ ~data:_ -> Error "unsupported in replay");
    p_delete = unsupported;
    p_block = unsupported;
    p_monitor = unsupported;
    p_notify = (fun ~client:_ ~oid:_ -> Error "unsupported in replay");
    p_clock = (fun () -> 0);
  }

(* [op_log] holds [key * 2 + is_write] per op.  With [counter] every op is
   a trigger of the counter extension (matched and executed); otherwise
   reads and writes go to [key_path key] and the registered counter
   extension is matched but never fires. *)
let zk_layers ~counter ~op_log ~init ~key_path =
  let tree = Dt.create () in
  init tree;
  let m = Core.Manager.create ~mode:Core.Verify.Passive () in
  let name = Counter.extension_name in
  (match
     Core.Manager.apply_registration m ~name ~owner:1
       ~code:(Core.Codec.serialize Counter.program)
   with
  | Ok _ -> ()
  | Error e -> failwith ("replay registration: " ^ e));
  Core.Manager.apply_ack m ~name ~client:2;
  let px = proxy tree in
  let n = Prof.Samples.length op_log in
  let was = !Prof.enabled in
  Prof.enabled := true;
  let problems = ref 0 in
  for i = 0 to n - 1 do
    let v = int_of_float (Prof.Samples.get op_log i) in
    let key = v / 2 and is_write = v land 1 = 1 in
    if counter then begin
      let oid = Counter.trigger_oid in
      match
        Prof.span c_match (fun () ->
            Core.Manager.match_operation m ~client:2 ~kind:Core.Subscription.K_read ~oid)
      with
      | None -> incr problems
      | Some entry -> (
          let params =
            [
              ("oid", Value.Str oid);
              ("data", Value.Str "");
              ("client", Value.Int 2);
              ("kind", Value.Str "read");
            ]
          in
          match
            Prof.span c_exec (fun () -> Core.Manager.run_operation m entry ~proxy:px ~params)
          with
          | Ok _ -> ()
          | Error _ -> incr problems)
    end
    else begin
      let oid = key_path key in
      let kind = if is_write then Core.Subscription.K_update else Core.Subscription.K_read in
      (match Prof.span c_match (fun () -> Core.Manager.match_operation m ~client:2 ~kind ~oid) with
      | None -> ()
      | Some _ -> incr problems);
      if is_write then
        match Dt.exists tree oid with
        | Some stat ->
            let data = Dt.get_data tree oid |> Result.get_ok |> fst in
            Prof.span c_apply (fun () ->
                Dt.apply_set tree ~path:oid ~data ~version:(stat.Zk.Znode.version + 1))
        | None -> incr problems
      else ignore (Prof.span c_read (fun () -> Dt.get_data tree oid))
    end
  done;
  Prof.enabled := was;
  if !problems > 0 then failwith "replay diverged from the recorded workload";
  let us c = Prof.per n c.Prof.self_s *. 1e6 in
  let words cs = Prof.per n (List.fold_left (fun acc c -> acc +. c.Prof.words) 0. cs) in
  [
    ("manager.match_us_per_op", us c_match);
    ("manager.exec_us_per_op", us c_exec);
    ("manager.words_per_op", words [ c_match; c_exec ]);
    ("data_tree.read_us_per_op", us c_read);
    ("data_tree.apply_us_per_op", us c_apply);
    ("data_tree.words_per_op", words [ c_read; c_apply ]);
  ]

module Ds = Edc_depspace
module Queue_recipe = Edc_recipes.Queue

let c_space = Prof.cat "replay.space"

(* [op_log] holds, per queue op, the adder's sequence number (an add) or
   [-1] (a removal through the queue extension).  Adds insert an object
   tuple; removals match the extension and run it against the space. *)
let eds_layers ~op_log =
  let space = Ds.Space.create () in
  let m = Core.Manager.create ~mode:Core.Verify.Active () in
  let name = Queue_recipe.extension_name in
  (match
     Core.Manager.apply_registration m ~name ~owner:1
       ~code:(Core.Codec.serialize Queue_recipe.program)
   with
  | Ok _ -> ()
  | Error e -> failwith ("replay registration: " ^ e));
  Core.Manager.apply_ack m ~name ~client:2;
  let sp f = Prof.span c_space f in
  let proxy =
    {
      (proxy (Dt.create ())) with
      Core.Sandbox.p_sub_objects =
        (fun oid ->
          Ok
            (sp (fun () -> Ds.Space.read_all space (Ds.Objects.sub_template oid))
            |> List.filter_map Ds.Objects.decode
            |> List.map (fun v ->
                   Value.obj ~id:v.Ds.Objects.oid ~data:v.Ds.Objects.data
                     ~version:v.Ds.Objects.version ~ctime:v.Ds.Objects.ctime)));
      p_delete =
        (fun oid -> Ok (sp (fun () -> Ds.Space.take space (Ds.Objects.template oid)) <> None));
    }
  in
  let n = Prof.Samples.length op_log in
  let was = !Prof.enabled in
  Prof.enabled := true;
  let params =
    [
      ("oid", Value.Str Queue_recipe.head_trigger);
      ("data", Value.Str "");
      ("client", Value.Int 2);
      ("kind", Value.Str "read");
    ]
  in
  for i = 0 to n - 1 do
    let v = int_of_float (Prof.Samples.get op_log i) in
    if v >= 0 then begin
      let oid = Printf.sprintf "%s/c%d-%06d" Queue_recipe.root (i mod 50) v in
      let ctime = Ds.Space.next_insert_seq space in
      ignore
        (sp (fun () ->
             Ds.Space.insert space ~owner:2 ~expiry:None
               (Ds.Objects.tuple ~oid ~data:oid ~version:0 ~ctime))
          : int)
    end
    else
      match
        Prof.span c_match (fun () ->
            Core.Manager.match_operation m ~client:2 ~kind:Core.Subscription.K_read
              ~oid:Queue_recipe.head_trigger)
      with
      | None -> failwith "replay: queue extension not matched"
      | Some entry ->
          ignore (Prof.span c_exec (fun () -> Core.Manager.run_operation m entry ~proxy ~params))
  done;
  Prof.enabled := was;
  let us c = Prof.per n c.Prof.self_s *. 1e6 in
  let words cs = Prof.per n (List.fold_left (fun acc c -> acc +. c.Prof.words) 0. cs) in
  [
    ("manager.match_us_per_op", us c_match);
    ("manager.exec_us_per_op", us c_exec);
    ("manager.words_per_op", words [ c_match; c_exec ]);
    ("space.op_us_per_op", us c_space);
    ("space.words_per_op", words [ c_space ]);
  ]
