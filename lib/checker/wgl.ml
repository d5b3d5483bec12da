(** Wing–Gong / WGL linearizability search.  See wgl.mli for semantics.

    The search keeps the unlinearized operations in a doubly-linked list
    ordered by invocation time.  Candidates for the next linearization
    point are a prefix of that list: an operation [e] is eligible iff no
    unlinearized operation returned strictly before [inv e], and any
    operation invoked later than the running minimum return time can
    never be eligible, so the scan stops there (Lowe's optimization).
    Visited (linearized-set, model-state) configurations are memoized.

    Counterexamples are minimized by cutting the history at completion
    times: the prefix at cut [T] keeps every operation invoked by [T],
    demoting those that complete after [T] to optional/unconstrained.
    Linearizability is prefix-closed under that cut, so "the prefix at
    [T] fails" is monotone in [T] and a binary search finds the earliest
    failing completion. *)

open Edc_simnet

type counterexample = {
  cx_cut : Sim_time.t option;
  cx_ops : int;
  cx_required : int;
  cx_linearized : int;
  cx_window : History.entry list;
}

type verdict =
  | Linearizable of { ops : int; states : int }
  | Non_linearizable of counterexample
  | Budget_exhausted of { ops : int; steps : int }

let is_ok = function Linearizable _ -> true | _ -> false

(* One operation as the search sees it (constraints depend on the cut). *)
type eop = {
  ent : History.entry;
  required : bool;
  resp : History.response option;  (* None = unconstrained *)
}

type attempt =
  | A_ok of { states : int }
  | A_fail of { ops : eop array; best_lin : bool array }
  | A_budget of { steps : int }

exception Found
exception Budget

let search ~max_steps (model : Model.t) (ops : eop array) =
  let n = Array.length ops in
  let required_total =
    Array.fold_left (fun acc o -> if o.required then acc + 1 else acc) 0 ops
  in
  if required_total = 0 then A_ok { states = 0 }
  else begin
    (* doubly-linked list over 0..n-1 in invocation order; sentinel n *)
    let next = Array.init (n + 1) (fun i -> if i = n then 0 else i + 1) in
    let prev = Array.init (n + 1) (fun i -> if i = 0 then n else i - 1) in
    let unlink i =
      next.(prev.(i)) <- next.(i);
      prev.(next.(i)) <- prev.(i)
    in
    let relink i =
      next.(prev.(i)) <- i;
      prev.(next.(i)) <- i
    in
    let lin = Bytes.make ((n + 7) / 8) '\000' in
    let set_bit i =
      let b = Char.code (Bytes.get lin (i lsr 3)) in
      Bytes.set lin (i lsr 3) (Char.chr (b lor (1 lsl (i land 7))))
    in
    let clear_bit i =
      let b = Char.code (Bytes.get lin (i lsr 3)) in
      Bytes.set lin (i lsr 3) (Char.chr (b land lnot (1 lsl (i land 7))))
    in
    let memo : (string * Model.state, unit) Hashtbl.t = Hashtbl.create 4096 in
    let steps = ref 0 in
    let states = ref 0 in
    let best_count = ref (-1) in
    let best_lin = ref (Bytes.to_string lin) in
    let rec dfs state n_req n_tot =
      if n_req = required_total then raise Found;
      let key = (Bytes.to_string lin, state) in
      if not (Hashtbl.mem memo key) then begin
        Hashtbl.add memo key ();
        incr states;
        if n_tot > !best_count then begin
          best_count := n_tot;
          best_lin := fst key
        end;
        (* Scan candidates: a prefix of the unlinearized list, in two
           passes.  Constrained (response-bearing) operations go first:
           on a healthy history the observed responses pin the order, so
           trying them first finds a witness near-greedily, and
           unconstrained "maybe applied" ops are only pulled in when a
           constrained op cannot step (e.g. an observed counter value
           jumped past the model's).  Within the second pass, open
           operations with the same client and content are
           interchangeable — they impose no response or real-time
           constraint on anyone, and the earlier-invoked one is eligible
           whenever a later one is — so only the first of each kind is
           tried (symmetry reduction; without it, "choose which j of k
           ambiguous writes applied" explodes combinatorially). *)
        let opens_seen = ref [] in
        let rec scan i min_ret ~constrained =
          if i <> n then begin
            let o = ops.(i) in
            let eligible =
              match min_ret with
              | None -> true
              | Some m -> Sim_time.(o.ent.History.inv <= m)
            in
            if eligible then begin
              (match (o.resp, constrained) with
              | Some _, true -> linearize i o state n_req n_tot
              | Some _, false | None, true -> ()
              | None, false ->
                  let key = (o.ent.History.client, o.ent.History.op) in
                  if not (List.mem key !opens_seen) then begin
                    opens_seen := key :: !opens_seen;
                    linearize i o state n_req n_tot
                  end);
              let min_ret' =
                match (min_ret, o.ent.History.ret) with
                | m, None -> m
                | None, r -> r
                | Some m, Some r -> Some (Sim_time.min m r)
              in
              scan next.(i) min_ret' ~constrained
            end
          end
        in
        scan next.(n) None ~constrained:true;
        scan next.(n) None ~constrained:false
      end
    and linearize i o state n_req n_tot =
      incr steps;
      if !steps > max_steps then raise Budget;
      let alts = model.Model.step state ~client:o.ent.History.client o.ent.History.op in
      let alts =
        match o.resp with
        | None -> alts
        | Some observed ->
            List.filter
              (fun (candidate, _) ->
                model.Model.matches ~observed ~candidate)
              alts
      in
      if alts <> [] then begin
        unlink i;
        set_bit i;
        List.iter
          (fun (_, state') ->
            dfs state' (n_req + if o.required then 1 else 0) (n_tot + 1))
          alts;
        clear_bit i;
        relink i
      end
    in
    try
      dfs model.Model.init 0 0;
      let best = Bytes.of_string !best_lin in
      let flags =
        Array.init n (fun i ->
            Char.code (Bytes.get best (i lsr 3)) land (1 lsl (i land 7)) <> 0)
      in
      A_fail { ops; best_lin = flags }
    with
    | Found -> A_ok { states = !states }
    | Budget -> A_budget { steps = !steps }
  end

(* Build the operation array for a completion-time cut.  [None] = the
   whole history; [Some c] keeps operations invoked by [c], demoting
   those still running at [c] to optional and unconstrained. *)
let ops_at_cut entries cut =
  entries
  |> List.filter (fun (e : History.entry) ->
         match cut with
         | None -> true
         | Some c -> Sim_time.(e.History.inv <= c))
  |> List.map (fun (e : History.entry) ->
         let concluded =
           match (e.History.outcome, e.History.ret, cut) with
           | History.Done r, Some ret, Some c ->
               if Sim_time.(ret <= c) then Some r else None
           | History.Done r, _, None -> Some r
           | _ -> None
         in
         match concluded with
         | Some r -> { ent = e; required = true; resp = Some r }
         | None ->
             {
               ent = { e with History.ret = None };
               required = false;
               resp = None;
             })
  |> Array.of_list

(* Drop optional unconstrained ops the model certifies as irrelevant to
   this prefix (see {!Model.t.droppable_open}); recomputed per cut
   because demotion changes which responses constrain. *)
let prune_opens (model : Model.t) (ops : eop array) =
  match model.Model.droppable_open with
  | None -> ops
  | Some droppable ->
      let required =
        Array.to_list ops
        |> List.filter_map (fun o ->
               match o.resp with
               | Some r when o.required -> Some (o.ent.History.op, r)
               | _ -> None)
      in
      Array.to_list ops
      |> List.filter (fun o ->
             match o.resp with
             | Some _ -> true
             | None -> not (droppable o.ent.History.op ~required))
      |> Array.of_list

let counterexample_of ~cut (ops : eop array) best_lin =
  let window = ref [] and lind = ref 0 and req = ref 0 in
  Array.iteri
    (fun i o ->
      if o.required then begin
        incr req;
        if best_lin.(i) then incr lind
        else window := o.ent :: !window
      end)
    ops;
  {
    cx_cut = cut;
    cx_ops = Array.length ops;
    cx_required = !req;
    cx_linearized = !lind;
    cx_window = List.rev !window;
  }

let check ?(max_steps = 300_000) (model : Model.t) entries =
  let entries =
    entries
    |> List.filter (fun (e : History.entry) ->
           match e.History.outcome with History.Failed _ -> false | _ -> true)
    |> List.sort (fun (a : History.entry) (b : History.entry) ->
           compare (a.History.inv, a.History.id) (b.History.inv, b.History.id))
  in
  let n_entries = List.length entries in
  let completions =
    entries
    |> List.filter_map (fun (e : History.entry) ->
           match e.History.outcome with
           | History.Done _ -> e.History.ret
           | _ -> None)
    |> List.sort_uniq compare
    |> Array.of_list
  in
  let m = Array.length completions in
  if m = 0 then
    (* nothing completed: everything is optional, trivially linearizable *)
    Linearizable { ops = n_entries; states = 0 }
  else begin
    (* Probe prefixes at exponentially spaced completion cuts instead of
       attacking the whole history at once.  Passing a cut is cheap (the
       search finds a witness greedily), and the prefix at the last
       completion has the same required set as the full history — the
       remaining entries are optional and never need linearizing — so
       passing it proves the whole history.  On the first failing cut,
       binary-search back to the earliest failing completion: the search
       then exhausts the smallest possible prefix rather than the full
       history, which is what makes conviction tractable. *)
    let probe idx =
      search ~max_steps model
        (prune_opens model (ops_at_cut entries (Some completions.(idx))))
    in
    let verdict_at hi = function
      | A_fail { ops; best_lin } ->
          Non_linearizable
            (counterexample_of ~cut:(Some completions.(hi)) ops best_lin)
      | A_budget { steps } -> Budget_exhausted { ops = n_entries; steps }
      | A_ok _ -> assert false
    in
    (* narrow (lo, hi]: the prefix at lo passes (lo = -1 for none), the
       probe at hi returned the non-ok [r_hi].  Passing is monotone
       (downward closed), so binary search isolates the earliest non-ok
       cut.  A budget blowup at a large cut often hides a small definite
       violation just past the last passing cut — the smaller prefix is
       cheap to exhaust, so keep narrowing instead of giving up. *)
    let rec narrow lo hi r_hi =
      if lo + 1 >= hi then verdict_at hi r_hi
      else
        let mid = (lo + hi) / 2 in
        match probe mid with
        | A_ok _ -> narrow mid hi r_hi
        | r -> narrow lo mid r
    in
    let rec grow last_pass idx =
      match probe idx with
      | A_ok { states } ->
          if idx = m - 1 then Linearizable { ops = n_entries; states }
          else grow idx (min (m - 1) ((idx + 1) * 4))
      | r -> narrow last_pass idx r
    in
    grow (-1) (min (m - 1) 63)
  end

let check_history ?max_steps h =
  History.entries h |> History.split
  |> List.filter_map (fun (obj, es) ->
         Model.for_object obj
         |> Option.map (fun m -> (obj, check ?max_steps m es)))

let pp_window ppf window =
  let cap = 16 in
  let shown = List.filteri (fun i _ -> i < cap) window in
  Fmt.pf ppf "@[<v>%a%a@]"
    Fmt.(list ~sep:cut History.pp_entry)
    shown
    (fun ppf rest -> if rest > 0 then Fmt.pf ppf "@,… (+%d more)" rest)
    (List.length window - List.length shown)

let pp_verdict ppf = function
  | Linearizable { ops; states } ->
      Fmt.pf ppf "linearizable (%d ops, %d states)" ops states
  | Budget_exhausted { ops; steps } ->
      Fmt.pf ppf "inconclusive: step budget exhausted (%d ops, %d steps)" ops
        steps
  | Non_linearizable cx ->
      Fmt.pf ppf
        "@[<v>NON-LINEARIZABLE: %d of %d required ops cannot be ordered \
         (prefix of %d ops%a)@,%a@]"
        (List.length cx.cx_window)
        cx.cx_required cx.cx_ops
        (fun ppf -> function
          | None -> ()
          | Some c -> Fmt.pf ppf ", cut at %.3f ms" (Sim_time.to_float_ms c))
        cx.cx_cut pp_window cx.cx_window
