(* Measurement helpers shared by every workload: the span profiler used by
   the traced run, sample statistics, GC deltas, the metric record, and
   the result printer.

   Spans are recorded only from the benchmark's own code, around the calls
   it makes into the program (the closures and records it hands over, and
   its own calls into public functions).  A span's self time is its wall
   duration minus the part covered by spans opened inside it; words are
   [Gc.minor_words] allocated, split the same way. *)

let now = Unix.gettimeofday

(* ------------------------------------------------------------------ *)
(* Span profiler                                                        *)
(* ------------------------------------------------------------------ *)

type cat = { mutable self_s : float; mutable words : float  (** self minor words *) }

let cats : (string, cat) Hashtbl.t = Hashtbl.create 16
let enabled = ref false

let cat name =
  match Hashtbl.find_opt cats name with
  | Some c -> c
  | None ->
      let c = { self_s = 0.; words = 0. } in
      Hashtbl.replace cats name c;
      c

let reset () =
  Hashtbl.iter
    (fun _ c ->
      c.self_s <- 0.;
      c.words <- 0.)
    cats

(* time and words covered by child spans of the innermost open span *)
let child_s = ref 0.
let child_w = ref 0.

let span c f =
  if not !enabled then f ()
  else begin
    let saved_s = !child_s and saved_w = !child_w in
    child_s := 0.;
    child_w := 0.;
    let t0 = now () and w0 = Gc.minor_words () in
    let finish () =
      let dt = now () -. t0 and dw = Gc.minor_words () -. w0 in
      c.self_s <- c.self_s +. (dt -. !child_s);
      c.words <- c.words +. (dw -. !child_w);
      child_s := saved_s +. dt;
      child_w := saved_w +. dw
    in
    match f () with
    | v ->
        finish ();
        v
    | exception e ->
        finish ();
        raise e
  end

(* ------------------------------------------------------------------ *)
(* Statistics                                                           *)
(* ------------------------------------------------------------------ *)

(* nearest-rank percentile of an unsorted float array (sorted in place) *)
let percentile a p =
  let n = Array.length a in
  if n = 0 then 0.
  else begin
    Array.sort Float.compare a;
    let rank = int_of_float (ceil (p *. float_of_int n)) in
    a.(max 0 (min (n - 1) (rank - 1)))
  end

let median l = percentile (Array.of_list l) 0.5

(* Growable float buffer (latency samples, op logs), kept outside the
   OCaml heap so it does not weigh on the heap and GC numbers. *)
module Samples = struct
  open Bigarray

  type t = { mutable a : (float, float64_elt, c_layout) Array1.t; mutable n : int }

  let create () = { a = Array1.create float64 c_layout 4096; n = 0 }

  let add t x =
    if t.n = Array1.dim t.a then begin
      let b = Array1.create float64 c_layout (2 * t.n) in
      Array1.blit t.a (Array1.sub b 0 t.n);
      t.a <- b
    end;
    Array1.unsafe_set t.a t.n x;
    t.n <- t.n + 1

  let length t = t.n
  let get t i = t.a.{i}
  let clear t = t.n <- 0
  let to_array t = Array.init t.n (fun i -> t.a.{i})
  let slice t from upto = Array.init (upto - from) (fun i -> t.a.{from + i})
end

let per n x = if n = 0 then 0. else x /. float_of_int n

(* ------------------------------------------------------------------ *)
(* GC deltas                                                            *)
(* ------------------------------------------------------------------ *)

type gc = {
  minor_words : float;
  promoted_words : float;
  minor_collections : int;
  major_collections : int;
}

let gc_now () =
  let s = Gc.quick_stat () in
  {
    minor_words = s.Gc.minor_words;
    promoted_words = s.Gc.promoted_words;
    minor_collections = s.Gc.minor_collections;
    major_collections = s.Gc.major_collections;
  }

let gc_diff a b =
  {
    minor_words = b.minor_words -. a.minor_words;
    promoted_words = b.promoted_words -. a.promoted_words;
    minor_collections = b.minor_collections - a.minor_collections;
    major_collections = b.major_collections - a.major_collections;
  }

let top_heap_mb () =
  let s = Gc.quick_stat () in
  float_of_int (s.Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.

(* Memory the deployment holds: words reachable from its roots. *)
let retained_mb roots = float_of_int (Obj.reachable_words (Obj.repr roots) * (Sys.word_size / 8)) /. 1048576.

(* ------------------------------------------------------------------ *)
(* Results                                                              *)
(* ------------------------------------------------------------------ *)

(* One named metric: value, unit and the clock it was read on. *)
type metric = { m_name : string; m_value : float; m_unit : string; m_clock : string }

let m m_name m_unit m_clock m_value = { m_name; m_value; m_unit; m_clock }

type outcome = {
  correct : bool;
  attempted : int;
  failed : int;
  problems : string list;  (** failed output checks, for the report *)
  metrics : metric list;  (** the metrics of the JSON result *)
  extra : metric list;  (** reported on the human-readable lines only *)
}

let json_float x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.1f" x
  else Printf.sprintf "%.17g" x

let json_string s = "\"" ^ String.escaped s ^ "\""

(* Human-readable lines first (with the clock of every metric), then the
   one-line JSON result the harness reads. *)
let print_outcome ~workload o =
  List.iter (fun p -> Printf.printf "[%s] check failed: %s\n" workload p) o.problems;
  List.iter
    (fun x ->
      Printf.printf "[%s] %-36s %16.6g %-8s (%s)\n" workload x.m_name x.m_value
        x.m_unit x.m_clock)
    (o.metrics @ o.extra);
  let fields =
    List.map
      (fun x ->
        Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (json_string x.m_name)
          (json_float x.m_value) (json_string x.m_unit))
      o.metrics
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    o.correct o.attempted o.failed
    (String.concat ", " fields)
