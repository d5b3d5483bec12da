(** Self-describing, length-prefixed binary framing.

    The deployment's untrusted-bytes codec: snapshot blobs, Zab/PBFT
    messages, and the TCP transport all speak frames of this shape
    (DESIGN.md §6g).  A frame is

    {v tag(1 byte)  length(varint)  payload(length bytes) v}

    with three tags: [0x01] signed integer (zigzag varint payload),
    [0x02] byte string (raw payload), [0x03] list (payload is the
    concatenation of the child frames).  Records and variants are encoded
    as lists by the layer above.

    Two properties the rest of the system leans on:

    - {b Deterministic}: [encode] is a pure function of the tree — no
      sharing, no OCaml-version dependence — so equal states produce
      byte-identical blobs (snapshot digests, chunk-transfer resume).
      Varints are minimal-length, so [decode] accepts exactly one byte
      string per tree (canonical form; non-minimal varints are rejected).
    - {b Total}: [decode] treats its input as untrusted.  Truncated,
      malformed, over-long, over-deep, or non-canonical bytes yield a
      clean [Error] — never an exception, never an allocation driven by
      an attacker-declared length beyond the input's actual size. *)

type t = Int of int | Str of string | List of t list

(** Alias so the {!Writer}/{!Reader} submodules (whose own [t] shadows
    this one) can refer to the tree type. *)
type tree = t

(** Nesting depth [decode] accepts (and [encode] emits) before rejecting;
    bounds stack use against length-bomb inputs. *)
val max_depth : int

(** [encode v] renders one frame.  Raises [Invalid_argument] if the tree
    is deeper than {!max_depth} (a programming error on the {e sending}
    side; decoding never raises). *)
val encode : t -> string

(** [decode s] parses exactly one frame spanning the whole of [s].
    Trailing bytes, truncation, unknown tags, non-minimal varints,
    depth/length violations: all [Error] with a description. *)
val decode : string -> (t, string) result

val pp : Format.formatter -> t -> unit

(** {2 Streaming codec}

    {!Writer} and {!Reader} serialize message shapes straight to and from
    bytes; every message codec in the deployment is one [write_*]/[read_*]
    pair built on them.  The tree above ([t], [encode], [decode]) is the
    frame-level {e reference}: [Writer.tree] streams a tree byte-identically
    to [encode], and [Reader.tree] accepts exactly the byte strings
    [decode] does — the canonical-format and totality guarantees of
    DESIGN.md §6g are properties of the byte format, not of the code path,
    and test/test_wire.ml holds the two paths equal under fuzz.  The
    message-level byte format is pinned by the golden corpus in
    test/test_golden.ml. *)

module Writer : sig
  type t

  (** Writers come from a small module-level pool: [alloc] reuses a
      previous writer's buffer (reset to empty), [release] returns it.
      Writers whose buffer grew past ~1 MiB are dropped on release so a
      huge snapshot doesn't pin its buffer.  Never [release] a writer
      twice, and never use one after releasing it. *)
  val alloc : unit -> t

  val release : t -> unit

  (** [with_writer f] = alloc, run [f], return {!contents}, release
      (also on exception). *)
  val with_writer : (t -> unit) -> string

  (** Append one complete [Int] / [Str] frame. *)
  val int : t -> int -> unit

  val str : t -> string -> unit

  (** [bool b] writes [Int 0] / [Int 1]. *)
  val bool : t -> bool -> unit

  (** [begin_list]/[end_list] bracket a [List] frame; children are
      written in between.  [end_list] back-patches the length header by
      shifting the payload (cost: one memmove per nesting level).
      [begin_list] raises [Invalid_argument] past {!max_depth}, exactly
      where [encode] does. *)
  val begin_list : t -> unit

  val end_list : t -> unit

  (** [option f] writes [None] as [List []], [Some x] as [List [f x]]. *)
  val option : t -> (t -> 'a -> unit) -> 'a option -> unit

  (** [list f l] writes a [List] frame with one child per element. *)
  val list : t -> (t -> 'a -> unit) -> 'a list -> unit

  (** Stream an existing tree; [with_writer (fun w -> tree w v)] is
      byte-identical to [encode v]. *)
  val tree : t -> tree -> unit

  (** The bytes written so far (the writer stays usable).  Raises
      [Invalid_argument] if a list is still open. *)
  val contents : t -> string
end

module Reader : sig
  type t

  (** Shape-mismatch escape hatch for codecs ("unknown tag 9"): aborts
      the enclosing {!run} with [Error msg]. *)
  val error : t -> string -> 'a

  (** Read one [Int] / [Str] / bool frame at the cursor.  Any
      mismatch — wrong tag, truncation, non-minimal varint, depth or
      length violation — aborts the enclosing {!run} with a clean
      [Error] carrying the byte offset (relative to the frame start). *)
  val int : t -> int

  val str : t -> string
  val bool : t -> bool

  (** Enter / leave a [List] frame.  [end_list] rejects unread trailing
      items: a record frame with an extra field is a shape error. *)
  val begin_list : t -> unit

  val end_list : t -> unit

  (** Inside a list: are there unread child frames? *)
  val has_more : t -> bool

  (** Is the next frame at the cursor a [List]?  (For codecs whose
      variants mix bare [Int] and [List] arms, e.g. zerror.) *)
  val peek_list : t -> bool

  (** Inverses of {!Writer.option} / {!Writer.list}. *)
  val option : t -> (t -> 'a) -> 'a option

  val list : t -> (t -> 'a) -> 'a list

  (** Parse one frame of any shape — the streaming equivalent of
      [decode]; accepts exactly the same byte strings. *)
  val tree : t -> tree

  (** [run s f] parses exactly one frame spanning the whole of [s] with
      [f]; total, like [decode].  [run_sub] parses the slice
      [\[pos, pos+len)] without copying it out first — the TCP transport
      decodes straight from its reassembly buffer. *)
  val run : string -> (t -> 'a) -> ('a, string) result

  val run_sub :
    string -> pos:int -> len:int -> (t -> 'a) -> ('a, string) result
end
