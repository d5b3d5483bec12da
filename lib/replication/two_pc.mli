(** Two-phase commit over independent replication groups (DESIGN.md §6j):
    the write-op payload of a prepare, its wire codec, and the inter-shard
    frames.  The engine lives in the deployment's server (its steps must
    ride the shard's own replicated log); this module is the shared,
    transport-level vocabulary.  Frames cross only the simulated
    inter-shard net, as values sized by {!frame_size}: no byte path
    carries them, so they have no codec. *)

type wop =
  | Wcreate of { path : string; data : string }
  | Wset of { path : string; data : string }
  | Wdelete of { path : string }

val wop_path : wop -> string
val wop_size : wop -> int

type frame =
  | Prepare of {
      txid : string;
      coord : int;
      participants : int list;
      ops : wop list;
    }
  | Prepare_ack of { txid : string; shard : int; ok : bool }
  | Commit of { txid : string }
  | Abort of { txid : string }
  | Status of { txid : string; from_shard : int }

val frame_txid : frame -> string
val frame_size : frame -> int

(** Streaming wire codec of a write op (total reader, append-only tags:
    0 Wcreate, 1 Wset, 2 Wdelete; bytes pinned by test/test_golden.ml). *)

val write_wop : Edc_wire.Wire.Writer.t -> wop -> unit
val read_wop : Edc_wire.Wire.Reader.t -> wop

val pp_wop : Format.formatter -> wop -> unit
val pp_frame : Format.formatter -> frame -> unit
