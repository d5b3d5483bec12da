(** Cross-shard atomicity checker (§6j): every atomic multi-write must be
    resolved identically — committed everywhere or aborted everywhere —
    on every replica of every participant shard, exactly once per
    replica; after quiescence nothing may remain in doubt or locked.
    Consumes plain data (the deployment's audit/residual dumps), so it
    has no dependency on the sharding subsystem. *)

type violation =
  | Divergent of {
      txid : string;
      commits : (int * int) list;  (** (shard, replica) that committed *)
      aborts : (int * int) list;
    }
  | Duplicate_resolution of { txid : string; shard : int; replica : int }
  | Stuck_in_doubt of { txid : string; shard : int; replica : int }
  | Residual_lock of { path : string; txid : string; shard : int; replica : int }

val pp_violation : Format.formatter -> violation -> unit

(** [check ~audits ()] — [audits]: one [(shard, replica, outcomes)] per
    replica, [outcomes] its [(txid, committed)] resolutions in any order;
    [prepared] / [locks] are residual dumps taken after quiescence
    ([(shard, replica, txid, coord)] and [(shard, replica, path, txid)]).
    Empty result = invariant holds. *)
val check :
  audits:(int * int * (string * bool) list) list ->
  ?prepared:(int * int * string * int) list ->
  ?locks:(int * int * string * string) list ->
  unit ->
  violation list

val resolved_count : audits:(int * int * (string * bool) list) list -> int
