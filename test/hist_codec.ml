(* Toy payload-history codec for the bare-Zab state-transfer tests: a
   replica's delivered [(zxid, payload)] list as one frame of
   [epoch; counter; payload] records. *)

module Zab = Edc_replication.Zab
module W = Edc_wire.Wire.Writer
module R = Edc_wire.Wire.Reader

let encode (hist : (Zab.zxid * string) list) =
  W.with_writer (fun w ->
      W.list w
        (fun w ((z : Zab.zxid), s) ->
          W.begin_list w;
          W.int w z.epoch;
          W.int w z.counter;
          W.str w s;
          W.end_list w)
        hist)

let decode blob : ((Zab.zxid * string) list, string) result =
  R.run blob (fun r ->
      R.list r (fun r ->
          R.begin_list r;
          let epoch = R.int r in
          let counter = R.int r in
          let s = R.str r in
          R.end_list r;
          ({ Zab.epoch; counter }, s)))
