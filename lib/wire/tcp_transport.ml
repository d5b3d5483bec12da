(** Loopback-TCP transport hub (see the interface). *)

open Edc_simnet

(* Hard ceiling on a declared frame length: a stream that claims more is
   corrupt (or hostile) and the connection is dropped — we never allocate
   attacker-declared amounts beyond it. *)
let max_frame = 64 * 1024 * 1024

type conn = {
  fd : Unix.file_descr;
  dst_addr : int;  (** local address this connection delivers to *)
  mutable inbuf : Bytes.t;
  mutable in_start : int;  (** first unconsumed byte *)
  mutable in_len : int;  (** one past the last received byte *)
}

type out_conn = { key : int * int; ofd : Unix.file_descr; obuf : Outbuf.t }

type 'm t = {
  sim : Sim.t;
  base_port : int;
  encode : 'm -> string;
  decode : string -> pos:int -> len:int -> ('m, string) result;
  handlers : (int, 'm Net.handler) Hashtbl.t;
  listeners : (Unix.file_descr, int) Hashtbl.t;  (** socket -> local addr *)
  accepted : (Unix.file_descr, conn) Hashtbl.t;
  mutable read_fds : Unix.file_descr list;
      (** listeners and accepted sockets, kept in step with both tables:
          what {!poll} selects on *)
  outbound : (int * int, out_conn) Hashtbl.t;  (** (src, dst) *)
  mutable out_conns : out_conn list;  (** [outbound]'s values *)
  mutable n_encodes : int;
  mutable n_decode_errors : int;
  mutable n_send_failures : int;
  mutable n_frames_received : int;
  mutable n_bytes_sent : int;
  mutable closed : bool;
}

let create ~sim ~base_port ~encode ~decode () =
  {
    sim;
    base_port;
    encode;
    decode;
    handlers = Hashtbl.create 16;
    listeners = Hashtbl.create 16;
    accepted = Hashtbl.create 16;
    read_fds = [];
    outbound = Hashtbl.create 16;
    out_conns = [];
    n_encodes = 0;
    n_decode_errors = 0;
    n_send_failures = 0;
    n_frames_received = 0;
    n_bytes_sent = 0;
    closed = false;
  }

let encodes t = t.n_encodes
let decode_errors t = t.n_decode_errors
let send_failures t = t.n_send_failures
let frames_received t = t.n_frames_received
let bytes_sent t = t.n_bytes_sent

let loopback port = Unix.ADDR_INET (Unix.inet_addr_loopback, port)

(* Every address with a handler has a listener: the two are added
   together here and never removed apart. *)
let register t addr handler =
  if not (Hashtbl.mem t.handlers addr) then begin
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    Unix.setsockopt fd Unix.SO_REUSEADDR true;
    Unix.bind fd (loopback (t.base_port + addr));
    Unix.listen fd 64;
    Hashtbl.replace t.listeners fd addr;
    t.read_fds <- fd :: t.read_fds
  end;
  Hashtbl.replace t.handlers addr handler

let drop_outbound t oc =
  (try Unix.close oc.ofd with Unix.Unix_error _ -> ());
  Hashtbl.remove t.outbound oc.key;
  t.out_conns <- List.filter (fun o -> o != oc) t.out_conns

let get_u32 b off =
  (Char.code (Bytes.get b off) lsl 24)
  lor (Char.code (Bytes.get b (off + 1)) lsl 16)
  lor (Char.code (Bytes.get b (off + 2)) lsl 8)
  lor Char.code (Bytes.get b (off + 3))

(* [write] hook for {!Outbuf.flush}: 0 means "kernel buffer full, retry
   on a later poll"; hard errors propagate to the caller. *)
let write_some fd b off len =
  match Unix.write fd b off len with
  | n -> n
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
    ->
      0

(* Flush [oc]'s corked bytes.  A partial write retains the unwritten
   suffix inside the Outbuf; a hard error drops the connection and
   everything queued on it (fire-and-forget, like simulated link loss). *)
let flush_out t oc =
  match Outbuf.flush oc.obuf ~write:(write_some oc.ofd) with
  | n -> t.n_bytes_sent <- t.n_bytes_sent + n
  | exception Unix.Unix_error _ ->
      t.n_send_failures <- t.n_send_failures + 1;
      drop_outbound t oc

(* Walks the list [out_conns] held when the flush began: a failed flush
   replaces [t.out_conns], not the list being walked. *)
let rec flush_conns t = function
  | [] -> ()
  | oc :: rest ->
      if Outbuf.pending oc.obuf > 0 then flush_out t oc;
      flush_conns t rest

let flush_all t = flush_conns t t.out_conns

(* If a connection's cork grows past this without a successful flush, we
   try to drain it inline from the send path so memory stays bounded even
   if the caller sends a burst without polling. *)
let cork_soft_limit = 256 * 1024

let out_conn t key dst =
  match Hashtbl.find_opt t.outbound key with
  | Some oc -> Some oc
  | None -> (
      match
        let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
        (try Unix.setsockopt fd Unix.TCP_NODELAY true
         with Unix.Unix_error _ -> ());
        (try Unix.connect fd (loopback (t.base_port + dst))
         with e ->
           (try Unix.close fd with Unix.Unix_error _ -> ());
           raise e);
        Unix.set_nonblock fd;
        fd
      with
      | fd ->
          let oc = { key; ofd = fd; obuf = Outbuf.create () } in
          Hashtbl.replace t.outbound key oc;
          t.out_conns <- oc :: t.out_conns;
          Some oc
      | exception Unix.Unix_error _ ->
          t.n_send_failures <- t.n_send_failures + 1;
          None)

(* Append one framed message to [dst]'s cork; no syscall on this path
   unless the cork is oversized. *)
let enqueue t ~src ~dst body =
  let key = (src, dst) in
  match out_conn t key dst with
  | None -> ()
  | Some oc ->
      let len = String.length body in
      Outbuf.add_u32 oc.obuf (4 + len);
      Outbuf.add_u32 oc.obuf src;
      Outbuf.add_substring oc.obuf body 0 len;
      if Outbuf.pending oc.obuf > cork_soft_limit then flush_out t oc

(* Fire-and-forget, like the simulated network: any socket error drops the
   message, closes the connection, and replication-level retransmission
   recovers. *)
let send t ~src ~dst ~size:_ msg =
  if not t.closed then begin
    t.n_encodes <- t.n_encodes + 1;
    enqueue t ~src ~dst (t.encode msg)
  end

(* Encode-once broadcast: one serialization, the same bytes corked on
   every destination's connection. *)
let send_many t ~src ~dsts ~size:_ msg =
  if not t.closed then begin
    t.n_encodes <- t.n_encodes + 1;
    let body = t.encode msg in
    List.iter (fun dst -> enqueue t ~src ~dst body) dsts
  end

let transport t =
  {
    Transport.send = send t;
    send_many = send_many t;
    register = register t;
  }

let close_conn t conn =
  (try Unix.close conn.fd with Unix.Unix_error _ -> ());
  Hashtbl.remove t.accepted conn.fd;
  t.read_fds <- List.filter (fun fd -> fd <> conn.fd) t.read_fds

(* Extract every complete frame from [conn]'s buffer and dispatch it.
   Frames are decoded in place from the reassembly buffer (no per-frame
   copy); [in_start] advances over consumed frames and the residue is
   compacted once per read, not once per frame. *)
let dispatch t conn =
  let again = ref true in
  while !again do
    again := false;
    if conn.in_len - conn.in_start >= 4 then begin
      let len = get_u32 conn.inbuf conn.in_start in
      if len < 4 || len > max_frame then begin
        t.n_decode_errors <- t.n_decode_errors + 1;
        close_conn t conn (* framing is lost; no way to resync *)
      end
      else if conn.in_len - conn.in_start >= 4 + len then begin
        let src = get_u32 conn.inbuf (conn.in_start + 4) in
        let body_pos = conn.in_start + 8 in
        let body_len = len - 4 in
        conn.in_start <- conn.in_start + 4 + len;
        t.n_frames_received <- t.n_frames_received + 1;
        (* The string view of the buffer is only read during this call,
           before any further mutation of [inbuf], so the unsafe cast
           cannot observe a change. *)
        let view = Bytes.unsafe_to_string conn.inbuf in
        (match t.decode view ~pos:body_pos ~len:body_len with
        | Error _ -> t.n_decode_errors <- t.n_decode_errors + 1
        | Ok msg -> (
            match Hashtbl.find_opt t.handlers conn.dst_addr with
            | Some handler -> handler ~src ~size:body_len msg
            | None -> ()));
        again := Hashtbl.mem t.accepted conn.fd
      end
    end
  done;
  if Hashtbl.mem t.accepted conn.fd then begin
    let live = conn.in_len - conn.in_start in
    if conn.in_start > 0 then begin
      if live > 0 then Bytes.blit conn.inbuf conn.in_start conn.inbuf 0 live;
      conn.in_start <- 0;
      conn.in_len <- live
    end
  end

let read_conn t conn =
  let chunk = 65536 in
  if Bytes.length conn.inbuf - conn.in_len < chunk then begin
    let bigger =
      Bytes.create (Stdlib.max (2 * Bytes.length conn.inbuf) (conn.in_len + chunk))
    in
    Bytes.blit conn.inbuf 0 bigger 0 conn.in_len;
    conn.inbuf <- bigger
  end;
  match Unix.read conn.fd conn.inbuf conn.in_len chunk with
  | 0 -> close_conn t conn
  | n ->
      conn.in_len <- conn.in_len + n;
      dispatch t conn
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
    ->
      ()
  | exception Unix.Unix_error _ -> close_conn t conn

(* A readable socket: a connection has bytes, or a listener has a
   connection to accept and attach to the listening address. *)
let read_ready t fd =
  match Hashtbl.find t.accepted fd with
  | conn -> read_conn t conn
  | exception Not_found -> (
      match Hashtbl.find t.listeners fd with
      | exception Not_found -> ()
      | dst_addr -> (
          match Unix.accept fd with
          | conn_fd, _ ->
              Hashtbl.replace t.accepted conn_fd
                { fd = conn_fd; dst_addr; inbuf = Bytes.create 65536; in_start = 0; in_len = 0 };
              t.read_fds <- conn_fd :: t.read_fds
          | exception Unix.Unix_error _ -> ()))

let poll t ~timeout =
  if not t.closed then begin
    (* uncork first so bytes produced since the last poll hit the wire
       before we sleep in select *)
    flush_all t;
    (match Unix.select t.read_fds [] [] timeout with
    | readable, _, _ -> List.iter (read_ready t) readable
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
    (* uncork replies produced by the handlers we just ran *)
    flush_all t
  end

let drive t ~wall =
  let t0 = Unix.gettimeofday () in
  let virtual0 = Sim.now t.sim in
  let fin = ref false in
  while not !fin do
    let elapsed = Unix.gettimeofday () -. t0 in
    if elapsed >= wall then fin := true
    else begin
      Sim.run t.sim ~until:(Sim_time.add virtual0 (Sim_time.of_float_s elapsed));
      poll t ~timeout:0.001
    end
  done

let shutdown t =
  if not t.closed then begin
    flush_all t;
    t.closed <- true;
    List.iter
      (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
      t.read_fds;
    List.iter
      (fun oc -> try Unix.close oc.ofd with Unix.Unix_error _ -> ())
      t.out_conns;
    Hashtbl.reset t.listeners;
    Hashtbl.reset t.accepted;
    t.read_fds <- [];
    Hashtbl.reset t.outbound;
    t.out_conns <- []
  end
