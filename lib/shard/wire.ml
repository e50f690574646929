(* The supervisor <-> worker wire protocol.

   Transport framing is a 4-byte big-endian length prefix followed by a
   self-validating {!Runtime.Checkpoint.Frame} (magic + version line,
   payload length, CRC-32, Marshal payload).  The length prefix tells the
   reader how much to consume from the stream; the inner frame proves the
   bytes arrived intact.  A worker SIGKILLed mid-write leaves a torn
   frame in the pipe — the reader must see {!Runtime.Checkpoint.Corrupt},
   never a misparse. *)

exception Closed
exception Timeout

(* Bumped whenever a message changes shape (v2: obs flushes, v3:
   deliveries in [Step], v4: one request and one reply, no heartbeats),
   so an older peer fails loudly on the magic line rather than misparse
   the marshalled message. *)
let magic = Runtime.Checkpoint.versioned_magic ~base:"robustpath-shard-wire" ~version:4

(* Frames larger than this are a protocol error, not a payload. *)
let max_frame = 1 lsl 30

(* The length prefix is untrusted until the frame decodes, so a read
   allocates at most this much before the bytes arrive; a longer frame
   doubles its buffer as they do.  A frame up to this size is read into
   one allocation. *)
let first_buffer = 1 lsl 19

let m_frames = Obs.Metrics.counter "shard.frames"
let m_frame_bytes = Obs.Metrics.counter "shard.frame_bytes"

type step = {
  epoch : int;
  period : int;
  fire : (int * int) list;
  deliveries : (int * Moo.Solution.t list) list;
}

type stepped = {
  sd_epoch : int;
  sd_snapshots : (int * Pmo2.Island.snapshot) list;
  sd_emigrants : ((int * int) * Moo.Solution.t list) list;
  sd_failures : int;
  sd_guards : (int * Runtime.Guard.stats) list;
  sd_caches : (int * Cache.Memo.stats) list;
  sd_obs : Obs.Merge.flush option;
}

(* {1 Encoding} *)

let be32 n =
  let b = Bytes.create 4 in
  Bytes.set b 0 (Char.chr ((n lsr 24) land 0xff));
  Bytes.set b 1 (Char.chr ((n lsr 16) land 0xff));
  Bytes.set b 2 (Char.chr ((n lsr 8) land 0xff));
  Bytes.set b 3 (Char.chr (n land 0xff));
  Bytes.unsafe_to_string b

let read_be32 b =
  (Char.code (Bytes.get b 0) lsl 24)
  lor (Char.code (Bytes.get b 1) lsl 16)
  lor (Char.code (Bytes.get b 2) lsl 8)
  lor Char.code (Bytes.get b 3)

let to_bytes v =
  let frame = Runtime.Checkpoint.Frame.encode ~magic v in
  be32 (String.length frame) ^ frame

(* {1 Raw pipe I/O} *)

let rec write_all fd s off len =
  if len > 0 then
    match Unix.write_substring fd s off len with
    | n -> write_all fd s (off + n) (len - n)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> write_all fd s off len
    | exception Unix.Unix_error (Unix.EPIPE, _, _) -> raise Closed

let write_raw fd s = write_all fd s 0 (String.length s)

(* Wait until [fd] is readable or the absolute [deadline] passes.  The
   deadline is what turns a wedged peer — pipe open, no bytes — into a
   {!Timeout} the supervisor can act on; without one a blocking read
   would hang on a worker that stopped mid-frame. *)
let rec wait_readable fd ~deadline =
  match deadline with
  | None -> ()
  | Some d -> (
    let timeout = d -. Unix.gettimeofday () in
    if timeout <= 0. then raise Timeout;
    match Unix.select [ fd ] [] [] timeout with
    | [], _, _ -> raise Timeout
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait_readable fd ~deadline)

let rec read_chunk fd ~deadline buf off len =
  wait_readable fd ~deadline;
  match Unix.read fd buf off len with
  | n -> n
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> read_chunk fd ~deadline buf off len

let read_exact fd ~deadline buf off len =
  let rec go off len =
    if len > 0 then
      match read_chunk fd ~deadline buf off len with
      | 0 -> raise End_of_file
      | n -> go (off + n) (len - n)
  in
  go off len

let corrupt fmt = Printf.ksprintf (fun s -> raise (Runtime.Checkpoint.Corrupt s)) fmt

let send fd v =
  let b = to_bytes v in
  Obs.Metrics.incr m_frames;
  Obs.Metrics.add m_frame_bytes (String.length b);
  write_raw fd b

let recv ?deadline fd =
  let hdr = Bytes.create 4 in
  let first = read_chunk fd ~deadline hdr 0 4 in
  (* EOF exactly at a frame boundary is a clean close; EOF anywhere else
     is a torn frame. *)
  if first = 0 then raise Closed;
  (try read_exact fd ~deadline hdr first (4 - first)
   with End_of_file -> corrupt "shard wire: torn length prefix");
  let len = read_be32 hdr in
  if len <= 0 || len > max_frame then corrupt "shard wire: implausible frame length %d" len;
  let buf = ref (Bytes.create (min len first_buffer)) and got = ref 0 in
  while !got < len do
    if !got = Bytes.length !buf then begin
      let grown = Bytes.create (min len (2 * !got)) in
      Bytes.blit !buf 0 grown 0 !got;
      buf := grown
    end;
    match read_chunk fd ~deadline !buf !got (Bytes.length !buf - !got) with
    | 0 -> corrupt "shard wire: torn frame"
    | n -> got := !got + n
  done;
  Runtime.Checkpoint.Frame.decode ~magic (Bytes.unsafe_to_string !buf)

(* Typed entry points: Marshal is untyped, so pin each pipe direction to
   its message type at the call sites. *)

let send_step fd (r : step) = send fd r
let recv_step fd : step = recv fd
let send_stepped fd (r : stepped) = send fd r
let recv_stepped ?deadline fd : stepped = recv ?deadline fd
