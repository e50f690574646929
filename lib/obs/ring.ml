(* Flight recorder: a fixed-capacity ring of the most recent
   observability events, always on.

   Unlike Span/Metrics (off by default, rich, unbounded) the ring is a
   crash-dump device: it records unconditionally into a preallocated
   256-slot buffer, so the last moments of a process that dies by
   SIGKILL — which no OCaml code can observe — are still on record.
   Persistence is mmap-based: [attach] maps a sidecar file and every
   [record] writes straight into the mapping, so the entries live in the
   page cache and survive any abnormal exit without a dump step.  The
   kernel flushes the dirty pages whether or not the process got to say
   goodbye.

   The record path is lock-free and allocation-free: one
   [Atomic.fetch_and_add] to claim a slot, a coarse clock read, then
   four unboxed 64-bit word stores on little-endian machines (byte
   stores on big-endian; see the [ring-record] bench kernel, bounded at
   50 ns).  The stamp comes from [CLOCK_MONOTONIC_COARSE]
   ({!Clock.coarse_now_ns}, ~4 ms resolution): a precise
   [CLOCK_MONOTONIC] read was ~85 % of a record's cost, and the sequence
   number already orders the events.  Names are
   not written per event; they are interned once by {!probe} into a
   fixed table in the file header and events carry the 1-byte id.

   A reader of a crashed process's file must assume nothing: a SIGKILL
   can land mid-entry, so {!read} keeps only entries that pass sanity
   checks (clock value present, known kind, valid probe id)
   and orders them by sequence number. *)

type kind = Enter | Leave | Fault | Count | Mark

let capacity = 256
let entry_size = 32
let max_names = 64
let name_size = 32

let magic = "robustpath-flight-ring v1\n"

(* File layout: 64-byte fixed header (magic, capacity, lane), then the
   name-intern table, then the entry slots. *)
let header_size = 64
let names_off = header_size
let entries_off = names_off + (max_names * name_size)
let total_size = entries_off + (capacity * entry_size)

let kind_code = function Enter -> 0 | Leave -> 1 | Fault -> 2 | Count -> 3 | Mark -> 4

let kind_of_code = function
  | 0 -> Some Enter
  | 1 -> Some Leave
  | 2 -> Some Fault
  | 3 -> Some Count
  | 4 -> Some Mark
  | _ -> None

let kind_name = function
  | Enter -> "enter"
  | Leave -> "leave"
  | Fault -> "fault"
  | Count -> "count"
  | Mark -> "mark"

type mapped = (char, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t
type mapped64 = (int64, Bigarray.int64_elt, Bigarray.c_layout) Bigarray.Array1.t

(* A mapped file carries two views of the same pages: a char view for
   the header/name table and an int64 view for the hot entry stores. *)
type backing = Mem of Bytes.t | Map of mapped * mapped64

let lock = Mutex.create ()

let locked f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

(* robustlint: allow R6 — process-global recorder backing; swapped only under [lock], read racily by the lock-free record path (a stale read during attach loses at most one event) *)
let backing = ref (Mem (Bytes.make total_size '\000'))

let seq = Atomic.make 0

let names : string array = Array.make max_names ""

(* robustlint: allow R6 — interned-name count; every write holds [lock] *)
let n_names = ref 0

type probe = int

(* {1 Byte-level codec, duplicated per backing to keep the record path
   free of closures (a [set] closure would allocate per call)} *)

(* Unaligned native-endian 64-bit store: the classic-mode compiler
   cancels the Int64 boxing when the value flows straight into the
   primitive, so the record path stays allocation-free. *)
external set_64_ne : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

(* The on-disk format is little-endian (get64 below); word stores are
   native-endian, so big-endian machines take the byte-store path. *)
let le = not Sys.big_endian

let put64_mem b off v =
  for i = 0 to 7 do
    Bytes.unsafe_set b (off + i) (Char.unsafe_chr ((v lsr (i * 8)) land 0xff))
  done

let put64_map (m : mapped) off v =
  for i = 0 to 7 do
    Bigarray.Array1.unsafe_set m (off + i) (Char.unsafe_chr ((v lsr (i * 8)) land 0xff))
  done

let get64 b off =
  let v = ref 0 in
  for i = 7 downto 0 do
    v := (!v lsl 8) lor Char.code (Bytes.get b (off + i))
  done;
  !v

let put32_mem b off v =
  for i = 0 to 3 do
    Bytes.unsafe_set b (off + i) (Char.unsafe_chr ((v lsr (i * 8)) land 0xff))
  done

let get32 b off =
  let v = ref 0 in
  for i = 3 downto 0 do
    v := (!v lsl 8) lor Char.code (Bytes.get b (off + i))
  done;
  !v

(* {1 Recording} *)

let record (p : probe) k v =
  let s = Atomic.fetch_and_add seq 1 in
  let off = entries_off + (s mod capacity * entry_size) in
  let t = Clock.coarse_now_ns () in
  (* Probe id in byte 24, kind in byte 25, packed as one LE word. *)
  let tag = p land 0xff lor (kind_code k lsl 8) in
  (* robustlint: allow R10 — lock-free record path by design: [backing] is swapped only by attach/reset (process start); a stale read loses at most the one event being written *)
  match !backing with
  | Mem b ->
    if le then begin
      set_64_ne b off (Int64.of_int s);
      set_64_ne b (off + 8) (Int64.of_int t);
      set_64_ne b (off + 16) (Int64.of_int v);
      set_64_ne b (off + 24) (Int64.of_int tag)
    end
    else begin
      put64_mem b off s;
      put64_mem b (off + 8) t;
      put64_mem b (off + 16) v;
      put64_mem b (off + 24) tag
    end
  | Map (m, w) ->
    if le then begin
      let woff = off lsr 3 in
      Bigarray.Array1.unsafe_set w woff (Int64.of_int s);
      Bigarray.Array1.unsafe_set w (woff + 1) (Int64.of_int t);
      Bigarray.Array1.unsafe_set w (woff + 2) (Int64.of_int v);
      Bigarray.Array1.unsafe_set w (woff + 3) (Int64.of_int tag)
    end
    else begin
      put64_map m off s;
      put64_map m (off + 8) t;
      put64_map m (off + 16) v;
      put64_map m (off + 24) tag
    end

(* {1 Name interning} *)

let write_name_at i name =
  (* First byte is the length; the name is truncated to fit the slot. *)
  let n = Stdlib.min (String.length name) (name_size - 1) in
  let off = names_off + (i * name_size) in
  match !backing with
  | Mem b ->
    Bytes.set b off (Char.chr n);
    Bytes.blit_string name 0 b (off + 1) n
  | Map (m, _) ->
    Bigarray.Array1.set m off (Char.chr n);
    for j = 0 to n - 1 do
      Bigarray.Array1.set m (off + 1 + j) name.[j]
    done

let probe name =
  locked (fun () ->
      let n = !n_names in
      let found = ref (-1) in
      for i = 0 to n - 1 do
        if !found < 0 && names.(i) = name then found := i
      done;
      match !found with
      | i when i >= 0 -> i
      | _ ->
        if n >= max_names then max_names - 1 (* table full: share the last slot *)
        else begin
          names.(n) <- name;
          n_names := n + 1;
          write_name_at n name;
          n
        end)

(* {1 Attach / reset} *)

let write_header ~lane =
  let hdr = Bytes.make header_size '\000' in
  Bytes.blit_string magic 0 hdr 0 (String.length magic);
  put32_mem hdr 32 capacity;
  put32_mem hdr 36 lane;
  (match !backing with
  | Mem b -> Bytes.blit hdr 0 b 0 header_size
  | Map (m, _) ->
    for i = 0 to header_size - 1 do
      Bigarray.Array1.set m i (Bytes.get hdr i)
    done);
  for i = 0 to !n_names - 1 do
    write_name_at i names.(i)
  done

let attach ~path ~lane =
  locked (fun () ->
      let fd = Unix.openfile path [ Unix.O_RDWR; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ] 0o644 in
      Fun.protect
        ~finally:(fun () -> Unix.close fd)
        (fun () ->
          Unix.ftruncate fd total_size;
          (* Two MAP_SHARED views of the same pages: coherent by
             construction, so the int64 view used by [record] and the
             char view used for the header never disagree. *)
          let g = Unix.map_file fd Bigarray.char Bigarray.c_layout true [| total_size |] in
          let g64 = Unix.map_file fd Bigarray.int64 Bigarray.c_layout true [| total_size / 8 |] in
          backing := Map (Bigarray.array1_of_genarray g, Bigarray.array1_of_genarray g64));
      Atomic.set seq 0;
      write_header ~lane)

let reset () =
  locked (fun () ->
      backing := Mem (Bytes.make total_size '\000');
      Atomic.set seq 0;
      write_header ~lane:0)

(* {1 Reading} *)

type entry = {
  e_seq : int;
  e_t_ns : int;
  e_value : int;
  e_kind : kind;
  e_name : string;
}

type dump = { d_lane : int; d_entries : entry list }

let decode_names b =
  Array.init max_names (fun i ->
      let off = names_off + (i * name_size) in
      let n = Char.code (Bytes.get b off) in
      if n = 0 || n >= name_size then "" else Bytes.sub_string b (off + 1) n)

let decode b =
  let table = decode_names b in
  let entries = ref [] in
  for slot = capacity - 1 downto 0 do
    let off = entries_off + (slot * entry_size) in
    let s = get64 b off in
    let t = get64 b (off + 8) in
    let v = get64 b (off + 16) in
    let p = Char.code (Bytes.get b (off + 24)) in
    match kind_of_code (Char.code (Bytes.get b (off + 25))) with
    (* Untouched slots are all-zero (t = 0: the monotonic clock never
       reads 0 at runtime) and a slot torn by SIGKILL mid-store can hold
       anything; both must be dropped, not misread. *)
    | Some k when t > 0 && s >= 0 && p < max_names ->
      entries := { e_seq = s; e_t_ns = t; e_value = v; e_kind = k; e_name = table.(p) } :: !entries
    | _ -> ()
  done;
  List.sort (fun a b -> compare a.e_seq b.e_seq) !entries

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (Stdlib.min total_size (in_channel_length ic)))

let is_ring_file ~path =
  match read_file path with
  | s -> String.length s >= String.length magic && String.sub s 0 (String.length magic) = magic
  | exception Sys_error _ -> false

let read ~path =
  let s = read_file path in
  if String.length s < total_size then
    invalid_arg (Printf.sprintf "Ring.read: %s: truncated ring file" path);
  if String.sub s 0 (String.length magic) <> magic then
    invalid_arg (Printf.sprintf "Ring.read: %s: not a flight-recorder file" path);
  let b = Bytes.of_string s in
  { d_lane = get32 b 36; d_entries = decode b }

let pp ppf { d_lane; d_entries } =
  match d_entries with
  | [] -> Format.fprintf ppf "flight recorder (lane %d): empty@\n" d_lane
  | first :: _ ->
    let last_seq = List.fold_left (fun acc e -> Stdlib.max acc e.e_seq) 0 d_entries in
    Format.fprintf ppf "flight recorder (lane %d): %d event(s), seq %d..%d@\n" d_lane
      (List.length d_entries) first.e_seq last_seq;
    Format.fprintf ppf "%8s %12s  %-6s %-28s %s@\n" "seq" "t (ms)" "kind" "probe" "value";
    List.iter
      (fun e ->
        Format.fprintf ppf "%8d %12.3f  %-6s %-28s %d@\n" e.e_seq
          (float_of_int (e.e_t_ns - first.e_t_ns) /. 1e6)
          (kind_name e.e_kind) e.e_name e.e_value)
      d_entries
