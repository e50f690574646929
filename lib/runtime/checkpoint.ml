exception Corrupt of string

let corrupt fmt = Printf.ksprintf (fun s -> raise (Corrupt s)) fmt

(* {1 Self-validating frames}

   The one encoding of a persisted or shipped value: a magic line, the
   payload length and a CRC-32, then the Marshal payload.  A reader that
   gets a torn or bit-flipped frame — from a pipe or from disk — must
   learn so from the codec (Marshal alone would happily misparse), hence
   every decode failure is a {!Corrupt}. *)

module Frame = struct
  (* CRC-32 (IEEE 802.3, reflected), table-driven on native ints (an
     [Int32] accumulator would box once per byte).  Standard polynomial
     0xEDB88320; matches zlib's crc32 so frames are checkable with
     off-the-shelf tools. *)
  let crc_table =
    Array.init 256 (fun n ->
        let c = ref n in
        for _ = 0 to 7 do
          c := if !c land 1 <> 0 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
        done;
        !c)

  let crc32 s =
    let c = ref 0xFFFFFFFF in
    for i = 0 to String.length s - 1 do
      c := crc_table.((!c lxor Char.code s.[i]) land 0xFF) lxor (!c lsr 8)
    done;
    Int32.of_int (!c lxor 0xFFFFFFFF)

  (* A frame as its header (magic line, u32 payload length, u32 CRC) and
     its payload, so a file save can write the two without first copying
     them into one string. *)
  let parts ~magic value =
    if String.contains magic '\n' then invalid_arg "Checkpoint.Frame.encode: magic contains a newline";
    let payload = Marshal.to_string value [] in
    let fields = Bytes.create 8 in
    Bytes.set_int32_be fields 0 (Int32.of_int (String.length payload));
    Bytes.set_int32_be fields 4 (crc32 payload);
    (String.concat "" [ magic; "\n"; Bytes.unsafe_to_string fields ], payload)

  let encode ~magic value =
    let header, payload = parts ~magic value in
    header ^ payload

  let decode ~magic frame =
    let header = String.length magic + 1 in
    if not (String.starts_with ~prefix:(magic ^ "\n") frame) then begin
      (* Quote at most the bytes where the magic line should be, so a
         foreign or bit-flipped file yields a one-line message. *)
      let seen = String.sub frame 0 (min header (String.length frame)) in
      let seen = match String.index_opt seen '\n' with Some i -> String.sub seen 0 i | None -> seen in
      corrupt "frame: bad magic %S (expected %S)" seen magic
    end;
    if String.length frame < header + 8 then corrupt "frame: truncated header";
    let len = Int32.to_int (String.get_int32_be frame header) land 0xFFFFFFFF in
    let crc = String.get_int32_be frame (header + 4) in
    if String.length frame <> header + 8 + len then
      corrupt "frame: payload length %d does not match frame size" len;
    let payload = String.sub frame (header + 8) len in
    if crc32 payload <> crc then corrupt "frame: CRC mismatch (torn or corrupted)";
    try Marshal.from_string payload 0
    with Failure _ | Invalid_argument _ -> corrupt "frame: undecodable payload"
end

(* Checkpoint I/O telemetry: latency (histogram, ms), volume (bytes
   written) and call counts.  All probes are disabled-path no-ops. *)
let m_saves = Obs.Metrics.counter "checkpoint.saves"
let m_loads = Obs.Metrics.counter "checkpoint.loads"
let m_bytes = Obs.Metrics.counter "checkpoint.bytes"
let m_pruned = Obs.Metrics.counter "checkpoint.pruned"
let h_save_ms = Obs.Metrics.histogram "checkpoint.save_ms"

let save ~magic ~path value =
  Obs.Span.with_span "checkpoint.save" @@ fun () ->
  let t0 = Obs.Clock.now_ns () in
  let header, payload = Frame.parts ~magic value in
  (* Write-then-rename so a crash mid-checkpoint never clobbers the
     previous good checkpoint with a truncated file. *)
  let tmp = path ^ ".tmp" in
  Out_channel.with_open_bin tmp (fun oc ->
      Out_channel.output_string oc header;
      Out_channel.output_string oc payload);
  Sys.rename tmp path;
  Obs.Metrics.incr m_saves;
  Obs.Metrics.add m_bytes (String.length header + String.length payload);
  Obs.Metrics.observe h_save_ms (Obs.Clock.ns_to_ms (Obs.Clock.now_ns () - t0))

let load ~magic ~path =
  Obs.Span.with_span "checkpoint.load" @@ fun () ->
  let frame =
    try In_channel.with_open_bin path In_channel.input_all
    with Sys_error msg -> corrupt "cannot open checkpoint %s: %s" path msg
  in
  let value = try Frame.decode ~magic frame with Corrupt msg -> corrupt "checkpoint %s: %s" path msg in
  Obs.Metrics.incr m_loads;
  value

(* Every format this library persists — checkpoint files and shard wire
   frames alike — identifies itself with a one-line magic of the shape
   ["<base> v<N>"]; a reader accepts exactly the version it expects. *)
let versioned_magic ~base ~version =
  if version < 1 then invalid_arg "Checkpoint.versioned_magic: version must be >= 1";
  Printf.sprintf "%s v%d" base version

(* {1 Numbered checkpoint histories} *)

let numbered path seq =
  if seq < 0 then invalid_arg "Checkpoint.numbered: seq must be >= 0";
  Printf.sprintf "%s.%06d" path seq

(* Files named [base ^ ".NNNNNN"] in [path]'s directory, as (seq, path)
   pairs.  Anything else — the bare path, ".tmp" leftovers — is ignored. *)
let history path =
  let dir = Filename.dirname path in
  let base = Filename.basename path in
  let entries = try Sys.readdir dir with Sys_error _ -> [||] in
  let seq_of name =
    let prefix = base ^ "." in
    if String.starts_with ~prefix name then begin
      let suffix = String.sub name (String.length prefix) (String.length name - String.length prefix) in
      if String.length suffix = 6 && String.for_all (fun c -> c >= '0' && c <= '9') suffix
      then int_of_string_opt suffix
      else None
    end
    else None
  in
  let hits =
    Array.to_list entries
    |> List.filter_map (fun name ->
           match seq_of name with
           | Some seq -> Some (seq, Filename.concat dir name)
           | None -> None)
  in
  List.sort (fun (a, _) (b, _) -> compare a b) hits

let prune ~keep path =
  if keep < 1 then invalid_arg "Checkpoint.prune: keep must be >= 1";
  let hist = history path in
  let drop = List.length hist - keep in
  List.iteri
    (fun i (_, p) ->
      if i < drop then begin
        (try Sys.remove p with Sys_error _ -> ());
        Obs.Metrics.incr m_pruned
      end)
    hist
