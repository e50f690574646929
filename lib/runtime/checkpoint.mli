(** Atomic, CRC-checked checkpoint files.

    A checkpoint file is exactly one {!Frame}: a one-line magic string
    (carrying a format version), the payload length, a CRC-32 of the
    payload, then the OCaml [Marshal] encoding of a pure-data value.
    Writes go to [path ^ ".tmp"] and are renamed into place, so an
    interrupted save never corrupts the previous checkpoint; the CRC
    catches a file corrupted after it was written.

    The payload must be closure-free (plain records, arrays, variants,
    scalars); readers must expect the exact type that was written — the
    magic string is the caller's versioning handle for that contract. *)

exception Corrupt of string
(** Missing file, wrong magic, or a truncated or corrupted frame. *)

val save : magic:string -> path:string -> 'a -> unit
(** Write [Frame.encode ~magic value] atomically to [path].  Raises
    [Invalid_argument] when [magic] contains a newline. *)

val load : magic:string -> path:string -> 'a
(** Raises {!Corrupt} when the file is unreadable or does not decode as
    a frame with this [magic] (see {!Frame.decode}).  Unsafe in the usual
    [Marshal] sense: the ['a] the caller expects must match what was
    saved. *)

val versioned_magic : base:string -> version:int -> string
(** [versioned_magic ~base ~version] is ["<base> v<version>"], the shape
    of every magic line this library persists or ships.  Raises
    [Invalid_argument] when [version < 1]. *)

(** {2 Numbered checkpoint histories}

    A run that wants to keep the last K checkpoints (instead of
    overwriting one file) writes to {!numbered}[ path seq] and calls
    {!prune}[ ~keep path] after each save.  History files are
    [path.NNNNNN] with a zero-padded sequence number, so lexicographic
    and numeric order agree. *)

val numbered : string -> int -> string
(** [numbered path seq] is [path.NNNNNN].  Raises [Invalid_argument] on a
    negative [seq]. *)

val prune : keep:int -> string -> unit
(** Delete all but the [keep] highest-numbered history files of [path].
    Unremovable files are skipped silently.  Raises [Invalid_argument]
    when [keep < 1]. *)

(** {2 Self-validating frames}

    The one encoding of a persisted or shipped value: checkpoint files
    and shard wire messages alike.  A file or a pipe can deliver torn or
    corrupted bytes, and the codec must detect that rather than let
    [Marshal] misparse them. *)

module Frame : sig
  val encode : magic:string -> 'a -> string
  (** [magic ^ "\n"], 4-byte big-endian payload length, 4-byte big-endian
      CRC-32 of the payload, then the [Marshal] payload.  Raises
      [Invalid_argument] when [magic] contains a newline. *)

  val decode : magic:string -> string -> 'a
  (** Raises {!Corrupt} on a magic mismatch, a length that disagrees with
      the frame size, a CRC mismatch, or an undecodable payload.  Same
      [Marshal] caveat as {!load}: the ['a] must match what was encoded. *)

  (* robustlint: allow R12 — test_shard's "frame roundtrip + CRC" pins the CRC-32 known answer *)
  val crc32 : string -> int32
  (** CRC-32 (IEEE 802.3, reflected) of a string; matches zlib's crc32. *)
end
