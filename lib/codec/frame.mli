(** Checksummed length-prefixed framing, shared by every append-only file
    in the system (the WAL commit journal and the pack-file segments).

    A frame is [len(4, big-endian) | digest(32) | payload], where the digest
    is SHA-256 over the length bytes followed by the payload — so neither a
    payload flip nor a length flip can go unnoticed.  {!step} classifies the
    bytes at an offset as exactly one of: a verified frame, a torn tail
    (incomplete header or payload — what a crashed append leaves behind), or
    a checksum mismatch (mid-file corruption).  Scanners built on it share
    the WAL's recovery discipline: torn tails are clamped, corruption is
    refused, wrong reads are impossible. *)

val header_len : int
(** Bytes before the payload: 4 length bytes + 32 checksum bytes. *)

val encode : string -> string
(** Wrap a payload into a frame. *)

val declared_len : string -> pos:int -> int
(** The payload length a frame header at [pos] declares, {e unverified}
    — the digest is not checked.  Requires 4 readable bytes at [pos]. *)

type step =
  | Frame of { payload_off : int; payload_len : int; next : int }
      (** A verified frame starts at the queried offset; its payload is the
          slice [payload_off, payload_off + payload_len) and the next frame
          (if any) starts at [next]. *)
  | End  (** The offset is exactly the end of the blob. *)
  | Torn of int
      (** The remaining bytes are shorter than the declared frame — a torn
          append; the payload carries how many trailing bytes to clamp. *)
  | Corrupt
      (** A complete frame whose checksum does not match — bit rot or
          tampering, never a torn write. *)

val step : string -> pos:int -> step
(** Classify the bytes of [blob] starting at [pos] (which must be within
    [0, length blob]).  Checksum verification is zero-copy — the digest is
    computed over slices in place. *)
