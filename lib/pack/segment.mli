(** Pack segment files: append-only logs of checksummed node records.

    A segment is [magic | frame*] where each frame
    ({!Siri_codec.Frame}) wraps one node record

    {v hash(32) | varint |bytes| | bytes | varint n | child-hash(32) * n v}

    The frame digest covers the whole record, so scans detect a mid-file
    bit flip before any field is trusted.  Point reads instead
    authenticate the node bytes by their content address — the record's
    hash field names the node and the bytes must hash to it — and check
    the frame digest only when the child list is used.  Like the WAL
    journal, a segment has prefix semantics: a crashed append leaves a
    torn tail that scanners clamp, while a checksum mismatch {e before}
    the tail is refused as tampering — a wrong read is impossible. *)

module Hash = Siri_crypto.Hash

val magic : string
(** First bytes of every segment file. *)

val filename : int -> string
(** [filename id] is the basename of segment [id] ("seg-<id>.pack"). *)

val id_of_filename : string -> int option
(** Inverse of {!filename}; [None] for anything else. *)

val encode_record : Hash.t -> string -> Hash.t list -> string
(** The framed record for one node — the bytes appended to a segment. *)

val decode_record : string -> off:int -> len:int -> Hash.t * string * Hash.t list
(** Decode the {e payload} slice of a verified frame (not including the
    frame header).  Raises [Siri_codec.Wire.Reader.Truncated] on
    malformed bytes — unreachable for a frame whose digest verified. *)

val decode_head : string -> off:int -> len:int -> Hash.t * string
(** The record's hash field and node bytes, leaving the children list
    unread.  Unlike {!decode_record} it may run on an {e unverified}
    payload: it raises only [Siri_codec.Wire.Reader.Truncated], and the
    caller authenticates the bytes by re-hashing them. *)

type scanned = {
  records : (Hash.t * int * int) list;
      (** (node hash, frame offset, frame length) in file order *)
  length : int;  (** valid prefix length — clamp the file to this *)
  clamped : int;  (** torn trailing bytes past [length] *)
}

val scan : string -> (scanned, [ `Tampered of int ]) result
(** Classify a whole segment blob.  A torn tail (including a torn or
    missing magic) is clamped into [clamped]; a checksum mismatch on a
    complete frame, or a wrong magic, is [`Tampered offset]. *)
