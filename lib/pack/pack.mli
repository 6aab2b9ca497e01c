(** The log-structured pack-file store backend.

    A pack directory holds append-only {!Segment} files, a persisted
    {!Pack_index} (so reopen is O(index), not O(data)), and a small
    {e manifest} naming the live segment set — the single atomic commit
    point for compaction.  Durability discipline, file by file:

    - {b segments} are append-only; a crashed append leaves a torn tail
      that reopen clamps (same prefix semantics as the WAL journal).
      A mid-segment checksum mismatch is [`Tampered] — refused, never
      misread.
    - {b index} is advisory: missing, corrupt, or stale-beyond-the-file
      copies are discarded and rebuilt by scanning the segments; the
      rebuilt bytes are identical to an undamaged persisted index.
      A file {e longer} than its indexed coverage only has its tail
      scanned and adopted.
    - {b manifest} is replaced atomically (tmp + rename + directory
      fsync).  Compaction writes new segments and a new index first, then
      flips the manifest: a crash at any point leaves the old or the new
      segment set, never a mix.  Segment files not named by the manifest
      are swept on open.

    Group fsync: appends are buffered; {!flush} [~sync:false] pushes them
    to the OS so the WAL's single commit fsync remains the per-commit
    durability point (replay regenerates any node the pack lost), while
    checkpoints call {!flush} [~sync:true] + {!sync_index} before the
    WAL manifest flips. *)

module Hash = Siri_crypto.Hash
module Store = Siri_store.Store
module Fault = Siri_fault.Fault
module Telemetry = Siri_telemetry.Telemetry

type t

type recovery = {
  clamped_bytes : int;  (** torn tail bytes truncated away, all segments *)
  index_rebuilt : bool;  (** persisted index was missing/corrupt/stale *)
  adopted : int;  (** records adopted by scanning un-indexed segment tails *)
  swept : int;  (** orphan segment files deleted (crashed compaction) *)
}

val open_ :
  ?segment_target:int ->
  ?retry_attempts:int ->
  ?retry_backoff_s:float ->
  ?sink:Telemetry.sink ->
  string ->
  (t * recovery, [ `Tampered of string ]) result
(** Open (creating if needed) the pack directory.  [segment_target]
    (default 8 MiB) caps a segment before rolling to a fresh one.
    Transient read faults are retried [retry_attempts] times (default 3)
    with exponential [retry_backoff_s] (default 0 — tests inject their
    own clock).  [`Tampered] is unrecoverable damage: a corrupt manifest,
    a manifest naming a missing segment, or a mid-segment checksum
    mismatch; the message names the file and offset. *)

val close : t -> unit
(** {!flush} [~sync:true], {!sync_index}, release descriptors. *)

val dir : t -> string
val count : t -> int
val stored_bytes : t -> int
(** Payload bytes live in the index (frame headers excluded). *)

val segment_ids : t -> int list
(** Live segment ids, ascending; the last one is the active segment. *)

val append : t -> (Hash.t * string * Hash.t list) list -> unit
(** Append records for the nodes not already present (content-addressed
    dedup), rolling segments as needed.  Buffered — call {!flush}. *)

val flush : ?sync:bool -> t -> unit
(** Push buffered appends to the OS; with [sync] (default true) fsync the
    active segment — one fsync for the whole batch ([pack.fsync]). *)

val sync_index : t -> unit
(** Persist the offset index (atomic, fsynced) if it changed. *)

val get : t -> Hash.t -> (string * Hash.t list Lazy.t) option
(** Point read, authenticated by content address.  [None] when absent.
    The node bytes are returned only if the record's declared length
    matches the index, its hash field names the requested hash, and the
    bytes hash to it; the frame digest is not computed.  Forcing the
    children runs the full frame check over the same bytes and decodes
    the list, raising {!Store.Tampered} if it fails — so damage can
    surface as [Tampered], never as wrong bytes or a wrong child list.
    Raises {!Store.Tampered} on a failed content check and
    {!Store.Transient} when injected transients outlast the retry
    budget.  The lazy value belongs to the caller: force it from one
    domain only. *)

val mem : t -> Hash.t -> bool

val iter : t -> (Hash.t -> string -> Hash.t list -> unit) -> unit
(** Sweep over every indexed record with full verification — content
    address and frame digest; raises like {!get}. *)

val scrub : t -> Hash.t list
(** Re-read and fully verify every indexed record (content address and
    frame digest, gate bypassed), returning the hashes whose stored bytes
    fail verification, sorted. *)

val compact :
  ?on_step:(string -> unit) -> t -> live:Hash.Set.t -> Hash.t list
(** Rewrite the records of [live] nodes into fresh segments (ids above
    every existing one), write the new index, atomically flip the
    manifest, then delete the old segments; returns the dropped hashes.
    Each carried record is read once and fully verified before its frame
    is copied — a corrupt record raises {!Store.Tampered} and the old
    segment set stays in place.
    [on_step] is called at the kill-points ["begin"],
    ["segments-written"], ["index-written"], ["manifest"], ["cleanup"] —
    crash tests raise from it; a crash strictly before ["manifest"]
    preserves the old set, at or after it the new set. *)

val set_read_gate : t -> Fault.io_gate option -> unit
(** Route every raw segment read through a fault-injection gate. *)

val backend : t -> Store.backend
(** The {!Store.backend} view: write-through appends, cold reads,
    scrub merge, GC-driven compaction. *)

val attach : t -> Store.t -> unit
(** [Store.set_backend store (Some (backend t))]. *)
