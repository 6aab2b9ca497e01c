(** Item-granular content-defined chunking.

    POS-Tree partitions an ordered sequence of items (records at the leaf
    level, [split-key, child-hash] pairs in internal levels) into nodes.  A
    chunker consumes items one at a time and announces after each whether a
    node boundary falls at its end.

    Boundary rule at the leaf level: a Buzhash rolling hash is computed over
    the serialized bytes of each item (the window starts empty at each
    item's first byte and rolls within that item); if
    at any byte — once the chunk holds at least [min_size] bytes — the low
    [pattern_bits] bits of the hash are all ones, the chunk ends at the end
    of the current item.  A chunk is also force-cut at [max_size] bytes.
    Because carrying a boundary is a property of an item's own bytes, the
    partition depends only on the item sequence (Structurally Invariant,
    Definition 3.1(1)) and re-chunking after an edit realigns with the old
    boundaries at the next boundary-carrying item.

    Internal levels instead test the child's cryptographic hash directly
    against the pattern (see {!hash_boundary}) — the POS-Tree optimisation
    that avoids re-hashing inside the sliding window. *)

type config = {
  window : int;  (** rolling-hash window in bytes (paper/Noms default: 67) *)
  pattern_bits : int;
      (** boundary when the low [pattern_bits] bits are all ones; expected
          chunk size ≈ [2^pattern_bits] bytes *)
  min_size : int;  (** no boundary before this many bytes *)
  max_size : int;  (** force a boundary at this many bytes *)
}

val config :
  ?window:int -> ?min_size:int -> ?max_size:int -> pattern_bits:int -> unit ->
  config
(** Defaults: [window = 67], [min_size = 0], [max_size = 64 * 2^pattern_bits]
    (rare enough that force-cuts are exceptional). *)

val config_for_leaf_size : int -> config
(** A config whose expected chunk size is the given number of bytes. *)

type t

val create : config -> t
val conf : t -> config

val reset : t -> unit
(** Forget all rolling state (start of a fresh level / segment). *)

val feed_range : t -> Bytes.t -> off:int -> len:int -> bool
(** [feed_range t buf ~off ~len] absorbs one item whose serialized bytes
    are [buf\[off, off + len)] — read in place, so a caller that encodes
    the item into its node's body rolls over exactly the bytes it wrote.
    [true] means a node boundary falls after this item (state has been
    reset).  One loop over the range, checked once: the window starts empty
    at the item's first byte, rolling stops at the first pattern match, and
    {!size} still counts all [len] bytes.  Boundaries equal those of the
    one-byte-at-a-time {!Buzhash.roll} reference.  Raises
    [Invalid_argument] if the range is not within [buf]. *)

val feed : t -> string -> bool
(** {!feed_range} over a whole string. *)

val size : t -> int
(** Bytes absorbed since the last boundary (0 right after one). *)

val fed : t -> int
(** Bytes absorbed since {!create}, across boundaries and {!reset}s — the
    rolling work done (telemetry [chunk.bytes]). *)

val hash_boundary : config -> Siri_crypto.Hash.t -> bool
(** Internal-level rule: boundary iff the low [pattern_bits] bits of the
    first 8 bytes of the digest are all ones. *)

val split : config -> string list -> string list list
(** Partition a whole item sequence into chunks from a fresh state.  Every
    chunk is non-empty; concatenating the chunks yields the input. *)
