(** Buzhash — a cyclic-polynomial rolling hash over a fixed-size byte window.

    This is the "Rabin fingerprint" role in POS-Tree: the hash of the last
    [window] bytes is compared against a boundary pattern to decide where
    nodes split.  The hash is deterministic (fixed substitution table), and
    rolling: each input byte updates it in O(1).

    With [T] the substitution {!table} and [rotl] a left rotation within
    {!width} bits, rolling byte [c] in while byte [o] leaves the window is
    [h' = rotl(h, 1) xor T\[c\] xor rotl(T\[o\], window)].  {!roll} is the
    reference definition; [Chunker] inlines the same recurrence in one
    loop over a record's bytes (see {!expire_table}). *)

val width : int
(** Bits in a hash value (61: rotations stay within a native int). *)

val mask : int
(** [2^width - 1]. *)

val table : int array
(** The fixed substitution table, 256 entries below {!mask}.  Read-only. *)

val expire_table : window:int -> int array
(** [expire_table ~window] maps byte [b] to [T\[b\]] rotated left by
    [window]: the term that leaves the hash when [b] drops out of a
    [window]-byte window.  A fresh array; [window] must be positive. *)

type t
(** Mutable rolling state. *)

val create : window:int -> t
(** A fresh state with an empty window.  [window] must be positive. *)

val window : t -> int
val reset : t -> unit

val roll : t -> char -> int
(** Push one byte through the window and return the updated hash value.
    Until [window] bytes have been fed the hash covers only what was fed. *)

val value : t -> int
(** Current hash value. *)

val fed : t -> int
(** Number of bytes fed since the last {!reset} (not capped at the window). *)

val hash_string : window:int -> string -> int
(** Hash of the last [window] bytes of [s] (or all of [s] if shorter),
    computed by rolling from a fresh state — used in tests as the reference
    for the rolling property. *)
