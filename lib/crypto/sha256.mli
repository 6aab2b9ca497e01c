(** SHA-256 (FIPS 180-4), one-shot digests computed in C.

    The compression function is a C stub linked through dune
    [foreign_stubs] with the OCaml toolchain's own C compiler.  It has two
    kernels: the x86 SHA extensions (SHA-NI), compiled per function with a
    target attribute, and portable C for hosts whose cpuid lacks SHA,
    SSE4.1 or SSSE3 and for non-x86 hosts.  The kernel is chosen once, by
    cpuid, when this module is initialized; no setting overrides it.

    Each digest is a single call that keeps its whole state on the C
    stack, so digests from any number of domains and systhreads run
    concurrently without sharing anything.  Every offset and length is
    checked before the C code sees it.  Verified against the NIST
    short-message vectors and the million-['a'] vector in the test suite,
    on both kernels. *)

val implementation : string
(** The kernel selected on this host: ["sha-ni"] or ["portable"]. *)

val digest_string : string -> string
(** [digest_string s] is the 32-byte SHA-256 of [s]. *)

val digest_bytes : bytes -> string
(** One-shot digest of a byte buffer, hashed in place without a copy. *)

val digest_substring : string -> off:int -> len:int -> string
(** [digest_substring s ~off ~len] is
    [digest_string (String.sub s off len)] without the copy.
    @raise Invalid_argument if [off] and [len] do not name a valid
    substring of [s]. *)

val digest_concat : string -> string -> string
(** [digest_concat a b] is [digest_string (a ^ b)] without materializing
    the concatenation. *)

val digest_concat_sub : string -> string -> off:int -> len:int -> string
(** [digest_concat_sub a b ~off ~len] is
    [digest_concat a (String.sub b off len)] without the copy — the WAL
    frame checksum hashed in place.
    @raise Invalid_argument if [off] and [len] do not name a valid
    substring of [b]. *)

(** The portable C kernel called directly, whatever the host supports —
    for cross-checking the selected kernel in tests and benchmarks.
    Same contracts as the functions above. *)
module Portable : sig
  val digest_string : string -> string
  val digest_bytes : bytes -> string
  val digest_substring : string -> off:int -> len:int -> string
  val digest_concat : string -> string -> string
  val digest_concat_sub : string -> string -> off:int -> len:int -> string
end

val to_hex : string -> string
(** Lowercase hex rendering of a raw digest (or any string). *)
