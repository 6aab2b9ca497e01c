(* SHA-256, FIPS 180-4.  The compression runs in C (sha256_stubs.c): the
   x86 SHA extensions where cpuid reports them, portable C elsewhere.
   Every digest is one [noalloc] call over at most two pieces with its
   state on the C stack, so concurrent callers — domains or systhreads —
   share nothing.  Offsets and lengths are checked here, never in C. *)

external two_selected :
  string ->
  (int[@untagged]) ->
  (int[@untagged]) ->
  string ->
  (int[@untagged]) ->
  (int[@untagged]) ->
  bytes ->
  unit = "caml_siri_sha256_two_byte" "caml_siri_sha256_two"
[@@noalloc]

external two_portable :
  string ->
  (int[@untagged]) ->
  (int[@untagged]) ->
  string ->
  (int[@untagged]) ->
  (int[@untagged]) ->
  bytes ->
  unit = "caml_siri_sha256_two_portable_byte" "caml_siri_sha256_two_portable"
[@@noalloc]

external select : unit -> bool = "caml_siri_sha256_select"

(* Runs when the library is linked in, on the main domain, before anything
   can spawn another: the kernel is fixed before the first digest. *)
let implementation = if select () then "sha-ni" else "portable"

let check name total off len =
  if off < 0 || len < 0 || off > total - len then invalid_arg name

(* Direct calls into either kernel; [portable] only ever comes from the
   functor argument below, never from the run-time environment. *)
let run ~portable a aoff alen b boff blen =
  let out = Bytes.create 32 in
  if portable then two_portable a aoff alen b boff blen out
  else two_selected a aoff alen b boff blen out;
  Bytes.unsafe_to_string out

module Make (K : sig
  val portable : bool
end) =
struct
  let digest_two a aoff alen b boff blen =
    run ~portable:K.portable a aoff alen b boff blen

  let digest_string s = digest_two s 0 (String.length s) "" 0 0

  let digest_bytes b =
    let s = Bytes.unsafe_to_string b in
    digest_two s 0 (String.length s) "" 0 0

  let digest_substring s ~off ~len =
    check "Sha256.digest_substring" (String.length s) off len;
    digest_two s off len "" 0 0

  let digest_concat a b = digest_two a 0 (String.length a) b 0 (String.length b)

  let digest_concat_sub a b ~off ~len =
    check "Sha256.digest_concat_sub" (String.length b) off len;
    digest_two a 0 (String.length a) b off len
end

include Make (struct
  let portable = false
end)

module Portable = Make (struct
  let portable = true
end)

let hex_alphabet = "0123456789abcdef"

let to_hex s =
  let n = String.length s in
  let out = Bytes.create (2 * n) in
  for i = 0 to n - 1 do
    let c = Char.code s.[i] in
    Bytes.set out (2 * i) hex_alphabet.[c lsr 4];
    Bytes.set out ((2 * i) + 1) hex_alphabet.[c land 0xF]
  done;
  Bytes.unsafe_to_string out
