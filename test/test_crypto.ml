(* SHA-256 against NIST FIPS 180-4 vectors on both C kernels (the one
   selected by cpuid and the portable one), the two kernels against each
   other, two-piece split equivalence, bounds checks, concurrent hashing,
   and the Hash / Hex utility modules. *)

module Sha256 = Siri_crypto.Sha256
module Hash = Siri_crypto.Hash
module Hex = Siri_crypto.Hex

(* Both kernels behind the same five entry points.  On a host without the
   SHA extensions the two rows run the same portable code. *)
type kernel = {
  name : string;
  digest_string : string -> string;
  digest_bytes : bytes -> string;
  digest_substring : string -> off:int -> len:int -> string;
  digest_concat : string -> string -> string;
  digest_concat_sub : string -> string -> off:int -> len:int -> string;
}

let selected =
  { name = Sha256.implementation;
    digest_string = Sha256.digest_string;
    digest_bytes = Sha256.digest_bytes;
    digest_substring = Sha256.digest_substring;
    digest_concat = Sha256.digest_concat;
    digest_concat_sub = Sha256.digest_concat_sub }

let portable =
  { name = "portable";
    digest_string = Sha256.Portable.digest_string;
    digest_bytes = Sha256.Portable.digest_bytes;
    digest_substring = Sha256.Portable.digest_substring;
    digest_concat = Sha256.Portable.digest_concat;
    digest_concat_sub = Sha256.Portable.digest_concat_sub }

let kernels = [ selected; portable ]
let hex = Sha256.to_hex

(* Official short/long message test vectors. *)
let nist_vectors =
  [ ( "",
      "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855" );
    ( "abc",
      "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad" );
    ( "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
      "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1" );
    ( "abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmno\
       ijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu",
      "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1" );
    ( "The quick brown fox jumps over the lazy dog",
      "d7a8fbb307d7809469ca9abcb0082e4f8d5651e46d3cdb762d02d0bf37c9e592" ) ]

let test_nist () =
  List.iter
    (fun k ->
      List.iter
        (fun (input, expected) ->
          let msg = k.name ^ ": " ^ input in
          Alcotest.(check string) msg expected (hex (k.digest_string input));
          Alcotest.(check string) (msg ^ " (bytes)") expected
            (hex (k.digest_bytes (Bytes.of_string input))))
        nist_vectors)
    kernels

let test_million_a () =
  let s = String.make 1_000_000 'a' in
  List.iter
    (fun k ->
      Alcotest.(check string) (k.name ^ ": 10^6 x a")
        "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        (hex (k.digest_string s)))
    kernels

let patterned n = String.init n (fun i -> Char.chr ((i * 131 + (i lsr 8)) land 0xFF))

(* Every length 0..1100 covers each padding case (fill < 56, fill >= 56,
   exact blocks) many times over, and multi-block inputs on both sides. *)
let test_kernels_agree_every_length () =
  let data = patterned 1100 in
  for n = 0 to 1100 do
    let s = String.sub data 0 n in
    Alcotest.(check string)
      (Printf.sprintf "len %d" n)
      (hex (portable.digest_string s))
      (hex (selected.digest_string s))
  done

let test_kernels_agree_random_cuts () =
  let rng = Random.State.make [| 20260806 |] in
  for _ = 1 to 2000 do
    let s = String.init (Random.State.int rng 1100) (fun _ ->
        Char.chr (Random.State.int rng 256)) in
    let n = String.length s in
    let off = Random.State.int rng (n + 1) in
    let len = Random.State.int rng (n - off + 1) in
    let cut = Random.State.int rng (n + 1) in
    let a = String.sub s 0 cut and b = String.sub s cut (n - cut) in
    let expect_sub = hex (Sha256.digest_string (String.sub s off len)) in
    let expect_cat = hex (Sha256.digest_string (a ^ String.sub s off len)) in
    List.iter
      (fun k ->
        let ctx = Printf.sprintf "%s n=%d off=%d len=%d cut=%d" k.name n off len cut in
        Alcotest.(check string) ("substring " ^ ctx) expect_sub
          (hex (k.digest_substring s ~off ~len));
        Alcotest.(check string) ("concat " ^ ctx) (hex (portable.digest_string s))
          (hex (k.digest_concat a b));
        Alcotest.(check string) ("concat_sub " ^ ctx) expect_cat
          (hex (k.digest_concat_sub a s ~off ~len)))
      kernels
  done

let test_bounds_rejected () =
  let s = "0123456789" in
  let bad = [ (-1, 0); (0, -1); (0, 11); (11, 0); (5, 6); (1, max_int);
              (max_int, 1); (min_int, 0) ] in
  List.iter
    (fun k ->
      List.iter
        (fun (off, len) ->
          let raises f =
            match f () with
            | _ -> false
            | exception Invalid_argument _ -> true
          in
          let ctx = Printf.sprintf "%s off=%d len=%d" k.name off len in
          Alcotest.(check bool) ("substring refuses " ^ ctx) true
            (raises (fun () -> k.digest_substring s ~off ~len));
          Alcotest.(check bool) ("concat_sub refuses " ^ ctx) true
            (raises (fun () -> k.digest_concat_sub "ab" s ~off ~len)))
        bad;
      (* The edges of the valid range are accepted. *)
      Alcotest.(check string) (k.name ^ " empty at end") (hex (k.digest_string ""))
        (hex (k.digest_substring s ~off:10 ~len:0));
      Alcotest.(check string) (k.name ^ " whole") (hex (k.digest_string s))
        (hex (k.digest_concat_sub "" s ~off:0 ~len:10)))
    kernels

(* The kernel matches what the CPU reports: on Linux x86 the flags line of
   /proc/cpuinfo names sha_ni, sse4_1 and ssse3 exactly when the SHA-NI
   kernel must have been selected. *)
let test_selection_matches_cpu () =
  let flags =
    match In_channel.with_open_text "/proc/cpuinfo" In_channel.input_all with
    | text ->
        List.find_map
          (fun line ->
            match String.index_opt line ':' with
            | Some i when String.trim (String.sub line 0 i) = "flags" ->
                Some
                  (String.split_on_char ' '
                     (String.sub line (i + 1) (String.length line - i - 1)))
            | _ -> None)
          (String.split_on_char '\n' text)
    | exception Sys_error _ -> None
  in
  match flags with
  | Some flags ->
      let has f = List.mem f flags in
      Alcotest.(check string) "kernel follows cpuid"
        (if has "sha_ni" && has "sse4_1" && has "ssse3" then "sha-ni"
         else "portable")
        Sha256.implementation
  | None ->
      Alcotest.(check bool) "a known kernel" true
        (List.mem Sha256.implementation [ "sha-ni"; "portable" ])

(* Two-piece splits at the piece boundaries an incremental feed in these
   chunk sizes would have: concat of the two halves equals one-shot. *)
let test_split_chunk_sizes () =
  let data = String.init 10_000 (fun i -> Char.chr ((i * 131) land 0xFF)) in
  let n = String.length data in
  let oneshot = hex (Sha256.digest_string data) in
  List.iter
    (fun sizes ->
      let pos = ref 0 and i = ref 0 in
      while !pos < n do
        let cut = !pos in
        let a = String.sub data 0 cut in
        Alcotest.(check string) "concat split = one-shot" oneshot
          (hex (Sha256.digest_concat a (String.sub data cut (n - cut))));
        Alcotest.(check string) "concat_sub split = one-shot" oneshot
          (hex (Sha256.digest_concat_sub a data ~off:cut ~len:(n - cut)));
        pos := !pos + List.nth sizes (!i mod List.length sizes);
        incr i
      done)
    [ [ 1 ]; [ 63 ]; [ 64 ]; [ 65 ]; [ 1; 64; 3; 1000 ]; [ 7; 13 ] ]

(* Padding edge cases around the 55/56/64-byte boundaries, split at every
   byte (the ragged one-byte feed of the old streaming API). *)
let test_boundary_lengths () =
  List.iter
    (fun n ->
      let s = String.make n 'x' in
      let expected = hex (Sha256.digest_string s) in
      for cut = 0 to n do
        let a = String.sub s 0 cut in
        let ctx = Printf.sprintf "len %d cut %d" n cut in
        Alcotest.(check string) ctx expected
          (hex (Sha256.digest_concat a (String.sub s cut (n - cut))));
        Alcotest.(check string) (ctx ^ " sub") expected
          (hex (Sha256.digest_concat_sub a s ~off:cut ~len:(n - cut)))
      done)
    [ 0; 1; 54; 55; 56; 57; 63; 64; 65; 119; 120; 127; 128; 129 ]

let qcheck_split =
  QCheck.Test.make ~name:"split-anywhere concat equivalence" ~count:200
    QCheck.(pair (string_of_size Gen.(0 -- 300)) (int_bound 299))
    (fun (s, cut) ->
      let cut = min cut (String.length s) in
      let rest = String.length s - cut in
      let a = String.sub s 0 cut in
      let whole = Sha256.digest_string s in
      Sha256.digest_concat a (String.sub s cut rest) = whole
      && Sha256.digest_concat_sub a s ~off:cut ~len:rest = whole)

let test_hash_basics () =
  let h = Hash.of_string "hello" in
  Alcotest.(check int) "size" 32 (String.length (Hash.to_raw h));
  Alcotest.(check bool) "equal self" true (Hash.equal h (Hash.of_string "hello"));
  Alcotest.(check bool) "differs" false (Hash.equal h (Hash.of_string "hellp"));
  Alcotest.(check string) "hex roundtrip" (Hash.to_hex h)
    (Hash.to_hex (Hash.of_hex (Hash.to_hex h)));
  Alcotest.(check int) "short is 8 chars" 8 (String.length (Hash.short h));
  Alcotest.(check bool) "null is null" true (Hash.is_null Hash.null);
  Alcotest.(check bool) "h is not null" false (Hash.is_null h)

let test_hash_of_raw_rejects () =
  Alcotest.check_raises "bad length"
    (Invalid_argument "Hash.of_raw: expected 32 bytes, got 3") (fun () ->
      ignore (Hash.of_raw "abc"))

let test_hash_containers () =
  let hs = List.init 100 (fun i -> Hash.of_string (string_of_int i)) in
  let set = List.fold_left (fun s h -> Hash.Set.add h s) Hash.Set.empty hs in
  Alcotest.(check int) "set cardinal" 100 (Hash.Set.cardinal set);
  let tbl = Hash.Table.create 16 in
  List.iteri (fun i h -> Hash.Table.replace tbl h i) hs;
  Alcotest.(check int) "table length" 100 (Hash.Table.length tbl);
  List.iteri
    (fun i h -> Alcotest.(check int) "table lookup" i (Hash.Table.find tbl h))
    hs

let test_hex () =
  Alcotest.(check string) "encode" "00ff10" (Hex.encode "\x00\xff\x10");
  Alcotest.(check string) "decode" "\x00\xff\x10" (Hex.decode "00ff10");
  Alcotest.(check string) "decode upper" "\xab" (Hex.decode "AB");
  Alcotest.(check bool) "is_hex yes" true (Hex.is_hex "deadBEEF");
  Alcotest.(check bool) "is_hex odd" false (Hex.is_hex "abc");
  Alcotest.(check bool) "is_hex bad char" false (Hex.is_hex "zz");
  Alcotest.check_raises "decode odd" (Invalid_argument "Hex.decode: odd length")
    (fun () -> ignore (Hex.decode "abc"))

let qcheck_hex_roundtrip =
  QCheck.Test.make ~name:"hex roundtrip" ~count:200 QCheck.string (fun s ->
      Hex.decode (Hex.encode s) = s)

(* Concurrent one-shot digests from systhreads sharing one domain: no
   digest state may be shared mid-digest.  (Regression: a
   domain-local context used in place let a preempted thread's reset and
   feeds interleave with another's — the server's journal frames then
   carried digests of neither payload, and a SIGKILL-restart refused the
   journal as corrupt.) *)
let test_threaded_digests () =
  let inputs =
    Array.init 64 (fun i -> String.make (50 + (137 * i mod 4000)) (Char.chr (33 + (i mod 90))))
  in
  let expected = Array.map Sha256.digest_string inputs in
  let bad = Atomic.make 0 in
  let worker _ =
    for round = 0 to 400 do
      let i = (round * 31) mod Array.length inputs in
      if not (String.equal (Sha256.digest_string inputs.(i)) expected.(i))
      then Atomic.incr bad
    done
  in
  let threads = List.init 8 (fun w -> Thread.create worker w) in
  List.iter Thread.join threads;
  Alcotest.(check int) "no interleaved digests" 0 (Atomic.get bad)

(* Every one-shot entry point, plus the pool workers' quiet hash, from 4
   domains x 2 systhreads at once over seeded 0..4096-byte inputs: each
   result must equal the sequential pass. *)
let test_domains_threads_stress () =
  let rng = Random.State.make [| 4096 |] in
  let cases =
    Array.init 96 (fun _ ->
        let n = Random.State.int rng 4097 in
        let s = String.init n (fun _ -> Char.chr (Random.State.int rng 256)) in
        let off = Random.State.int rng (n + 1) in
        let len = Random.State.int rng (n - off + 1) in
        let cut = Random.State.int rng (n + 1) in
        (s, off, len, String.sub s 0 cut, String.sub s cut (n - cut)))
  in
  let all (s, off, len, a, b) =
    [ Sha256.digest_string s;
      Sha256.digest_bytes (Bytes.of_string s);
      Sha256.digest_substring s ~off ~len;
      Sha256.digest_concat a b;
      Sha256.digest_concat_sub a s ~off ~len;
      Hash.to_raw (Hash.of_string_quiet s) ]
  in
  let expected = Array.map all cases in
  let bad = Atomic.make 0 and checked = Atomic.make 0 in
  let rounds = 40 in
  let worker start =
    for round = 0 to rounds - 1 do
      for j = 0 to Array.length cases - 1 do
        let i = (start + (round * 7) + j) mod Array.length cases in
        if not (List.equal String.equal (all cases.(i)) expected.(i)) then
          Atomic.incr bad;
        Atomic.incr checked
      done
    done
  in
  (* Domains start hashing together, so their digests overlap in time. *)
  let ready = Atomic.make 0 in
  let domains =
    List.init 4 (fun d ->
        Domain.spawn (fun () ->
            Atomic.incr ready;
            while Atomic.get ready < 4 do Domain.cpu_relax () done;
            let threads =
              List.init 2 (fun t -> Thread.create worker ((d * 2 + t) * 13))
            in
            List.iter Thread.join threads))
  in
  List.iter Domain.join domains;
  Alcotest.(check int) "every case checked" (8 * rounds * Array.length cases)
    (Atomic.get checked);
  Alcotest.(check int) "concurrent = sequential" 0 (Atomic.get bad)

let () =
  Alcotest.run "crypto"
    [ ( "sha256",
        [ Alcotest.test_case "NIST vectors, both kernels" `Quick test_nist;
          Alcotest.test_case "million 'a', both kernels" `Quick test_million_a;
          Alcotest.test_case "kernels agree at every length 0..1100" `Quick
            test_kernels_agree_every_length;
          Alcotest.test_case "kernels agree at random offsets and cuts" `Quick
            test_kernels_agree_random_cuts;
          Alcotest.test_case "out-of-range off/len refused" `Quick
            test_bounds_rejected;
          Alcotest.test_case "selected kernel follows cpuid" `Quick
            test_selection_matches_cpu;
          Alcotest.test_case "splits at chunk-size boundaries" `Quick
            test_split_chunk_sizes;
          Alcotest.test_case "padding boundaries, every split" `Quick
            test_boundary_lengths;
          Alcotest.test_case "threaded one-shot digests" `Quick
            test_threaded_digests;
          Alcotest.test_case "4 domains x 2 threads = sequential" `Quick
            test_domains_threads_stress;
          QCheck_alcotest.to_alcotest qcheck_split ] );
      ( "hash",
        [ Alcotest.test_case "basics" `Quick test_hash_basics;
          Alcotest.test_case "of_raw validation" `Quick test_hash_of_raw_rejects;
          Alcotest.test_case "set/table" `Quick test_hash_containers ] );
      ( "hex",
        [ Alcotest.test_case "encode/decode" `Quick test_hex;
          QCheck_alcotest.to_alcotest qcheck_hex_roundtrip ] ) ]
