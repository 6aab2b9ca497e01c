module Hash = Siri_crypto.Hash

module Writer = struct
  (* A growable byte array.  Unlike [Buffer.t] it lets callers read the
     bytes already written in place ([unsafe_bytes]), which the POS-Tree
     chunker needs: each record is encoded once into its node's body and
     rolled over right where it lies. *)
  type t = { mutable buf : Bytes.t; mutable len : int }

  let create ?(capacity = 256) () =
    { buf = Bytes.create (max 16 capacity); len = 0 }

  let length t = t.len
  let clear t = t.len <- 0
  let unsafe_bytes t = t.buf

  let grow t n =
    let need = t.len + n in
    let cap = ref (Bytes.length t.buf) in
    while !cap < need do
      cap := 2 * !cap
    done;
    let buf = Bytes.create !cap in
    Bytes.blit t.buf 0 buf 0 t.len;
    t.buf <- buf

  let add_byte t v =
    if t.len >= Bytes.length t.buf then grow t 1;
    Bytes.unsafe_set t.buf t.len (Char.unsafe_chr v);
    t.len <- t.len + 1

  let u8 t v =
    if v < 0 || v > 0xFF then invalid_arg "Wire.Writer.u8";
    add_byte t v

  let u16 t v =
    if v < 0 || v > 0xFFFF then invalid_arg "Wire.Writer.u16";
    add_byte t (v lsr 8);
    add_byte t (v land 0xFF)

  let u32 t v =
    if v < 0 || v > 0xFFFFFFFF then invalid_arg "Wire.Writer.u32";
    add_byte t ((v lsr 24) land 0xFF);
    add_byte t ((v lsr 16) land 0xFF);
    add_byte t ((v lsr 8) land 0xFF);
    add_byte t (v land 0xFF)

  let rec varint t v =
    if v < 0 then invalid_arg "Wire.Writer.varint: negative";
    if v < 0x80 then add_byte t v
    else begin
      add_byte t (0x80 lor (v land 0x7F));
      varint t (v lsr 7)
    end

  let raw t s =
    let n = String.length s in
    if t.len + n > Bytes.length t.buf then grow t n;
    Bytes.blit_string s 0 t.buf t.len n;
    t.len <- t.len + n

  let str t s =
    varint t (String.length s);
    raw t s

  let hash t h = raw t (Hash.to_raw h)
  let contents t = Bytes.sub_string t.buf 0 t.len
end

module Reader = struct
  (* A reader is a window [base, limit) over [src]; [of_string] opens the
     whole string, [of_substring] a slice of it without copying — frame
     decoders (WAL scan) read length-prefixed payloads in place instead of
     materializing a [String.sub] per frame. *)
  type t = { src : string; mutable pos : int; base : int; limit : int }

  exception Truncated

  let of_string src = { src; pos = 0; base = 0; limit = String.length src }

  let of_substring src ~off ~len =
    if off < 0 || len < 0 || off + len > String.length src then
      invalid_arg "Wire.Reader.of_substring";
    { src; pos = off; base = off; limit = off + len }

  let pos t = t.pos - t.base
  let remaining t = t.limit - t.pos
  let at_end t = remaining t = 0

  let need t n = if n < 0 || remaining t < n then raise Truncated

  let u8 t =
    need t 1;
    let v = Char.code t.src.[t.pos] in
    t.pos <- t.pos + 1;
    v

  let u16 t =
    let hi = u8 t in
    let lo = u8 t in
    (hi lsl 8) lor lo

  let u32 t =
    let hi = u16 t in
    let lo = u16 t in
    (hi lsl 16) lor lo

  let varint t =
    (* Cap the shift: a malicious run of continuation bytes must fail
       cleanly instead of shifting past the word size.  The last usable
       chunk sits at shift 56 and may only carry 6 bits (bits 56..61);
       anything larger would spill into the sign bit of a 63-bit OCaml
       int and produce a negative "length". *)
    let rec loop shift acc =
      let b = u8 t in
      let chunk = b land 0x7F in
      if shift = 56 && (chunk lsr 6 <> 0 || b land 0x80 <> 0) then
        raise Truncated;
      let acc = acc lor (chunk lsl shift) in
      if b land 0x80 = 0 then acc else loop (shift + 7) acc
    in
    loop 0 0

  let raw t n =
    need t n;
    let s = String.sub t.src t.pos n in
    t.pos <- t.pos + n;
    s

  let str t =
    let n = varint t in
    raw t n

  let hash t = Hash.of_raw (raw t Hash.size)
end
