module Hash = Siri_crypto.Hash

type config = {
  window : int;
  pattern_bits : int;
  min_size : int;
  max_size : int;
}

let config ?(window = 67) ?(min_size = 0) ?max_size ~pattern_bits () =
  if pattern_bits < 1 || pattern_bits > 32 then
    invalid_arg "Chunker.config: pattern_bits out of range";
  let max_size =
    match max_size with Some m -> m | None -> 64 * (1 lsl pattern_bits)
  in
  if min_size < 0 || max_size <= min_size then
    invalid_arg "Chunker.config: bad min/max sizes";
  { window; pattern_bits; min_size; max_size }

let config_for_leaf_size target =
  let rec bits b = if 1 lsl b >= target || b >= 30 then b else bits (b + 1) in
  config ~pattern_bits:(bits 1) ()

type t = {
  c : config;
  mask : int;
  expire : int array;     (* Buzhash.expire_table for the window *)
  mutable bytes : int;    (* bytes since last boundary *)
  mutable fed : int;      (* bytes since [create] *)
}

let create c =
  { c;
    mask = (1 lsl c.pattern_bits) - 1;
    expire = Buzhash.expire_table ~window:c.window;
    bytes = 0;
    fed = 0 }

let conf t = t.c
let reset t = t.bytes <- 0

(* The Buzhash recurrence of [Buzhash.roll], inlined.  The window rolls
   within one item only: whether an item carries a boundary is then a
   property of the item's own bytes, so re-chunking after an edit realigns
   with the old boundaries at the very next pattern-carrying item (fast
   resynchronisation).  Because the window starts empty at the item's
   first byte, the byte leaving it is simply [buf.[j - window]]: no
   circular buffer, and a first loop while the window fills expires
   nothing.  Once the pattern has matched the boundary is decided, so
   rolling stops (by jumping [i] to the end); the size still counts the
   whole item. *)
let feed_range t buf ~off ~len =
  if off < 0 || len < 0 || off > Bytes.length buf - len then
    invalid_arg "Chunker.feed_range";
  let table = Buzhash.table and expire = t.expire and mask = t.mask in
  let hmask = Buzhash.mask and top = Buzhash.width - 1 in
  let w = t.c.window in
  let stop = off + len in
  let full = if len < w then stop else off + w in
  (* The pattern counts only once the chunk holds [min_size] bytes, i.e.
     from byte [first] on. *)
  let first = off + t.c.min_size - t.bytes - 1 in
  let h = ref 0 and i = ref off and matched = ref false in
  while !i < full do
    let j = !i in
    let x = !h in
    let x =
      ((x lsl 1) lor (x lsr top)) land hmask
      lxor Array.unsafe_get table (Char.code (Bytes.unsafe_get buf j))
    in
    h := x;
    if x land mask = mask && j >= first then begin
      matched := true;
      i := stop
    end
    else i := j + 1
  done;
  while !i < stop do
    let j = !i in
    let x = !h in
    let x =
      ((x lsl 1) lor (x lsr top)) land hmask
      lxor Array.unsafe_get table (Char.code (Bytes.unsafe_get buf j))
      lxor Array.unsafe_get expire (Char.code (Bytes.unsafe_get buf (j - w)))
    in
    h := x;
    if x land mask = mask && j >= first then begin
      matched := true;
      i := stop
    end
    else i := j + 1
  done;
  t.bytes <- t.bytes + len;
  t.fed <- t.fed + len;
  let boundary = !matched || t.bytes >= t.c.max_size in
  if boundary then t.bytes <- 0;
  boundary

let feed t item =
  feed_range t (Bytes.unsafe_of_string item) ~off:0 ~len:(String.length item)

let size t = t.bytes
let fed t = t.fed

let hash_boundary c h =
  (* Fold the first 8 digest bytes into an int and test the pattern; the
     digest is uniform so any fixed bits work. *)
  let v =
    let acc = ref 0 in
    for i = 0 to 7 do
      acc := (!acc lsl 8) lor Hash.byte h i
    done;
    !acc
  in
  let mask = (1 lsl c.pattern_bits) - 1 in
  v land mask = mask

let split c items =
  let t = create c in
  let chunks = ref [] and current = ref [] in
  let flush () =
    if !current <> [] then begin
      chunks := List.rev !current :: !chunks;
      current := []
    end
  in
  List.iter
    (fun item ->
      current := item :: !current;
      if feed t item then flush ())
    items;
  flush ();
  List.rev !chunks
