(* Cyclic polynomial (Buzhash): h = rotl1(h) xor T[incoming]
                                    xor rotl_{window mod 61}(T[outgoing]).
   We work in 61-bit arithmetic (a Mersenne-like width that fits OCaml's
   63-bit native int on 64-bit platforms) so rotations are cheap and
   deterministic across platforms. *)

let width = 61
let mask = (1 lsl width) - 1

let rotl x n =
  let n = n mod width in
  ((x lsl n) lor (x lsr (width - n))) land mask

(* Deterministic substitution table from a splitmix64-style generator, so
   chunking is stable across runs and platforms. *)
let table =
  let state = ref 0x1E3779B97F4A7C15 in
  let next () =
    state := (!state + 0x232BE59BD9B4E019) land max_int;
    let z = !state in
    let z = (z lxor (z lsr 31)) * 0x2FB5D329728EA185 land max_int in
    let z = (z lxor (z lsr 27)) * 0x21DADEF4BC2DD44D land max_int in
    (z lxor (z lsr 33)) land mask
  in
  Array.init 256 (fun _ -> next ())

let expire_table ~window =
  if window <= 0 then invalid_arg "Buzhash.expire_table: window must be positive";
  Array.map (fun x -> rotl x window) table

type t = {
  win : Bytes.t;          (* circular buffer of the last [window] bytes *)
  mutable pos : int;      (* next slot to overwrite *)
  mutable count : int;    (* total bytes fed since reset *)
  mutable h : int;
  out_rot : int;          (* rotation applied to the outgoing byte's term *)
}

let create ~window =
  if window <= 0 then invalid_arg "Buzhash.create: window must be positive";
  { win = Bytes.make window '\000';
    pos = 0;
    count = 0;
    h = 0;
    out_rot = window mod width }

let window t = Bytes.length t.win

let reset t =
  t.pos <- 0;
  t.count <- 0;
  t.h <- 0

let roll t c =
  let w = Bytes.length t.win in
  let h = rotl t.h 1 in
  let h =
    if t.count >= w then
      (* Expire the byte leaving the window: its term has been rotated
         [window] times since it entered. *)
      h lxor rotl table.(Char.code (Bytes.get t.win t.pos)) t.out_rot
    else h
  in
  let h = h lxor table.(Char.code c) in
  Bytes.set t.win t.pos c;
  t.pos <- (t.pos + 1) mod w;
  t.count <- t.count + 1;
  t.h <- h;
  h

let value t = t.h
let fed t = t.count

let hash_string ~window s =
  let t = create ~window in
  String.iter (fun c -> ignore (roll t c)) s;
  value t
