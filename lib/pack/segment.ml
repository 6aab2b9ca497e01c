module Hash = Siri_crypto.Hash
module Wire = Siri_codec.Wire
module Frame = Siri_codec.Frame

let magic = "SIRIPACKSEG1"

let filename id = Printf.sprintf "seg-%06d.pack" id

let id_of_filename name =
  let plen = 4 and slen = 5 in
  if String.length name > plen + slen
     && String.sub name 0 plen = "seg-"
     && Filename.check_suffix name ".pack"
  then
    let digits = String.sub name plen (String.length name - plen - slen) in
    if String.for_all (fun c -> c >= '0' && c <= '9') digits then
      int_of_string_opt digits
    else None
  else None

let encode_record h bytes children =
  let w = Wire.Writer.create ~capacity:(String.length bytes + 96) () in
  Wire.Writer.hash w h;
  Wire.Writer.str w bytes;
  Wire.Writer.varint w (List.length children);
  List.iter (Wire.Writer.hash w) children;
  Frame.encode (Wire.Writer.contents w)

let read_head r =
  let h = Wire.Reader.hash r in
  let bytes = Wire.Reader.str r in
  (h, bytes)

let decode_head blob ~off ~len = read_head (Wire.Reader.of_substring blob ~off ~len)

let decode_record blob ~off ~len =
  let r = Wire.Reader.of_substring blob ~off ~len in
  let h, bytes = read_head r in
  let n = Wire.Reader.varint r in
  let children = List.init n (fun _ -> Wire.Reader.hash r) in
  (h, bytes, children)

type scanned = {
  records : (Hash.t * int * int) list;
  length : int;
  clamped : int;
}

(* The hash field is the first 32 bytes of the payload — index rebuilds
   need only it, so records are not fully decoded here. *)
let record_hash blob ~payload_off =
  Hash.of_raw (String.sub blob payload_off Hash.size)

let scan blob =
  let blen = String.length blob in
  let mlen = String.length magic in
  let prefix = min blen mlen in
  if String.sub blob 0 prefix <> String.sub magic 0 prefix then
    Error (`Tampered 0)
  else if blen < mlen then
    (* A torn segment creation — clamp to empty; the opener rewrites the
       magic.  (A registered segment always had its magic fsynced, so
       this arises only from external truncation.) *)
    Ok { records = []; length = 0; clamped = blen }
  else begin
    let records = ref [] in
    let rec go pos =
      match Frame.step blob ~pos with
      | Frame.End -> Ok { records = List.rev !records; length = pos; clamped = 0 }
      | Frame.Torn n ->
          Ok { records = List.rev !records; length = pos; clamped = n }
      | Frame.Corrupt -> Error (`Tampered pos)
      | Frame.Frame { payload_off; payload_len; next } ->
          if payload_len < Hash.size then Error (`Tampered pos)
          else begin
            records :=
              (record_hash blob ~payload_off, pos, next - pos) :: !records;
            go next
          end
    in
    go mlen
  end
