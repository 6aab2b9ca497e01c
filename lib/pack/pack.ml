module Hash = Siri_crypto.Hash
module Wire = Siri_codec.Wire
module Frame = Siri_codec.Frame
module Store = Siri_store.Store
module Fault = Siri_fault.Fault
module Telemetry = Siri_telemetry.Telemetry

type t = {
  dir : string;
  segment_target : int;
  retry_attempts : int;
  retry_backoff_s : float;
  sink : Telemetry.sink;
  index : Pack_index.entry Hash.Table.t;
  lens : (int, int) Hashtbl.t;  (* live segment id -> valid length *)
  fds : (int, Unix.file_descr) Hashtbl.t;  (* read descriptors, lazy *)
  read_mutex : Mutex.t;
      (* Segment reads share one descriptor per segment, positioned with
         [lseek] — two concurrent readers would race the seek (the wire
         server serves sessions from multiple threads, and [Unix.read]
         releases the runtime lock).  The critical section is one seek +
         one bounded read, so contention stays negligible. *)
  mutable generation : int;
  mutable active : int;
  mutable chan : out_channel;
  mutable active_len : int;
  mutable dirty : bool;  (* bytes in the channel buffer *)
  mutable os_dirty : bool;  (* bytes flushed to the OS but not fsynced *)
  mutable index_dirty : bool;
  mutable bytes : int;  (* payload bytes live in the index *)
  mutable gate : Fault.io_gate option;
}

type recovery = {
  clamped_bytes : int;
  index_rebuilt : bool;
  adopted : int;
  swept : int;
}

let magic_len = String.length Segment.magic
let seg_path dir id = Filename.concat dir (Segment.filename id)
let index_path dir = Filename.concat dir "index"
let manifest_path dir = Filename.concat dir "manifest"

(* --- manifest ---------------------------------------------------------------- *)

let manifest_magic = "SIRIPACKMANIFEST1"

let encode_manifest ~generation ids =
  let w = Wire.Writer.create () in
  Wire.Writer.raw w manifest_magic;
  Wire.Writer.varint w generation;
  Wire.Writer.varint w (List.length ids);
  List.iter (Wire.Writer.varint w) (List.sort compare ids);
  let body = Wire.Writer.contents w in
  body ^ Hash.to_raw (Hash.of_string body)

let decode_manifest blob =
  let blen = String.length blob in
  let mlen = String.length manifest_magic in
  if blen < mlen + Hash.size then Error (`Malformed "manifest too short")
  else if String.sub blob 0 mlen <> manifest_magic then
    Error (`Malformed "bad manifest magic")
  else begin
    let body_len = blen - Hash.size in
    let digest = Hash.of_raw (String.sub blob body_len Hash.size) in
    if not (Hash.equal digest (Hash.of_substring blob ~off:0 ~len:body_len))
    then Error (`Malformed "manifest checksum mismatch")
    else
      match
        let r =
          Wire.Reader.of_substring blob ~off:mlen ~len:(body_len - mlen)
        in
        let generation = Wire.Reader.varint r in
        let n = Wire.Reader.varint r in
        let ids = List.init n (fun _ -> Wire.Reader.varint r) in
        if not (Wire.Reader.at_end r) then failwith "trailing bytes";
        (generation, ids)
      with
      | m -> Ok m
      | exception Wire.Reader.Truncated ->
          Error (`Malformed "manifest truncated")
      | exception Failure msg -> Error (`Malformed msg)
  end

(* The manifest flip is the commit point for every segment-set change, so
   it is always written atomically and fsynced through to the directory. *)
let save_manifest dir ~generation ids =
  let blob = encode_manifest ~generation ids in
  Store.write_file_atomic ~sync:true (manifest_path dir) (fun oc ->
      output_string oc blob)

(* --- raw file helpers -------------------------------------------------------- *)

let read_whole path = In_channel.with_open_bin path In_channel.input_all

let read_from path ~off =
  In_channel.with_open_bin path (fun ic ->
      In_channel.seek ic (Int64.of_int off);
      In_channel.input_all ic)

let file_len path = (Unix.stat path).Unix.st_size

(* A fresh segment file is magic-only, fsynced, and its directory entry
   fsynced, all before the manifest names it — a crash in between leaves
   an orphan file the next open sweeps. *)
let create_segment_file dir id =
  let path = seg_path dir id in
  let oc =
    open_out_gen [ Open_wronly; Open_creat; Open_trunc; Open_binary ] 0o644 path
  in
  output_string oc Segment.magic;
  flush oc;
  Unix.fsync (Unix.descr_of_out_channel oc);
  close_out oc;
  Store.fsync_dir dir

let open_append dir id =
  open_out_gen [ Open_wronly; Open_append; Open_binary ] 0o644 (seg_path dir id)

let rec mkdir_p path =
  if path <> "" && path <> "/" && not (Sys.file_exists path) then begin
    mkdir_p (Filename.dirname path);
    try Unix.mkdir path 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* --- reads ------------------------------------------------------------------- *)

let seg_fd t id =
  match Hashtbl.find_opt t.fds id with
  | Some fd -> fd
  | None ->
      let fd = Unix.openfile (seg_path t.dir id) [ Unix.O_RDONLY ] 0 in
      Hashtbl.replace t.fds id fd;
      fd

let pread t id ~off ~len =
  Mutex.lock t.read_mutex;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.read_mutex)
    (fun () ->
      let fd = seg_fd t id in
      ignore (Unix.lseek fd off Unix.SEEK_SET : int);
      let buf = Bytes.create len in
      let rec go p =
        if p >= len then len
        else
          match Unix.read fd buf p (len - p) with 0 -> p | n -> go (p + n)
      in
      let got = go 0 in
      if got = len then Bytes.unsafe_to_string buf else Bytes.sub_string buf 0 got)

let flush_buffered t =
  if t.dirty then begin
    flush t.chan;
    t.dirty <- false;
    t.os_dirty <- true
  end

(* One indexed record is read once, then checked in up to two ways:

   - [check_content] authenticates the node bytes by their address: the
     frame's declared length must match the indexed length, the record
     must name [h], and the bytes must hash to [h].  It neither hashes
     the frame nor decodes the children — a point read needs neither.
   - [check_frame] verifies the frame digest over the whole record and
     decodes the children list, the part [check_content] leaves
     unauthenticated.

   Point reads ({!get}) run the content check and defer the frame check
   to whoever forces the children; sweeps ({!iter}, {!scrub}) and
   compaction run both.  Every failure mode — short read, flipped bit,
   truncated frame — lands in [Store.Tampered], never a wrong read. *)
let read_frame t ?(use_gate = true) h (e : Pack_index.entry) =
  if e.seg = t.active then flush_buffered t;
  let blob = pread t e.seg ~off:e.off ~len:e.len in
  match t.gate with
  | Some g when use_gate -> Fault.gate_read g h blob
  | _ -> blob

let check_content h blob =
  let payload_len = String.length blob - Frame.header_len in
  if payload_len < 0 || Frame.declared_len blob ~pos:0 <> payload_len then
    raise (Store.Tampered h);
  match Segment.decode_head blob ~off:Frame.header_len ~len:payload_len with
  | h', bytes when Hash.equal h' h && Hash.equal (Hash.of_string bytes) h ->
      bytes
  | _ | (exception Wire.Reader.Truncated) -> raise (Store.Tampered h)

let check_frame h blob =
  match Frame.step blob ~pos:0 with
  | Frame.Frame { payload_off; payload_len; next }
    when next = String.length blob -> (
      match Segment.decode_record blob ~off:payload_off ~len:payload_len with
      | _, _, children -> children
      | exception Wire.Reader.Truncated -> raise (Store.Tampered h))
  | _ -> raise (Store.Tampered h)

let check_full h blob =
  let bytes = check_content h blob in
  (bytes, check_frame h blob)

(* Read under the retry budget; injected transients that outlast it
   surface as [Store.Transient], everything else as [Store.Tampered]. *)
let retrying t h f =
  match
    Fault.with_retry ~attempts:t.retry_attempts ~backoff_s:t.retry_backoff_s
      ~sink:t.sink f
  with
  | Ok v -> v
  | Error (`Transient _) -> raise (Store.Transient h)
  | Error (`Missing _) -> raise (Store.Missing h)
  | Error (`Tampered _ | `Malformed _) -> raise (Store.Tampered h)

let get t h =
  match Hash.Table.find_opt t.index h with
  | None -> None
  | Some e ->
      let blob, bytes =
        retrying t h (fun () ->
            let blob = read_frame t h e in
            (blob, check_content h blob))
      in
      Telemetry.incr t.sink "pack.read";
      Some (bytes, lazy (check_frame h blob))

let mem t h = Hash.Table.mem t.index h

let sorted_entries t =
  List.sort
    (fun (a, _) (b, _) -> Hash.compare a b)
    (Hash.Table.fold (fun h e acc -> (h, e) :: acc) t.index [])

let iter t f =
  List.iter
    (fun (h, e) ->
      let bytes, children =
        retrying t h (fun () -> check_full h (read_frame t h e))
      in
      f h bytes children)
    (sorted_entries t)

let scrub t =
  List.filter_map
    (fun (h, e) ->
      match check_full h (read_frame t ~use_gate:false h e) with
      | _ -> None
      | exception _ -> Some h)
    (sorted_entries t)

(* --- writes ------------------------------------------------------------------ *)

let live_ids t = List.sort compare (Hashtbl.fold (fun id _ acc -> id :: acc) t.lens [])

let flush ?(sync = true) t =
  flush_buffered t;
  if sync && t.os_dirty then begin
    Unix.fsync (Unix.descr_of_out_channel t.chan);
    t.os_dirty <- false;
    Telemetry.incr t.sink "pack.fsync"
  end

let sync_index t =
  if t.index_dirty then begin
    flush_buffered t;
    Hashtbl.replace t.lens t.active t.active_len;
    let segments = Hashtbl.fold (fun id len acc -> (id, len) :: acc) t.lens [] in
    Pack_index.save ~sync:true (index_path t.dir)
      (Pack_index.of_table ~segments t.index);
    t.index_dirty <- false;
    Telemetry.incr t.sink "pack.index.sync"
  end

let roll t =
  (* Seal the active segment (its bytes must be durable before anything
     references the successor), then file-first/manifest-second. *)
  flush ~sync:true t;
  close_out t.chan;
  Hashtbl.replace t.lens t.active t.active_len;
  let id = t.active + 1 in
  create_segment_file t.dir id;
  t.generation <- t.generation + 1;
  save_manifest t.dir ~generation:t.generation (id :: live_ids t);
  Hashtbl.replace t.lens id magic_len;
  t.active <- id;
  t.chan <- open_append t.dir id;
  t.active_len <- magic_len;
  Telemetry.incr t.sink "pack.roll"

let append t nodes =
  List.iter
    (fun (h, bytes, children) ->
      if not (Hash.Table.mem t.index h) then begin
        let frame = Segment.encode_record h bytes children in
        let flen = String.length frame in
        if t.active_len + flen > t.segment_target && t.active_len > magic_len
        then roll t;
        output_string t.chan frame;
        Hash.Table.replace t.index h
          { Pack_index.seg = t.active; off = t.active_len; len = flen };
        t.active_len <- t.active_len + flen;
        t.bytes <- t.bytes + (flen - Frame.header_len);
        t.dirty <- true;
        t.index_dirty <- true;
        Telemetry.incr t.sink "pack.append"
      end)
    nodes

(* --- open / recovery --------------------------------------------------------- *)

let scan_failure id pos =
  `Tampered (Printf.sprintf "%s: checksum mismatch at offset %d" (Segment.filename id) pos)

(* Clamp a segment's torn tail on disk.  A tail torn inside the magic
   itself (external truncation of a fresh segment) clamps to empty and
   the magic is rewritten — the registered creation had fsynced it. *)
let clamp_segment dir id ~keep =
  let path = seg_path dir id in
  if keep >= magic_len then Unix.truncate path keep
  else begin
    let oc =
      open_out_gen
        [ Open_wronly; Open_creat; Open_trunc; Open_binary ]
        0o644 path
    in
    output_string oc Segment.magic;
    close_out oc
  end

let full_rescan dir ids ~index ~lens =
  (* Rebuild the index by scanning every live segment, ascending; the
     first record for a hash wins, matching the append-time dedup. *)
  let clamped = ref 0 in
  let rec go = function
    | [] -> Ok ()
    | id :: rest -> (
        let path = seg_path dir id in
        match Segment.scan (read_whole path) with
        | Error (`Tampered pos) -> Error (scan_failure id pos)
        | Ok s ->
            if s.clamped > 0 then begin
              clamp_segment dir id ~keep:s.length;
              clamped := !clamped + s.clamped
            end;
            Hashtbl.replace lens id (max s.length magic_len);
            List.iter
              (fun (h, off, len) ->
                if not (Hash.Table.mem index h) then
                  Hash.Table.replace index h { Pack_index.seg = id; off; len })
              s.records;
            go rest)
  in
  Result.map (fun () -> !clamped) (go (List.sort compare ids))

let adopt_tail dir id ~covered ~index ~clamped ~adopted =
  (* The index is honest up to [covered]; scan and adopt what was
     appended after the last index sync. *)
  let tail = read_from (seg_path dir id) ~off:covered in
  let rec go pos =
    match Frame.step tail ~pos with
    | Frame.End -> Ok (covered + pos)
    | Frame.Torn n ->
        clamp_segment dir id ~keep:(covered + pos);
        clamped := !clamped + n;
        Ok (covered + pos)
    | Frame.Corrupt -> Error (scan_failure id (covered + pos))
    | Frame.Frame { payload_off; payload_len; next } ->
        if payload_len < Hash.size then Error (scan_failure id (covered + pos))
        else begin
          let h =
            Hash.of_raw (String.sub tail payload_off Hash.size)
          in
          if not (Hash.Table.mem index h) then begin
            Hash.Table.replace index h
              { Pack_index.seg = id; off = covered + pos; len = next - pos };
            incr adopted
          end;
          go next
        end
  in
  go 0

let load_index dir live =
  (* The persisted index is usable only if it describes a subset of the
     live segment set within each file's real length; anything else —
     missing, corrupt, or referencing a crashed compaction's segments —
     triggers a full rescan. *)
  match Pack_index.load (index_path dir) with
  | None -> None
  | Some idx ->
      let live_set = List.sort_uniq compare live in
      let ok_segs =
        List.for_all
          (fun (id, covered) ->
            List.mem id live_set
            && (covered = 0 || covered >= magic_len)
            && covered <= file_len (seg_path dir id))
          idx.segments
      in
      let covered_of id =
        match List.assoc_opt id idx.segments with Some c -> c | None -> 0
      in
      let ok_entries =
        ok_segs
        && List.for_all
             (fun (_, (e : Pack_index.entry)) ->
               List.mem e.seg live_set && e.off + e.len <= covered_of e.seg)
             idx.entries
      in
      if ok_entries then Some idx else None

let open_ ?(segment_target = 8 * 1024 * 1024) ?(retry_attempts = 3)
    ?(retry_backoff_s = 0.) ?(sink = Telemetry.null) dir =
  mkdir_p dir;
  let fresh = not (Sys.file_exists (manifest_path dir)) in
  if fresh then begin
    create_segment_file dir 0;
    save_manifest dir ~generation:0 [ 0 ]
  end;
  match decode_manifest (read_whole (manifest_path dir)) with
  | Error (`Malformed msg) -> Error (`Tampered ("manifest: " ^ msg))
  | Ok (generation, ids) -> (
      let ids = List.sort compare ids in
      (* Sweep segment files a crashed compaction or roll left behind. *)
      let swept = ref 0 in
      Array.iter
        (fun name ->
          match Segment.id_of_filename name with
          | Some id when not (List.mem id ids) ->
              Sys.remove (Filename.concat dir name);
              incr swept
          | _ -> ())
        (Sys.readdir dir);
      match
        List.find_opt (fun id -> not (Sys.file_exists (seg_path dir id))) ids
      with
      | Some id ->
          Error (`Tampered (Segment.filename id ^ ": missing live segment"))
      | None -> (
          let index = Hash.Table.create 1024 in
          let lens = Hashtbl.create 8 in
          let clamped = ref 0 in
          let adopted = ref 0 in
          let recovered =
            if fresh then begin
              Hashtbl.replace lens 0 magic_len;
              Ok false
            end
            else
              match load_index dir ids with
            | None ->
                Telemetry.incr sink "pack.open.rebuild";
                Result.map
                  (fun c ->
                    clamped := c;
                    true)
                  (full_rescan dir ids ~index ~lens)
            | Some idx ->
                List.iter
                  (fun (h, e) -> Hash.Table.replace index h e)
                  idx.entries;
                let covered_of id =
                  match List.assoc_opt id idx.segments with
                  | Some c -> c
                  | None -> 0
                in
                let rec go = function
                  | [] -> Ok false
                  | id :: rest -> (
                      let covered = covered_of id in
                      let flen = file_len (seg_path dir id) in
                      if covered = 0 && flen < magic_len then begin
                        (* torn creation of an unindexed segment *)
                        clamp_segment dir id ~keep:0;
                        clamped := !clamped + flen;
                        Hashtbl.replace lens id magic_len;
                        go rest
                      end
                      else if covered = 0 then
                        match Segment.scan (read_whole (seg_path dir id)) with
                        | Error (`Tampered pos) -> Error (scan_failure id pos)
                        | Ok s ->
                            if s.clamped > 0 then begin
                              clamp_segment dir id ~keep:s.length;
                              clamped := !clamped + s.clamped
                            end;
                            Hashtbl.replace lens id (max s.length magic_len);
                            List.iter
                              (fun (h, off, len) ->
                                if not (Hash.Table.mem index h) then begin
                                  Hash.Table.replace index h
                                    { Pack_index.seg = id; off; len };
                                  incr adopted
                                end)
                              s.records;
                            go rest
                      else if flen > covered then
                        match
                          adopt_tail dir id ~covered ~index ~clamped ~adopted
                        with
                        | Error e -> Error e
                        | Ok valid ->
                            Hashtbl.replace lens id valid;
                            go rest
                      else begin
                        Hashtbl.replace lens id covered;
                        go rest
                      end)
                in
                go ids
          in
          match recovered with
          | Error e -> Error e
          | Ok index_rebuilt ->
              let active = List.fold_left max 0 ids in
              let active_len =
                match Hashtbl.find_opt lens active with
                | Some l -> l
                | None -> magic_len
              in
              let bytes =
                Hash.Table.fold
                  (fun _ (e : Pack_index.entry) acc ->
                    acc + e.len - Frame.header_len)
                  index 0
              in
              Telemetry.incr sink ~by:!adopted "pack.open.adopted";
              if !clamped > 0 then
                Telemetry.incr sink ~by:!clamped "pack.clamp";
              let t =
                { dir;
                  segment_target = max (magic_len + 64) segment_target;
                  retry_attempts;
                  retry_backoff_s;
                  sink;
                  index;
                  lens;
                  fds = Hashtbl.create 8;
                  read_mutex = Mutex.create ();
                  generation;
                  active;
                  chan = open_append dir active;
                  active_len;
                  dirty = false;
                  os_dirty = false;
                  index_dirty = index_rebuilt || !adopted > 0 || !clamped > 0;
                  bytes;
                  gate = None }
              in
              Ok
                ( t,
                  { clamped_bytes = !clamped;
                    index_rebuilt;
                    adopted = !adopted;
                    swept = !swept } )))

let close t =
  flush ~sync:true t;
  sync_index t;
  close_out t.chan;
  Hashtbl.iter (fun _ fd -> Unix.close fd) t.fds;
  Hashtbl.reset t.fds

let dir t = t.dir
let count t = Hash.Table.length t.index
let stored_bytes t = t.bytes
let segment_ids t = live_ids t
let set_read_gate t gate = t.gate <- gate

(* --- compaction -------------------------------------------------------------- *)

let compact ?(on_step = ignore) t ~live =
  let dropped =
    Hash.Table.fold
      (fun h _ acc -> if Hash.Set.mem h live then acc else h :: acc)
      t.index []
  in
  if dropped = [] then []
  else begin
    (* Everything the rewrite will copy must be durable first. *)
    flush ~sync:true t;
    on_step "begin";
    let old_ids = live_ids t in
    let base = 1 + List.fold_left max t.active old_ids in
    (* Keep locality: walk old segments in id order, records in offset
       order, carrying live records into fresh segments. *)
    let kept =
      List.concat_map
        (fun id ->
          List.sort
            (fun ((_, a) : _ * Pack_index.entry) (_, b) -> compare a.off b.off)
            (Hash.Table.fold
               (fun h (e : Pack_index.entry) acc ->
                 if e.seg = id && Hash.Set.mem h live then (h, e) :: acc
                 else acc)
               t.index []))
        old_ids
    in
    let new_index = Hash.Table.create (List.length kept) in
    let new_lens = ref [] in
    let cur = Buffer.create t.segment_target in
    let cur_id = ref base in
    Buffer.add_string cur Segment.magic;
    let write_segment () =
      let id = !cur_id in
      let path = seg_path t.dir id in
      let oc =
        open_out_gen
          [ Open_wronly; Open_creat; Open_trunc; Open_binary ]
          0o644 path
      in
      Buffer.output_buffer oc cur;
      Stdlib.flush oc;
      Unix.fsync (Unix.descr_of_out_channel oc);
      close_out oc;
      new_lens := (id, Buffer.length cur) :: !new_lens;
      Buffer.clear cur;
      Buffer.add_string cur Segment.magic;
      incr cur_id
    in
    List.iter
      (fun (h, (e : Pack_index.entry)) ->
        (* Fully verify before carrying: compaction must not launder a
           corrupt record into a fresh segment.  The verified frame is
           copied verbatim — each live record is read once. *)
        let frame = read_frame t ~use_gate:false h e in
        ignore (check_full h frame : string * Hash.t list);
        if Buffer.length cur + e.len > t.segment_target
           && Buffer.length cur > magic_len
        then write_segment ();
        Hash.Table.replace new_index h
          { Pack_index.seg = !cur_id; off = Buffer.length cur; len = e.len };
        Buffer.add_string cur frame)
      kept;
    write_segment ();
    Store.fsync_dir t.dir;
    on_step "segments-written";
    let new_lens = !new_lens in
    Pack_index.save ~sync:true (index_path t.dir)
      (Pack_index.of_table ~segments:new_lens new_index);
    on_step "index-written";
    t.generation <- t.generation + 1;
    save_manifest t.dir ~generation:t.generation (List.map fst new_lens);
    on_step "manifest";
    (* Committed: everything from here is cleanup. *)
    close_out t.chan;
    Hashtbl.iter (fun _ fd -> Unix.close fd) t.fds;
    Hashtbl.reset t.fds;
    List.iter
      (fun id -> try Sys.remove (seg_path t.dir id) with Sys_error _ -> ())
      old_ids;
    on_step "cleanup";
    Hash.Table.reset t.index;
    Hash.Table.iter (fun h e -> Hash.Table.replace t.index h e) new_index;
    Hashtbl.reset t.lens;
    List.iter (fun (id, len) -> Hashtbl.replace t.lens id len) new_lens;
    let active = List.fold_left (fun acc (id, _) -> max acc id) 0 new_lens in
    t.active <- active;
    t.active_len <- List.assoc active new_lens;
    t.chan <- open_append t.dir active;
    t.dirty <- false;
    t.os_dirty <- false;
    t.index_dirty <- false;
    t.bytes <-
      Hash.Table.fold
        (fun _ (e : Pack_index.entry) acc -> acc + e.len - Frame.header_len)
        t.index 0;
    Telemetry.incr t.sink "pack.compact";
    Telemetry.incr t.sink ~by:(List.length dropped) "pack.compact.dropped";
    List.sort Hash.compare dropped
  end

(* --- store backend ----------------------------------------------------------- *)

let backend t =
  { Store.backend_name = "pack";
    backend_read = (fun h -> get t h);
    backend_mem = (fun h -> mem t h);
    backend_write = (fun nodes -> append t nodes);
    backend_flush = (fun ~sync -> flush ~sync t);
    backend_corrupt = (fun () -> scrub t);
    backend_compact = (fun ~live -> compact t ~live);
    backend_count = (fun () -> count t);
    backend_bytes = (fun () -> stored_bytes t) }

let attach t store = Store.set_backend store (Some (backend t))
