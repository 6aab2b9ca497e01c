(* Extension (not a paper figure): the rolling-hash chunker on POS-Tree's
   commit path.

   On Wiki-shaped records (20k pages, seed 1):
   - chunker throughput: every record's serialized bytes ([str k; str v],
     the bytes a leaf rolls over) through [Chunker.feed] at the default
     leaf config, best of five passes, in MB/s of record bytes;
   - the POS-Tree 200-put commit: the mean time of [commits] batches of
     200 page edits on the 20k-page tree (default config), and the bytes
     handed to the chunkers per put — read from the [chunk.bytes] counter,
     and independently as the record bytes of the leaves each batch put
     (the two agree under the default child-hash internal rule; a tree
     without the counter reports 0 for it).

   The bench uses only interfaces that predate the one-loop chunker, so
   the same file measures both sides of a chunker change.  Each run adds
   one line to the sidecar's [runs] and the file keeps the last two: run
   it on the parent tree, then on the change, into the same
   BENCH_METRICS_DIR, and the sidecar holds both. *)

module Chunker = Siri_chunk.Chunker
module Wire = Siri_codec.Wire
module Wiki = Siri_workload.Wiki
module Pos = Siri_pos.Pos_tree
module Store = Siri_store.Store
module Kv = Siri_core.Kv
module Rng = Siri_core.Rng
module Telemetry = Siri_telemetry.Telemetry
module Clock = Siri_benchkit.Clock
module Table = Siri_benchkit.Table
module Json = Telemetry.Json

let pages = 20_000
let edits = 200
let commits = 40
let passes = 5

let serialize (k, v) =
  let w = Wire.Writer.create ~capacity:(String.length k + String.length v + 8) () in
  Wire.Writer.str w k;
  Wire.Writer.str w v;
  Wire.Writer.contents w

(* Best-of-[passes] MB/s of the record bytes through one chunker. *)
let chunker_mb_per_s cfg records =
  let bytes = List.fold_left (fun a s -> a + String.length s) 0 records in
  let best = ref infinity and cuts = ref 0 in
  for _ = 1 to passes do
    let t = Chunker.create cfg in
    let s =
      Clock.time_unit (fun () ->
          cuts := 0;
          List.iter (fun r -> if Chunker.feed t r then incr cuts) records)
    in
    if s < !best then best := s
  done;
  (float_of_int bytes /. !best /. 1e6, bytes, !cuts)

(* Record bytes of the leaves among [puts]: node size minus the header. *)
let leaf_record_bytes store puts =
  List.fold_left
    (fun acc h ->
      let r = Wire.Reader.of_string (Store.get store h) in
      if Wire.Reader.u8 r <> 0 then acc
      else begin
        ignore (Wire.Reader.str r : string);
        ignore (Wire.Reader.varint r : int);
        acc + Wire.Reader.remaining r
      end)
    0 puts

let batches wiki =
  let rng = Rng.create 7 in
  List.init commits (fun c ->
      List.init edits (fun _ ->
          let id = Rng.int rng pages in
          Kv.Put (Wiki.key wiki id, Wiki.value wiki ~revision:(c + 1) id)))

(* Mean ms per commit over the batches, applied in sequence from [t0]. *)
let commit_ms t0 batches =
  Gc.full_major ();
  let s =
    Clock.time_unit (fun () ->
        ignore (List.fold_left Pos.batch t0 batches : Pos.t))
  in
  s *. 1e3 /. float_of_int (List.length batches)

(* The same batches with a sink and a put observer attached. *)
let chunk_bytes store t0 batches =
  let sink = Telemetry.create () and puts = ref [] in
  Store.set_sink store sink;
  Store.set_put_observer store (Some (fun h _ -> puts := h :: !puts));
  ignore (List.fold_left Pos.batch t0 batches : Pos.t);
  Store.set_put_observer store None;
  Store.set_sink store Telemetry.null;
  (Telemetry.counter sink "chunk.bytes", leaf_record_bytes store !puts)

(* The sidecar is one object whose [runs] array holds one run per line. *)
let previous_runs path =
  match In_channel.with_open_text path In_channel.input_all with
  | text ->
      List.filter_map
        (fun line ->
          let line = String.trim line in
          if String.starts_with ~prefix:{|{"host":|} line then
            Some
              (if String.ends_with ~suffix:"," line then
                 String.sub line 0 (String.length line - 1)
               else line)
          else None)
        (String.split_on_char '\n' text)
  | exception Sys_error _ -> []

let run () =
  let wiki = Wiki.create ~seed:1 ~pages () in
  let dataset = Wiki.dataset wiki in
  let cfg = Pos.config () in
  let mb_per_s, record_bytes, cuts =
    chunker_mb_per_s cfg.Pos.leaf (List.map serialize dataset)
  in
  let store = Store.create () in
  let t0 = Pos.of_entries store cfg dataset in
  let batches = batches wiki in
  let ms = List.init 3 (fun _ -> commit_ms t0 batches) in
  let best_ms = List.fold_left min infinity ms in
  let counted, leaves = chunk_bytes store t0 batches in
  let puts = float_of_int (commits * edits) in
  Table.print ~title:"POS-Tree chunking on Wiki records (20k pages)"
    ~headers:[ "figure"; "value" ]
    [ [ "chunker MB/s (record bytes)"; Printf.sprintf "%.1f" mb_per_s ];
      [ "records / bytes / cuts";
        Printf.sprintf "%d / %d / %d" (List.length dataset) record_bytes cuts ];
      [ "200-put commit ms (best of 3 means)"; Printf.sprintf "%.2f" best_ms ];
      [ "chunk.bytes per put"; Printf.sprintf "%.1f" (float_of_int counted /. puts) ];
      [ "leaf record bytes per put"; Printf.sprintf "%.1f" (float_of_int leaves /. puts) ] ];
  let this_run =
    Json.to_string
      (Json.obj
         [ ("host", Metrics.host ());
           ("chunker_mb_per_s", Json.num mb_per_s);
           ("records", Json.int (List.length dataset));
           ("record_bytes", Json.int record_bytes);
           ("leaf_cuts", Json.int cuts);
           ("commits", Json.int commits);
           ("puts_per_commit", Json.int edits);
           ("commit_ms", Json.num best_ms);
           ("commit_ms_means", Json.arr (List.map Json.num ms));
           ("chunk_bytes_per_put", Json.num (float_of_int counted /. puts));
           ("leaf_record_bytes_per_put", Json.num (float_of_int leaves /. puts)) ])
  in
  let path = Metrics.out_path "chunk" in
  let runs =
    match List.rev (previous_runs path) with
    | last :: _ -> [ last; this_run ]
    | [] -> [ this_run ]
  in
  let oc = open_out path in
  Printf.fprintf oc "{\"experiment\":\"chunk\",\"runs\":[\n%s\n]}\n"
    (String.concat ",\n" runs);
  close_out oc;
  Printf.printf "[metrics sidecar: %s]\n%!" path
