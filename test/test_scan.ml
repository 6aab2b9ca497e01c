(* Ordered streaming reads and elastic resharding: the scan ⇔
   sorted-assoc differential oracle across every order-supporting index
   kind (with the MBT's typed refusal), Range-scheme interval routing
   with the single-shard fanout pinned through telemetry, the hash-scheme
   k-way merge, the online reshard differential (content preserved on
   every branch, composite equal to a fresh build at the new width), and
   a SIGKILL storm over the reshard generation swap on both durable
   backends — recovery lands on the old layout or the new one, never a
   mix. *)

open Siri_core
module Store = Siri_store.Store
module Hash = Siri_crypto.Hash
module Telemetry = Siri_telemetry.Telemetry
module Partition = Siri_shard.Partition
module Sharded = Siri_shard.Sharded
module Wal = Siri_wal.Wal
module Durable = Siri_wal.Durable
module Server = Siri_server.Server
module Client = Siri_server.Client
module Mpt = Siri_mpt.Mpt
module Mbt = Siri_mbt.Mbt
module Pos = Siri_pos.Pos_tree
module Prolly = Siri_prolly.Prolly
module Mvbt = Siri_mvbt.Mvbt

let mk_empty () =
  Pos.generic (Pos.empty (Store.create ()) (Pos.config ~leaf_target:64 ()))

(* Every kind with a key order; small node targets so multi-level trees
   appear at test sizes and the lazy descent actually prunes subtrees. *)
let ordered_kinds () =
  [ Mpt.generic (Mpt.empty (Store.create ()));
    Pos.generic (Pos.empty (Store.create ()) (Pos.config ~leaf_target:64 ()));
    Prolly.generic (Prolly.empty (Store.create ()));
    Mvbt.generic (Mvbt.empty (Store.create ()) (Mvbt.config ())) ]

(* --- scratch directories --------------------------------------------------- *)

let dir_counter = ref 0

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
      Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
      Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let fresh_dir name =
  incr dir_counter;
  let d =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "siri-scan-%d-%s-%d" (Unix.getpid ()) name !dir_counter)
  in
  rm_rf d;
  d

let with_dir name f =
  let d = fresh_dir name in
  Fun.protect ~finally:(fun () -> rm_rf d) (fun () -> f d)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let open_exn ?sync ?backend ?(runner = `Inline) ?spec ?(mk = mk_empty) ~dir () =
  match Sharded.open_ ?sync ?backend ~runner ?spec ~dir ~empty_index:mk () with
  | Ok t -> t
  | Error e -> Alcotest.failf "Sharded.open_: %a" Wal.pp_error e

let hash_spec n = Partition.make Partition.Hash ~shards:n
let range_spec n = Partition.make Partition.Range ~shards:n

(* --- the oracle ------------------------------------------------------------- *)

module Smap = Map.Make (String)

let apply_batches batches =
  List.fold_left
    (fun m ops ->
      List.fold_left
        (fun m -> function
          | Kv.Put (k, v) -> Smap.add k v m
          | Kv.Del k -> Smap.remove k m)
        m ops)
    Smap.empty batches

let filter_range ?lo ?hi entries =
  List.filter
    (fun (k, _) ->
      (match lo with None -> true | Some l -> String.compare l k <= 0)
      && match hi with None -> true | Some h -> String.compare k h < 0)
    entries

let entries_t = Alcotest.(list (pair string string))

(* --- scan == sorted assoc, per kind ------------------------------------------ *)

let edge_entries =
  List.init 40 (fun i -> (Printf.sprintf "sk-%02d" i, Printf.sprintf "v%d" i))

(* The ISSUE's edge cases, pinned deterministically on every ordered
   kind: empty range, whole keyspace, lo = hi, and bounds that miss at
   both ends (below the first key, between keys, above the last). *)
let test_scan_edges () =
  List.iter
    (fun empty ->
      let inst =
        empty.Generic.batch
          (List.map (fun (k, v) -> Kv.Put (k, v)) edge_entries)
      in
      let name = inst.Generic.name in
      let scan ?lo ?hi () = List.of_seq (Generic.scan ?lo ?hi inst) in
      let want ?lo ?hi () = filter_range ?lo ?hi edge_entries in
      let check msg ?lo ?hi () =
        Alcotest.check entries_t
          (Printf.sprintf "%s: %s" name msg)
          (want ?lo ?hi ()) (scan ?lo ?hi ());
        Alcotest.(check int)
          (Printf.sprintf "%s: %s (count)" name msg)
          (List.length (want ?lo ?hi ()))
          (Generic.range_count ?lo ?hi inst)
      in
      check "whole keyspace" ();
      check "interior, exact bounds" ~lo:"sk-05" ~hi:"sk-25" ();
      check "lo inclusive, hi exclusive" ~lo:"sk-10" ~hi:"sk-11" ();
      check "lo = hi is empty" ~lo:"sk-10" ~hi:"sk-10" ();
      check "inverted bounds are empty" ~lo:"sk-30" ~hi:"sk-10" ();
      check "misses at both bounds" ~lo:"sk-04x" ~hi:"sk-37q" ();
      check "below first key" ~lo:"aaa" ~hi:"sk-03" ();
      check "above last key" ~lo:"sk-39z" ();
      check "everything below" ~hi:"sk-00" ();
      (* empty instance: every window is empty *)
      Alcotest.check entries_t
        (name ^ ": empty instance") []
        (List.of_seq (Generic.scan ~lo:"a" ~hi:"z" empty));
      (* limit caps the count without draining the rest *)
      Alcotest.(check int)
        (name ^ ": range_count limit")
        7
        (Generic.range_count ~limit:7 inst);
      Alcotest.(check int)
        (name ^ ": limit above cardinality")
        40
        (Generic.range_count ~limit:1000 inst);
      (* streaming: taking 3 entries never forces the tail *)
      let three = List.of_seq (Seq.take 3 (Generic.scan inst)) in
      Alcotest.check entries_t (name ^ ": take 3")
        [ ("sk-00", "v0"); ("sk-01", "v1"); ("sk-02", "v2") ]
        three)
    (ordered_kinds ())

let test_mbt_refuses () =
  let mbt =
    Mbt.generic (Mbt.empty (Store.create ()) (Mbt.config ~capacity:16 ()))
  in
  let mbt = mbt.Generic.batch [ Kv.Put ("a", "1"); Kv.Put ("b", "2") ] in
  Alcotest.check_raises "scan refused" (Generic.Unsupported "mbt") (fun () ->
      let (_ : (Kv.key * Kv.value) Seq.t) = Generic.scan mbt in
      ());
  Alcotest.check_raises "range_count refused" (Generic.Unsupported "mbt")
    (fun () -> ignore (Generic.range_count mbt));
  (* the eager inclusive range still works — it documents the O(N)
     filter; only the ordered streaming read is refused *)
  Alcotest.(check int)
    "eager range still served" 2
    (List.length (mbt.Generic.range ~lo:None ~hi:None))

let key_universe = Array.init 40 (fun i -> Printf.sprintf "sk-%02d" i)

let gen_batches =
  QCheck.Gen.(
    list_size (int_range 1 6)
      (list_size (int_range 1 10)
         (map2
            (fun k put ->
              let key = key_universe.(k mod Array.length key_universe) in
              match put with
              | None -> Kv.Del key
              | Some v -> Kv.Put (key, "v" ^ string_of_int v))
            (int_bound 100)
            (option (int_bound 50)))))

(* Bounds drawn on, beside and between universe keys, plus unbounded. *)
let bound_of i =
  match i mod 4 with
  | 0 -> None
  | 1 -> Some key_universe.(i / 4 mod Array.length key_universe)
  | 2 -> Some (key_universe.(i / 4 mod Array.length key_universe) ^ "+")
  | _ -> Some (Printf.sprintf "sk-%02d" (i / 4 mod 50))

let qcheck_scan_differential =
  QCheck.Test.make ~count:40
    ~name:"scan == sorted assoc filter on every ordered kind"
    QCheck.(triple (QCheck.make gen_batches) small_nat small_nat)
    (fun (batches, bl, bh) ->
      let lo = bound_of bl and hi = bound_of bh in
      let oracle = Smap.bindings (apply_batches batches) in
      let want = filter_range ?lo ?hi oracle in
      List.for_all
        (fun empty ->
          let inst =
            List.fold_left
              (fun inst ops -> inst.Generic.batch ops)
              empty batches
          in
          List.of_seq (Generic.scan ?lo ?hi inst) = want
          && Generic.range_count ?lo ?hi inst = List.length want)
        (ordered_kinds ()))

(* --- Range interval routing --------------------------------------------------- *)

let interval_t = Alcotest.(option (pair int int))

(* "\x40" is the tight boundary between shards 0 and 1 at width 4: it is
   the minimal key of prefix 0x4000, so as an exclusive hi no key at or
   past the boundary is reachable, and as an inclusive lo shard 0 is
   unreachable. *)
let test_shard_interval_boundaries () =
  let spec = range_spec 4 in
  let si ~lo ~hi = Partition.shard_interval spec ~lo ~hi in
  Alcotest.check interval_t "unbounded = every shard" (Some (0, 3))
    (si ~lo:None ~hi:None);
  Alcotest.check interval_t "hi on the boundary excludes its shard"
    (Some (0, 0))
    (si ~lo:None ~hi:(Some "\x40"));
  Alcotest.check interval_t "lo on the boundary starts at its shard"
    (Some (1, 3))
    (si ~lo:(Some "\x40") ~hi:None);
  Alcotest.check interval_t "hi just past the boundary includes it"
    (Some (0, 1))
    (si ~lo:None ~hi:(Some "\x40\x00"));
  Alcotest.check interval_t "narrow window is one shard" (Some (1, 1))
    (si ~lo:(Some "\x40") ~hi:(Some "\x7f"));
  Alcotest.check interval_t "lowest window is shard 0" (Some (0, 0))
    (si ~lo:(Some "") ~hi:(Some "\x01"));
  Alcotest.check interval_t "lo = hi is empty" None
    (si ~lo:(Some "a") ~hi:(Some "a"));
  Alcotest.check interval_t "inverted bounds are empty" None
    (si ~lo:(Some "b") ~hi:(Some "a"));
  Alcotest.check interval_t "hi = \"\" admits no key" None
    (si ~lo:None ~hi:(Some ""));
  (* hash placement ignores order: any non-empty window fans out fully *)
  Alcotest.check interval_t "hash = every shard" (Some (0, 7))
    (Partition.shard_interval (hash_spec 8) ~lo:(Some "a") ~hi:(Some "b"));
  Alcotest.check interval_t "hash empty window" None
    (Partition.shard_interval (hash_spec 8) ~lo:(Some "b") ~hi:(Some "a"))

(* Soundness: any key inside [lo, hi) routes inside the interval; and
   the interval is tight at the low end (lo's own shard is its first). *)
let qcheck_interval_covers =
  QCheck.Test.make ~count:500
    ~name:"shard_interval covers exactly the routable shards"
    QCheck.(
      quad (string_of_size Gen.(0 -- 4)) (string_of_size Gen.(0 -- 4))
        (string_of_size Gen.(0 -- 4))
        (int_range 1 Partition.max_shards))
    (fun (key, b1, b2, shards) ->
      let lo, hi = if b1 <= b2 then (b1, b2) else (b2, b1) in
      let spec = range_spec shards in
      match Partition.shard_interval spec ~lo:(Some lo) ~hi:(Some hi) with
      | None -> lo >= hi (* only empty windows have no interval *)
      | Some (a, b) ->
          a = Partition.shard_of_key spec lo
          && a <= b && b < shards
          && (not (lo <= key && key < hi)
             ||
             let i = Partition.shard_of_key spec key in
             a <= i && i <= b))

(* --- sharded scans: routing fanout + merge ----------------------------------- *)

(* Two records per sampled first byte, spanning the whole byte space, so
   every shard of a 4-way range partition holds data. *)
let byte_entries =
  List.concat_map
    (fun j ->
      let i = j * 4 in
      [ (Printf.sprintf "%c-%02x-a" (Char.chr i) i, Printf.sprintf "v%d-a" i);
        (Printf.sprintf "%c-%02x-b" (Char.chr i) i, Printf.sprintf "v%d-b" i) ])
    (List.init 64 Fun.id)

let byte_sorted = List.sort compare byte_entries

(* A factory sharing one telemetry sink across every shard store, so
   [shard.scan.fanout] aggregates the engine-level routing decision. *)
let shared_sink_factory () =
  let sink = Telemetry.create () in
  let mk () =
    let store = Store.create () in
    Store.set_sink store sink;
    Pos.generic (Pos.empty store (Pos.config ~leaf_target:64 ()))
  in
  (sink, mk)

let test_range_scan_single_shard () =
  with_dir "range-fanout" @@ fun dir ->
  let sink, mk = shared_sink_factory () in
  let t = open_exn ~sync:false ~spec:(range_spec 4) ~mk ~dir () in
  ignore
    (Sharded.commit t ~branch:"master" ~message:"seed"
       (List.map (fun (k, v) -> Kv.Put (k, v)) byte_entries));
  let scans0 = Telemetry.counter sink "shard.scan" in
  let fanout0 = Telemetry.counter sink "shard.scan.fanout" in
  (* a window inside shard 0's byte range: the fanout MUST be 1 *)
  let got =
    List.of_seq (Sharded.scan ~lo:"\x10" ~hi:"\x20" t ~branch:"master")
  in
  Alcotest.check entries_t "narrow window content"
    (filter_range ~lo:"\x10" ~hi:"\x20" byte_sorted)
    got;
  Alcotest.(check int) "one scan recorded" (scans0 + 1)
    (Telemetry.counter sink "shard.scan");
  Alcotest.(check int) "single-shard fanout" (fanout0 + 1)
    (Telemetry.counter sink "shard.scan.fanout");
  (* the whole keyspace fans out to all four shards *)
  let all = List.of_seq (Sharded.scan t ~branch:"master") in
  Alcotest.check entries_t "whole keyspace in key order" byte_sorted all;
  Alcotest.(check int) "full fanout" (fanout0 + 1 + 4)
    (Telemetry.counter sink "shard.scan.fanout");
  Sharded.close t

let test_hash_scan_merge () =
  with_dir "hash-merge" @@ fun dir ->
  let sink, mk = shared_sink_factory () in
  let t = open_exn ~sync:false ~spec:(hash_spec 4) ~mk ~dir () in
  ignore
    (Sharded.commit t ~branch:"master" ~message:"seed"
       (List.map (fun (k, v) -> Kv.Put (k, v)) byte_entries));
  let fanout0 = Telemetry.counter sink "shard.scan.fanout" in
  (* hash placement scatters the window: the merge must still produce
     global key order, and the fanout is every shard *)
  let got =
    List.of_seq (Sharded.scan ~lo:"\x10" ~hi:"\x80" t ~branch:"master")
  in
  Alcotest.check entries_t "merged window content"
    (filter_range ~lo:"\x10" ~hi:"\x80" byte_sorted)
    got;
  Alcotest.(check int) "k-way fanout" (fanout0 + 4)
    (Telemetry.counter sink "shard.scan.fanout");
  Alcotest.check entries_t "whole keyspace merged" byte_sorted
    (List.of_seq (Sharded.scan t ~branch:"master"));
  Sharded.close t

(* Batched reads dispatch per shard through the runner; pin them against
   the same committed state the scans see. *)
let test_sharded_get_many () =
  with_dir "get-many" @@ fun dir ->
  let t = open_exn ~sync:false ~spec:(hash_spec 4) ~dir () in
  ignore
    (Sharded.commit t ~branch:"master" ~message:"seed"
       (List.map (fun (k, v) -> Kv.Put (k, v)) byte_entries));
  let keys = List.map fst byte_entries @ [ "ghost-1"; "ghost-2" ] in
  let got = Sharded.get_many t ~branch:"master" keys in
  Alcotest.(check int) "one answer per key" (List.length keys)
    (List.length got);
  List.iter
    (fun (k, v) ->
      Alcotest.(check (option string))
        ("get_many " ^ k)
        (List.assoc_opt k byte_entries)
        v)
    got;
  Sharded.close t

(* --- online reshard: differential + atomicity --------------------------------- *)

let spread_ops seq =
  List.init 6 (fun i ->
      Kv.Put (Printf.sprintf "c%d-%d" seq i, Printf.sprintf "val%d.%d" seq i))

let test_reshard_differential () =
  with_dir "reshard-diff" @@ fun dir ->
  with_dir "reshard-fresh" @@ fun fresh_dir ->
  let t = open_exn ~sync:false ~runner:`Pool ~spec:(hash_spec 4) ~dir () in
  (* content on two branches, with deletes, so the migration streams a
     non-trivial multi-branch state *)
  for seq = 1 to 3 do
    ignore (Sharded.commit t ~branch:"master" ~message:"m" (spread_ops seq))
  done;
  ignore
    (Sharded.commit t ~branch:"master" ~message:"del"
       [ Kv.Del "c2-0"; Kv.Del "c2-1"; Kv.Put ("extra", "x") ]);
  ignore (Sharded.fork t ~from:"master" "dev");
  ignore
    (Sharded.commit t ~branch:"dev" ~message:"d"
       [ Kv.Put ("dev-only", "d1"); Kv.Del "c1-0" ]);
  let master_before = List.of_seq (Sharded.scan t ~branch:"master") in
  let dev_before = List.of_seq (Sharded.scan t ~branch:"dev") in
  (* an out-of-range width is refused up front, handle untouched *)
  (try
     ignore (Sharded.reshard t ~shards:0);
     Alcotest.fail "ACCEPTED shards:0"
   with Invalid_argument _ -> ());
  let t' =
    match Sharded.reshard t ~shards:8 with
    | Ok t' -> t'
    | Error e -> Alcotest.failf "reshard: %a" Wal.pp_error e
  in
  Alcotest.(check int) "generation bumped" 1 (Sharded.generation t');
  Alcotest.(check string) "spec widened, scheme preserved" "hash:8"
    (Partition.to_string (Sharded.spec t'));
  Alcotest.check entries_t "master content preserved" master_before
    (List.of_seq (Sharded.scan t' ~branch:"master"));
  Alcotest.check entries_t "dev content preserved" dev_before
    (List.of_seq (Sharded.scan t' ~branch:"dev"));
  (* POS is history-independent, so the migrated composite must equal a
     fresh 8-shard engine bulk-committed with the same live entries *)
  let f = open_exn ~sync:false ~spec:(hash_spec 8) ~dir:fresh_dir () in
  ignore
    (Sharded.commit f ~branch:"master" ~message:"fresh"
       (List.map (fun (k, v) -> Kv.Put (k, v)) master_before));
  let fresh_head = Sharded.head f ~branch:"master" in
  let migrated_head = Sharded.head t' ~branch:"master" in
  Alcotest.(check bool)
    "composite equals a fresh build at the new width" true
    (Hash.equal fresh_head.Sharded.composite migrated_head.Sharded.composite);
  Sharded.close f;
  (* per-shard stats: every live key accounted for exactly once *)
  let stats = Sharded.shard_stats t' ~branch:"master" in
  Alcotest.(check int) "stats cover 8 shards" 8 (Array.length stats);
  Alcotest.(check int) "keys partition the branch"
    (List.length master_before)
    (Array.fold_left (fun acc s -> acc + s.Sharded.keys) 0 stats);
  (* the engine stays writable after the swap *)
  ignore
    (Sharded.commit t' ~branch:"master" ~message:"post" [ Kv.Put ("post", "1") ]);
  Sharded.close t';
  (* reopen with no spec: the new manifest wins, composite re-verifies *)
  let t'' = open_exn ~dir () in
  Alcotest.(check int) "reopened at generation 1" 1 (Sharded.generation t'');
  Alcotest.(check string) "reopened at hash:8" "hash:8"
    (Partition.to_string (Sharded.spec t''));
  Alcotest.(check (option string))
    "post-reshard write survived" (Some "1")
    (Sharded.get t'' ~branch:"master" "post");
  (* the old generation's shard directories were swept *)
  Alcotest.(check bool)
    "flat-layout shard swept" false
    (Sys.file_exists (Filename.concat dir "shard.0"));
  Sharded.close t''

(* --- reshard SIGKILL storm: old or new, never a mix ---------------------------- *)

let crash_rounds () =
  match Option.bind (Sys.getenv_opt "SIRI_SCAN_ROUNDS") int_of_string_opt with
  | Some n -> max 1 n
  | None -> 4

let storm_template ~backend dir =
  let t = open_exn ~sync:false ~backend ~spec:(range_spec 4) ~dir () in
  ignore
    (Sharded.commit t ~branch:"master" ~message:"seed"
       (List.map (fun (k, v) -> Kv.Put (k, v)) byte_entries));
  Sharded.close t

(* The killed process: flip the layout 4 ↔ 8 forever with fsync on,
   durably acking each completed generation. *)
let reshard_forever ~backend ~dir ~acked_path =
  let fd =
    Unix.openfile acked_path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  in
  let t = open_exn ~sync:true ~backend ~dir () in
  Kill_child.ready ();
  let rec loop t g =
    let m = if (Sharded.spec t).Partition.shards = 4 then 8 else 4 in
    match Sharded.reshard t ~shards:m with
    | Ok t ->
        let line = Printf.sprintf "%d\n" (g + 1) in
        ignore (Unix.write_substring fd line 0 (String.length line));
        Unix.fsync fd;
        loop t (g + 1)
    | Error _ -> exit 1
  in
  loop t 0

let backend_arg = function `Pack -> "pack" | `Snapshot -> "snapshot"

(* The parent SIGKILLs the child at a seeded instant.  Recovery must open
   cleanly (the composite re-check would refuse a mixed layout), land on
   a generation covering every ack, on a width matching that
   generation's parity, with the seed entries intact under the new
   routing. *)
let test_reshard_sigkill ~backend () =
  let rounds = crash_rounds () in
  let rng = Rng.create 20260806 in
  for round = 1 to rounds do
    with_dir (Printf.sprintf "rkill-%d" round) @@ fun dir ->
    storm_template ~backend dir;
    let acked_path =
      Filename.concat (Filename.dirname dir) (Filename.basename dir ^ ".acked")
    in
    let pid = Kill_child.spawn [ "reshard"; backend_arg backend; dir; acked_path ] in
    Unix.sleepf (0.05 +. (Rng.float rng *. 0.4));
    Kill_child.kill pid;
    let acked =
      if Sys.file_exists acked_path then
        read_file acked_path |> String.split_on_char '\n'
        |> List.filter_map int_of_string_opt
        |> List.fold_left max 0
      else 0
    in
    if Sys.file_exists acked_path then Sys.remove acked_path;
    let t = open_exn ~backend ~dir () in
    let g = Sharded.generation t in
    if g < acked then
      Alcotest.failf "round %d: ACKED RESHARD LOST (acked %d, recovered %d)"
        round acked g;
    let width = (Sharded.spec t).Partition.shards in
    Alcotest.(check int)
      (Printf.sprintf "round %d: width matches generation parity" round)
      (if g mod 2 = 0 then 4 else 8)
      width;
    Alcotest.check entries_t
      (Printf.sprintf "round %d: entries intact at generation %d" round g)
      byte_sorted
      (List.of_seq (Sharded.scan t ~branch:"master"));
    Sharded.close t
  done

(* --- WAL bulk record ----------------------------------------------------------- *)

let test_bulk_record_roundtrip () =
  let r =
    Wal.Bulk
      { branch = "dev";
        message = "migrate";
        entries = [ ("a", "1"); ("b", ""); ("\x00odd", "\xffv") ] }
  in
  let blob = Wal.magic ^ Wal.encode_record ~seq:7 r in
  match Wal.scan blob with
  | Ok { Wal.entries = [ (7, r') ]; clamped_bytes = 0; _ } ->
      Alcotest.(check bool) "bulk record roundtrips" true (r = r')
  | Ok _ -> Alcotest.fail "unexpected scan shape"
  | Error e -> Alcotest.failf "scan: %a" Wal.pp_error e

(* --- server: streamed scan end to end ------------------------------------------ *)

let test_server_scan () =
  with_dir "serve-scan" @@ fun dir ->
  Unix.mkdir dir 0o755;
  let data = Filename.concat dir "d" and sock = Filename.concat dir "s" in
  let sharded =
    open_exn ~sync:false ~runner:`Threads ~spec:(range_spec 2) ~dir:data ()
  in
  let server = Server.start_sharded ~sharded ~listen:[ `Unix sock ] () in
  Fun.protect
    ~finally:(fun () -> Server.stop server)
    (fun () ->
      match Client.connect ~addr:(`Unix sock) () with
      | Error e -> Alcotest.failf "connect: %s" (Client.error_to_string e)
      | Ok c ->
          (* 600 entries: the reply must stream as multiple frames (the
             server chunks at 256) and reassemble in order *)
          let entries =
            List.init 600 (fun i ->
                (Printf.sprintf "wk-%04d" i, Printf.sprintf "wv%d" i))
          in
          (match
             Client.commit c ~branch:"master" ~message:"seed"
               (List.map (fun (k, v) -> Kv.Put (k, v)) entries)
           with
          | Error e -> Alcotest.failf "commit: %s" (Client.error_to_string e)
          | Ok _ -> ());
          (match Client.scan c ~branch:"master" with
          | Ok got ->
              Alcotest.check entries_t "full scan over the wire" entries got
          | Error e -> Alcotest.failf "scan: %s" (Client.error_to_string e));
          (match Client.scan ~lo:"wk-0100" ~hi:"wk-0110" c ~branch:"master" with
          | Ok got ->
              Alcotest.check entries_t "windowed scan"
                (filter_range ~lo:"wk-0100" ~hi:"wk-0110" entries)
                got
          | Error e -> Alcotest.failf "scan lo/hi: %s" (Client.error_to_string e));
          (match Client.scan ~limit:10 c ~branch:"master" with
          | Ok got ->
              Alcotest.check entries_t "limited scan"
                (List.filteri (fun i _ -> i < 10) entries)
                got
          | Error e -> Alcotest.failf "scan limit: %s" (Client.error_to_string e));
          (match Client.scan c ~branch:"ghost" with
          | Error (`Unknown_branch _) -> ()
          | Ok _ -> Alcotest.fail "scan on a ghost branch answered"
          | Error e ->
              Alcotest.failf "ghost branch: %s" (Client.error_to_string e));
          Client.close c)

(* An MBT-backed server refuses the scan as a typed error instead of
   crashing the session. *)
let test_server_scan_mbt_refused () =
  with_dir "serve-mbt" @@ fun dir ->
  Unix.mkdir dir 0o755;
  let data = Filename.concat dir "d" and sock = Filename.concat dir "s" in
  let durable =
    match
      Durable.open_ ~sync:false ~dir:data
        ~empty_index:
          (Mbt.generic (Mbt.empty (Store.create ()) (Mbt.config ~capacity:16 ())))
        ()
    with
    | Ok d -> d
    | Error e -> Alcotest.failf "Durable.open_: %a" Wal.pp_error e
  in
  let server = Server.start ~durable ~listen:[ `Unix sock ] () in
  Fun.protect
    ~finally:(fun () -> Server.stop server)
    (fun () ->
      match Client.connect ~addr:(`Unix sock) () with
      | Error e -> Alcotest.failf "connect: %s" (Client.error_to_string e)
      | Ok c ->
          (match
             Client.commit c ~branch:"master" ~message:"seed"
               [ Kv.Put ("a", "1") ]
           with
          | Error e -> Alcotest.failf "commit: %s" (Client.error_to_string e)
          | Ok _ -> ());
          (match Client.scan c ~branch:"master" with
          | Error (`Refused _) -> ()
          | Ok _ -> Alcotest.fail "MBT server ANSWERED an ordered scan"
          | Error e ->
              Alcotest.failf "expected refusal, got: %s"
                (Client.error_to_string e));
          (* the session survives the refusal: a point read still works *)
          (match Client.get c ~branch:"master" "a" with
          | Ok (Some "1") -> ()
          | Ok _ -> Alcotest.fail "get after refused scan: wrong value"
          | Error e ->
              Alcotest.failf "get after refused scan: %s"
                (Client.error_to_string e));
          Client.close c)

let () =
  Kill_child.dispatch (function
    | [ "reshard"; backend; dir; acked_path ] ->
        let backend = if backend = "pack" then `Pack else `Snapshot in
        reshard_forever ~backend ~dir ~acked_path
    | _ -> exit 2);
  let qcheck = QCheck_alcotest.to_alcotest in
  Alcotest.run "scan"
    [ ( "streaming",
        [ Alcotest.test_case "edge windows on every ordered kind" `Quick
            test_scan_edges;
          Alcotest.test_case "mbt refuses with a typed error" `Quick
            test_mbt_refuses;
          qcheck qcheck_scan_differential ] );
      ( "routing",
        [ Alcotest.test_case "interval boundaries (range scheme)" `Quick
            test_shard_interval_boundaries;
          qcheck qcheck_interval_covers ] );
      ( "sharded",
        [ Alcotest.test_case "range window touches one shard" `Quick
            test_range_scan_single_shard;
          Alcotest.test_case "hash window k-way merges" `Quick
            test_hash_scan_merge;
          Alcotest.test_case "get_many through the runner" `Quick
            test_sharded_get_many ] );
      ( "reshard",
        [ Alcotest.test_case "4 -> 8 preserves content and composite" `Quick
            test_reshard_differential;
          Alcotest.test_case "bulk WAL record roundtrips" `Quick
            test_bulk_record_roundtrip ] );
      ( "reshard-kill",
        [ Alcotest.test_case "SIGKILL storm (snapshot backend)" `Slow
            (test_reshard_sigkill ~backend:`Snapshot);
          Alcotest.test_case "SIGKILL storm (pack backend)" `Slow
            (test_reshard_sigkill ~backend:`Pack) ] );
      ( "server",
        [ Alcotest.test_case "streamed scan end to end" `Quick test_server_scan;
          Alcotest.test_case "mbt server refuses scans" `Quick
            test_server_scan_mbt_refused ] ) ]
