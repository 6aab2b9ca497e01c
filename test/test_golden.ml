(* Golden vectors: root digests of a fixed dataset under fixed
   configurations.  These freeze the node serialization formats and every
   boundary/placement rule — any unintended change to an encoding, the
   chunker, SHA-256 or the build algorithms shows up here as a root
   mismatch, which would silently break persisted stores and published
   digests in the wild. *)

module Store = Siri_store.Store
module Hash = Siri_crypto.Hash
module Telemetry = Siri_telemetry.Telemetry
module Mpt = Siri_mpt.Mpt
module Mbt = Siri_mbt.Mbt
module Pos = Siri_pos.Pos_tree
module Mvbt = Siri_mvbt.Mvbt
module Prolly = Siri_prolly.Prolly
module Kv = Siri_core.Kv
module Chunker = Siri_chunk.Chunker
module Pool = Siri_parallel.Pool

let entries =
  List.init 100 (fun i -> (Printf.sprintf "key-%03d" i, Printf.sprintf "value-%d" (i * i)))

let mpt_root = "9bc1a9eb1ceb85ab222fdca1f2a0cdfcd3c4d053616ac91b0b4173da0e2866bb"
let mbt_root = "adadc0c966d13469270fa881c06553998ad49c6ec8bfed50cc8752cf45d671c5"
let pos_root = "9ec66005a0652557f74b3c059fbd5cc586ad7d2fba87d3030c288cba2bc19fc8"
let mvbt_root = "a468a8bf58145876890595b2da825b7c79c2cf5a544edfbf251c880c8c9d5fd7"

let check name expected actual =
  Alcotest.(check string) (name ^ " root frozen") expected (Hash.to_hex actual)

let builders =
  [ ("mpt", mpt_root, fun store -> Mpt.root (Mpt.of_entries store entries));
    ( "mbt",
      mbt_root,
      fun store ->
        Mbt.root (Mbt.of_entries store (Mbt.config ~capacity:16 ~fanout:4 ()) entries)
    );
    ( "pos",
      pos_root,
      fun store ->
        Pos.root
          (Pos.of_entries store (Pos.config ~leaf_target:256 ~internal_bits:3 ()) entries)
    );
    ( "mvbt",
      mvbt_root,
      fun store ->
        Mvbt.root
          (Mvbt.of_entries store
             (Mvbt.config ~leaf_capacity:4 ~internal_capacity:5 ())
             entries) ) ]

let test_mpt () =
  let store = Store.create () in
  check "mpt" mpt_root (Mpt.root (Mpt.of_entries store entries))

let test_mbt () =
  let store = Store.create () in
  check "mbt" mbt_root
    (Mbt.root (Mbt.of_entries store (Mbt.config ~capacity:16 ~fanout:4 ()) entries))

let test_pos () =
  let store = Store.create () in
  check "pos" pos_root
    (Pos.root
       (Pos.of_entries store (Pos.config ~leaf_target:256 ~internal_bits:3 ()) entries))

let test_mvbt () =
  let store = Store.create () in
  check "mvbt" mvbt_root
    (Mvbt.root
       (Mvbt.of_entries store
          (Mvbt.config ~leaf_capacity:4 ~internal_capacity:5 ())
          entries))

let test_prolly () =
  (* On this small dataset the rolling internal rule happens to coincide
     with the child-hash rule (both leave a single root node over the same
     leaves), so the digest matches POS — freezing it still pins the
     By_rolling code path. *)
  let store = Store.create () in
  check "prolly" pos_root
    (Pos.root (Pos.of_entries store (Prolly.config ~node_target:256 ()) entries))

let test_instrumented_roots () =
  (* The same golden digests must come out of a fully metered build — a
     telemetry sink plus the global hash counter attached.  Instrumentation
     that leaked into a serialization or a digest would break the vectors
     here even if the plain builds above still pass. *)
  let sink = Telemetry.create () in
  Telemetry.attach_hash_counter sink;
  Fun.protect ~finally:Telemetry.detach_hash_counter (fun () ->
      List.iter
        (fun (name, expected, build) ->
          let store = Store.create () in
          Store.set_sink store sink;
          check (name ^ " (instrumented)") expected (build store))
        builders;
      Alcotest.(check bool) "the builds were actually metered" true
        (Telemetry.counter sink "store.put" > 0
        && Telemetry.counter sink "hash.count" > 0))

(* --- chunker edge rules ----------------------------------------------------

   Vectors frozen for the boundary rules the default configs never reach:
   forced max-size cuts with local splits, a minimum chunk size, a one-byte
   window, a window longer than most records, and a Prolly tree whose
   internal rolling window is not the default.  Each config pins two
   roots: the bulk build, reached both by streaming and by the parallel
   [of_sorted] pipeline (its own cut-point scan), and the root after an
   update history on top of it.  Serialized records run from 8 to 88
   bytes, so windows and minimum sizes straddle record edges.  The digests
   were taken with the earlier chunker, which rolled one byte at a time
   through [Buzhash.roll] over a separately serialized copy of each item,
   so they pin the one-loop chunker and the encode-once build to it. *)

let edge_entries =
  List.init 1500 (fun i ->
      let d = Hash.to_hex (Hash.of_string (string_of_int i)) in
      (Printf.sprintf "k%05d" (i * 7), String.sub (d ^ d) 0 (1 + (i * 13 mod 80))))

let edge_updates =
  List.concat
    (List.init 60 (fun j ->
         let i = j * 173 mod 1500 in
         [ Kv.Put (Printf.sprintf "k%05d" (i * 7), Printf.sprintf "updated-%d" j);
           Kv.Put (Printf.sprintf "k%05d" ((i * 7) + 3), String.make (j + 1) 'n');
           Kv.Del (Printf.sprintf "k%05d" (((i + 11) mod 1500) * 7)) ]))

let with_leaf leaf = { (Pos.config ~leaf_target:256 ~internal_bits:3 ()) with leaf }

let edge_configs =
  [ ( "non-structurally-invariant",
      Pos.config_non_structurally_invariant ~leaf_target:200 (),
      "e7d18c9a03f1ceefe7adc49ebcbdfb75eb3c18b3ce9e51e6b124b430fa24224f",
      "4182951b8eb6927008fc356d3fec8a23c848a146b967062bd17fee5961b95db0" );
    ( "min size",
      with_leaf (Chunker.config ~pattern_bits:5 ~min_size:150 ~max_size:1200 ()),
      "d46dd2e35a83908e88b051a62619b2fd03b3588f20bbd014fbd8c25941c6d4da",
      "4bc09c9e41f3e6420c72f20dd3a46ac1f127d0197a6fb89da683f7ab83071602" );
    ( "window 1",
      with_leaf (Chunker.config ~window:1 ~pattern_bits:7 ()),
      "f8f522f1668438025810f814016238a6b3f6a3b4284dc10fc000d2ca192689bc",
      "3558acf928aab3951592419546c8c9dc7067164d3dfb860a048fbee7627f09c1" );
    ( "window 300",
      with_leaf (Chunker.config ~window:300 ~pattern_bits:7 ()),
      "9f1a35054549d5e4f7a1311882cebd16482edf98a0f147812e17fb3e1c7c7562",
      "ea362419b1ba59efad584e4d46167a62e87f919184e7fbaeac8d0d022d823480" );
    ( "prolly window 16",
      { (Pos.config_prolly ~leaf_target:256 ()) with
        internal = Pos.By_rolling (Chunker.config ~window:16 ~pattern_bits:7 ()) },
      "f961fdb89b4341278e66c38c9a54530ed7961cba2a7f6abb552ea9a2b5a794f5",
      "075a9a84b2ea7ee34ed31441335537c1e4abe8269956ba674779c917b0612c19" ) ]

let edge_pool = Pool.create ~domains:2 ()

let test_edge_rules () =
  List.iter
    (fun (name, cfg, built, updated) ->
      let store = Store.create () in
      let t = Pos.of_entries store cfg edge_entries in
      check (name ^ " build") built (Pos.root t);
      check (name ^ " of_sorted") built
        (Pos.root (Pos.of_sorted ~pool:edge_pool store cfg edge_entries));
      (* One op per batch: under local splits the history is the point. *)
      let t = List.fold_left (fun t op -> Pos.batch t [ op ]) t edge_updates in
      check (name ^ " updated") updated (Pos.root t))
    edge_configs

let test_empty_roots () =
  (* The empty tree of every keyed structure is the null digest... except
     MBT, whose empty buckets are real nodes. *)
  let store = Store.create () in
  Alcotest.(check bool) "mpt empty is null" true
    (Hash.is_null (Mpt.root (Mpt.empty store)));
  Alcotest.(check bool) "pos empty is null" true
    (Hash.is_null (Pos.root (Pos.empty store (Pos.config ()))));
  Alcotest.(check bool) "mbt empty is a concrete tree" false
    (Hash.is_null (Mbt.root (Mbt.empty store (Mbt.config ~capacity:16 ~fanout:4 ()))))

let () =
  Alcotest.run "golden"
    [ ( "roots",
        [ Alcotest.test_case "mpt" `Quick test_mpt;
          Alcotest.test_case "mbt" `Quick test_mbt;
          Alcotest.test_case "pos" `Quick test_pos;
          Alcotest.test_case "mvbt" `Quick test_mvbt;
          Alcotest.test_case "prolly" `Quick test_prolly;
          Alcotest.test_case "chunker edge rules" `Quick test_edge_rules;
          Alcotest.test_case "empty roots" `Quick test_empty_roots;
          Alcotest.test_case "instrumented roots" `Quick test_instrumented_roots ] ) ]
