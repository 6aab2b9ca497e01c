(* cold_eth: reopen a durable pack directory much larger than the node
   cache, then read it.

   A separate process ([perfbench build-cold], started with
   [Unix.create_process]) writes [txs] Ethereum-shaped transactions into
   an MPT engine on the pack backend and checkpoints it, so reopening
   replays no journal.  This process reopens the directory with a
   [cache_bytes] node cache and runs one thread over a uniform mix: 80%
   single gets (one in eight for an absent transaction hash), 10%
   [prove_many] of 16 keys with verification, 10% scans of the first 100
   entries from a random lower bound.  No writes at all: the time goes
   to pack reads and their verification, node decoding and cache misses.

   Correctness: every get answer and scanned entry is compared with the
   generated data (kept as key order plus a 60-bit value fingerprint),
   every absent key must answer None, and every proof must verify
   against the engine's root and claim the generated values. *)

open Siri_core
module Hash = Siri_crypto.Hash
module Store = Siri_store.Store
module Node_cache = Siri_readpath.Node_cache
module Engine = Siri_forkbase.Engine
module Durable = Siri_wal.Durable
module Wal = Siri_wal.Wal
module Pack = Siri_pack.Pack
module Telemetry = Siri_telemetry.Telemetry
module Ethereum = Siri_workload.Ethereum
module Mpt = Siri_mpt.Mpt
module Samples = Stats.Samples
module Tally = Stats.Tally

let txs = 10_000
let cache_bytes = 512 lsl 10
let setups = 6
let prove_keys = 16
let scan_len = 100
let warmup_ops = 2_000

(* Per-layer metrics of the write path and the server, which this
   workload does not touch. *)
let bypasses =
  [ "server.read_ms.mean"; "server.commit_ms.mean"; "server.proof_ms.mean";
    "server.wire_ms.mean"; "server.group_size.mean"; "wal.fsyncs_per_commit";
    "wal.bytes_per_commit"; "pack.append_bytes_per_commit"; "store.put_bytes_per_commit";
    "pos.batch_ms.mean"; "crypto.hash_bytes_per_put"; "crypto.digests_per_commit";
    "store.put_bytes_per_put"; "store.unique_put_ratio"; "store.gets_per_diff" ]

let empty_index ~cache_bytes =
  Mpt.generic (Mpt.empty (Store.create ~cache_bytes ~proof_cache_bytes:0 ()))

let open_exn ~cache_bytes dir =
  match
    Durable.open_ ~sync:false ~backend:`Pack ~dir ~empty_index:(empty_index ~cache_bytes) ()
  with
  | Ok d -> d
  | Error e -> failwith (Format.asprintf "open %s: %a" dir Wal.pp_error e)

(* [perfbench build-cold DIR SEED]: the child process writing the
   dataset. *)
let loader_main () =
  match Sys.argv with
  | [| _; _; dir; seed |] ->
      let seed = int_of_string seed in
      let d = open_exn ~cache_bytes:0 dir in
      let entries =
        List.init txs (fun i ->
            let tx = Ethereum.transaction ~seed i in
            (tx.Ethereum.hash_hex, tx.Ethereum.rlp))
      in
      ignore (Durable.commit_bulk d ~branch:"master" ~message:"load" entries : Engine.commit);
      Durable.checkpoint d;
      Durable.close d;
      exit 0
  | _ ->
      prerr_endline "usage: perfbench build-cold DIR SEED";
      exit 2

let wait_child pid =
  let rec go () =
    match Unix.waitpid [] pid with
    | _, Unix.WEXITED 0 -> ()
    | _, Unix.WEXITED n -> failwith (Printf.sprintf "loader exited with %d" n)
    | _, (Unix.WSIGNALED n | Unix.WSTOPPED n) ->
        failwith (Printf.sprintf "loader killed by signal %d" n)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  go ()

(* Build the directory in a child process; on any exception the child is
   killed and reaped before the exception propagates. *)
let build ~seed dir =
  let exe = Sys.executable_name in
  let pid =
    Unix.create_process exe [| exe; "build-cold"; dir; string_of_int seed |]
      Unix.stdin Unix.stderr Unix.stderr
  in
  match wait_child pid with
  | () -> ()
  | exception e ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ());
      raise e

(* The generated data, as the checks need it: keys in index order and in
   sorted order, and a fingerprint of every value. *)
type dataset = {
  keys : string array;
  fingerprints : int array;
  sorted : (string * int) array;  (** (key, index), by key *)
  user_bytes : int;
}

let fingerprint v =
  (Hashtbl.seeded_hash 1 v lsl 30) lxor Hashtbl.seeded_hash 2 v lxor String.length v

let dataset ~seed =
  let keys = Array.make txs "" and fingerprints = Array.make txs 0 in
  let value_bytes = Array.make txs 0 in
  for i = 0 to txs - 1 do
    let tx = Ethereum.transaction ~seed i in
    keys.(i) <- tx.Ethereum.hash_hex;
    fingerprints.(i) <- fingerprint tx.Ethereum.rlp;
    value_bytes.(i) <- String.length tx.Ethereum.rlp
  done;
  (* The generator's per-transaction seeds can collide, giving the same
     transaction twice; the index holds it once. *)
  let sorted = Array.mapi (fun i k -> (k, i)) keys in
  Array.sort compare sorted;
  let unique =
    Array.to_list sorted
    |> List.fold_left
         (fun acc (k, i) ->
           match acc with (k', _) :: _ when k' = k -> acc | _ -> (k, i) :: acc)
         []
    |> List.rev |> Array.of_list
  in
  let user_bytes =
    Array.fold_left
      (fun acc (k, i) -> acc + String.length k + value_bytes.(i))
      0 unique
  in
  { keys; fingerprints; sorted = unique; user_bytes }

(* Index in [sorted] of the first key >= [lo]. *)
let lower_bound sorted lo =
  let rec go a b =
    if a >= b then a
    else
      let m = (a + b) / 2 in
      if String.compare (fst sorted.(m)) lo < 0 then go (m + 1) b else go a m
  in
  go 0 (Array.length sorted)

let random_hex rng = Hash.to_hex (Hash.of_string (Rng.bytes_random rng 16))

(* Reads that reach the pack, when traced. *)
type pack_meter = {
  mutable reads : int;
  mutable read_bytes : int;
  mutable read_s : float;
}

let meter_backend (b : Store.backend) m =
  { b with
    Store.backend_read =
      (fun h ->
        let r, dt =
          Trace.timed "pack.read" (fun () -> b.Store.backend_read h)
        in
        m.reads <- m.reads + 1;
        m.read_s <- m.read_s +. dt;
        (match r with
        | Some (payload, _) -> m.read_bytes <- m.read_bytes + String.length payload
        | None -> ());
        r) }

let run ~seed ~seconds ~traced =
  let data = dataset ~seed in
  Common.with_scratch "cold_eth" @@ fun root ->
  Calib.with_calibrator @@ fun cal ->
  let setup_times = ref [] and reopen_times = ref [] in
  let durable = ref None in
  let close_current () =
    Option.iter (fun d -> Durable.close d) !durable;
    durable := None
  in
  Fun.protect ~finally:close_current @@ fun () ->
  for i = 1 to setups do
    close_current ();
    Array.iter (fun n -> Common.rm_rf (Filename.concat root n)) (Sys.readdir root);
    Gc.full_major ();
    Calib.sample cal;
    Calib.sample cal;
    let dir = Filename.concat root (Printf.sprintf "db%d" i) in
    let t0 = Common.now () in
    build ~seed dir;
    let t1 = Common.now () in
    durable := Some (open_exn ~cache_bytes dir);
    let t2 = Common.now () in
    setup_times := (t2 -. t0) :: !setup_times;
    reopen_times := (t2 -. t1) :: !reopen_times
  done;
  let d = Option.get !durable in
  let e = Durable.engine d in
  let store = Engine.store e in
  let cache = Store.cache store in
  let root_hash = (Engine.head e "master").Engine.index_root in
  let tally = Tally.create () in
  let get_s = Samples.create ()
  and prove_s = Samples.create ()
  and scan_s = Samples.create () in
  let rng = Rng.create (Hashtbl.hash ("cold_eth", seed)) in
  let ops = ref 0 in
  (* traced-run meters *)
  let pack = { reads = 0; read_bytes = 0; read_s = 0.0 } in
  let sink = ref Telemetry.null in
  let counter name () = float_of_int (Telemetry.counter !sink name) in
  let meter =
    Common.Meter.create
      [ ("seconds", Common.now);
        ("cache.hit", fun () -> float_of_int (Node_cache.hits cache));
        ("cache.miss", fun () -> float_of_int (Node_cache.misses cache));
        ("cache.evict", fun () -> float_of_int (Node_cache.evictions cache));
        ("hash.bytes", counter "hash.bytes");
        ("filter.skip", counter "read.filter.skip");
        ("pack.reads", fun () -> float_of_int pack.reads);
        ("pack.bytes", fun () -> float_of_int pack.read_bytes);
        ("pack.seconds", fun () -> pack.read_s) ]
  in
  let proof_bytes = ref 0 and verify_s = Samples.create () in
  let check_value i = function
    | Some v when fingerprint v = data.fingerprints.(i) -> Stats.Done
    | Some _ -> Stats.Wrong ("get: wrong value for " ^ data.keys.(i))
    | None -> Stats.Wrong ("get: missing " ^ data.keys.(i))
  in
  let do_get () =
    let absent = Rng.int rng 8 = 0 in
    let i = Rng.int rng txs in
    let key = if absent then random_hex rng else data.keys.(i) in
    Common.timed_op ~tally ~samples:get_s "get"
      (fun () ->
        Common.Meter.around meter (if absent then "get_absent" else "get") (fun () ->
            Engine.get e ~branch:"master" key))
      (fun r ->
        if not absent then check_value i r
        else if r = None then Stats.Done
        else Stats.Wrong ("get: phantom " ^ key))
  in
  let do_prove () =
    let ids = List.init prove_keys (fun _ -> Rng.int rng txs) in
    let keys = List.map (fun i -> data.keys.(i)) ids in
    (* Timed: proving, encoding, decoding and verifying. *)
    Common.timed_op ~tally ~samples:prove_s "prove"
      (fun () ->
        let idx = Engine.index e "master" in
        let encoded =
          Trace.span "core.prove" (fun () -> Multiproof.encode (Generic.prove_many idx keys))
        in
        match Multiproof.decode encoded with
        | Error _ -> None
        | Ok mp ->
            let ok, vdt =
              Trace.timed "core.verify" (fun () -> Generic.verify_many idx ~root:root_hash mp)
            in
            if !Trace.enabled then begin
              Samples.add verify_s vdt;
              proof_bytes := !proof_bytes + String.length encoded
            end;
            Some (ok, mp))
      (function
        | None -> Stats.Wrong "prove: proof does not decode"
        | Some (false, _) -> Stats.Wrong "prove: proof fails verification"
        | Some (true, mp) ->
            if
              List.for_all
                (fun i ->
                  match Multiproof.find mp data.keys.(i) with
                  | Some (Some v) -> fingerprint v = data.fingerprints.(i)
                  | _ -> false)
                ids
            then Stats.Done
            else Stats.Wrong "prove: a claim differs from the generated value")
  in
  let do_scan () =
    let lo = random_hex rng in
    Common.timed_op ~tally ~samples:scan_s "scan"
      (fun () -> List.of_seq (Seq.take scan_len (Engine.scan e ~branch:"master" ~lo)))
      (fun got ->
        let start = lower_bound data.sorted lo in
        let want = min scan_len (Array.length data.sorted - start) in
        let rec check j = function
          | [] -> j = want
          | (k, v) :: rest ->
              j < want
              && (let k', i = data.sorted.(start + j) in
                  k = k' && fingerprint v = data.fingerprints.(i))
              && check (j + 1) rest
        in
        if check 0 got then Stats.Done else Stats.Wrong ("scan from " ^ lo))
  in
  let one_op () =
    let u = Rng.int rng 10 in
    if u < 8 then do_get () else if u = 8 then do_prove () else do_scan ()
  in
  (* Host-speed samples are taken between operations; the phase runs
     [seconds] of operations, their time excluded. *)
  let run_phase seconds =
    let n0 = !ops and spent0 = cal.Calib.spent in
    let t0 = Common.now () in
    let elapsed () = Common.now () -. t0 -. (cal.Calib.spent -. spent0) in
    while elapsed () < seconds do
      one_op ();
      incr ops;
      Calib.tick cal
    done;
    (elapsed (), !ops - n0)
  in
  (* Fill the node cache before timing: its steady state is what a
     long-running reader sees.  Warm-up answers are still checked. *)
  for _ = 1 to warmup_ops do
    one_op ()
  done;
  List.iter Samples.clear [ get_s; prove_s; scan_s ];
  let gc0 = Common.gc_mark () in
  let timed_s, overhead =
    Common.measure ~traced ~seconds ~phase:run_phase
      ~trace_on:(fun () ->
        sink := Telemetry.create ~clock:Unix.gettimeofday ();
        Store.set_sink store !sink;
        Telemetry.attach_hash_counter !sink;
        match Durable.pack d with
        | Some p -> Store.set_backend store (Some (meter_backend (Pack.backend p) pack))
        | None -> failwith "cold_eth: no pack attached")
      ~trace_off:Telemetry.detach_hash_counter
  in
  let nops = !ops in
  let layers =
    if not traced then []
    else
      let gets = [ "get"; "get_absent" ] in
      let per_get = Common.Meter.per_call meter gets in
      let hits = Common.Meter.total meter gets "cache.hit"
      and misses = Common.Meter.total meter gets "cache.miss" in
      (* Read before the path-length sample below adds pack reads. *)
      let read_us = 1e6 *. Stats.fratio pack.read_s (float_of_int pack.reads) in
      let idx = Engine.index e "master" in
      let sample = List.init 1000 (fun _ -> data.keys.(Rng.int rng txs)) in
      let path_nodes = List.fold_left (fun acc k -> acc + idx.Generic.path_length k) 0 sample in
      [ ("wal.replayed_records", float_of_int (Durable.recovery d).Durable.replayed);
        ("pack.reads_per_lookup", per_get "pack.reads");
        ("pack.read_us.mean", read_us);
        ("pack.read_bytes_per_lookup", per_get "pack.bytes");
        ("crypto.hash_bytes_per_lookup", per_get "hash.bytes");
        ("readpath.cache_hit_ratio", Stats.fratio hits (hits +. misses));
        ("readpath.evictions_per_lookup", per_get "cache.evict");
        ("readpath.filter_skip_ratio", Common.Meter.per_call meter [ "get_absent" ] "filter.skip");
        ("mpt.nodes_per_lookup", Stats.ratio path_nodes (List.length sample));
        ("mpt.walk_us.mean", 1e6 *. (per_get "seconds" -. per_get "pack.seconds"));
        ("core.proof_bytes", Stats.ratio !proof_bytes (Samples.count verify_s));
        ("core.verify_ms.mean",
         1000.0 *. Samples.mean verify_s);
        ("trace.overhead_ratio", overhead) ]
      @ Common.gc_layers ~ops:nops gc0
  in
  let disk = Common.dir_bytes (Durable.pack_dir (Durable.dir d)) in
  let roles = [ ("read", get_s); ("proof", prove_s); ("scan", scan_s) ] in
  { Common.setup_s = List.rev !setup_times;
    timed_s;
    ops = nops;
    calib = Some cal;
    roles;
    bytes_per_user_byte = Stats.ratio disk data.user_bytes;
    peak_rss_mb = Common.peak_rss_mb ();
    reopen_s = Some (Stats.median !reopen_times);
    tally;
    layers;
    bypasses;
    flush_policy = "loader: sync off, one checkpoint (fsync) before close; timed phase: no writes" }
