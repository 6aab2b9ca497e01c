(* serve_ycsb: the production write-and-read path, over the wire.

   The real [siri_serve] binary (POS-Tree, pack backend, fsync on every
   group commit) is started with [Unix.create_process] and preloaded with
   [records] YCSB records through its own commit path, so the working set
   sits in the in-memory hot tier ([siri_serve] keeps the node cache
   off).  One generator process then holds [clients] closed-loop
   connections drawing keys from Zipf(0.9): 80% [get_many] of 16 keys,
   15% [commit] of 64 puts, 5% [prove_many] of 16 keys, each proof
   decoded and verified here, in segments of [segment_s] with the
   host-speed reference sampled between them.  This is the only workload
   through the protocol, the group-commit queue, journal append and
   fsync, and pack append; its reads never touch pack storage.

   Correctness: every value read or claimed by a proof must be one this
   generator wrote for that key, and every proof must verify against the
   root the server returned. *)

open Siri_core
module Store = Siri_store.Store
module Client = Siri_server.Client
module Durable = Siri_wal.Durable
module Ycsb = Siri_workload.Ycsb
module Zipf = Siri_workload.Zipf
module Pos = Siri_pos.Pos_tree
module Samples = Stats.Samples
module Tally = Stats.Tally

let records = 50_000
let preload_batch = 12_500
let clients = 2
let theta = 0.9
let read_keys = 16
let commit_puts = 64
let setups = 3
let segment_s = 1.0

(* Per-layer metrics of layers this workload does not pass through
   (recovery, pack reads, the MPT, diffs), or that only an in-process
   workload can read (the hash counter, cache evictions, the GC). *)
let bypasses =
  [ "wal.replayed_records"; "pack.read_us.mean"; "pack.read_bytes_per_lookup";
    "crypto.hash_bytes_per_lookup"; "readpath.evictions_per_lookup";
    "readpath.filter_skip_ratio"; "mpt.nodes_per_lookup"; "mpt.walk_us.mean";
    "crypto.hash_bytes_per_put"; "crypto.digests_per_commit"; "store.gets_per_diff";
    "gc.minor_words_per_op"; "gc.major_collections" ]

let server_exe () =
  Filename.concat
    (Filename.dirname (Filename.dirname Sys.executable_name))
    (Filename.concat "bin" "siri_serve.exe")

type server = { pid : int; out : in_channel; port : int; dir : string }

let rec waitpid_retry pid =
  try snd (Unix.waitpid [] pid)
  with Unix.Unix_error (Unix.EINTR, _, _) -> waitpid_retry pid

(* Start [siri_serve] on [dir] and wait for its READY line. *)
let spawn dir =
  let exe = server_exe () in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process exe
      [| exe; dir; "--index"; "pos"; "--backend"; "pack"; "--sync"; "true"; "--tcp"; "0" |]
      Unix.stdin out_w Unix.stderr
  in
  Unix.close out_w;
  let out = Unix.in_channel_of_descr out_r in
  match input_line out with
  | line when String.length line > 10 && String.sub line 0 10 = "READY tcp:" ->
      { pid; out; port = int_of_string (String.sub line 10 (String.length line - 10)); dir }
  | line ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (waitpid_retry pid);
      close_in out;
      failwith ("siri_serve did not come up: " ^ line)
  | exception End_of_file ->
      ignore (waitpid_retry pid);
      close_in out;
      failwith "siri_serve exited before READY"

(* Graceful stop: SIGTERM drains queued commits and closes the journal. *)
let stop s =
  (try Unix.kill s.pid Sys.sigterm with Unix.Unix_error _ -> ());
  let status = waitpid_retry s.pid in
  close_in_noerr s.out;
  match status with
  | Unix.WEXITED 0 -> ()
  | _ -> failwith "siri_serve did not shut down cleanly"

let kill s =
  (try Unix.kill s.pid Sys.sigkill with Unix.Unix_error _ -> ());
  (try ignore (waitpid_retry s.pid) with Unix.Unix_error _ -> ());
  close_in_noerr s.out

let connect s =
  match Client.connect ~request_timeout_s:60.0 ~addr:(`Tcp s.port) () with
  | Ok c -> c
  | Error e -> failwith ("connect: " ^ Client.error_to_string e)

let ok_or_fail what = function
  | Ok v -> v
  | Error e -> failwith (what ^ ": " ^ Client.error_to_string e)

let stats c = Stats.snapshot_of_string (ok_or_fail "stats" (Client.stats c))

(* Values this generator wrote, per key; readers accept any of them. *)
type written = { lock : Mutex.t; values : (string, string list) Hashtbl.t }

let add_written w k v =
  Mutex.lock w.lock;
  Hashtbl.replace w.values k (v :: Option.value ~default:[] (Hashtbl.find_opt w.values k));
  Mutex.unlock w.lock

let was_written w k v =
  Mutex.lock w.lock;
  let r = match Hashtbl.find_opt w.values k with Some vs -> List.mem v vs | None -> false in
  Mutex.unlock w.lock;
  r

let outcome_of_error (e : Client.error) =
  let m = Client.error_to_string e in
  match e with
  | `Overload | `Timeout | `Read_only -> Stats.Refused m
  | `Tampered _ -> Stats.Wrong m
  | `Unavailable _ | `Unknown_branch _ | `Refused _ | `Unexpected _ -> Stats.Failed m

(* One client connection's closed loop; it runs in segments (see
   [run_phase]) and keeps its state between them. *)
type worker = {
  tag : int;  (** makes the values this worker writes its own *)
  rng : Rng.t;
  verifier : Generic.t;
  mutable version : int;
  reads : Samples.t;
  commits : Samples.t;
  proofs : Samples.t;
  tally : Tally.t;
  mutable ops : int;
  mutable user_bytes : int;
  mutable keys_read : int;
  mutable proof_bytes : int;
  verify : Samples.t;
}

(* Proofs are checked against an empty index of the same kind: the
   verifier uses only the proof's nodes and the trusted root. *)
let new_verifier () = Pos.generic (Pos.empty (Store.create ~cache_bytes:0 ()) (Pos.config ()))

let new_worker ~tag ~rng =
  { tag; rng; verifier = new_verifier (); version = 0;
    reads = Samples.create (); commits = Samples.create (); proofs = Samples.create ();
    tally = Tally.create (); ops = 0; user_bytes = 0; keys_read = 0; proof_bytes = 0;
    verify = Samples.create () }

let run_worker ~ycsb ~keys ~zipf ~written ~until c w =
  let rng = w.rng and verifier = w.verifier in
  let draw () = keys.(Zipf.sample zipf rng) in
  let unexpected (k, v) =
    match v with Some v -> not (was_written written k v) | None -> true
  in
  while Common.now () < until do
    let u = Rng.int rng 100 in
    if u < 80 then begin
      let ks = List.init read_keys (fun _ -> draw ()) in
      Common.timed_op ~top:true ~tally:w.tally ~samples:w.reads "get_many"
        (fun () -> Client.get_many c ~branch:"master" ks)
        (function
          | Error e -> outcome_of_error e
          | Ok pairs when List.map fst pairs <> ks -> Stats.Wrong "get_many: answers do not match the keys"
          | Ok pairs -> (
              match List.find_opt unexpected pairs with
              | None -> Stats.Done
              | Some (k, _) -> Stats.Wrong ("get_many: unexpected value for " ^ k)));
      w.keys_read <- w.keys_read + read_keys
    end
    else if u < 95 then begin
      let ops =
        List.init commit_puts (fun _ ->
            let id = Zipf.sample zipf rng in
            w.version <- w.version + 1;
            let v = Ycsb.value ycsb ~version:((w.tag * 100_000_000) + w.version) id in
            add_written written keys.(id) v;
            w.user_bytes <- w.user_bytes + String.length keys.(id) + String.length v;
            Kv.Put (keys.(id), v))
      in
      Common.timed_op ~top:true ~tally:w.tally ~samples:w.commits "commit"
        (fun () -> Client.commit c ~branch:"master" ~message:"ycsb" ops)
        (function Ok _ -> Stats.Done | Error e -> outcome_of_error e)
    end
    else begin
      let ks = List.init read_keys (fun _ -> draw ()) in
      (* Timed: the request, decoding the proof and verifying it. *)
      Common.timed_op ~top:true ~tally:w.tally ~samples:w.proofs "prove_many"
        (fun () ->
          match Client.prove_many c ~branch:"master" ks with
          | Error e -> Error (outcome_of_error e)
          | Ok (root, encoded) -> (
              w.proof_bytes <- w.proof_bytes + String.length encoded;
              match Multiproof.decode encoded with
              | Error _ -> Error (Stats.Wrong "prove_many: proof does not decode")
              | Ok mp ->
                  let ok, dt =
                    Trace.timed ~top:true "core.verify" (fun () ->
                        verifier.Generic.verify_many ~root mp)
                  in
                  Samples.add w.verify dt;
                  Ok (ok, mp)))
        (function
          | Error outcome -> outcome
          | Ok (false, _) -> Stats.Wrong "prove_many: proof fails verification"
          | Ok (true, mp) -> (
              match
                List.find_opt (fun k -> unexpected (k, Option.join (Multiproof.find mp k))) ks
              with
              | None -> Stats.Done
              | Some k -> Stats.Wrong ("prove_many: unexpected claim for " ^ k)))
    end;
    w.ops <- w.ops + 1
  done

let run ~seed ~seconds ~traced =
  let ycsb = Ycsb.create ~seed ~n:records () in
  let keys = Array.init records (Ycsb.key ycsb) in
  let zipf = Zipf.create ~n:records ~theta in
  Common.with_scratch "serve_ycsb" @@ fun root ->
  Calib.with_calibrator @@ fun cal ->
  let current = ref None in
  let cleanup () = Option.iter kill !current; current := None in
  Fun.protect ~finally:cleanup @@ fun () ->
  let written = { lock = Mutex.create (); values = Hashtbl.create (2 * records) } in
  let setup_times = ref [] in
  for i = 1 to setups do
    Option.iter stop !current;
    current := None;
    Array.iter (fun n -> Common.rm_rf (Filename.concat root n)) (Sys.readdir root);
    Hashtbl.reset written.values;
    Calib.sample cal;
    Calib.sample cal;
    let dir = Filename.concat root (Printf.sprintf "db%d" i) in
    let t0 = Common.now () in
    let s = spawn dir in
    current := Some s;
    let c = connect s in
    let rec load lo =
      if lo < records then begin
        let hi = min records (lo + preload_batch) in
        let ops =
          List.init (hi - lo) (fun j ->
              let k, v = Ycsb.entry ycsb (lo + j) in
              add_written written k v;
              Kv.Put (k, v))
        in
        ignore (ok_or_fail "preload commit" (Client.commit c ~branch:"master" ~message:"preload" ops));
        load hi
      end
    in
    load 0;
    Client.close c;
    setup_times := (Common.now () -. t0) :: !setup_times
  done;
  let s = Option.get !current in
  (* [siri_serve] keeps every committed version in memory, so its peak
     after the timed phase grows with the commits the phase completed,
     that is with throughput.  The gated figure is the peak once the
     data set is loaded. *)
  let peak = Common.peak_rss_mb ~pid:s.pid () in
  let pack_bytes () = Common.dir_bytes (Durable.pack_dir s.dir) in
  let rng = Rng.create (Hashtbl.hash ("serve_ycsb", seed)) in
  let next_tag = ref 0 in
  let sum f ws = List.fold_left (fun a w -> a + f w) 0 ws in
  let collect f ws =
    let acc = Samples.create () in
    List.iter (fun w -> Samples.append acc (f w)) ws;
    acc
  in
  (* The workers of the untraced and the traced part of the timed phase. *)
  let plain = ref [] and traced_ws = ref [] in
  (* The phase runs in segments of [segment_s]: between two, no request
     is in flight and the host-speed reference is sampled (see
     calib.ml).  Each worker's connection and state carry over. *)
  let run_phase seconds =
    let workers =
      List.init clients (fun _ ->
          incr next_tag;
          new_worker ~tag:!next_tag ~rng:(Rng.split rng))
    in
    let conns = List.map (fun _ -> connect s) workers in
    let spent = ref 0.0 in
    while !spent < seconds do
      let t0 = Common.now () in
      let until = t0 +. Float.min segment_s (seconds -. !spent) in
      (* One domain per connection, so the generator's own runtime lock
         never delays a response. *)
      let domains =
        List.map2
          (fun w c ->
            Domain.spawn (fun () ->
                try run_worker ~ycsb ~keys ~zipf ~written ~until c w
                with e -> Tally.record w.tally (Stats.Failed (Printexc.to_string e))))
          workers conns
      in
      List.iter Domain.join domains;
      spent := !spent +. (Common.now () -. t0);
      Calib.sample cal;
      Calib.sample cal
    done;
    List.iter Client.close conns;
    if !Trace.enabled then traced_ws := workers else plain := workers;
    (!spent, sum (fun w -> w.ops) workers)
  in
  let c = connect s in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  (* On-disk growth (journal and pack) over the timed phase; server
     telemetry and pack growth over its traced part. *)
  let disk0 = Common.dir_bytes s.dir in
  let before = ref Stats.empty_snapshot and after = ref Stats.empty_snapshot in
  let pack0 = ref 0 and pack1 = ref 0 in
  let timed_s, overhead =
    Common.measure ~traced ~seconds ~phase:run_phase
      ~trace_on:(fun () ->
        before := stats c;
        pack0 := pack_bytes ())
      ~trace_off:(fun () ->
        after := stats c;
        pack1 := pack_bytes ())
  in
  let disk1 = Common.dir_bytes s.dir in
  let all = !plain @ !traced_ws in
  let tally = Tally.create () in
  List.iter (fun w -> Tally.merge tally w.tally) all;
  let layers =
    if not traced then []
    else
      let tws = !traced_ws and d = Stats.diff ~before:!before ~after:!after in
      let acked = Stats.counter d "server.commit.acked" in
      let verify = collect (fun w -> w.verify) tws in
      let ms name = 1000.0 *. Stats.histo_mean d ("server.req." ^ name) in
      (* Client-side time of the three request kinds, proof
         verification excluded, less the server-side time. *)
      let client_s =
        List.fold_left (fun a f -> a +. Samples.sum (collect f tws)) 0.0
          [ (fun w -> w.reads); (fun w -> w.commits); (fun w -> w.proofs) ]
        -. Samples.sum verify
      in
      let kinds = [ "get_many"; "commit"; "prove_many" ] in
      let server_s =
        List.fold_left (fun a k -> a +. Stats.histo_sum d ("server.req." ^ k)) 0.0 kinds
      in
      let nreq = sum (fun k -> Stats.histo_count d ("server.req." ^ k)) kinds in
      let hits = Stats.counter d "cache.node.hit" and misses = Stats.counter d "cache.node.miss" in
      [ ("server.read_ms.mean", ms "get_many");
        ("server.commit_ms.mean", ms "commit");
        ("server.proof_ms.mean", ms "prove_many");
        ("server.wire_ms.mean", 1000.0 *. Stats.fratio (client_s -. server_s) (float_of_int nreq));
        ("server.group_size.mean", Stats.histo_mean d "server.commit.group_size");
        ("wal.fsyncs_per_commit", Stats.ratio (Stats.counter d "wal.fsync") acked);
        ("wal.bytes_per_commit", Stats.ratio (Stats.counter d "wal.append_bytes") acked);
        ("pack.append_bytes_per_commit", Stats.ratio (!pack1 - !pack0) acked);
        ("store.put_bytes_per_commit", Stats.ratio (Stats.counter d "store.put_bytes") acked);
        ("pos.batch_ms.mean", 1000.0 *. Stats.histo_mean d "pos-tree.batch");
        ("pack.reads_per_lookup",
         Stats.ratio (Stats.counter d "pack.read") (sum (fun w -> w.keys_read) tws));
        ("readpath.cache_hit_ratio", Stats.ratio hits (hits + misses));
        ("core.proof_bytes", Stats.ratio (sum (fun w -> w.proof_bytes) tws) (Samples.count verify));
        ("core.verify_ms.mean",
         1000.0 *. Samples.mean verify);
        ("store.put_bytes_per_put",
         Stats.ratio (Stats.counter d "store.put_bytes") (acked * commit_puts));
        ("store.unique_put_ratio",
         Stats.ratio (Stats.counter d "store.put_unique") (Stats.counter d "store.put"));
        ("trace.overhead_ratio", overhead) ]
  in
  Printf.printf "# siri_serve peak RSS after the timed phase: %.1f MiB\n"
    (Common.peak_rss_mb ~pid:s.pid ());
  stop s;
  current := None;
  let roles =
    [ ("read", collect (fun w -> w.reads) all);
      ("commit", collect (fun w -> w.commits) all);
      ("proof", collect (fun w -> w.proofs) all) ]
  in
  { Common.setup_s = List.rev !setup_times;
    timed_s;
    ops = sum (fun w -> w.ops) all;
    calib = Some cal;
    roles;
    bytes_per_user_byte = Stats.ratio (disk1 - disk0) (sum (fun w -> w.user_bytes) all);
    peak_rss_mb = peak;
    reopen_s = None;
    tally;
    layers;
    bypasses;
    flush_policy = "siri_serve --sync true: one journal fsync per group commit" }
