(* wiki_history: the paper's comparison, merge and dedup operations on an
   in-memory engine.

   The timed phase runs passes until the time is up.  A pass sets up a
   POS-Tree engine holding [pages] Wiki-shaped pages (the node cache has
   its default budget, which holds the data), then runs [rounds] rounds:
   fork [branches] branches from master, commit [versions] versions of
   [edits] page edits on each, diff every branch against master and merge
   each back with a resolving policy.  Every pass of a run does the same
   work, so no run's figures depend on how many passes fit in it.  No
   wire, journal, pack or cache miss is involved: the time goes to index
   batches (chunking, encoding, hashing), tree diff and merge.

   Correctness: every diff's size and master's contents after every pass
   are checked against a model kept here; on [default_seed] master's root
   after a pass must equal [expected_root]. *)

open Siri_core
module Hash = Siri_crypto.Hash
module Store = Siri_store.Store
module Node_cache = Siri_readpath.Node_cache
module Engine = Siri_forkbase.Engine
module Telemetry = Siri_telemetry.Telemetry
module Wiki = Siri_workload.Wiki
module Pos = Siri_pos.Pos_tree
module Samples = Stats.Samples
module Tally = Stats.Tally

let pages = 20_000
let rounds = 5
let branches = 4
let versions = 5
let edits = 200
let setups = 10
let default_seed = 1

(* Per-layer metrics of layers this in-memory workload does not pass
   through: the server, the journal, the pack, the MPT and proofs. *)
let bypasses =
  [ "server.read_ms.mean"; "server.commit_ms.mean"; "server.proof_ms.mean";
    "server.wire_ms.mean"; "server.group_size.mean"; "wal.fsyncs_per_commit";
    "wal.bytes_per_commit"; "pack.append_bytes_per_commit"; "wal.replayed_records";
    "pack.reads_per_lookup"; "pack.read_us.mean"; "pack.read_bytes_per_lookup";
    "crypto.hash_bytes_per_lookup"; "readpath.evictions_per_lookup";
    "readpath.filter_skip_ratio"; "mpt.nodes_per_lookup"; "mpt.walk_us.mean";
    "core.proof_bytes"; "core.verify_ms.mean" ]

(* Master's root after a pass on [default_seed]. *)
let expected_root = "2c59af6583dea402d7b4d066a13150eef8fbf3b82c1a4c68e167932e3f7551ad"

(* Conflicting edits (both sides changed a page since the fork) keep the
   larger value: order-independent, so the model needs no merge order. *)
let resolve _key l r = if String.compare l r >= 0 then l else r

let fresh_engine () =
  let store = Store.create ~cache_bytes:Node_cache.default_budget () in
  Engine.create ~empty_index:(Pos.generic (Pos.empty store (Pos.config ())))

let run ~seed ~seconds ~traced =
  let wiki = Wiki.create ~seed ~pages () in
  let dataset = Wiki.dataset wiki in
  Calib.with_calibrator @@ fun cal ->
  let setup_times = ref [] in
  let setup () =
    Gc.full_major ();
    Calib.sample cal;
    Calib.sample cal;
    let t0 = Common.now () in
    let e = fresh_engine () in
    ignore (Engine.commit_bulk e ~branch:"master" ~message:"load" dataset : Engine.commit);
    setup_times := (Common.now () -. t0) :: !setup_times;
    e
  in
  (* Extra set-ups before the first pass, so that even a run of one pass
     sets up [setups] times. *)
  for _ = 2 to setups do
    ignore (setup () : Engine.t)
  done;
  let tally = Tally.create () in
  let commit_s = Samples.create ()
  and diff_s = Samples.create ()
  and merge_s = Samples.create () in
  let user_bytes = ref 0 and stored = ref 0 in
  let ops = ref 0 in
  (* Between operations, a host-speed sample when one is due. *)
  let next_op () =
    incr ops;
    Calib.tick cal
  in
  let sink = ref Telemetry.null in
  (* The store of the pass in progress, for the traced-run meter; idle
     between passes so a finished pass's engine can be collected. *)
  let idle = Store.create () in
  let store = ref idle in
  let counter name () = float_of_int (Telemetry.counter !sink name) in
  let cache f () = float_of_int (f (Store.cache !store)) in
  let stats f () = float_of_int (f (Store.stats !store)) in
  let meter =
    Common.Meter.create
      [ ("hash.bytes", counter "hash.bytes");
        ("hash.count", counter "hash.count");
        ("store.put", stats (fun s -> s.Store.puts));
        ("store.put_bytes", stats (fun s -> s.Store.put_bytes));
        ("store.unique", stats (fun s -> s.Store.unique_nodes));
        ("store.get", stats (fun s -> s.Store.gets));
        ("cache.hit", cache Node_cache.hits);
        ("cache.miss", cache Node_cache.misses) ]
  in
  (* One pass: a fresh engine, [rounds] rounds, then the state checks. *)
  let one_pass () =
    let e = setup () in
    store := Engine.store e;
    if !Trace.enabled then Store.set_sink !store !sink;
    let stored0 = (Store.stats !store).Store.stored_bytes in
    (* The model: master's contents. *)
    let master : (string, string) Hashtbl.t = Hashtbl.create (2 * pages) in
    List.iter (fun (k, v) -> Hashtbl.replace master k v) dataset;
    let t0 = Common.now () and spent0 = cal.Calib.spent in
    for round = 0 to rounds - 1 do
      let base = Hashtbl.copy master in
      let value_in tbl k =
        match Hashtbl.find_opt tbl k with Some v -> v | None -> Hashtbl.find base k
      in
      let branch_edits =
        List.init branches (fun b ->
            let name = Printf.sprintf "r%d-b%d" round b in
            Engine.fork e ~from:"master" name;
            let rng = Rng.create (Hashtbl.hash (seed, round, b)) in
            let edited : (string, string) Hashtbl.t = Hashtbl.create (2 * edits * versions) in
            for v = 0 to versions - 1 do
              let revision = 1 + (((round * branches) + b) * versions) + v in
              let batch =
                List.init edits (fun _ ->
                    let id = Rng.int rng pages in
                    let k = Wiki.key wiki id and value = Wiki.value wiki ~revision id in
                    user_bytes := !user_bytes + String.length k + String.length value;
                    Kv.Put (k, value))
              in
              Common.timed_op ~tally ~samples:commit_s "commit"
                (fun () ->
                  Common.Meter.around meter "commit" (fun () ->
                      Engine.commit e ~branch:name ~message:"edit" batch))
                (fun _ -> Stats.Done);
              List.iter
                (function Kv.Put (k, v) -> Hashtbl.replace edited k v | Kv.Del _ -> ())
                batch;
              next_op ()
            done;
            (name, edited))
      in
      List.iter
        (fun (name, edited) ->
          let expected =
            Hashtbl.fold (fun k v n -> if v <> Hashtbl.find base k then n + 1 else n) edited 0
          in
          Common.timed_op ~tally ~samples:diff_s "diff"
            (fun () ->
              Common.Meter.around meter "diff" (fun () -> Engine.diff_branches e name "master"))
            (fun d ->
              if List.length d = expected then Stats.Done
              else
                Stats.Wrong
                  (Printf.sprintf "diff %s: %d entries, model says %d" name
                     (List.length d) expected));
          next_op ())
        branch_edits;
      let merged : (string, string) Hashtbl.t = Hashtbl.create 1024 in
      List.iter
        (fun (name, edited) ->
          Common.timed_op ~tally ~samples:merge_s "merge"
            (fun () ->
              Common.Meter.around meter "merge" (fun () ->
                  Engine.merge_branches e ~into:"master" ~from:name ~policy:(Kv.Resolve resolve)))
            (function
              | Error cs ->
                  Stats.Failed (Printf.sprintf "merge %s: %d conflicts" name (List.length cs))
              | Ok _ ->
                  Hashtbl.iter
                    (fun k rv ->
                      let bv = Hashtbl.find base k in
                      let lv = value_in merged k in
                      if rv <> bv then
                        if lv = bv then Hashtbl.replace merged k rv
                        else if lv <> rv then Hashtbl.replace merged k (resolve k lv rv))
                    edited;
                  Stats.Done);
          next_op ())
        branch_edits;
      Hashtbl.iter (fun k v -> Hashtbl.replace master k v) merged
    done;
    let dt = Common.now () -. t0 -. (cal.Calib.spent -. spent0) in
    stored := !stored + (Store.stats !store).Store.stored_bytes - stored0;
    if seed = default_seed then begin
      let got = Hash.to_hex (Engine.head e "master").Engine.index_root in
      Tally.check tally (got = expected_root)
        (Printf.sprintf "master root after a pass is %s, expected %s" got expected_root)
    end;
    let got = (Engine.index e "master").Generic.to_list () in
    let want = List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) master []) in
    Tally.check tally (got = want) "master contents after a pass differ from the model";
    store := idle;
    dt
  in
  (* Passes run until their summed time reaches [seconds]; at least one. *)
  let run_phase seconds =
    let n0 = !ops and spent = ref 0.0 in
    while !spent = 0.0 || !spent < seconds do
      spent := !spent +. one_pass ()
    done;
    (!spent, !ops - n0)
  in
  let gc0 = Common.gc_mark () in
  let timed_s, overhead =
    Common.measure ~traced ~seconds ~phase:run_phase
      ~trace_on:(fun () ->
        sink := Telemetry.create ~clock:Unix.gettimeofday ();
        Telemetry.attach_hash_counter !sink)
      ~trace_off:Telemetry.detach_hash_counter
  in
  let nops = !ops in
  let layers =
    if not traced then []
    else
      let total = Common.Meter.total meter and per_call = Common.Meter.per_call meter in
      let puts = float_of_int (Common.Meter.calls meter [ "commit" ] * edits) in
      let all = [ "commit"; "diff"; "merge" ] in
      let hits = total all "cache.hit" and misses = total all "cache.miss" in
      [ ("pos.batch_ms.mean",
         1000.0
         *. Option.fold ~none:0.0 ~some:Telemetry.Histo.mean
              (Telemetry.histogram !sink "pos-tree.batch"));
        ("store.put_bytes_per_commit", per_call [ "commit" ] "store.put_bytes");
        ("crypto.hash_bytes_per_put", Stats.fratio (total [ "commit" ] "hash.bytes") puts);
        ("crypto.digests_per_commit", per_call [ "commit" ] "hash.count");
        ("store.put_bytes_per_put", Stats.fratio (total [ "commit" ] "store.put_bytes") puts);
        ("store.unique_put_ratio",
         Stats.fratio (total [ "commit" ] "store.unique") (total [ "commit" ] "store.put"));
        ("store.gets_per_diff", per_call [ "diff" ] "store.get");
        ("readpath.cache_hit_ratio", Stats.fratio hits (hits +. misses));
        ("trace.overhead_ratio", overhead) ]
      @ Common.gc_layers ~ops:nops gc0
  in
  { Common.setup_s = List.rev !setup_times;
    timed_s;
    ops = nops;
    calib = Some cal;
    roles = [ ("commit", commit_s); ("diff", diff_s); ("merge", merge_s) ];
    bytes_per_user_byte = Stats.ratio !stored !user_bytes;
    peak_rss_mb = Common.peak_rss_mb ();
    reopen_s = None;
    tally;
    layers;
    bypasses;
    flush_policy = "none (in-memory engine)" }
