(* Sharded keyspace engine: routing, composite binding, the
   sharded ⇔ unsharded differential oracle, a zero-acceptance storm on
   tampered two-layer proofs, top-journal truncation recovery, and a
   SIGKILL harness asserting the all-or-clamped invariant — a crash
   anywhere inside the multi-shard commit fan-out recovers every shard
   to the same published global prefix, never a mix of generations. *)

open Siri_core
module Store = Siri_store.Store
module Hash = Siri_crypto.Hash
module Partition = Siri_shard.Partition
module Composite = Siri_shard.Composite
module Views = Siri_shard.Views
module Shard_proof = Siri_shard.Shard_proof
module Sharded = Siri_shard.Sharded
module Wal = Siri_wal.Wal
module Durable = Siri_wal.Durable
module Server = Siri_server.Server
module Client = Siri_server.Client
module Pos = Siri_pos.Pos_tree

let mk_empty () =
  Pos.generic (Pos.empty (Store.create ()) (Pos.config ~leaf_target:64 ()))

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
      (Printf.sprintf "siri-shard-%d-%s-%d" (Unix.getpid ()) name !dir_counter)
  in
  rm_rf d;
  d

let with_dir name f =
  let d = fresh_dir name in
  Fun.protect ~finally:(fun () -> rm_rf d) (fun () -> f d)

let rec cp_r src dst =
  if Sys.is_directory src then begin
    Unix.mkdir dst 0o755;
    Array.iter
      (fun n -> cp_r (Filename.concat src n) (Filename.concat dst n))
      (Sys.readdir src)
  end
  else
    let bytes = In_channel.with_open_bin src In_channel.input_all in
    Out_channel.with_open_bin dst (fun oc -> Out_channel.output_string oc bytes)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path bytes =
  let oc = open_out_bin path in
  output_string oc bytes;
  close_out oc

let open_exn ?sync ?(runner = `Inline) ?spec ~dir () =
  match Sharded.open_ ?sync ~runner ?spec ~dir ~empty_index:mk_empty () with
  | Ok t -> t
  | Error e -> Alcotest.failf "Sharded.open_: %a" Wal.pp_error e

let spec_of n = Partition.make Partition.Hash ~shards:n

(* In-memory per-shard views from an entry list, mirroring what the
   engine materializes — the oracle side of the proof tests. *)
let views_of spec entries =
  let buckets = Array.make spec.Partition.shards [] in
  List.iter
    (fun ((k, _) as e) ->
      let i = Partition.shard_of_key spec k in
      buckets.(i) <- e :: buckets.(i))
    entries;
  Array.map (fun part -> Generic.of_entries (mk_empty ()) (List.rev part)) buckets

(* --- partition routing ------------------------------------------------------ *)

(* Regression pin for the FNV sign bug: [Int64.to_int] of a 64-bit hash
   keeps bit 62, so masking before the truncation left half of all keys
   with a negative native hash and an out-of-range shard.  High-byte
   keys trip it reliably. *)
let test_partition_in_range () =
  let keys =
    List.init 400 (fun i -> Printf.sprintf "key-%d-%c" i (Char.chr (i mod 256)))
    @ [ "\xff\xff\xff"; "\x80"; ""; "a"; String.make 40 '\xfe' ]
  in
  List.iter
    (fun scheme ->
      List.iter
        (fun shards ->
          let spec = Partition.make scheme ~shards in
          List.iter
            (fun k ->
              let i = Partition.shard_of_key spec k in
              if i < 0 || i >= shards then
                Alcotest.failf "shard_of_key %S = %d not in [0,%d)" k i shards)
            keys)
        [ 1; 2; 3; 4; 7; 8; 64 ])
    [ Partition.Hash; Partition.Range ]

let test_partition_split () =
  let spec = spec_of 4 in
  let keys = List.init 100 (fun i -> Printf.sprintf "split-%d" i) in
  let groups = Partition.split_keys spec keys in
  (* ascending, non-empty, in range *)
  let rec ascending = function
    | (i, ks) :: ((j, _) :: _ as rest) ->
        i < j && ks <> [] && i >= 0 && i < 4 && ascending rest
    | [ (i, ks) ] -> ks <> [] && i >= 0 && i < 4
    | [] -> true
  in
  Alcotest.(check bool) "groups ascending + bounded" true (ascending groups);
  (* exactly a permutation grouping: every key lands in the group its
     routing says, and nothing is lost or duplicated *)
  List.iter
    (fun (i, ks) ->
      List.iter
        (fun k ->
          Alcotest.(check int) ("routes " ^ k) i (Partition.shard_of_key spec k))
        ks)
    groups;
  let flat = List.concat_map snd groups in
  Alcotest.(check int) "no key lost" (List.length keys) (List.length flat);
  Alcotest.(check (list string))
    "order preserved inside each group"
    (List.filter (fun k -> Partition.shard_of_key spec k = 0) keys)
    (match List.assoc_opt 0 groups with Some ks -> ks | None -> [])

let test_partition_manifest_roundtrip () =
  List.iter
    (fun spec ->
      match Partition.of_string (Partition.to_string spec) with
      | Ok spec' ->
          Alcotest.(check string)
            "roundtrip" (Partition.to_string spec) (Partition.to_string spec')
      | Error e -> Alcotest.failf "of_string(to_string): %s" e)
    [ spec_of 1; spec_of 64; Partition.make Partition.Range ~shards:8 ];
  List.iter
    (fun s ->
      match Partition.of_string s with
      | Ok _ -> Alcotest.failf "accepted bad spec %S" s
      | Error _ -> ())
    [ "hash:0"; "hash:65"; "pony:4"; "hash"; "hash:4:4"; "hash:x" ]

let qcheck_partition_total =
  QCheck.Test.make ~count:300 ~name:"shard_of_key total and in range"
    QCheck.(pair string (int_range 1 Partition.max_shards))
    (fun (key, shards) ->
      let ih = Partition.shard_of_key (Partition.make Hash ~shards) key in
      let ir = Partition.shard_of_key (Partition.make Range ~shards) key in
      ih >= 0 && ih < shards && ir >= 0 && ir < shards)

(* --- composite binding ------------------------------------------------------ *)

let test_composite_binding () =
  let r i = Hash.of_string (Printf.sprintf "root-%d" i) in
  let roots n = Array.init n r in
  let c4 = Composite.root (spec_of 4) (roots 4) in
  (* deterministic *)
  Alcotest.(check bool)
    "deterministic" true
    (Hash.equal c4 (Composite.root (spec_of 4) (roots 4)));
  (* binds the scheme *)
  Alcotest.(check bool)
    "scheme bound" false
    (Hash.equal c4 (Composite.root (Partition.make Range ~shards:4) (roots 4)));
  (* binds each root's position *)
  let swapped = roots 4 in
  let t = swapped.(0) in
  swapped.(0) <- swapped.(1);
  swapped.(1) <- t;
  Alcotest.(check bool)
    "position bound" false
    (Hash.equal c4 (Composite.root (spec_of 4) swapped));
  (* N=1 is not the raw shard root, and widths never collide *)
  let c1 = Composite.root (spec_of 1) (roots 1) in
  Alcotest.(check bool) "1-shard /= raw root" false (Hash.equal c1 (r 0));
  Alcotest.(check bool)
    "width bound" false
    (Hash.equal
       (Composite.root (spec_of 8) (roots 8))
       (Composite.root (spec_of 4) (roots 4)));
  (* wrong vector length refused *)
  Alcotest.check_raises "length mismatch"
    (Invalid_argument "Composite.root: 3 roots for 4 shards") (fun () ->
      ignore (Composite.root (spec_of 4) (roots 3)))

(* --- differential oracle: sharded == unsharded ------------------------------ *)

let key_universe = Array.init 30 (fun i -> Printf.sprintf "uk-%02d" i)

let gen_batches =
  QCheck.Gen.(
    list_size (int_range 1 6)
      (list_size (int_range 1 8)
         (map2
            (fun k put ->
              let key = key_universe.(k mod Array.length key_universe) in
              match put with
              | None -> Kv.Del key
              | Some v -> Kv.Put (key, "v" ^ string_of_int v))
            (int_bound 100)
            (option (int_bound 50)))))

let qcheck_differential =
  QCheck.Test.make ~count:12
    ~name:"sharded == flat: get_many, prove/verify, runner-identical composite"
    (QCheck.make gen_batches)
    (fun batches ->
      let shards = 1 + (Hashtbl.hash batches mod 4) in
      let spec = spec_of shards in
      (* flat oracle *)
      let flat =
        List.fold_left (fun inst ops -> inst.Generic.batch ops) (mk_empty ())
          batches
      in
      let commit_all t =
        List.iter
          (fun ops ->
            ignore (Sharded.commit t ~branch:"master" ~message:"diff" ops))
          batches;
        let h = Sharded.head t ~branch:"master" in
        (h, t)
      in
      let keys = Array.to_list key_universe @ [ "absent-1"; "absent-2" ] in
      with_dir "diff-inline" @@ fun d1 ->
      with_dir "diff-pool" @@ fun d2 ->
      let h1, t1 = commit_all (open_exn ~runner:`Inline ~spec ~dir:d1 ()) in
      let h2, t2 = commit_all (open_exn ~runner:`Pool ~spec ~dir:d2 ()) in
      (* 1. reads agree with the flat oracle, key by key *)
      let got = Sharded.get_many t1 ~branch:"master" keys in
      let reads_ok =
        List.for_all
          (fun (k, v) -> v = Generic.get flat k)
          got
        && List.length got = List.length keys
      in
      (* 2. proof claims agree with the flat multiproof's claims *)
      let sp = Sharded.prove_many t1 ~branch:"master" keys in
      let flat_mp = Generic.prove_many flat keys in
      let sort = List.sort compare in
      let claims_ok =
        sort (Shard_proof.claims sp) = sort flat_mp.Multiproof.claims
      in
      (* 3. the proof verifies against the engine's composite *)
      let verify_ok =
        Shard_proof.verify ~verifier:(mk_empty ()) ~composite:h1.Sharded.composite
          sp
      in
      (* 4. fan-out scheduling never leaks into the root *)
      let runner_ok = Hash.equal h1.Sharded.composite h2.Sharded.composite in
      Sharded.close t1;
      Sharded.close t2;
      reads_ok && claims_ok && verify_ok && runner_ok)

(* --- zero-acceptance storm on tampered proofs -------------------------------- *)

let storm_entries =
  List.init 200 (fun i -> (Printf.sprintf "storm-%03d" i, Printf.sprintf "sv%d" i))

let test_proof_storm () =
  let spec = spec_of 4 in
  let views = views_of spec storm_entries in
  let composite = Views.composite spec views in
  let verifier = mk_empty () in
  let keys = [ "storm-000"; "storm-077"; "storm-199"; "nope-1"; "nope-2" ] in
  let sp = Shard_proof.prove ~views spec keys in
  Alcotest.(check bool) "honest proof verifies" true
    (Shard_proof.verify ~verifier ~composite sp);
  let refuse what sp' =
    if Shard_proof.verify ~verifier ~composite sp' then
      Alcotest.failf "ACCEPTED tampered proof: %s" what
  in
  (* forged composite *)
  if
    Shard_proof.verify ~verifier
      ~composite:(Hash.of_string "not the composite") sp
  then Alcotest.fail "ACCEPTED against forged composite";
  (* a flipped root in the top vector *)
  let roots' = Array.copy sp.Shard_proof.roots in
  roots'.(2) <- Hash.of_string "evil";
  refuse "flipped shard root" { sp with Shard_proof.roots = roots' };
  (* spec swap: same roots, different routing *)
  refuse "swapped scheme"
    { sp with Shard_proof.spec = Partition.make Range ~shards:4 };
  (* a part replayed at another shard index *)
  (match sp.Shard_proof.parts with
  | (i, mp) :: rest ->
      let j = (i + 1) mod 4 in
      refuse "part moved to another shard"
        { sp with Shard_proof.parts = List.sort compare ((j, mp) :: rest) }
  | [] -> Alcotest.fail "no parts");
  (* every part's multiproof tampered in turn *)
  List.iter
    (fun (i, _mp) ->
      let parts' =
        List.map
          (fun (i', mp') -> if i' = i then (i', Multiproof.tamper mp') else (i', mp'))
          sp.Shard_proof.parts
      in
      refuse
        (Printf.sprintf "tampered multiproof in part %d" i)
        { sp with Shard_proof.parts = parts' })
    sp.Shard_proof.parts;
  (* the relocation attack the routing check exists for: prove a key
     absent against a shard that simply does not hold it *)
  let victim = "storm-042" in
  let home = Partition.shard_of_key spec victim in
  let away = (home + 1) mod 4 in
  let away_mp = Generic.prove_many views.(away) [ victim ] in
  Alcotest.(check bool)
    "victim is absent on the away shard" true
    (Multiproof.find away_mp victim = Some None);
  refuse "absence claim relocated to another shard"
    { sp with Shard_proof.parts = [ (away, away_mp) ] }

(* Bit flips over the encoded wire form: every flip must be refused at
   decode, or decode to a proof the verifier refuses — never accepted. *)
let test_proof_wire_flips () =
  let spec = spec_of 3 in
  let views = views_of spec storm_entries in
  let composite = Views.composite spec views in
  let verifier = mk_empty () in
  let sp = Shard_proof.prove ~views spec [ "storm-010"; "storm-111"; "gone" ] in
  let blob = Shard_proof.encode sp in
  (match Shard_proof.decode blob with
  | Ok sp' ->
      Alcotest.(check bool) "roundtrip verifies" true
        (Shard_proof.verify ~verifier ~composite sp')
  | Error _ -> Alcotest.fail "roundtrip decode failed");
  let n = String.length blob in
  let step = max 1 (n / 251) in
  let offset = ref 0 in
  while !offset < n do
    let b = Bytes.of_string blob in
    Bytes.set b !offset (Char.chr (Char.code (Bytes.get b !offset) lxor 0x41));
    (match Shard_proof.decode (Bytes.to_string b) with
    | Error (`Tampered _ | `Malformed _) -> ()
    | Ok sp' ->
        if Shard_proof.verify ~verifier ~composite sp' then
          Alcotest.failf "ACCEPTED flipped byte at offset %d" !offset);
    offset := !offset + step
  done

(* --- recovery: top-journal truncation + all-or-clamped ----------------------- *)

(* Keys chosen so every commit fans out across several shards. *)
let spread_ops seq =
  List.init 6 (fun i ->
      Kv.Put (Printf.sprintf "c%d-%d" seq i, Printf.sprintf "val%d.%d" seq i))

let check_prefix ~shards dir expect_commits =
  let t = open_exn ~spec:(spec_of shards) ~dir () in
  let s = Sharded.last_seq t in
  if s < 0 || s > expect_commits then
    Alcotest.failf "recovered last_seq %d outside [0,%d]" s expect_commits;
  (* all-or-clamped: exactly the keys of commits <= s, none beyond *)
  for seq = 1 to expect_commits do
    List.iter
      (fun op ->
        match op with
        | Kv.Put (k, v) -> (
            match Sharded.get t ~branch:"master" k with
            | Some v' when seq <= s && v' = v -> ()
            | None when seq > s -> ()
            | Some _ when seq > s ->
                Alcotest.failf "seq %d leaked past recovered prefix %d" seq s
            | None -> Alcotest.failf "seq %d lost inside recovered prefix %d" seq s
            | Some v' -> Alcotest.failf "key %s has wrong value %S" k v')
        | Kv.Del _ -> ())
      (spread_ops seq)
  done;
  Sharded.close t;
  s

let test_top_truncation () =
  let shards = 3 and commits = 4 in
  with_dir "trunc-src" @@ fun src ->
  let t = open_exn ~sync:false ~spec:(spec_of shards) ~dir:src () in
  for seq = 1 to commits do
    ignore (Sharded.commit t ~branch:"master" ~message:"t" (spread_ops seq))
  done;
  Sharded.close t;
  let top = Filename.concat src "top" in
  let bytes = read_file top in
  let seen = Hashtbl.create 8 in
  for cut = 0 to String.length bytes do
    with_dir "trunc-cut" @@ fun dst ->
    rm_rf dst;
    cp_r src dst;
    write_file (Filename.concat dst "top") (String.sub bytes 0 cut);
    match Sharded.open_ ~spec:(spec_of shards) ~dir:dst ~empty_index:mk_empty () with
    | Error (`Tampered _ | `Malformed _) ->
        (* a cut that leaves a corrupt-looking prefix may be refused, but
           must never be accepted with mixed state *)
        ()
    | Ok t ->
        Sharded.close t;
        let s = check_prefix ~shards dst commits in
        Hashtbl.replace seen s ()
  done;
  (* the sweep must actually exercise intermediate prefixes *)
  Alcotest.(check bool)
    "several distinct prefixes recovered" true
    (Hashtbl.length seen >= 3)

let test_unpublished_rollback () =
  let shards = 3 in
  with_dir "rollback" @@ fun src ->
  let t = open_exn ~sync:false ~spec:(spec_of shards) ~dir:src () in
  ignore (Sharded.commit t ~branch:"master" ~message:"1" (spread_ops 1));
  ignore (Sharded.commit t ~branch:"master" ~message:"2" (spread_ops 2));
  Sharded.close t;
  let t = open_exn ~sync:false ~spec:(spec_of shards) ~dir:src () in
  let head2 = Sharded.head t ~branch:"master" in
  let top2 = String.length (read_file (Filename.concat src "top")) in
  ignore (Sharded.commit t ~branch:"master" ~message:"3" (spread_ops 3));
  Sharded.close t;
  (* drop the publication of commit 3: its shard-journal records are now
     unpublished and must roll back on reopen *)
  let bytes = read_file (Filename.concat src "top") in
  write_file (Filename.concat src "top") (String.sub bytes 0 top2);
  let t = open_exn ~spec:(spec_of shards) ~dir:src () in
  let r = Sharded.recovery t in
  Alcotest.(check int) "recovered to seq 2" 2 r.Sharded.last_seq;
  Alcotest.(check bool) "unpublished records rolled back" true (r.Sharded.capped > 0);
  Alcotest.(check bool)
    "composite equals the published head" true
    (Hash.equal (Sharded.head t ~branch:"master").Sharded.composite
       head2.Sharded.composite);
  List.iter
    (fun op ->
      match op with
      | Kv.Put (k, _) ->
          Alcotest.(check (option string))
            (k ^ " rolled back") None
            (Sharded.get t ~branch:"master" k)
      | Kv.Del _ -> ())
    (spread_ops 3);
  Sharded.close t

let test_composite_mismatch_refused () =
  let shards = 2 in
  with_dir "mismatch" @@ fun dir ->
  let t = open_exn ~sync:false ~spec:(spec_of shards) ~dir () in
  for seq = 1 to 3 do
    ignore (Sharded.commit t ~branch:"master" ~message:"m" (spread_ops seq))
  done;
  Sharded.close t;
  (* swap the two shard directories: both replay cleanly to the same
     seqs, but the composite the top journal published no longer matches
     the recomputed one *)
  let s0 = Filename.concat dir "shard.0" and s1 = Filename.concat dir "shard.1" in
  let tmp = Filename.concat dir "shard.tmp" in
  Sys.rename s0 tmp;
  Sys.rename s1 s0;
  Sys.rename tmp s1;
  match Sharded.open_ ~spec:(spec_of shards) ~dir ~empty_index:mk_empty () with
  | Error (`Malformed msg) ->
      Alcotest.(check bool)
        "names the composite mismatch" true
        (Astring.String.is_infix ~affix:"composite" msg)
  | Error e -> Alcotest.failf "unexpected error: %a" Wal.pp_error e
  | Ok _ -> Alcotest.fail "ACCEPTED a directory with swapped shards"

let test_spec_pinned () =
  with_dir "pin" @@ fun dir ->
  let t = open_exn ~spec:(spec_of 4) ~dir () in
  ignore (Sharded.commit t ~branch:"master" ~message:"p" (spread_ops 1));
  Sharded.close t;
  (* reopen without a spec: the manifest wins *)
  let t = open_exn ~dir () in
  Alcotest.(check string) "manifest spec" "hash:4"
    (Partition.to_string (Sharded.spec t));
  Sharded.close t;
  (* a contradicting explicit spec is refused *)
  match Sharded.open_ ~spec:(spec_of 8) ~dir ~empty_index:mk_empty () with
  | Error (`Malformed _) -> ()
  | Error e -> Alcotest.failf "unexpected error: %a" Wal.pp_error e
  | Ok _ -> Alcotest.fail "ACCEPTED a contradicting shard count"

(* --- SIGKILL: crash mid-multi-shard-commit ----------------------------------- *)

let crash_rounds () =
  match Option.bind (Sys.getenv_opt "SIRI_SHARD_ROUNDS") int_of_string_opt with
  | Some n -> max 1 n
  | None -> 6

(* The killed process: commit forever with fsync on, recording each ack
   durably before issuing the next commit. *)
let commit_forever ~shards ~dir ~acked_path =
  let t = open_exn ~sync:true ~spec:(spec_of shards) ~dir () in
  let fd =
    Unix.openfile acked_path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  in
  Kill_child.ready ();
  let seq = ref 0 in
  while true do
    incr seq;
    ignore (Sharded.commit t ~branch:"master" ~message:"kill" (spread_ops !seq));
    let line = Printf.sprintf "%d\n" !seq in
    ignore (Unix.write_substring fd line 0 (String.length line));
    Unix.fsync fd
  done

let test_sigkill_storm () =
  let shards = 4 in
  let rounds = crash_rounds () in
  let rng = Rng.create 20260806 in
  for round = 1 to rounds do
    with_dir (Printf.sprintf "kill-%d" round) @@ fun dir ->
    let acked_path = Filename.concat (Filename.dirname dir) (Filename.basename dir ^ ".acked") in
    let pid = Kill_child.spawn [ "commit"; string_of_int shards; dir; acked_path ] in
    (* let some commits land, then kill at a seeded point *)
    Unix.sleepf (0.02 +. (Rng.float rng *. 0.15));
    Kill_child.kill pid;
    let acked =
      if Sys.file_exists acked_path then
        read_file acked_path |> String.split_on_char '\n'
        |> List.filter_map int_of_string_opt
        |> List.fold_left max 0
      else 0
    in
    Sys.remove acked_path;
    (* recovery: open must succeed (never a composite mismatch), land on a
       prefix that covers every acked commit, and expose all-or-nothing
       state per commit *)
    let t = open_exn ~spec:(spec_of shards) ~dir () in
    let s = Sharded.last_seq t in
    if s < acked then
      Alcotest.failf "round %d: ACKED COMMIT LOST (acked %d, recovered %d)"
        round acked s;
    Sharded.close t;
    ignore (check_prefix ~shards dir (s + 1))
  done

(* --- sharded server end to end ----------------------------------------------- *)

let test_server_sharded () =
  with_dir "serve" @@ fun dir ->
  Unix.mkdir dir 0o755;
  let data = Filename.concat dir "d" and sock = Filename.concat dir "s" in
  let sharded =
    open_exn ~sync:false ~runner:`Threads ~spec:(spec_of 2) ~dir:data ()
  in
  let server = Server.start_sharded ~sharded ~listen:[ `Unix sock ] () in
  Fun.protect
    ~finally:(fun () -> Server.stop server)
    (fun () ->
      match Client.connect ~addr:(`Unix sock) () with
      | Error e -> Alcotest.failf "connect: %s" (Client.error_to_string e)
      | Ok c ->
          let ops = spread_ops 1 in
          (match Client.commit c ~branch:"master" ~message:"s" ops with
          | Error e -> Alcotest.failf "commit: %s" (Client.error_to_string e)
          | Ok (id, version, _) ->
              Alcotest.(check int) "seq as version" 1 version;
              (* the commit id the server answers is the composite *)
              (match Client.head c ~branch:"master" with
              | Ok (id', root, _) ->
                  Alcotest.(check bool) "head id = commit id" true
                    (Hash.equal id id');
                  Alcotest.(check bool) "head root = composite" true
                    (Hash.equal root id')
              | Error e -> Alcotest.failf "head: %s" (Client.error_to_string e)));
          let keys =
            List.filter_map
              (function Kv.Put (k, _) -> Some k | Kv.Del _ -> None)
              ops
          in
          (match Client.prove_many c ~branch:"master" ("ghost" :: keys) with
          | Error e -> Alcotest.failf "prove: %s" (Client.error_to_string e)
          | Ok (root, blob) -> (
              Alcotest.(check bool) "sharded wire form" true
                (Shard_proof.is_encoded blob);
              match Shard_proof.decode blob with
              | Error (`Malformed m | `Tampered m) ->
                  Alcotest.failf "decode: %s" m
              | Ok sp ->
                  Alcotest.(check bool) "verifies against served root" true
                    (Shard_proof.verify ~verifier:(mk_empty ()) ~composite:root
                       sp);
                  Alcotest.(check int) "all claims answered"
                    (List.length keys + 1)
                    (List.length (Shard_proof.claims sp))));
          Client.close c)

let () =
  Kill_child.dispatch (function
    | [ "commit"; shards; dir; acked_path ] ->
        commit_forever ~shards:(int_of_string shards) ~dir ~acked_path
    | _ -> exit 2);
  let qcheck = QCheck_alcotest.to_alcotest in
  Alcotest.run "shard"
    [ ( "partition",
        [ Alcotest.test_case "routing in range (sign regression)" `Quick
            test_partition_in_range;
          Alcotest.test_case "split_keys grouping" `Quick test_partition_split;
          Alcotest.test_case "manifest roundtrip + rejects" `Quick
            test_partition_manifest_roundtrip;
          qcheck qcheck_partition_total ] );
      ( "composite",
        [ Alcotest.test_case "binds scheme, width, position" `Quick
            test_composite_binding ] );
      ("differential", [ qcheck qcheck_differential ]);
      ( "adversarial",
        [ Alcotest.test_case "zero acceptance: structural tampers" `Quick
            test_proof_storm;
          Alcotest.test_case "zero acceptance: wire flips" `Quick
            test_proof_wire_flips ] );
      ( "recovery",
        [ Alcotest.test_case "top journal truncated at every offset" `Slow
            test_top_truncation;
          Alcotest.test_case "unpublished shard records roll back" `Quick
            test_unpublished_rollback;
          Alcotest.test_case "composite mismatch refused" `Quick
            test_composite_mismatch_refused;
          Alcotest.test_case "manifest spec pinned" `Quick test_spec_pinned ] );
      ( "crash-kill",
        [ Alcotest.test_case "SIGKILL mid-fan-out: all-or-clamped" `Slow
            test_sigkill_storm ] );
      ( "server",
        [ Alcotest.test_case "sharded serving end to end" `Quick
            test_server_sharded ] ) ]
