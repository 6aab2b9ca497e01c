(* Crash-safe log-structured pack-file store backend.

   The oracle everywhere is exact-prefix recovery with zero wrong reads:
   damage a pack directory — truncate a segment or the offset index at
   EVERY byte offset, flip seeded-random bits, kill a compaction at each
   of its steps — then reopen and assert that every record either reads
   back byte-identical, is cleanly absent, or is refused as [`Tampered].
   A rebuilt offset index must be byte-identical to the persisted one. *)

open Siri_core
module Store = Siri_store.Store
module Hash = Siri_crypto.Hash
module Pack = Siri_pack.Pack
module Segment = Siri_pack.Segment
module Pack_index = Siri_pack.Pack_index
module Frame = Siri_codec.Frame
module Fault = Siri_fault.Fault
module Engine = Siri_forkbase.Engine
module Wal = Siri_wal.Wal
module Durable = Siri_wal.Durable
module Telemetry = Siri_telemetry.Telemetry

(* --- scratch directories ---------------------------------------------------- *)

let dir_counter = ref 0

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
      Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
      Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let with_dir name f =
  incr dir_counter;
  let d =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "siri-pack-%d-%s-%d" (Unix.getpid ()) name !dir_counter)
  in
  rm_rf d;
  Fun.protect ~finally:(fun () -> rm_rf d) (fun () -> f d)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path bytes =
  let oc = open_out_bin path in
  output_string oc bytes;
  close_out oc

let open_exn ?segment_target ?retry_attempts ?sink dir =
  match Pack.open_ ?segment_target ?retry_attempts ?sink dir with
  | Ok tr -> tr
  | Error (`Tampered msg) -> Alcotest.failf "Pack.open_: %s" msg

(* Distinct nodes with a deterministic payload per index; node [i]
   names [i mod 3] children, so records carry child lists of length 0-2. *)
let payload i =
  Printf.sprintf "pack-node-%04d:%s" i (String.make (16 + (i mod 23)) (Char.chr (65 + (i mod 26))))

let node i =
  let bytes = payload i in
  (Hash.of_string bytes, bytes, List.init (i mod 3) (fun k -> Hash.of_string (payload (i + k + 1))))

let nodes n = List.init n node

let seg_path dir id = Filename.concat dir (Segment.filename id)
let index_path dir = Filename.concat dir "index"

let hexes = List.map Hash.to_hex

(* One read under the zero-wrong-reads contract: the payload comes back
   byte-identical and the forced child list exactly as written, or the
   point read ([`Tampered]) or the forced children ([`Tampered_children])
   refuse. *)
let read_outcome p (h, bytes, children) =
  match Pack.get p h with
  | None -> `Absent
  | exception Store.Tampered _ -> `Tampered
  | Some (b, c) -> (
      Alcotest.(check string) "payload survives verbatim" bytes b;
      match Lazy.force c with
      | c ->
          Alcotest.(check (list string)) "children survive verbatim"
            (hexes children) (hexes c);
          `Read
      | exception Store.Tampered _ -> `Tampered_children)

(* Every hash in [written] reads back in full, is absent, or is refused;
   the set that reads back in full must equal [expected] when given. *)
let check_reads ?expected p written =
  let readable =
    List.filter_map
      (fun ((h, _, _) as n) ->
        match read_outcome p n with `Read -> Some h | _ -> None)
      written
  in
  match expected with
  | None -> ()
  | Some exp ->
      let got = List.sort Hash.compare readable in
      let exp = List.sort Hash.compare exp in
      Alcotest.(check (list string))
        "readable set is the exact expected prefix" (hexes exp) (hexes got)

(* --- roundtrip -------------------------------------------------------------- *)

let test_roundtrip () =
  with_dir "roundtrip" @@ fun dir ->
  let written = nodes 150 in
  let p, r = open_exn ~segment_target:2048 dir in
  Alcotest.(check bool) "fresh open is not a rebuild" false r.Pack.index_rebuilt;
  Pack.append p written;
  Pack.flush p;
  Alcotest.(check int) "count" 150 (Pack.count p);
  Alcotest.(check bool) "rolled into several segments" true
    (List.length (Pack.segment_ids p) > 1);
  (* dedup: re-appending is a no-op *)
  let before = Pack.stored_bytes p in
  Pack.append p written;
  Alcotest.(check int) "content-addressed dedup" before (Pack.stored_bytes p);
  check_reads p written ~expected:(List.map (fun (h, _, _) -> h) written);
  Pack.close p;
  (* clean reopen: O(index), no rescan *)
  let p2, r2 = open_exn ~segment_target:2048 dir in
  Alcotest.(check bool) "clean reopen uses the persisted index" false
    r2.Pack.index_rebuilt;
  Alcotest.(check int) "no tail adoption needed" 0 r2.Pack.adopted;
  check_reads p2 written ~expected:(List.map (fun (h, _, _) -> h) written);
  Alcotest.(check (list string)) "scrub is clean" []
    (List.map Hash.to_hex (Pack.scrub p2));
  Pack.close p2

(* Un-synced tail: append more after the last index sync, reopen, and the
   tail must be adopted by scanning — not lost, not a full rebuild. *)
let test_tail_adoption () =
  with_dir "tail-adopt" @@ fun dir ->
  let first = nodes 20 in
  let p, _ = open_exn dir in
  Pack.append p first;
  Pack.flush p;
  Pack.sync_index p;
  (* more appends, flushed to the file but the index never re-synced *)
  let extra = List.init 7 (fun i -> node (1000 + i)) in
  Pack.append p extra;
  Pack.flush p;
  (* abandon without close: the persisted index now under-covers the file *)
  let p2, r2 = open_exn dir in
  Alcotest.(check bool) "not a full rebuild" false r2.Pack.index_rebuilt;
  Alcotest.(check int) "tail records adopted" 7 r2.Pack.adopted;
  check_reads p2 (first @ extra)
    ~expected:(List.map (fun (h, _, _) -> h) (first @ extra));
  Pack.close p2

(* --- truncation at every byte offset ----------------------------------------- *)

let test_segment_truncation_every_offset () =
  with_dir "trunc-seg" @@ fun dir ->
  let written = nodes 18 in
  let p, _ = open_exn dir in
  Pack.append p written;
  Pack.close p;
  let pristine_seg = read_file (seg_path dir 0) in
  let pristine_idx = read_file (index_path dir) in
  let boundaries =
    match Segment.scan pristine_seg with
    | Ok s -> List.map (fun (h, off, len) -> (h, off + len)) s.Segment.records
    | Error _ -> Alcotest.fail "pristine segment must scan"
  in
  for cut = 0 to String.length pristine_seg - 1 do
    write_file (seg_path dir 0) (String.sub pristine_seg 0 cut);
    write_file (index_path dir) pristine_idx;
    let p, r = open_exn dir in
    (* index coverage exceeds the file: rebuild, clamping the torn tail *)
    Alcotest.(check bool)
      (Printf.sprintf "cut@%d rebuilds" cut)
      true r.Pack.index_rebuilt;
    let expected =
      List.filter_map (fun (h, e) -> if e <= cut then Some h else None) boundaries
    in
    let writtens =
      List.filter (fun (h, _, _) -> List.exists (Hash.equal h) expected) written
    in
    Alcotest.(check int)
      (Printf.sprintf "cut@%d keeps the exact record prefix" cut)
      (List.length expected) (Pack.count p);
    check_reads p written ~expected:(List.map (fun (h, _, _) -> h) writtens);
    Pack.close p
  done

let test_index_truncation_every_offset () =
  with_dir "trunc-idx" @@ fun dir ->
  let written = nodes 15 in
  let p, _ = open_exn dir in
  Pack.append p written;
  Pack.close p;
  let pristine_idx = read_file (index_path dir) in
  let all = List.map (fun (h, _, _) -> h) written in
  for cut = 0 to String.length pristine_idx - 1 do
    write_file (index_path dir) (String.sub pristine_idx 0 cut);
    let p, r = open_exn dir in
    Alcotest.(check bool)
      (Printf.sprintf "idx-cut@%d rebuilds" cut)
      true r.Pack.index_rebuilt;
    Alcotest.(check int)
      (Printf.sprintf "idx-cut@%d loses nothing" cut)
      0 r.Pack.clamped_bytes;
    check_reads p written ~expected:all;
    Pack.close p
  done;
  (* missing index entirely *)
  Sys.remove (index_path dir);
  let p, r = open_exn dir in
  Alcotest.(check bool) "missing index rebuilds" true r.Pack.index_rebuilt;
  check_reads p written ~expected:all;
  Pack.close p

(* Appends after a torn-tail clamp extend the valid prefix. *)
let test_append_after_clamp () =
  with_dir "append-after-clamp" @@ fun dir ->
  let written = nodes 10 in
  let p, _ = open_exn dir in
  Pack.append p written;
  Pack.close p;
  let blob = read_file (seg_path dir 0) in
  write_file (seg_path dir 0) (String.sub blob 0 (String.length blob - 5));
  let p2, r2 = open_exn dir in
  Alcotest.(check bool) "tail clamped" true (r2.Pack.clamped_bytes > 0);
  let fresh = node 777 in
  Pack.append p2 [ fresh ];
  Pack.close p2;
  let p3, r3 = open_exn dir in
  Alcotest.(check bool) "reopen after clamp+append is clean" false
    r3.Pack.index_rebuilt;
  let kept = List.filteri (fun i _ -> i < 9) written in
  check_reads p3 (fresh :: written)
    ~expected:(List.map (fun (h, _, _) -> h) (fresh :: kept));
  Pack.close p3

(* --- bit flips --------------------------------------------------------------- *)

(* A mid-segment flip with a still-valid index: the open is cheap (no
   scan), the damaged record surfaces as [`Tampered] on read and in the
   scrub — and through [Store.scrub] once attached. *)
let test_midsegment_flip_tampered () =
  with_dir "flip-mid" @@ fun dir ->
  let written = nodes 12 in
  let p, _ = open_exn dir in
  Pack.append p written;
  Pack.close p;
  let blob = read_file (seg_path dir 0) in
  let victim_h, victim_off, victim_len =
    match Segment.scan blob with
    | Ok s -> List.nth s.Segment.records 3
    | Error _ -> Alcotest.fail "pristine scan"
  in
  (* flip one payload byte inside record 3 *)
  let b = Bytes.of_string blob in
  let pos = victim_off + victim_len - 2 in
  Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 1));
  write_file (seg_path dir 0) (Bytes.to_string b);
  let p2, r2 = open_exn dir in
  Alcotest.(check bool) "open itself stays O(index)" false r2.Pack.index_rebuilt;
  (match Pack.get p2 victim_h with
  | exception Store.Tampered h ->
      Alcotest.(check string) "`Tampered names the victim" (Hash.to_hex victim_h)
        (Hash.to_hex h)
  | _ -> Alcotest.fail "flipped record must raise `Tampered");
  Alcotest.(check (list string))
    "pack scrub pinpoints the victim"
    [ Hash.to_hex victim_h ]
    (List.map Hash.to_hex (Pack.scrub p2));
  (* the attached store's scrub merges the backend report *)
  let store = Store.create () in
  Pack.attach p2 store;
  let report = Store.scrub store in
  Alcotest.(check bool) "Store.scrub sees the pack corruption" true
    (List.exists (Hash.equal victim_h) report.Store.corrupt);
  Pack.close p2

let test_flip_storms () =
  with_dir "flip-storm" @@ fun dir ->
  let written = nodes 25 in
  let p, _ = open_exn dir in
  Pack.append p written;
  Pack.close p;
  let pristine_seg = read_file (seg_path dir 0) in
  let pristine_idx = read_file (index_path dir) in
  for seed = 1 to 40 do
    let damaged, hits = Fault.flip_blob ~seed ~rate:0.002 pristine_seg in
    write_file (seg_path dir 0) damaged;
    write_file (index_path dir) pristine_idx;
    (match Pack.open_ dir with
    | Error (`Tampered _) -> ()  (* refused outright: fine *)
    | Ok (p, _) ->
        (* zero wrong reads, whatever survived *)
        check_reads p written;
        Pack.close p);
    ignore hits
  done;
  (* flip storms over the index: always recoverable by rebuild *)
  write_file (seg_path dir 0) pristine_seg;
  for seed = 1 to 40 do
    let damaged, hits = Fault.flip_blob ~seed ~rate:0.005 pristine_idx in
    write_file (index_path dir) damaged;
    let p, r = open_exn dir in
    if hits <> [] then
      Alcotest.(check bool)
        (Printf.sprintf "idx-flip seed %d rebuilds" seed)
        true r.Pack.index_rebuilt;
    check_reads p written ~expected:(List.map (fun (h, _, _) -> h) written);
    Pack.close p
  done

(* --- point reads: content address now, frame digest when children are used --- *)

let flip_bit blob pos bit =
  let b = Bytes.of_string blob in
  Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor (1 lsl bit)));
  Bytes.to_string b

(* The frame offset and length of [h]'s record in a segment blob. *)
let record_span blob h =
  match Segment.scan blob with
  | Ok s -> (
      match List.find_opt (fun (h', _, _) -> Hash.equal h h') s.Segment.records with
      | Some (_, off, len) -> (off, len)
      | None -> Alcotest.fail "record not in segment")
  | Error _ -> Alcotest.fail "pristine segment must scan"

(* Flip every bit of one record, one at a time.  The point read must
   return the original bytes or refuse; forcing the children must return
   the original list or refuse.  Which check refuses is pinned: the
   content check owns the length field, hash field and node bytes, the
   frame check owns the frame digest and the child list — so no bit of a
   record is left unauthenticated, and the point read really skips the
   frame. *)
let test_point_read_flip_every_bit () =
  with_dir "flip-every-bit" @@ fun dir ->
  let written = nodes 6 in
  let p, _ = open_exn dir in
  Pack.append p written;
  Pack.close p;
  let pristine = read_file (seg_path dir 0) in
  let ((victim_h, _, children) as victim) = List.nth written 5 in
  Alcotest.(check int) "victim has a child list" 2 (List.length children);
  let off, len = record_span pristine victim_h in
  let others = List.filter (fun (h, _, _) -> not (Hash.equal h victim_h)) written in
  let children_from = off + len - (1 + (Hash.size * List.length children)) in
  for pos = off to off + len - 1 do
    for bit = 0 to 7 do
      write_file (seg_path dir 0) (flip_bit pristine pos bit);
      let p, r = open_exn dir in
      Alcotest.(check bool) "open stays O(index)" false r.Pack.index_rebuilt;
      let frame_owned =
        (pos >= off + 4 && pos < off + Frame.header_len) || pos >= children_from
      in
      (match read_outcome p victim with
      | `Tampered when not frame_owned -> ()
      | `Tampered_children when frame_owned -> ()
      | `Read -> Alcotest.failf "flip at +%d bit %d went unnoticed" (pos - off) bit
      | _ ->
          Alcotest.failf "flip at +%d bit %d refused by the wrong check"
            (pos - off) bit);
      check_reads p others ~expected:(List.map (fun (h, _, _) -> h) others);
      Alcotest.(check (list string)) "scrub names the victim" [ Hash.to_hex victim_h ]
        (hexes (Pack.scrub p));
      Pack.close p
    done
  done

let bin_dir () =
  match Sys.getenv_opt "SIRI_BIN_DIR" with
  | Some d -> d
  | None ->
      if Sys.file_exists "../bin/siri_cli.exe" then "../bin"
      else "_build/default/bin"

let run_cli args =
  let exe = Filename.concat (bin_dir ()) "siri_cli.exe" in
  let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let pid = Unix.create_process exe (Array.of_list (exe :: args)) Unix.stdin null null in
  Unix.close null;
  match Unix.waitpid [] pid with
  | _, Unix.WEXITED code -> code
  | _, (Unix.WSIGNALED n | Unix.WSTOPPED n) ->
      Alcotest.failf "siri_cli killed by signal %d" n

(* A record whose child list is flipped still serves its bytes, but
   every consumer of the list refuses: [Store.children], [Store.gc] and
   [siri-cli compact] — none of them drops the subtree the list no
   longer names. *)
let test_flipped_child_list_refused () =
  with_dir "flip-children" @@ fun dir ->
  let p, _ = open_exn dir in
  let store = Store.create () in
  Pack.attach p store;
  let leaves = List.init 8 (fun i -> Store.put store (Printf.sprintf "leaf-%d" i)) in
  let root = Store.put store ~children:leaves "root" in
  let garbage = Store.put store "garbage" in
  Pack.close p;
  let blob = read_file (seg_path dir 0) in
  let off, len = record_span blob root in
  write_file (seg_path dir 0) (flip_bit blob (off + len - 1) 0);
  let all = root :: garbage :: leaves in
  let p, _ = open_exn dir in
  let store = Store.create () in
  Pack.attach p store;
  Alcotest.(check string) "point read serves the bytes" "root" (Store.get store root);
  (match Store.children store root with
  | exception Store.Tampered h ->
      Alcotest.(check string) "names the record" (Hash.to_hex root) (Hash.to_hex h)
  | _ -> Alcotest.fail "served a flipped child list");
  (match Store.gc store ~roots:[ root ] with
  | exception Store.Tampered _ -> ()
  | _ -> Alcotest.fail "gc ran over a flipped child list");
  List.iter
    (fun h -> Alcotest.(check bool) "gc dropped nothing" true (Pack.mem p h))
    all;
  Pack.close p;
  Alcotest.(check int) "siri-cli compact refuses" 2
    (run_cli [ "compact"; "--root"; Hash.to_hex root; dir ]);
  let p, _ = open_exn dir in
  Alcotest.(check int) "compact dropped nothing" (List.length all) (Pack.count p);
  Alcotest.(check (list string)) "scrub names the record" [ Hash.to_hex root ]
    (hexes (Pack.scrub p));
  Pack.close p

(* The same contract under seeded segment-read fault plans, over a pack
   that also holds one record damaged on disk inside its child list:
   every read is exact or refused, the damaged list is never served, and
   scrub — which bypasses the gate — still names exactly that record. *)
let test_point_read_gate_plans () =
  with_dir "flip-gate" @@ fun dir ->
  let written = nodes 30 in
  let p, _ = open_exn dir in
  Pack.append p written;
  Pack.close p;
  let ((victim_h, _, _) as victim) = List.nth written 8 in
  let blob = read_file (seg_path dir 0) in
  let off, len = record_span blob victim_h in
  write_file (seg_path dir 0) (flip_bit blob (off + len - 1) 3);
  let p, _ = open_exn dir in
  List.iter
    (fun (name, plan) ->
      let gate = Fault.io_gate plan in
      Pack.set_read_gate p (Some gate);
      for _ = 1 to 10 do
        List.iter
          (fun ((h, _, _) as n) ->
            match read_outcome p n with
            | `Absent -> Alcotest.failf "%s: indexed node vanished" name
            | `Read when Hash.equal h victim_h ->
                Alcotest.failf "%s: served the damaged child list" name
            | _ | (exception Store.Transient _) -> ())
          written
      done;
      Alcotest.(check bool) (name ^ ": damage was injected") true
        (Fault.io_flips gate + Fault.io_truncations gate > 0);
      Alcotest.(check (list string)) (name ^ ": scrub names the victim")
        [ Hash.to_hex victim_h ] (hexes (Pack.scrub p));
      Pack.set_read_gate p None)
    [ ("flip", Fault.plan ~bit_flip:0.5 ~seed:5 ());
      ("truncate", Fault.plan ~truncate:0.5 ~seed:6 ());
      ("flip+truncate+transient",
        Fault.plan ~bit_flip:0.3 ~truncate:0.3 ~transient:0.1 ~seed:7 ()) ];
  Alcotest.(check bool) "ungated victim still refused" true
    (read_outcome p victim = `Tampered_children);
  Pack.close p

(* --- rebuilt index is byte-identical (qcheck) -------------------------------- *)

let qcheck_rebuild_identity =
  let gen =
    QCheck.(
      pair (int_range 1 120) (int_range 1 1_000_000)
      |> map (fun (n, salt) -> (n, salt)))
  in
  QCheck.Test.make ~name:"index rebuilt from segments == persisted index"
    ~count:25 gen (fun (n, salt) ->
      with_dir "qcheck-rebuild" @@ fun dir ->
      let written =
        List.init n (fun i ->
            let bytes = Printf.sprintf "q-%d-%d-%s" salt i (String.make (i mod 37) 'z') in
            (Hash.of_string bytes, bytes, []))
      in
      let p, _ = open_exn ~segment_target:1024 dir in
      Pack.append p written;
      Pack.close p;
      let persisted = read_file (index_path dir) in
      Sys.remove (index_path dir);
      let p2, r2 = open_exn ~segment_target:1024 dir in
      let rebuilt_flag = r2.Pack.index_rebuilt in
      Pack.close p2;
      let rebuilt = read_file (index_path dir) in
      rebuilt_flag && String.equal persisted rebuilt)

(* --- compaction kill-points --------------------------------------------------- *)

exception Kill

let test_compaction_kill_points () =
  let all = nodes 60 in
  let live_nodes = List.filteri (fun i _ -> i mod 3 <> 0) all in
  let live =
    Hash.Set.of_list (List.map (fun (h, _, _) -> h) live_nodes)
  in
  let all_hs = List.map (fun (h, _, _) -> h) all in
  let live_hs = List.map (fun (h, _, _) -> h) live_nodes in
  List.iter
    (fun kill_at ->
      with_dir ("kill-" ^ kill_at) @@ fun dir ->
      let p, _ = open_exn ~segment_target:1500 dir in
      Pack.append p all;
      Pack.flush p;
      Pack.sync_index p;
      (match
         Pack.compact p ~live ~on_step:(fun s ->
             if String.equal s kill_at then raise Kill)
       with
      | (_ : Hash.t list) -> Alcotest.fail "kill point did not fire"
      | exception Kill -> ());
      (* the crashed process is gone; a fresh open decides the outcome *)
      let p2, _ = open_exn ~segment_target:1500 dir in
      let expected =
        (* strictly before the manifest flip: the old set, intact.
           at/after it: exactly the live set.  Never a mix. *)
        match kill_at with
        | "begin" | "segments-written" | "index-written" -> all_hs
        | _ -> live_hs
      in
      check_reads p2 all ~expected;
      Alcotest.(check (list string)) "no corruption either way" []
        (List.map Hash.to_hex (Pack.scrub p2));
      Pack.close p2)
    [ "begin"; "segments-written"; "index-written"; "manifest"; "cleanup" ]

let test_compaction_drops_and_survives () =
  with_dir "compact" @@ fun dir ->
  let all = nodes 40 in
  let live_nodes = List.filteri (fun i _ -> i < 25) all in
  let live = Hash.Set.of_list (List.map (fun (h, _, _) -> h) live_nodes) in
  let p, _ = open_exn ~segment_target:1200 dir in
  Pack.append p all;
  let old_segs = Pack.segment_ids p in
  let dropped = Pack.compact p ~live in
  Alcotest.(check int) "dropped count" 15 (List.length dropped);
  Alcotest.(check bool) "fresh segment ids" true
    (List.for_all
       (fun id -> not (List.mem id old_segs))
       (Pack.segment_ids p));
  check_reads p all ~expected:(List.map (fun (h, _, _) -> h) live_nodes);
  (* old segment files are gone *)
  List.iter
    (fun id ->
      Alcotest.(check bool) "old segment deleted" false
        (Sys.file_exists (seg_path dir id)))
    old_segs;
  (* appends keep working after the swap *)
  let fresh = node 9999 in
  Pack.append p [ fresh ];
  check_reads p [ fresh ] ~expected:[ (fun (h, _, _) -> h) fresh ];
  Pack.close p;
  let p2, r2 = open_exn ~segment_target:1200 dir in
  Alcotest.(check bool) "clean reopen after compaction" false
    r2.Pack.index_rebuilt;
  check_reads p2 (fresh :: all)
    ~expected:((fun (h, _, _) -> h) fresh :: List.map (fun (h, _, _) -> h) live_nodes);
  Pack.close p2

(* --- retry / transient gates --------------------------------------------------- *)

let test_with_retry () =
  let sink = Telemetry.create () in
  let calls = ref 0 in
  (* two transients, then success: retried within the budget *)
  let r =
    Fault.with_retry ~attempts:3 ~sink (fun () ->
        incr calls;
        if !calls < 3 then raise (Store.Transient Hash.null) else "ok")
  in
  Alcotest.(check bool) "succeeds after retries" true (r = Ok "ok");
  Alcotest.(check int) "three probes" 3 !calls;
  Alcotest.(check int) "retry.attempt" 2 (Telemetry.counter sink "retry.attempt");
  Alcotest.(check int) "no give_up" 0 (Telemetry.counter sink "retry.give_up");
  (* permanent transient: bounded, surrendered, telemetered *)
  let slept = ref [] in
  let r2 =
    Fault.with_retry ~attempts:4 ~backoff_s:0.001
      ~sleep:(fun d -> slept := d :: !slept)
      ~sink
      (fun () -> raise (Store.Transient Hash.null))
  in
  (match r2 with
  | Error (`Transient _) -> ()
  | _ -> Alcotest.fail "must surface `Transient after giving up");
  Alcotest.(check int) "give_up counted" 1 (Telemetry.counter sink "retry.give_up");
  Alcotest.(check (list (float 1e-9))) "exponential backoff"
    [ 0.001; 0.002; 0.004 ] (List.rev !slept);
  (* non-transient errors return immediately *)
  let r3 = Fault.with_retry ~attempts:5 (fun () -> raise Not_found) in
  (match r3 with
  | Error (`Missing _) -> ()
  | _ -> Alcotest.fail "non-transient must not retry")

let test_with_retry_jitter () =
  (* Full jitter: with ~jitter:seed each pause is cap * u_i where
     cap = backoff * 2^i and u_i is the i-th draw of Rng.create seed —
     so the schedule is exactly reproducible, and every pause stays
     inside [0, cap), which is what stops a thundering herd of clients
     from retrying in lockstep. *)
  let schedule ~seed ~backoff ~attempts =
    let slept = ref [] in
    (match
       Fault.with_retry ~attempts ~backoff_s:backoff ~jitter:seed
         ~sleep:(fun d -> slept := d :: !slept)
         (fun () -> raise (Store.Transient Hash.null))
     with
    | Error (`Transient _) -> ()
    | _ -> Alcotest.fail "must give up");
    List.rev !slept
  in
  let got = schedule ~seed:11 ~backoff:0.001 ~attempts:4 in
  let rng = Rng.create 11 in
  let expected =
    List.map (fun i -> 0.001 *. float_of_int (1 lsl i) *. Rng.float rng) [ 0; 1; 2 ]
  in
  Alcotest.(check (list (float 1e-12))) "pinned jittered schedule" expected got;
  List.iteri
    (fun i d ->
      let cap = 0.001 *. float_of_int (1 lsl i) in
      Alcotest.(check bool)
        (Printf.sprintf "pause %d in [0, cap)" i)
        true
        (d >= 0.0 && d < cap))
    got;
  (* deterministic: same seed, same schedule *)
  Alcotest.(check (list (float 1e-12))) "same seed reproduces"
    got
    (schedule ~seed:11 ~backoff:0.001 ~attempts:4);
  (* decorrelated: a different seed gives a different schedule *)
  Alcotest.(check bool) "different seed differs" true
    (schedule ~seed:12 ~backoff:0.001 ~attempts:4 <> got);
  (* no jitter argument: the undithered exponential schedule is unchanged *)
  let slept = ref [] in
  ignore
    (Fault.with_retry ~attempts:3 ~backoff_s:0.01
       ~sleep:(fun d -> slept := d :: !slept)
       (fun () -> raise (Store.Transient Hash.null)));
  Alcotest.(check (list (float 1e-9))) "no-jitter schedule intact"
    [ 0.01; 0.02 ] (List.rev !slept)

let test_io_gate_transients () =
  with_dir "gate" @@ fun dir ->
  let written = nodes 30 in
  let sink = Telemetry.create () in
  let p, _ = open_exn ~retry_attempts:3 ~sink dir in
  Pack.append p written;
  Pack.flush p;
  (* a flaky disk that fails one read in five: every get still succeeds,
     through retries *)
  let gate = Fault.io_gate (Fault.plan ~transient:0.2 ~seed:42 ()) in
  Pack.set_read_gate p (Some gate);
  check_reads p written ~expected:(List.map (fun (h, _, _) -> h) written);
  Alcotest.(check bool) "transients were injected" true
    (Fault.io_transients gate > 0);
  Alcotest.(check bool) "retries recorded" true
    (Telemetry.counter sink "retry.attempt" > 0);
  Alcotest.(check int) "nothing surrendered" 0
    (Telemetry.counter sink "retry.give_up");
  (* a dead disk: transient every time, bounded surrender *)
  let dead = Fault.io_gate (Fault.plan ~transient:1.0 ~seed:7 ()) in
  Pack.set_read_gate p (Some dead);
  let h, _, _ = List.hd written in
  (match Pack.get p h with
  | exception Store.Transient _ -> ()
  | _ -> Alcotest.fail "dead disk must surface `Transient");
  Alcotest.(check bool) "give_up recorded" true
    (Telemetry.counter sink "retry.give_up" > 0);
  (* flips and truncations injected by the gate are caught by the
     content check, or by the frame check when the children are forced:
     `Tampered, never a wrong read *)
  let lossy = Fault.io_gate (Fault.plan ~bit_flip:0.5 ~truncate:0.5 ~seed:3 ()) in
  Pack.set_read_gate p (Some lossy);
  List.iter
    (fun n ->
      if read_outcome p n = `Absent then
        Alcotest.fail "indexed node cannot vanish")
    written;
  Alcotest.(check bool) "damage was injected" true
    (Fault.io_flips lossy + Fault.io_truncations lossy > 0);
  Pack.set_read_gate p None;
  Pack.close p

(* --- store integration --------------------------------------------------------- *)

let test_store_write_through_and_drop_hot () =
  with_dir "store" @@ fun dir ->
  let p, _ = open_exn dir in
  let store = Store.create () in
  Pack.attach p store;
  Alcotest.(check (option string)) "backend name" (Some "pack")
    (Store.backend_name store);
  let leaves =
    List.init 30 (fun i ->
        let bytes = Printf.sprintf "leaf-%02d" i in
        (Store.put store bytes, bytes))
  in
  let root_bytes = "root-node" in
  let root = Store.put store ~children:(List.map fst leaves) root_bytes in
  (* hot and cold tiers agree *)
  Store.drop_hot store;
  List.iter
    (fun (h, bytes) ->
      Alcotest.(check string) "cold read == hot value" bytes (Store.get store h))
    ((root, root_bytes) :: leaves);
  Alcotest.(check int) "children come back from the pack" 30
    (List.length (Store.children store root));
  Alcotest.(check bool) "mem through the backend" true (Store.mem store root);
  Pack.close p

let test_store_gc_compacts_backend () =
  with_dir "gc" @@ fun dir ->
  let p, _ = open_exn ~segment_target:1024 dir in
  let store = Store.create () in
  Pack.attach p store;
  let keep = List.init 10 (fun i -> Store.put store (Printf.sprintf "keep-%d" i)) in
  let drop = List.init 10 (fun i -> Store.put store (Printf.sprintf "drop-%d" i)) in
  let root = Store.put store ~children:keep "gc-root" in
  let reclaimed = Store.gc store ~roots:[ root ] in
  Alcotest.(check int) "dead nodes reclaimed in both tiers" 10 reclaimed;
  List.iter
    (fun h ->
      Alcotest.(check bool) "dropped from the pack too" false (Pack.mem p h))
    drop;
  List.iter
    (fun h -> Alcotest.(check bool) "live survives in pack" true (Pack.mem p h))
    (root :: keep);
  (* cold reads of the live set still verify after compaction *)
  Store.drop_hot store;
  Alcotest.(check string) "root readable cold" "gc-root" (Store.get store root);
  Pack.close p

(* --- durable engine on the pack backend ----------------------------------------- *)

let mk_mpt () = Siri_mpt.Mpt.generic (Siri_mpt.Mpt.empty (Store.create ()))

let state engine =
  List.map
    (fun b ->
      let h = Engine.head engine b in
      (b, Hash.to_hex h.Engine.id, Hash.to_hex h.Engine.index_root))
    (Engine.branches engine)

let state_testable = Alcotest.(list (triple string string string))

let script =
  [ ("master", [ Kv.Put ("a", "1"); Kv.Put ("b", "2") ]);
    ("master", [ Kv.Put ("c", "3"); Kv.Del "a" ]);
    ("master", [ Kv.Put ("d", "4") ]);
    ("master", [ Kv.Put ("a", "5"); Kv.Put ("e", "6") ]) ]

let open_durable_exn ?sync ~backend dir =
  match Durable.open_ ?sync ~backend ~dir ~empty_index:(mk_mpt ()) () with
  | Ok t -> t
  | Error e -> Alcotest.failf "Durable.open_: %a" Wal.pp_error e

let run_script ?(checkpoint_after = -1) dir =
  let t = open_durable_exn ~sync:false ~backend:`Pack dir in
  List.iteri
    (fun i (branch, ops) ->
      ignore (Durable.commit t ~branch ~message:(Printf.sprintf "c%d" i) ops
              : Engine.commit);
      if i = checkpoint_after then Durable.checkpoint t)
    script;
  let s = state (Durable.engine t) in
  Durable.close t;
  s

let test_durable_pack_reopen () =
  with_dir "durable" @@ fun dir ->
  let final = run_script dir in
  let t = open_durable_exn ~sync:false ~backend:`Pack dir in
  Alcotest.check state_testable "replayed state == committed state" final
    (state (Durable.engine t));
  Alcotest.(check int) "all records replayed (no checkpoint)"
    (List.length script) (Durable.recovery t).Durable.replayed;
  (* reads go through: hot table was rebuilt by replay *)
  Alcotest.(check (option string)) "value" (Some "5")
    (Durable.get t ~branch:"master" "a");
  Durable.close t

let test_durable_pack_checkpoint () =
  with_dir "durable-ckpt" @@ fun dir ->
  let final = run_script ~checkpoint_after:1 dir in
  (* no snapshot file was ever written: the pack is the node storage *)
  Alcotest.(check bool) "no store.<gen> snapshot" false
    (Sys.file_exists (Filename.concat dir "store.1"));
  Alcotest.(check bool) "heads file exists" true
    (Sys.file_exists (Filename.concat dir "store.1.heads"));
  let t = open_durable_exn ~sync:false ~backend:`Pack dir in
  Alcotest.check state_testable "state after checkpointed reopen" final
    (state (Durable.engine t));
  Alcotest.(check int) "only post-checkpoint records replayed" 2
    (Durable.recovery t).Durable.replayed;
  Alcotest.(check int) "generation advanced" 1
    (Durable.recovery t).Durable.generation;
  Durable.close t;
  (* lose the pack's offset index: recovery rebuilds it from segments *)
  Sys.remove (Filename.concat (Durable.pack_dir dir) "index");
  let t2 = open_durable_exn ~sync:false ~backend:`Pack dir in
  Alcotest.check state_testable "state after index rebuild" final
    (state (Durable.engine t2));
  Durable.close t2

let test_durable_pack_journal_crash () =
  with_dir "durable-crash" @@ fun dir ->
  (* snapshot the state after every commit, then truncate the journal at
     every byte offset and require recovery to an exact prefix *)
  let t = open_durable_exn ~sync:false ~backend:`Pack dir in
  let states = ref [ state (Durable.engine t) ] in
  List.iteri
    (fun i (branch, ops) ->
      ignore (Durable.commit t ~branch ~message:(Printf.sprintf "c%d" i) ops
              : Engine.commit);
      states := state (Durable.engine t) :: !states)
    script;
  let ends = ref [] in
  Durable.close t;
  let states = Array.of_list (List.rev !states) in
  let journal = read_file (Durable.journal_path dir) in
  (match Wal.scan journal with
  | Ok s -> ends := s.Wal.ends
  | Error _ -> Alcotest.fail "pristine journal must scan");
  let record_ends = Array.of_list !ends in
  let pack_backup = ref [] in
  let pack_d = Durable.pack_dir dir in
  Array.iter
    (fun name ->
      let p = Filename.concat pack_d name in
      if not (Sys.is_directory p) then pack_backup := (p, read_file p) :: !pack_backup)
    (Sys.readdir pack_d);
  for cut = 0 to String.length journal - 1 do
    write_file (Durable.journal_path dir) (String.sub journal 0 cut);
    List.iter (fun (p, blob) -> write_file p blob) !pack_backup;
    let t = open_durable_exn ~sync:false ~backend:`Pack dir in
    let survived =
      Array.fold_left (fun acc e -> if e <= cut then acc + 1 else acc) 0
        record_ends
    in
    Alcotest.check state_testable
      (Printf.sprintf "journal cut@%d recovers exactly %d records" cut survived)
      states.(survived)
      (state (Durable.engine t));
    Durable.close t
  done

(* --- registration ------------------------------------------------------------- *)

let () =
  let qcheck = QCheck_alcotest.to_alcotest in
  Alcotest.run "pack"
    [ ( "roundtrip",
        [ Alcotest.test_case "append/get/reopen/dedup" `Quick test_roundtrip;
          Alcotest.test_case "un-synced tail is adopted" `Quick
            test_tail_adoption;
          Alcotest.test_case "append after torn-tail clamp" `Quick
            test_append_after_clamp ] );
      ( "torn-write crash simulator",
        [ Alcotest.test_case "segment truncation at every byte offset" `Slow
            test_segment_truncation_every_offset;
          Alcotest.test_case "index truncation at every byte offset" `Slow
            test_index_truncation_every_offset ] );
      ( "corruption",
        [ Alcotest.test_case "mid-segment flip is `Tampered + scrubbed" `Quick
            test_midsegment_flip_tampered;
          Alcotest.test_case "seeded flip storms: zero wrong reads" `Quick
            test_flip_storms ] );
      ( "point reads",
        [ Alcotest.test_case "every bit of a record: exact or refused" `Quick
            test_point_read_flip_every_bit;
          Alcotest.test_case "flipped child list: children/gc/compact refuse"
            `Quick test_flipped_child_list_refused;
          Alcotest.test_case "io gate plans: exact or refused, scrub names"
            `Quick test_point_read_gate_plans ] );
      ("index properties", [ qcheck qcheck_rebuild_identity ]);
      ( "compaction",
        [ Alcotest.test_case "drop + rewrite + swap" `Quick
            test_compaction_drops_and_survives;
          Alcotest.test_case "kill at every step: old or new, never a mix"
            `Quick test_compaction_kill_points ] );
      ( "retry",
        [ Alcotest.test_case "with_retry semantics + telemetry" `Quick
            test_with_retry;
          Alcotest.test_case "with_retry full-jitter schedule" `Quick
            test_with_retry_jitter;
          Alcotest.test_case "io gates: transient/flip/truncate" `Quick
            test_io_gate_transients ] );
      ( "store backend",
        [ Alcotest.test_case "write-through + drop_hot cold reads" `Quick
            test_store_write_through_and_drop_hot;
          Alcotest.test_case "gc compacts the pack and stays coherent" `Quick
            test_store_gc_compacts_backend ] );
      ( "durable engine",
        [ Alcotest.test_case "commit/replay/reopen equality" `Quick
            test_durable_pack_reopen;
          Alcotest.test_case "checkpoint: pack fsync + heads, no snapshot"
            `Quick test_durable_pack_checkpoint;
          Alcotest.test_case "journal truncation at every byte offset" `Slow
            test_durable_pack_journal_crash ] ) ]
