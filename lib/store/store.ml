open Siri_crypto
module Telemetry = Siri_telemetry.Telemetry
module Node_cache = Siri_readpath.Node_cache
module Proof_cache = Siri_readpath.Proof_cache
module Bloom = Siri_readpath.Bloom

exception Missing of Hash.t
exception Transient of Hash.t
exception Tampered of Hash.t

type node = { mutable bytes : string; children : Hash.t list }

(* A cold storage tier sitting below the in-memory node table.  The store
   never names a concrete backend (the pack-file implementation lives in
   [lib/pack] and plugs in through these closures), which keeps the
   dependency graph acyclic: pack depends on store, not the reverse. *)
type backend = {
  backend_name : string;
  backend_read : Hash.t -> (string * Hash.t list Lazy.t) option;
      (** Cold point read; may raise {!Transient} or {!Tampered}.  The
          children are verified only when forced. *)
  backend_mem : Hash.t -> bool;
  backend_write : (Hash.t * string * Hash.t list) list -> unit;
      (** Buffered append of freshly stored nodes (write-through). *)
  backend_flush : sync:bool -> unit;  (** Group fsync of buffered appends. *)
  backend_corrupt : unit -> Hash.t list;
      (** Integrity scan: hashes of records failing verification. *)
  backend_compact : live:Hash.Set.t -> Hash.t list;
      (** Drop everything outside [live]; returns the dropped hashes. *)
  backend_count : unit -> int;
  backend_bytes : unit -> int;
}

type stats = {
  puts : int;
  unique_nodes : int;
  stored_bytes : int;
  put_bytes : int;
  gets : int;
}

(* Stat counters are [Atomic]s: the node table itself is only ever touched
   by the coordinating domain (workers in the parallel commit pipeline
   stage pure bytes and never reach the store), but the counters are cheap
   to make unconditionally race-free, which keeps [stats] trustworthy even
   if a future caller meters from several domains. *)
type t = {
  tbl : node Hash.Table.t;
  puts : int Atomic.t;
  put_bytes : int Atomic.t;
  stored_bytes : int Atomic.t;
  gets : int Atomic.t;
  mutable get_observer : (Hash.t -> int -> unit) option;
  mutable put_observer : (Hash.t -> int -> unit) option;
  mutable read_gate : (Hash.t -> string -> unit) option;
  mutable sink : Telemetry.sink;
  cache : Node_cache.t;
  (* Memoized multiproofs keyed by (root, key set); cleared wholesale by
     the tamper primitives and gc, since a proof may embed any node. *)
  proof_cache : Proof_cache.t;
  (* Per-version negative-lookup filters, keyed by the exact root hash the
     filter was built for.  A version without a registered filter simply
     skips the short-circuit. *)
  filters : Bloom.t Hash.Table.t;
  mutable backend : backend option;
}

let create ?cache_bytes ?proof_cache_bytes () =
  { tbl = Hash.Table.create 4096;
    puts = Atomic.make 0;
    put_bytes = Atomic.make 0;
    stored_bytes = Atomic.make 0;
    gets = Atomic.make 0;
    get_observer = None;
    put_observer = None;
    read_gate = None;
    sink = Telemetry.null;
    cache = Node_cache.create ?budget:cache_bytes ();
    proof_cache = Proof_cache.create ?budget:proof_cache_bytes ();
    filters = Hash.Table.create 16;
    backend = None }

let add_counter c by = ignore (Atomic.fetch_and_add c by : int)

let set_get_observer t obs = t.get_observer <- obs
let set_put_observer t obs = t.put_observer <- obs
let set_read_gate t gate = t.read_gate <- gate

let set_sink t sink =
  t.sink <- sink;
  Node_cache.set_sink t.cache sink;
  Proof_cache.set_sink t.proof_cache sink

let sink t = t.sink
let cache t = t.cache
let proof_cache t = t.proof_cache

(* --- cold storage tier ------------------------------------------------------ *)

let set_backend t backend = t.backend <- backend
let backend_name t = Option.map (fun b -> b.backend_name) t.backend

let flush_backend ?(sync = true) t =
  match t.backend with Some b -> b.backend_flush ~sync | None -> ()

let write_through t nodes =
  match t.backend with
  | None -> ()
  | Some b -> if nodes <> [] then b.backend_write nodes

(* Drop the in-memory (hot) tier: every node must already be in the backend
   (write-through guarantees it for nodes stored while attached), so
   subsequent reads fall through to cold storage.  The decoded-node cache
   stays — content addressing keeps it coherent across tiers. *)
let drop_hot t =
  match t.backend with
  | None -> invalid_arg "Store.drop_hot: no backend attached"
  | Some b ->
      b.backend_flush ~sync:false;
      Hash.Table.reset t.tbl;
      Atomic.set t.stored_bytes 0

(* --- read-path sidecars ----------------------------------------------------

   Cache coherence argument: nodes are content-addressed, so a cached
   decoding of hash [h] can only disagree with [get t h] if the stored
   bytes under [h] changed — which only the tamper primitives below and
   [gc]/[repair] can do.  Each of those invalidates the affected entries,
   so for every other operation the cache is coherent by construction. *)

let set_root_filter t root filter = Hash.Table.replace t.filters root filter
let root_filter t root = Hash.Table.find_opt t.filters root
let clear_root_filters t = Hash.Table.reset t.filters

let put t ?(children = []) bytes =
  let h = Hash.of_string bytes in
  let len = String.length bytes in
  add_counter t.puts 1;
  add_counter t.put_bytes len;
  let fresh = not (Hash.Table.mem t.tbl h) in
  if fresh then begin
    Hash.Table.add t.tbl h { bytes; children };
    add_counter t.stored_bytes len;
    write_through t [ (h, bytes, children) ]
  end;
  if Telemetry.enabled t.sink then begin
    Telemetry.incr t.sink "store.put";
    Telemetry.incr t.sink ~by:len "store.put_bytes";
    if fresh then begin
      Telemetry.incr t.sink "store.put_unique";
      Telemetry.incr t.sink ~by:len "store.put_unique_bytes"
    end
  end;
  (match t.put_observer with Some f -> f h len | None -> ());
  h

(* --- staged (parallel) writes ---------------------------------------------- *)

(* A staged node: encoded bytes plus their digest, computed away from the
   store — typically by a pool worker via [stage_quiet], whose hashing
   does not notify the digest observer.  The coordinating domain then
   replays the notifications in deterministic order ([note_staged]) and
   installs the nodes ([put_staged]), so the observable effects of a
   parallel commit are byte-for-byte those of the sequential one. *)
type staged = { digest : Hash.t; node_bytes : string; node_children : Hash.t list }

let stage ?(children = []) bytes =
  { digest = Hash.of_string bytes; node_bytes = bytes; node_children = children }

let stage_quiet ?(children = []) bytes =
  { digest = Hash.of_string_quiet bytes;
    node_bytes = bytes;
    node_children = children }

let note_staged staged =
  List.iter (fun s -> Hash.note_digest (String.length s.node_bytes)) staged

let put_staged t staged =
  (* One pass, one stats update, one telemetry flush.  Dedup accounting is
     per node and in list order, exactly as a sequence of [put]s: a
     duplicate later in the batch sees the earlier node already installed. *)
  let count = ref 0 and total = ref 0 in
  let fresh_count = ref 0 and fresh_bytes = ref 0 in
  let fresh_nodes = ref [] in
  List.iter
    (fun s ->
      let len = String.length s.node_bytes in
      incr count;
      total := !total + len;
      if not (Hash.Table.mem t.tbl s.digest) then begin
        Hash.Table.add t.tbl s.digest
          { bytes = s.node_bytes; children = s.node_children };
        incr fresh_count;
        fresh_bytes := !fresh_bytes + len;
        if t.backend <> None then
          fresh_nodes := (s.digest, s.node_bytes, s.node_children) :: !fresh_nodes
      end;
      match t.put_observer with Some f -> f s.digest len | None -> ())
    staged;
  write_through t (List.rev !fresh_nodes);
  add_counter t.puts !count;
  add_counter t.put_bytes !total;
  add_counter t.stored_bytes !fresh_bytes;
  if Telemetry.enabled t.sink && !count > 0 then begin
    Telemetry.incr t.sink ~by:!count "store.put";
    Telemetry.incr t.sink ~by:!total "store.put_bytes";
    if !fresh_count > 0 then begin
      Telemetry.incr t.sink ~by:!fresh_count "store.put_unique";
      Telemetry.incr t.sink ~by:!fresh_bytes "store.put_unique_bytes"
    end
  end

let put_batch t items =
  let staged = List.map (fun (bytes, children) -> stage ~children bytes) items in
  put_staged t staged;
  List.map (fun s -> s.digest) staged

(* Cold lookup beneath the hot table.  [backend_read] raising [Transient]
   or [Tampered] propagates to the caller exactly like a gated fault. *)
let cold_read t h =
  match t.backend with
  | None -> raise Not_found
  | Some b -> (
      match b.backend_read h with
      | None -> raise Not_found
      | Some pair ->
          Telemetry.incr t.sink "store.get.cold";
          pair)

let get t h =
  add_counter t.gets 1;
  let bytes =
    match Hash.Table.find_opt t.tbl h with
    | Some node -> node.bytes
    | None -> fst (cold_read t h)
  in
  (match t.read_gate with Some gate -> gate h bytes | None -> ());
  (* Telemetry counts successful reads (past the fault gate), at the same
     point the deployment-simulation observer fires — so cache hit/miss
     accounting and [store.get] stay conservation-consistent. *)
  if Telemetry.enabled t.sink then begin
    Telemetry.incr t.sink "store.get";
    Telemetry.incr t.sink ~by:(String.length bytes) "store.get_bytes"
  end;
  (match t.get_observer with
  | Some f -> f h (String.length bytes)
  | None -> ());
  bytes

let find t h = match get t h with s -> Some s | exception Not_found -> None

let mem t h =
  Hash.Table.mem t.tbl h
  || match t.backend with Some b -> b.backend_mem h | None -> false

let children t h =
  match Hash.Table.find_opt t.tbl h with
  | Some node -> node.children
  | None -> Lazy.force (snd (cold_read t h))

let size_of t h =
  match Hash.Table.find_opt t.tbl h with
  | Some node -> String.length node.bytes
  | None -> String.length (fst (cold_read t h))

let iter_nodes t f =
  Hash.Table.iter (fun _ node -> f node.bytes node.children) t.tbl

let stats t =
  { puts = Atomic.get t.puts;
    unique_nodes = Hash.Table.length t.tbl;
    stored_bytes = Atomic.get t.stored_bytes;
    put_bytes = Atomic.get t.put_bytes;
    gets = Atomic.get t.gets }

let reset_counters t =
  Atomic.set t.puts 0;
  Atomic.set t.put_bytes 0;
  Atomic.set t.gets 0

let reachable_many t roots =
  let visited = ref Hash.Set.empty in
  let children_opt h =
    match Hash.Table.find_opt t.tbl h with
    | Some node -> Some node.children
    | None -> (
        match t.backend with
        | None -> None
        | Some b -> Option.map (fun (_, c) -> Lazy.force c) (b.backend_read h))
  in
  let rec walk h =
    if (not (Hash.is_null h)) && not (Hash.Set.mem h !visited) then
      match children_opt h with
      | None -> ()
      | Some children ->
          visited := Hash.Set.add h !visited;
          List.iter walk children
  in
  List.iter walk roots;
  !visited

let reachable t root = reachable_many t [ root ]

let bytes_of_set t set =
  Hash.Set.fold
    (fun h acc ->
      match Hash.Table.find_opt t.tbl h with
      | Some n -> acc + String.length n.bytes
      | None -> (
          match t.backend with
          | None -> acc
          | Some b -> (
              match b.backend_read h with
              | Some (bytes, _) -> acc + String.length bytes
              | None | (exception _) -> acc)))
    set 0

let gc t ~roots =
  let live = reachable_many t roots in
  let dead =
    Hash.Table.fold
      (fun h _ acc -> if Hash.Set.mem h live then acc else h :: acc)
      t.tbl []
  in
  List.iter
    (fun h ->
      let n = Hash.Table.find t.tbl h in
      add_counter t.stored_bytes (-String.length n.bytes);
      Hash.Table.remove t.tbl h;
      Node_cache.remove t.cache h)
    dead;
  (* The backend compacts against the same live set; nodes it drops may be
     absent from the hot table (after [drop_hot]) but could still sit in the
     decoded-node cache, so each dropped hash is invalidated there too. *)
  let backend_dropped =
    match t.backend with
    | None -> []
    | Some b ->
        let dropped = b.backend_compact ~live in
        Node_cache.remove_many t.cache dropped;
        dropped
  in
  (* Filters for roots that were collected describe versions that no longer
     exist; drop them so the registry cannot outgrow the store. *)
  let stale =
    Hash.Table.fold
      (fun root _ acc -> if mem t root then acc else root :: acc)
      t.filters []
  in
  List.iter (Hash.Table.remove t.filters) stale;
  (* Any collected node may sit inside a memoized multiproof. *)
  Proof_cache.clear t.proof_cache;
  Hash.Set.cardinal
    (Hash.Set.union (Hash.Set.of_list dead) (Hash.Set.of_list backend_dropped))

(* --- persistence ---------------------------------------------------------- *)

let magic = "SIRISTORE2"

(* Atomic file replacement.  The temp name carries the pid and a process-wide
   counter so concurrent saves to the same destination never clobber each
   other's half-written file; [fsync] before the rename makes the
   bytes-then-name ordering crash-safe (a torn save leaves only a stale
   [.tmp.*], never a damaged destination). *)

let tmp_counter = Atomic.make 0

let fresh_tmp path =
  Printf.sprintf "%s.tmp.%d.%d" path (Unix.getpid ())
    (Atomic.fetch_and_add tmp_counter 1 + 1)

let tmp_marker = ".tmp."

let is_tmp_of ~base name =
  let prefix = base ^ tmp_marker in
  String.length name > String.length prefix
  && String.sub name 0 (String.length prefix) = prefix

let cleanup_stale_tmp path =
  let dir = Filename.dirname path in
  let base = Filename.basename path in
  match Sys.readdir dir with
  | exception Sys_error _ -> 0
  | names ->
      Array.fold_left
        (fun removed name ->
          if is_tmp_of ~base name then (
            match Sys.remove (Filename.concat dir name) with
            | () -> removed + 1
            | exception Sys_error _ -> removed)
          else removed)
        0 names

(* A rename is not durable until the containing directory's entry table is
   on disk: on ext4 an fsync of the file alone can survive a crash while
   the rename itself is lost, resurrecting the old name.  Every atomic
   replacement therefore ends with an fsync of the parent directory.
   Failures are swallowed — some filesystems refuse fsync on directories,
   and a failed directory sync only weakens durability, never integrity. *)
let fsync_dir dir =
  match Unix.openfile dir [ Unix.O_RDONLY ] 0 with
  | exception Unix.Unix_error _ -> ()
  | fd ->
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () -> try Unix.fsync fd with Unix.Unix_error _ -> ())

let write_file_atomic ?(sync = true) path writer =
  let tmp = fresh_tmp path in
  let oc = open_out_bin tmp in
  (try
     writer oc;
     flush oc;
     if sync then Unix.fsync (Unix.descr_of_out_channel oc);
     close_out oc
   with e ->
     close_out_noerr oc;
     (try Sys.remove tmp with Sys_error _ -> ());
     raise e);
  Sys.rename tmp path;
  if sync then fsync_dir (Filename.dirname path)

(* Insert a node under an explicit key without re-hashing — the load path
   needs this so that a node whose recorded digest no longer matches its
   bytes keeps its original identity (and can then be found by [scrub]). *)
let add_raw t h bytes children =
  if not (Hash.Table.mem t.tbl h) then begin
    Hash.Table.add t.tbl h { bytes; children };
    add_counter t.stored_bytes (String.length bytes)
  end

let save ?sync t path =
  write_file_atomic ?sync path (fun oc ->
      output_string oc magic;
      let write_varint n =
        let rec go n =
          if n < 0x80 then output_char oc (Char.chr n)
          else begin
            output_char oc (Char.chr (0x80 lor (n land 0x7F)));
            go (n lsr 7)
          end
        in
        go n
      in
      write_varint (Hash.Table.length t.tbl);
      Hash.Table.iter
        (fun h node ->
          (* The key digest is recorded alongside the payload so that load
             can detect on-disk damage: any flipped or missing byte makes
             the re-hash disagree with the recorded digest. *)
          output_string oc (Hash.to_raw h);
          write_varint (String.length node.bytes);
          output_string oc node.bytes;
          write_varint (List.length node.children);
          List.iter (fun c -> output_string oc (Hash.to_raw c)) node.children)
        t.tbl)

let load ?(verify = true) path =
  ignore (cleanup_stale_tmp path : int);
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let really n =
        try really_input_string ic n
        with End_of_file -> failwith "Store.load: truncated"
      in
      if (try really_input_string ic (String.length magic)
          with End_of_file -> "")
         <> magic
      then failwith "Store.load: bad magic";
      let read_varint () =
        let rec go shift acc =
          if shift > 56 then failwith "Store.load: malformed length";
          let b = input_byte ic in
          let acc = acc lor ((b land 0x7F) lsl shift) in
          if acc < 0 then failwith "Store.load: malformed length";
          if b land 0x80 = 0 then acc else go (shift + 7) acc
        in
        try go 0 0 with End_of_file -> failwith "Store.load: truncated"
      in
      let t = create () in
      let count = read_varint () in
      for _ = 1 to count do
        let h = Hash.of_raw (really Hash.size) in
        let len = read_varint () in
        let bytes = really len in
        let nchildren = read_varint () in
        let children =
          List.init nchildren (fun _ -> Hash.of_raw (really Hash.size))
        in
        if verify && not (Hash.equal (Hash.of_string bytes) h) then
          failwith
            (Printf.sprintf "Store.load: corrupt node %s (hash mismatch)"
               (Hash.short h));
        add_raw t h bytes children
      done;
      (* A damaged node count would leave bytes unread (or hit EOF above):
         anything after the declared nodes means the count lies. *)
      (match input_char ic with
      | _ -> failwith "Store.load: trailing bytes"
      | exception End_of_file -> ());
      t)

let load_checked ?verify path =
  match load ?verify path with
  | t -> Ok t
  | exception Failure msg -> Error (`Malformed msg)
  | exception Sys_error msg -> Error (`Malformed msg)
  | exception Invalid_argument msg -> Error (`Malformed msg)

(* --- tamper simulation ----------------------------------------------------- *)

(* Every tamper primitive changes (or removes) the bytes stored under a
   key while keeping the key — the one way a cached decoding could go
   stale — so each drops the cache entry for the touched hash. *)

let corrupt t h =
  let n = Hash.Table.find t.tbl h in
  Node_cache.remove t.cache h;
  Proof_cache.clear t.proof_cache;
  if String.length n.bytes = 0 then n.bytes <- "\001"
  else begin
    let b = Bytes.of_string n.bytes in
    Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor 0xFF));
    n.bytes <- Bytes.unsafe_to_string b
  end

let corrupt_at t h ~pos =
  let n = Hash.Table.find t.tbl h in
  Node_cache.remove t.cache h;
  Proof_cache.clear t.proof_cache;
  if String.length n.bytes = 0 then n.bytes <- "\001"
  else begin
    let b = Bytes.of_string n.bytes in
    let i = pos mod Bytes.length b in
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x01));
    n.bytes <- Bytes.unsafe_to_string b
  end

let truncate_node t h ~keep =
  let n = Hash.Table.find t.tbl h in
  Node_cache.remove t.cache h;
  Proof_cache.clear t.proof_cache;
  let keep = max 0 (min keep (String.length n.bytes)) in
  add_counter t.stored_bytes (-(String.length n.bytes - keep));
  n.bytes <- String.sub n.bytes 0 keep

let remove_node t h =
  match Hash.Table.find_opt t.tbl h with
  | None -> false
  | Some n ->
      Node_cache.remove t.cache h;
      Proof_cache.clear t.proof_cache;
      add_counter t.stored_bytes (-String.length n.bytes);
      Hash.Table.remove t.tbl h;
      true

let get_verified t h =
  match find t h with
  | None -> raise Not_found
  | Some bytes ->
      if Hash.equal (Hash.of_string bytes) h then Ok bytes
      else Error (`Tampered h)

(* --- integrity scrub & repair ---------------------------------------------- *)

type scrub_report = {
  scanned : int;
  corrupt : Hash.t list;
  dangling : (Hash.t * Hash.t) list;
  orphaned : Hash.t list;
}

let scrub_clean r = r.corrupt = [] && r.dangling = [] && r.orphaned = []

let scrub ?roots t =
  (* Reads [tbl] directly: integrity checking must see the raw stored
     payloads, bypassing any installed read gate or observer. *)
  let scanned = ref 0 in
  let corrupt = ref [] in
  let dangling = ref [] in
  Hash.Table.iter
    (fun h node ->
      incr scanned;
      if not (Hash.equal (Hash.of_string node.bytes) h) then
        corrupt := h :: !corrupt;
      List.iter
        (fun c ->
          if (not (Hash.is_null c)) && not (Hash.Table.mem t.tbl c) then
            dangling := (h, c) :: !dangling)
        node.children)
    t.tbl;
  (* The cold tier is audited by its own scan (frame checksums plus node
     re-hash); its findings merge into the same report.  Records present in
     both tiers are deduplicated by the sort below. *)
  (match t.backend with
  | None -> ()
  | Some b ->
      List.iter
        (fun h ->
          incr scanned;
          if not (List.mem h !corrupt) then corrupt := h :: !corrupt)
        (b.backend_corrupt ()));
  let orphaned =
    match roots with
    | None -> []
    | Some roots ->
        let live = reachable_many t roots in
        Hash.Table.fold
          (fun h _ acc -> if Hash.Set.mem h live then acc else h :: acc)
          t.tbl []
        |> List.sort Hash.compare
  in
  { scanned = !scanned;
    corrupt = List.sort Hash.compare !corrupt;
    dangling =
      List.sort
        (fun (a, b) (c, d) ->
          match Hash.compare a c with 0 -> Hash.compare b d | n -> n)
        !dangling;
    orphaned }

let pp_scrub_report ppf r =
  Format.fprintf ppf "scanned    : %d node%s@." r.scanned
    (if r.scanned = 1 then "" else "s");
  Format.fprintf ppf "corrupt    : %d@." (List.length r.corrupt);
  List.iter (fun h -> Format.fprintf ppf "  tampered %s@." (Hash.to_hex h)) r.corrupt;
  Format.fprintf ppf "dangling   : %d@." (List.length r.dangling);
  List.iter
    (fun (p, c) ->
      Format.fprintf ppf "  %s -> missing %s@." (Hash.short p) (Hash.to_hex c))
    r.dangling;
  Format.fprintf ppf "orphaned   : %d@." (List.length r.orphaned)

let repair t ~replica =
  let report = scrub t in
  (* Quarantine: a corrupt node is worse than a missing one — its bytes
     would fail verification anyway, and dropping it lets the re-graft
     below restore the authentic payload under the same key. *)
  List.iter (fun h -> ignore (remove_node t h)) report.corrupt;
  let grafted = ref 0 in
  iter_nodes replica (fun bytes children ->
      let h = Hash.of_string bytes in
      if not (Hash.Table.mem t.tbl h) then begin
        add_raw t h bytes children;
        incr grafted
      end);
  !grafted
