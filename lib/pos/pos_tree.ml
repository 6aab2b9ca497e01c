open Siri_crypto
open Siri_core
module Store = Siri_store.Store
module Wire = Siri_codec.Wire
module Telemetry = Siri_telemetry.Telemetry
module Chunker = Siri_chunk.Chunker

type internal_rule =
  | By_child_hash of { bits : int; min_items : int; max_items : int }
  | By_rolling of Chunker.config

type config = {
  leaf : Chunker.config;
  internal : internal_rule;
  non_recursively_identical : bool;
  local_split : bool;
      (* Non-structurally-invariant mode (Section 5.5.1): updates stay
         inside the touched node, which splits on overflow but never
         re-merges with its successors — so boundaries depend on update
         history, like a B+-tree. *)
}

let config ?(leaf_target = 1024) ?(internal_bits = 5) ?internal
    ?(non_recursively_identical = false) () =
  let internal =
    match internal with
    | Some rule -> rule
    | None ->
        By_child_hash
          { bits = internal_bits; min_items = 2; max_items = 64 * (1 lsl internal_bits) }
  in
  { leaf = Chunker.config_for_leaf_size leaf_target;
    internal;
    non_recursively_identical;
    local_split = false }

let config_prolly ?(leaf_target = 4096) ?(internal_target = 4096) () =
  { leaf = Chunker.config_for_leaf_size leaf_target;
    internal = By_rolling (Chunker.config_for_leaf_size internal_target);
    non_recursively_identical = false;
    local_split = false }

let config_non_structurally_invariant ?(leaf_target = 1024) () =
  (* Pattern so rare (2^22 bytes expected) that almost every boundary is a
     forced split at the maximum size; combined with local (in-node) update
     handling, split points depend on the update history. *)
  { leaf = Chunker.config ~pattern_bits:22 ~max_size:leaf_target ();
    internal = By_child_hash { bits = 5; min_items = 2; max_items = 32 };
    non_recursively_identical = false;
    local_split = true }

let config_non_recursively_identical ?(leaf_target = 1024) () =
  { (config ~leaf_target ()) with non_recursively_identical = true }

type t = { store : Store.t; cfg : config; root : Hash.t; salt : string }

let empty store cfg = { store; cfg; root = Hash.null; salt = "" }
let of_root store cfg root = { store; cfg; root; salt = "" }
let root t = t.root
let store t = t.store
let conf t = t.cfg

(* Fresh salts for the non-recursively-identical ablation: every write makes
   byte-distinct nodes, so the content-addressed store can never share.
   Atomic so concurrent builds never mint the same salt. *)
let salt_counter = Atomic.make 0

let next_salt () = Printf.sprintf "v%d" (Atomic.fetch_and_add salt_counter 1 + 1)

(* --- node codec ---------------------------------------------------------- *)

let tag_leaf = 0
let tag_internal = 1

type node =
  | Leaf of (Kv.key * Kv.value) array
  | Internal of int * (Kv.key * Hash.t) array  (* height >= 1, split keys *)

type Siri_readpath.Node_cache.repr += Cached of node

(* A node is a header, [u8 tag; str salt; u8 level (internal only);
   varint count], then its items' encodings: [str k; str v] per record,
   [str k; hash] per ref.  Builds write each item once, into a body buffer
   that the rolling chunker reads in place; [node_bytes] then puts the
   header in front of the node's slice of that body. *)
let write_entry w k v =
  Wire.Writer.str w k;
  Wire.Writer.str w v

let write_ref w k h =
  Wire.Writer.str w k;
  Wire.Writer.hash w h

let node_bytes salt lvl ~count body ~off ~len =
  let hdr = Wire.Writer.create ~capacity:(String.length salt + 16) () in
  Wire.Writer.u8 hdr (if lvl = 0 then tag_leaf else tag_internal);
  Wire.Writer.str hdr salt;
  if lvl > 0 then Wire.Writer.u8 hdr lvl;
  Wire.Writer.varint hdr count;
  let hl = Wire.Writer.length hdr in
  let node = Bytes.create (hl + len) in
  Bytes.blit (Wire.Writer.unsafe_bytes hdr) 0 node 0 hl;
  Bytes.blit body off node hl len;
  Bytes.unsafe_to_string node

let decode bytes =
  let r = Wire.Reader.of_string bytes in
  let tag = Wire.Reader.u8 r in
  let _salt = Wire.Reader.str r in
  if tag = tag_leaf then
    Leaf
      (Array.init (Wire.Reader.varint r) (fun _ ->
           let k = Wire.Reader.str r in
           let v = Wire.Reader.str r in
           (k, v)))
  else begin
    let level = Wire.Reader.u8 r in
    Internal
      ( level,
        Array.init (Wire.Reader.varint r) (fun _ ->
            let k = Wire.Reader.str r in
            let h = Wire.Reader.hash r in
            (k, h)) )
  end

(* Read through the store's decoded-node cache.  Decoded entry/ref arrays
   are never mutated (writes rebuild via the streaming rebuilder), so
   sharing one decoding across lookups is safe.  The salt dropped by
   [decode] is irrelevant to reads. *)
let get store h =
  let cache = Store.cache store in
  if not (Siri_readpath.Node_cache.enabled cache) then
    decode (Store.get store h)
  else
    match Siri_readpath.Node_cache.find cache h with
    | Some (Cached node) -> node
    | _ ->
        let bytes = Store.get store h in
        let node = decode bytes in
        Siri_readpath.Node_cache.insert cache h ~bytes:(String.length bytes)
          (Cached node);
        node

(* --- streaming rebuilder -------------------------------------------------- *)

(* Stream 0 carries records; stream l>=1 carries refs to height-(l-1) nodes.
   Each item is encoded straight into its stream's pending node body, and
   the chunk boundary is decided as it arrives — the rolling rule reads the
   bytes just written.  A finished chunk becomes a node whose ref is pushed
   onto the stream above.  Reusing a clean subtree of height l is legal
   exactly when streams 0..l are at a boundary (all pendings empty, rolling
   states reset). *)

type rule =
  | Rolling of Chunker.t  (* records, or refs under [By_rolling] *)
  | Child_hash of { hcfg : Chunker.config; min_items : int; max_items : int }

let level_rule cfg lvl =
  if lvl = 0 then Rolling (Chunker.create cfg.leaf)
  else
    match cfg.internal with
    | By_rolling c -> Rolling (Chunker.create c)
    | By_child_hash { bits; min_items; max_items } ->
        Child_hash { hcfg = Chunker.config ~pattern_bits:bits (); min_items; max_items }

(* Whether a node ends after the item just encoded at [off, off + len) of
   [body], [count] items now pending; [child] is the item's child hash
   (refs only).  Shared by the streaming rebuilder and the bulk cut scan. *)
let fires rule lvl ~count body ~off ~len child =
  match rule with
  | Rolling c ->
      (* Never cut a single-ref chunk: a chain of one-child internal nodes
         would grow the tree height unboundedly. *)
      Chunker.feed_range c body ~off ~len && (lvl = 0 || count >= 2)
  | Child_hash { hcfg; min_items; max_items } ->
      count >= max_items || (count >= min_items && Chunker.hash_boundary hcfg child)

(* Telemetry [chunk.bytes]: the bytes a build handed to its rolling
   chunkers. *)
let note_rolled store rules =
  let sink = Store.sink store in
  if Telemetry.enabled sink then
    Telemetry.incr sink "chunk.bytes"
      ~by:
        (List.fold_left
           (fun acc -> function Rolling c -> acc + Chunker.fed c | Child_hash _ -> acc)
           0 rules)

type stream = {
  rule : rule;
  body : Wire.Writer.t;  (* the pending node's encoded items *)
  mutable children : Hash.t list;  (* the pending node's refs, reversed *)
  mutable last_key : Kv.key;
  mutable pending_count : int;
  mutable total : int;
}

type rebuilder = {
  rstore : Store.t;
  rcfg : config;
  rsalt : string;
  mutable streams : stream array;
}

let new_stream cfg lvl =
  { rule = level_rule cfg lvl;
    body = Wire.Writer.create ~capacity:2048 ();
    children = [];
    last_key = "";
    pending_count = 0;
    total = 0 }

let rebuilder store cfg salt =
  { rstore = store; rcfg = cfg; rsalt = salt; streams = [||] }

let stream r lvl =
  let n = Array.length r.streams in
  if lvl >= n then begin
    let bigger =
      Array.init (lvl + 1) (fun i ->
          if i < n then r.streams.(i) else new_stream r.rcfg i)
    in
    r.streams <- bigger
  end;
  r.streams.(lvl)

(* The item just encoded at [off] of [s.body] joins the pending node. *)
let rec push r lvl s ~off key child =
  s.last_key <- key;
  s.pending_count <- s.pending_count + 1;
  s.total <- s.total + 1;
  let len = Wire.Writer.length s.body - off in
  if fires s.rule lvl ~count:s.pending_count (Wire.Writer.unsafe_bytes s.body) ~off
       ~len child
  then flush_stream r lvl

and flush_stream r lvl =
  let s = stream r lvl in
  if s.pending_count > 0 then begin
    let bytes =
      node_bytes r.rsalt lvl ~count:s.pending_count (Wire.Writer.unsafe_bytes s.body)
        ~off:0 ~len:(Wire.Writer.length s.body)
    in
    let h = Store.put r.rstore ~children:(List.rev s.children) bytes in
    Wire.Writer.clear s.body;
    s.children <- [];
    s.pending_count <- 0;
    (match s.rule with Rolling c -> Chunker.reset c | Child_hash _ -> ());
    add_ref r (lvl + 1) s.last_key h
  end

and add_ref r lvl k h =
  let s = stream r lvl in
  let off = Wire.Writer.length s.body in
  write_ref s.body k h;
  s.children <- h :: s.children;
  push r lvl s ~off k h

let add_entry r k v =
  let s = stream r 0 in
  let off = Wire.Writer.length s.body in
  write_entry s.body k v;
  push r 0 s ~off k Hash.null

(* A clean subtree of height [h] can be reused iff all streams up to and
   including [h] are at a boundary. *)
let can_reuse r height =
  let rec check lvl =
    if lvl > height then true
    else if lvl >= Array.length r.streams then true
    else r.streams.(lvl).pending_count = 0 && check (lvl + 1)
  in
  check 0

let finish r =
  let above_active lvl =
    let rec check l =
      l < Array.length r.streams
      && (r.streams.(l).total > 0 || check (l + 1))
    in
    check (lvl + 1)
  in
  let rec loop lvl =
    let s = stream r lvl in
    if lvl >= 1 && s.total = 1 && s.pending_count = 1 && not (above_active lvl)
    then
      List.hd s.children
    else begin
      flush_stream r lvl;
      if s.total = 0 && not (above_active lvl) then Hash.null else loop (lvl + 1)
    end
  in
  loop 0

(* --- batch update ---------------------------------------------------------- *)

(* Split sorted ops among children: child i takes ops with key <= its split
   key; the last child also takes everything beyond the largest split key. *)
let partition_ops refs ops =
  let n = Array.length refs in
  let buckets = Array.make n [] in
  let rec go i ops =
    match ops with
    | [] -> ()
    | op :: rest ->
        let key = Kv.key_of_op op in
        let rec advance i =
          if i >= n - 1 then n - 1
          else if String.compare key (fst refs.(i)) <= 0 then i
          else advance (i + 1)
        in
        let i = advance i in
        buckets.(i) <- op :: buckets.(i);
        go i rest
  in
  go 0 ops;
  Array.map List.rev buckets

let rec emit r h height ops ~reuse =
  if ops = [] && reuse && can_reuse r height then begin
    (* Whole subtree is clean and chunking is aligned: reuse by ref.  The
       subtree's max key is needed by the parent; it is the key of its last
       item, which equals the split key the parent stored — the caller passes
       it via [h]'s ref; here we only have the hash, so fetch lazily. *)
    match get r.rstore h with
    | Leaf entries when Array.length entries = 0 -> ()
    | Leaf entries ->
        add_ref r (height + 1) (fst entries.(Array.length entries - 1)) h
    | Internal (_, refs) ->
        add_ref r (height + 1) (fst refs.(Array.length refs - 1)) h
  end
  else
    match get r.rstore h with
    | Leaf entries ->
        let merged = Kv.apply_sorted (Array.to_list entries) ops in
        List.iter (fun (k, v) -> add_entry r k v) merged;
        (* Local mode: contain the edit within this node's span — cut here
           instead of re-chunking into the following nodes. *)
        if r.rcfg.local_split then flush_stream r 0
    | Internal (lvl, refs) ->
        let buckets = partition_ops refs ops in
        Array.iteri
          (fun i (key, child) ->
            if buckets.(i) = [] && reuse && can_reuse r (lvl - 1) then
              add_ref r lvl key child
            else emit r child (lvl - 1) buckets.(i) ~reuse)
          refs

let rebuild t ops salt ~reuse =
  let r = rebuilder t.store t.cfg salt in
  (if Hash.is_null t.root then
     List.iter (fun (k, v) -> add_entry r k v) (Kv.apply_sorted [] ops)
   else emit r t.root max_int ops ~reuse);
  let root = finish r in
  note_rolled t.store (List.map (fun s -> s.rule) (Array.to_list r.streams));
  { t with root; salt }

let batch t ops =
  let ops = Kv.sort_ops ops in
  if ops = [] then t
  else if t.cfg.non_recursively_identical then
    (* Fresh salt: every node of the new version is byte-distinct, and the
       whole tree must be rewritten. *)
    rebuild t ops (next_salt ()) ~reuse:false
  else rebuild t ops t.salt ~reuse:true

let insert t k v = batch t [ Kv.Put (k, v) ]
let remove t k = batch t [ Kv.Del k ]

let of_entries store cfg entries =
  batch (empty store cfg) (List.map (fun (k, v) -> Kv.Put (k, v)) entries)

(* --- parallel bulk load ---------------------------------------------------- *)

(* Chunk boundaries depend only on the item sequence (the tree is
   history-independent for a full build), so a bulk load can be split into
   two passes per level: a sequential scan that encodes the level's items
   once and replays the streaming boundary rules ([fires]) over them to
   find the cut points, then a parallel pass putting each chunk's header in
   front of its slice of the encoded level and hashing it on the pool.  The
   scan is a rolling hash over the encoded items — an order of magnitude
   cheaper than the SHA-256 work it unlocks. *)

module Pool = Siri_parallel.Pool

let of_sorted ?pool store cfg entries =
  let entries =
    Kv.apply_sorted []
      (Kv.sort_ops (List.map (fun (k, v) -> Kv.Put (k, v)) entries))
  in
  match entries with
  | [] -> empty store cfg
  | _ ->
      let pool = match pool with Some p -> p | None -> Pool.sequential in
      let salt = if cfg.non_recursively_identical then next_salt () else "" in
      let sink = Store.sink store in
      let rules = ref [] in
      (* One level: encode [items] once (item i at [ends.(i), ends.(i+1))
         of the body), cut, then stage the nodes on the pool — quiet
         hashing in the workers, then observer replay + batched install in
         segment order on the coordinator: the same digest/put sequence as
         the streaming rebuilder emits for these nodes.  [child i] is item
         i's child hash (refs only). *)
      let stage_level lvl items write child =
        let n = Array.length items in
        let body = Wire.Writer.create ~capacity:(64 * n) () in
        let ends = Array.make (n + 1) 0 in
        Array.iteri
          (fun i (k, x) ->
            write body k x;
            ends.(i + 1) <- Wire.Writer.length body)
          items;
        let buf = Wire.Writer.unsafe_bytes body in
        let rule = level_rule cfg lvl in
        rules := rule :: !rules;
        let segs = ref [] and lo = ref 0 in
        for i = 0 to n - 1 do
          if
            fires rule lvl ~count:(i + 1 - !lo) buf ~off:ends.(i)
              ~len:(ends.(i + 1) - ends.(i)) (child i)
          then begin
            segs := (!lo, i + 1) :: !segs;
            lo := i + 1
          end
        done;
        if !lo < n then segs := (!lo, n) :: !segs;
        let segs = Array.of_list (List.rev !segs) in
        let staged =
          Telemetry.with_span sink "commit.parallel" (fun () ->
              Pool.map pool
                (fun (lo, hi) ->
                  let children =
                    if lvl = 0 then [] else List.init (hi - lo) (fun j -> child (lo + j))
                  in
                  ( fst items.(hi - 1),
                    Store.stage_quiet ~children
                      (node_bytes salt lvl ~count:(hi - lo) buf ~off:ends.(lo)
                         ~len:(ends.(hi) - ends.(lo))) ))
                segs)
        in
        let as_list = Array.to_list (Array.map snd staged) in
        Store.note_staged as_list;
        Store.put_staged store as_list;
        if Telemetry.enabled sink then begin
          Telemetry.incr sink "parallel.maps";
          Telemetry.incr sink ~by:(Array.length segs) "parallel.tasks";
          Telemetry.incr sink ~by:(Array.length segs) "parallel.nodes"
        end;
        Array.map (fun (k, s) -> (k, s.Store.digest)) staged
      in
      let rec build lvl refs =
        if Array.length refs = 1 then snd refs.(0)
        else build (lvl + 1) (stage_level lvl refs write_ref (fun i -> snd refs.(i)))
      in
      let root =
        build 1 (stage_level 0 (Array.of_list entries) write_entry (fun _ -> Hash.null))
      in
      note_rolled store !rules;
      { store; cfg; root; salt }

let insert_many ?pool t entries =
  if Hash.is_null t.root then of_sorted ?pool t.store t.cfg entries
  else batch t (List.map (fun (k, v) -> Kv.Put (k, v)) entries)

(* --- queries ----------------------------------------------------------------- *)

(* First index in [refs] whose split key is >= key, or none. *)
let child_for refs key =
  let n = Array.length refs in
  let rec bsearch lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if String.compare (fst refs.(mid)) key < 0 then bsearch (mid + 1) hi
      else bsearch lo mid
  in
  let i = bsearch 0 n in
  if i = n then None else Some i

let find_entry entries key =
  let n = Array.length entries in
  let rec bsearch lo hi =
    if lo >= hi then None
    else
      let mid = (lo + hi) / 2 in
      let k, v = entries.(mid) in
      match String.compare key k with
      | 0 -> Some v
      | c when c < 0 -> bsearch lo mid
      | _ -> bsearch (mid + 1) hi
  in
  bsearch 0 n

let lookup_count t key =
  let rec go h visited =
    match get t.store h with
    | Leaf entries -> (find_entry entries key, visited + 1)
    | Internal (_, refs) -> (
        match child_for refs key with
        | None -> (None, visited + 1)
        | Some i -> go (snd refs.(i)) (visited + 1))
  in
  if Hash.is_null t.root then (None, 0) else go t.root 0

let lookup t key = fst (lookup_count t key)
let path_length t key = snd (lookup_count t key)

(* Batched point lookups: distinct sorted keys walk the tree once.  At an
   internal node the still-alive slice is split at the child separators
   (keys <= a split key descend into that child), so every shared prefix
   node is fetched and decoded once for the whole batch. *)
(* The walk itself, parameterized by node fetch so the same traversal
   serves lookups (cache-aware [get]), proving ([Multiproof.recorder]) and
   verifying ([Multiproof.consumer]). *)
let walk_many ~fetch root arr found =
    let rec go h lo hi =
      match fetch h with
      | Leaf entries ->
          for i = lo to hi - 1 do
            match find_entry entries arr.(i) with
            | Some v -> Hashtbl.replace found arr.(i) v
            | None -> ()
          done
      | Internal (_, refs) ->
          let i = ref lo in
          while !i < hi do
            match child_for refs arr.(!i) with
            | None ->
                (* Beyond the last split key; so is every later key: this
                   node witnesses their absence. *)
                i := hi
            | Some c ->
                let split = fst refs.(c) in
                let j = ref (!i + 1) in
                while !j < hi && String.compare arr.(!j) split <= 0 do
                  incr j
                done;
                go (snd refs.(c)) !i !j;
                i := !j
          done
    in
    go root 0 (Array.length arr)

let get_many t keys =
  if keys = [] then []
  else begin
    let found = Hashtbl.create (List.length keys) in
    let arr = Array.of_list (List.sort_uniq String.compare keys) in
    if not (Hash.is_null t.root) then
      walk_many ~fetch:(get t.store) t.root arr found;
    List.map (fun k -> (k, Hashtbl.find_opt found k)) keys
  end

let height t =
  if Hash.is_null t.root then 0
  else
    match get t.store t.root with
    | Leaf _ -> 1
    | Internal (lvl, _) -> lvl + 1

let iter t f =
  let rec go h =
    match get t.store h with
    | Leaf entries -> Array.iter (fun (k, v) -> f k v) entries
    | Internal (_, refs) -> Array.iter (fun (_, c) -> go c) refs
  in
  if not (Hash.is_null t.root) then go t.root

let to_list t =
  let acc = ref [] in
  iter t (fun k v -> acc := (k, v) :: !acc);
  List.rev !acc

let cardinal t =
  let n = ref 0 in
  iter t (fun _ _ -> incr n);
  !n

let leaf_sizes t =
  let acc = ref [] in
  let rec go h =
    match get t.store h with
    | Leaf _ -> acc := Store.size_of t.store h :: !acc
    | Internal (_, refs) -> Array.iter (fun (_, c) -> go c) refs
  in
  if not (Hash.is_null t.root) then go t.root;
  List.rev !acc

(* --- range queries ---------------------------------------------------------- *)

let in_range ~lo ~hi k =
  (match lo with None -> true | Some l -> String.compare k l >= 0)
  && match hi with None -> true | Some h -> String.compare k h <= 0

let range t ~lo ~hi =
  let acc = ref [] in
  let rec walk h =
    match get t.store h with
    | Leaf entries ->
        Array.iter
          (fun (k, v) -> if in_range ~lo ~hi k then acc := (k, v) :: !acc)
          entries
    | Internal (_, refs) ->
        (* Child i covers (split_{i-1}, split_i]. *)
        let prev = ref None in
        Array.iter
          (fun (split, child) ->
            let hit =
              (match lo with None -> true | Some l -> String.compare split l >= 0)
              && (match (hi, !prev) with
                 | None, _ | _, None -> true
                 | Some h, Some p -> String.compare p h < 0)
            in
            if hit then walk child;
            prev := Some split)
          refs
  in
  if not (Hash.is_null t.root) then walk t.root;
  List.rev !acc

(* --- streaming scan --------------------------------------------------------

   Lazy split-key descent over the half-open interval [lo, hi): the same
   child-hit predicate as [range] (child i covers (split_{i-1}, split_i])
   selects which subtrees can intersect the interval, but children are
   expanded only as the consumer demands entries.  Keys arrive in global
   order, so the first key >= hi terminates the whole stream — frames
   still on the stack cover strictly larger keys and are never fetched. *)
let scan t ~lo ~hi =
  let below_lo k =
    match lo with None -> false | Some l -> String.compare k l < 0
  in
  let at_or_above_hi k =
    match hi with None -> false | Some h -> String.compare k h >= 0
  in
  let rec step stack () =
    match stack with
    | [] -> Seq.Nil
    | `Leaf (entries, i) :: rest ->
        if i >= Array.length entries then step rest ()
        else
          let k, v = entries.(i) in
          if at_or_above_hi k then Seq.Nil
          else if below_lo k then step (`Leaf (entries, i + 1) :: rest) ()
          else Seq.Cons ((k, v), step (`Leaf (entries, i + 1) :: rest))
    | `Node h :: rest -> (
        match get t.store h with
        | Leaf entries -> step (`Leaf (entries, 0) :: rest) ()
        | Internal (_, refs) ->
            let frames = ref rest in
            for i = Array.length refs - 1 downto 0 do
              let split, child = refs.(i) in
              let prev = if i = 0 then None else Some (fst refs.(i - 1)) in
              let hit =
                (match lo with
                | None -> true
                | Some l -> String.compare split l >= 0)
                && match (hi, prev) with
                   | None, _ | _, None -> true
                   | Some h, Some p -> String.compare p h < 0
              in
              if hit then frames := `Node child :: !frames
            done;
            step !frames ())
  in
  if Hash.is_null t.root then Seq.empty else step [ `Node t.root ]

(* --- diff / merge --------------------------------------------------------------- *)

let td_decode_bytes bytes =
  match decode bytes with
  | Leaf entries -> Tree_diff.Entries (Array.to_list entries)
  | Internal (lvl, refs) -> Tree_diff.Children (lvl, Array.to_list refs)

let td_decode store h = td_decode_bytes (Store.get store h)

let diff t1 t2 =
  Tree_diff.diff ~decode:(td_decode t1.store) ~left:t1.root ~right:t2.root

let merge t1 t2 ~policy =
  let diffs = diff t1 t2 in
  let conflicts = ref [] in
  let ops =
    List.filter_map
      (fun { Kv.key; left; right } ->
        match (left, right) with
        | _, None -> None
        | None, Some rv -> Some (Kv.Put (key, rv))
        | Some lv, Some rv -> (
            match Kv.merge_values policy key lv rv with
            | Ok v -> if String.equal v lv then None else Some (Kv.Put (key, v))
            | Error c ->
                conflicts := c :: !conflicts;
                None))
      diffs
  in
  match !conflicts with
  | [] -> Ok (batch t1 ops)
  | cs -> Error (List.rev cs)

(* --- proofs ----------------------------------------------------------------------- *)

let prove t key =
  let rec go h acc =
    let bytes = Store.get t.store h in
    let acc = bytes :: acc in
    match decode bytes with
    | Leaf entries -> (find_entry entries key, acc)
    | Internal (_, refs) -> (
        match child_for refs key with
        | None -> (None, acc)
        | Some i -> go (snd refs.(i)) acc)
  in
  if Hash.is_null t.root then { Proof.key; value = None; nodes = [] }
  else begin
    let value, rev_nodes = go t.root [] in
    { Proof.key; value; nodes = List.rev rev_nodes }
  end

let verify_proof ~root (proof : Proof.t) =
  let rec go expected nodes =
    match nodes with
    | [] -> Error ()
    | bytes :: rest ->
        if not (Hash.equal (Hash.of_string bytes) expected) then Error ()
        else begin
          match decode bytes with
          | exception _ -> Error ()
          | Leaf entries ->
              if rest = [] then Ok (find_entry entries proof.key) else Error ()
          | Internal (_, refs) -> (
              match child_for refs proof.key with
              | None -> if rest = [] then Ok None else Error ()
              | Some i -> go (snd refs.(i)) rest)
        end
  in
  if Hash.is_null root then proof.nodes = [] && proof.value = None
  else
    match go root proof.nodes with
    | Ok v -> v = proof.value
    | Error () -> false

(* --- multiproofs ----------------------------------------------------------- *)

(* See the note in Mpt: the batched [walk_many] with recording/replaying
   fetches — prove and verify traverse identically, so the verifier can
   consume the deduplicated node list in first-visit order. *)

let prove_many t keys =
  let keys = List.sort_uniq String.compare keys in
  if keys = [] || Hash.is_null t.root then
    { Multiproof.claims = List.map (fun k -> (k, None)) keys; nodes = [] }
  else begin
    let fetch_bytes, recorded = Multiproof.recorder ~get:(Store.get t.store) in
    let found = Hashtbl.create (List.length keys) in
    walk_many
      ~fetch:(fun h -> decode (fetch_bytes h))
      t.root (Array.of_list keys) found;
    { Multiproof.claims = List.map (fun k -> (k, Hashtbl.find_opt found k)) keys;
      nodes = recorded () }
  end

let verify_many ~root (mp : Multiproof.t) =
  if not (Multiproof.well_formed mp) then false
  else if Hash.is_null root then
    mp.nodes = [] && List.for_all (fun (_, v) -> v = None) mp.claims
  else if mp.claims = [] then mp.nodes = []
  else begin
    let fetch_bytes, finished = Multiproof.consumer mp.nodes in
    let fetch h =
      match decode (fetch_bytes h) with
      | node -> node
      | exception Multiproof.Rejected -> raise Multiproof.Rejected
      | exception _ -> raise Multiproof.Rejected
    in
    let found = Hashtbl.create (List.length mp.claims) in
    match
      walk_many ~fetch root (Array.of_list (Multiproof.keys mp)) found
    with
    | () ->
        finished ()
        && List.for_all
             (fun (k, claimed) -> Hashtbl.find_opt found k = claimed)
             mp.claims
    | exception _ -> false
  end

let stats t =
  Tree_stats.collect ~get:(Store.get t.store) ~decode:td_decode_bytes ~root:t.root

(* --- range proofs --------------------------------------------------------------- *)

let prove_range t ~lo ~hi =
  Range_proof.prove
    ~get:(Store.get t.store)
    ~decode:td_decode_bytes ~root:t.root ~lo ~hi

let verify_range_proof ~root proof =
  Range_proof.verify ~decode:td_decode_bytes ~root proof

(* --- generic ------------------------------------------------------------------------ *)

(* Telemetry probes: see the note in Mpt.generic — observation only, no
   effect on hashing.  The probe prefix follows the instance name, so a
   Prolly-configured tree reports as [prolly.<op>]. *)
let probe t name f = Telemetry.probe (Store.sink t.store) name f

let rec generic_named ?pool name t =
  let p_lookup = name ^ ".lookup"
  and p_get_many = name ^ ".get_many"
  and p_batch = name ^ ".batch"
  and p_bulk = name ^ ".bulk_load"
  and p_diff = name ^ ".diff"
  and p_prove = name ^ ".prove"
  and p_prove_many = name ^ ".prove_many" in
  { Generic.name;
    store = t.store;
    root = t.root;
    lookup = (fun k -> probe t p_lookup (fun () -> lookup t k));
    get_many = (fun ks -> probe t p_get_many (fun () -> get_many t ks));
    path_length = path_length t;
    batch =
      (fun ops ->
        generic_named ?pool name (probe t p_batch (fun () -> batch t ops)));
    bulk_load =
      (fun entries ->
        generic_named ?pool name
          (probe t p_bulk (fun () -> of_sorted ?pool t.store t.cfg entries)));
    to_list = (fun () -> to_list t);
    cardinal = (fun () -> cardinal t);
    diff = (fun other -> probe t p_diff (fun () -> diff t { t with root = other }));
    merge =
      (fun policy other ->
        match merge t { t with root = other } ~policy with
        | Ok m -> Ok (generic_named ?pool name m)
        | Error cs -> Error cs);
    prove = (fun k -> probe t p_prove (fun () -> prove t k));
    verify = (fun ~root proof -> verify_proof ~root proof);
    prove_many = (fun ks -> probe t p_prove_many (fun () -> prove_many t ks));
    verify_many = (fun ~root mp -> verify_many ~root mp);
    reopen = (fun r -> generic_named ?pool name { t with root = r });
    range = (fun ~lo ~hi -> range t ~lo ~hi);
    scan = (fun ~lo ~hi -> scan t ~lo ~hi) }

let generic ?pool t = generic_named ?pool "pos-tree" t
