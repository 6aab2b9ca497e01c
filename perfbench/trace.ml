(* In-memory spans recorded by the benchmark around its calls into the
   library, written out as NDJSON when the run ends.  Off unless the run
   is traced; then every span has an id, its parent span (-1 at top
   level) and the request it belongs to.  Parents are tracked with one
   cursor, so child spans may only be opened by single-threaded
   workloads; the multi-threaded serve workload records top-level spans
   only. *)

type span = {
  id : int;
  parent : int;
  name : string;
  start : float;
  stop : float;
}

let enabled = ref false
let max_spans = 500_000
let spans : span list ref = ref []
let count = ref 0
let dropped = ref 0
let next_id = ref 0
let current = ref (-1)
let lock = Mutex.create ()

let record s =
  Mutex.lock lock;
  if !count < max_spans then begin
    spans := s :: !spans;
    incr count
  end
  else incr dropped;
  Mutex.unlock lock

let fresh_id () =
  Mutex.lock lock;
  let id = !next_id in
  incr next_id;
  Mutex.unlock lock;
  id

(* Run [f] inside a span; returns its result and its duration in
   seconds (measured whether or not tracing is on). *)
let timed ?(top = false) name f =
  if not !enabled then begin
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  end
  else begin
    let id = fresh_id () in
    let parent = if top then -1 else !current in
    let saved = !current in
    if not top then current := id;
    let t0 = Unix.gettimeofday () in
    let finish () =
      let t1 = Unix.gettimeofday () in
      if not top then current := saved;
      record { id; parent; name; start = t0; stop = t1 };
      t1 -. t0
    in
    match f () with
    | r -> (r, finish ())
    | exception e ->
        ignore (finish () : float);
        raise e
  end

let span name f = fst (timed name f)

let write path =
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\":%d,\"parent\":%d,\"name\":%S,\"start_us\":%.1f,\"dur_us\":%.3f}\n"
        s.id s.parent s.name (s.start *. 1e6) ((s.stop -. s.start) *. 1e6))
    (List.rev !spans);
  if !dropped > 0 then Printf.fprintf oc "{\"dropped\":%d}\n" !dropped;
  close_out oc
