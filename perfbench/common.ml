(* What every workload hands back, and the small helpers they share. *)

module Samples = Stats.Samples
module Tally = Stats.Tally

type result = {
  setup_s : float list;  (** one entry per repeated set-up *)
  timed_s : float;  (** length of the timed phase, host-speed samples excluded *)
  ops : int;  (** operations completed in the timed phase *)
  roles : (string * Samples.t) list;
      (** latency samples in seconds of the workload's three operation
          kinds (read, commit, proof, scan, diff or merge): its main
          operation first, then its second and third *)
  calib : Calib.t option;
      (** the host-speed reference the run's timings are scaled by
          (None: they are reported as measured) *)
  bytes_per_user_byte : float;
  peak_rss_mb : float;
  reopen_s : float option;
  tally : Tally.t;
  layers : (string * float) list;  (** per-layer metrics (traced runs) *)
  bypasses : string list;
      (** per-layer metrics of layers this workload does not pass
          through; they read 0 *)
  flush_policy : string;
}

let now = Unix.gettimeofday

(* VmHWM (peak resident set) of a process, in MiB; [pid] = None is this
   process. *)
let peak_rss_mb ?pid () =
  let path =
    match pid with
    | None -> "/proc/self/status"
    | Some p -> Printf.sprintf "/proc/%d/status" p
  in
  match open_in path with
  | exception Sys_error _ -> 0.0
  | ic ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> 0.0
        | line ->
            if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
              Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB"
                (fun kb -> float_of_int kb /. 1024.0)
            else scan ()
      in
      let v = scan () in
      close_in ic;
      v

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
      Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let rec dir_bytes path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
      Array.fold_left
        (fun acc n -> acc + dir_bytes (Filename.concat path n))
        0 (Sys.readdir path)
  | _ -> (Unix.lstat path).Unix.st_size
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> 0

(* Scratch space lives inside the checkout, under the ignored
   [.perfbench/] directory. *)
let scratch_root = ".perfbench"

let ensure_dir d = if not (Sys.file_exists d) then Unix.mkdir d 0o755

(* Run [f] on a fresh scratch directory that is removed however [f]
   ends. *)
let with_scratch name f =
  ensure_dir scratch_root;
  let d = Filename.concat scratch_root (Printf.sprintf "%s-%d" name (Unix.getpid ())) in
  rm_rf d;
  Unix.mkdir d 0o755;
  Fun.protect ~finally:(fun () -> rm_rf d) (fun () -> f d)

(* Time one call into [samples] and count it in [tally]: [f] makes the
   call, [check] judges its answer outside the timed interval.  Any
   exception is a failed operation. *)
let timed_op ?(top = false) ~tally ~samples name f check =
  match Trace.timed ~top name f with
  | answer, dt ->
      Samples.add samples dt;
      Tally.record tally
        (try check answer
         with e -> Stats.Failed (name ^ " check: " ^ Printexc.to_string e))
  | exception e -> Tally.record tally (Stats.Failed (name ^ ": " ^ Printexc.to_string e))

(* Counter deltas per operation kind, for traced runs: each source is
   read before and after every metered call, and the differences add up
   under the call's kind.  Off (a plain call) when tracing is off. *)
module Meter = struct
  type t = {
    sources : (string * (unit -> float)) list;
    totals : (string * string, float) Hashtbl.t;  (** (kind, source) -> sum *)
    calls : (string, int) Hashtbl.t;
  }

  let create sources = { sources; totals = Hashtbl.create 64; calls = Hashtbl.create 8 }

  let around t kind f =
    if not !Trace.enabled then f ()
    else begin
      let before = List.map (fun (_, read) -> read ()) t.sources in
      let r = f () in
      List.iter2
        (fun (name, read) b ->
          let key = (kind, name) in
          let prev = Option.value ~default:0.0 (Hashtbl.find_opt t.totals key) in
          Hashtbl.replace t.totals key (prev +. read () -. b))
        t.sources before;
      Hashtbl.replace t.calls kind (1 + Option.value ~default:0 (Hashtbl.find_opt t.calls kind));
      r
    end

  (* Sum of a source's deltas, and number of calls, over some kinds. *)
  let total t kinds name =
    List.fold_left
      (fun acc k -> acc +. Option.value ~default:0.0 (Hashtbl.find_opt t.totals (k, name)))
      0.0 kinds

  let calls t kinds =
    List.fold_left (fun acc k -> acc + Option.value ~default:0 (Hashtbl.find_opt t.calls k)) 0 kinds

  (* [total / calls] over the kinds, 0 without calls. *)
  let per_call t kinds name = Stats.fratio (total t kinds name) (float_of_int (calls t kinds))
end

(* The timed phase.  [phase s] runs the workload for about [s] seconds
   and returns the time it took and the operations it completed.  An
   untraced run measures [seconds]; a traced run measures half of it
   untraced, then half traced (between [trace_on] and [trace_off]), and
   also returns traced ops/s over untraced ops/s, the tracing overhead. *)
let measure ~traced ~seconds ~phase ~trace_on ~trace_off =
  if not traced then (fst (phase seconds), 0.0)
  else begin
    let t_plain, n_plain = phase (seconds /. 2.0) in
    trace_on ();
    Trace.enabled := true;
    let t_traced, n_traced = phase (seconds /. 2.0) in
    Trace.enabled := false;
    trace_off ();
    ( t_plain +. t_traced,
      Stats.fratio (float_of_int n_traced /. t_traced) (float_of_int n_plain /. t_plain) )
  end

(* Allocation and major collections since [gc_mark] was taken, for the
   in-process workloads' per-layer metrics. *)
let gc_mark () = Gc.quick_stat ()

let gc_layers ~ops (m : Gc.stat) =
  let now = Gc.quick_stat () in
  [ ("gc.minor_words_per_op",
     Stats.fratio (now.Gc.minor_words -. m.Gc.minor_words) (float_of_int ops));
    ("gc.major_collections", float_of_int (now.Gc.major_collections - m.Gc.major_collections)) ]
