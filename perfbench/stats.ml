(* Statistics used by the benchmark: latency samples and percentile
   selection, operation outcome accounting, and before/after diffs of
   telemetry snapshots.  Pure code, unit-tested in test_stats.ml. *)

(* --- latency samples --------------------------------------------------- *)

module Samples = struct
  type t = { mutable data : float array; mutable n : int }

  let create () = { data = Array.make 1024 0.0; n = 0 }

  let add t x =
    if t.n = Array.length t.data then begin
      let bigger = Array.make (2 * t.n) 0.0 in
      Array.blit t.data 0 bigger 0 t.n;
      t.data <- bigger
    end;
    t.data.(t.n) <- x;
    t.n <- t.n + 1

  let count t = t.n
  let clear t = t.n <- 0

  let append t other =
    for i = 0 to other.n - 1 do
      add t other.data.(i)
    done

  let sorted t =
    let a = Array.sub t.data 0 t.n in
    Array.sort Float.compare a;
    a

  let sum t =
    let s = ref 0.0 in
    for i = 0 to t.n - 1 do
      s := !s +. t.data.(i)
    done;
    !s

  let mean t = if t.n = 0 then 0.0 else sum t /. float_of_int t.n
end

(* Nearest-rank percentile of [p] in (0, 1]: the sample at 1-based rank
   ceil(p * n). *)
let rank ~n p = max 1 (min n (int_of_float (Float.ceil ((p *. float_of_int n) -. 1e-9))))

(* Samples strictly above the percentile's rank. *)
let beyond ~n p = n - rank ~n p

let min_beyond = 10

(* A tail percentile is only reported when at least [min_beyond] samples
   lie beyond it; otherwise it would be a single outlier's value. *)
let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then Error "no samples"
  else if p > 0.5 && beyond ~n p < min_beyond then
    Error
      (Printf.sprintf "p%g needs %d samples beyond it, has %d of %d"
         (p *. 100.0) min_beyond (beyond ~n p) n)
  else Ok sorted.(rank ~n p - 1)

(* The highest of the usual tail percentiles that [n] samples support. *)
let highest_tail n =
  List.find_opt (fun p -> beyond ~n p >= min_beyond) [ 0.999; 0.99; 0.9 ]

let median values =
  match List.sort Float.compare values with
  | [] -> invalid_arg "Stats.median: empty"
  | sorted ->
      let a = Array.of_list sorted in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* --- outcome accounting -------------------------------------------------- *)

type outcome =
  | Done  (** answered, and the answer checked out *)
  | Refused of string  (** the system declined the operation *)
  | Failed of string  (** the operation raised or returned an error *)
  | Wrong of string  (** answered, but the answer is not the expected one *)

module Tally = struct
  type t = {
    mutable attempted : int;
    mutable refused : int;
    mutable failed : int;
    mutable wrong : int;
    mutable first_problem : string option;
  }

  let create () =
    { attempted = 0; refused = 0; failed = 0; wrong = 0; first_problem = None }

  let note t msg =
    if t.first_problem = None then t.first_problem <- Some msg

  let record t = function
    | Done -> t.attempted <- t.attempted + 1
    | Refused m ->
        t.attempted <- t.attempted + 1;
        t.refused <- t.refused + 1;
        note t ("refused: " ^ m)
    | Failed m ->
        t.attempted <- t.attempted + 1;
        t.failed <- t.failed + 1;
        note t ("failed: " ^ m)
    | Wrong m ->
        t.attempted <- t.attempted + 1;
        t.wrong <- t.wrong + 1;
        note t ("wrong answer: " ^ m)

  (* A check made outside any timed operation (e.g. the final state
     comparison) counts as one more attempted operation. *)
  let check t ok msg = record t (if ok then Done else Wrong msg)

  let merge into t =
    into.attempted <- into.attempted + t.attempted;
    into.refused <- into.refused + t.refused;
    into.failed <- into.failed + t.failed;
    into.wrong <- into.wrong + t.wrong;
    Option.iter (note into) t.first_problem

  let bad t = t.refused + t.failed + t.wrong

  let error_rate t =
    if t.attempted = 0 then 0.0
    else float_of_int (bad t) /. float_of_int t.attempted
end

(* --- telemetry snapshots --------------------------------------------------- *)

(* The part of a telemetry sink the benchmark reads: counters, and the
   exact count and sum of every histogram.  Histograms are log-bucketed,
   so only sum/count means are meaningful across a diff, never
   quantiles. *)
type snapshot = {
  counters : (string * int) list;
  histos : (string * (int * float)) list;  (** name -> (count, sum) *)
}

let empty_snapshot = { counters = []; histos = [] }

let snapshot_of_json (j : Jsonp.t) =
  let obj name =
    match Jsonp.member name j with Some (Jsonp.Obj kvs) -> kvs | _ -> []
  in
  let counters =
    List.filter_map
      (fun (k, v) -> Option.map (fun n -> (k, int_of_float n)) (Jsonp.number v))
      (obj "counters")
  in
  let histos =
    List.filter_map
      (fun (k, h) ->
        match
          ( Option.bind (Jsonp.member "count" h) Jsonp.number,
            Option.bind (Jsonp.member "sum" h) Jsonp.number )
        with
        | Some c, Some s -> Some (k, (int_of_float c, s))
        | _ -> None)
      (obj "histograms")
  in
  { counters; histos }

let snapshot_of_string s = snapshot_of_json (Jsonp.parse s)

(* [after - before], name by name; a name missing on one side reads as
   zero there. *)
let diff ~before ~after =
  let counters =
    List.map
      (fun (k, v) ->
        (k, v - Option.value ~default:0 (List.assoc_opt k before.counters)))
      after.counters
  in
  let histos =
    List.map
      (fun (k, (c, s)) ->
        let c0, s0 = Option.value ~default:(0, 0.0) (List.assoc_opt k before.histos) in
        (k, (c - c0, s -. s0)))
      after.histos
  in
  { counters; histos }

let counter snap name = Option.value ~default:0 (List.assoc_opt name snap.counters)

let histo_count snap name =
  match List.assoc_opt name snap.histos with Some (c, _) -> c | None -> 0

let histo_sum snap name =
  match List.assoc_opt name snap.histos with Some (_, s) -> s | None -> 0.0

let histo_mean snap name =
  match List.assoc_opt name snap.histos with
  | Some (c, s) when c > 0 -> s /. float_of_int c
  | _ -> 0.0

let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b
let fratio a b = if b = 0.0 then 0.0 else a /. b
