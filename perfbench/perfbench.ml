(* The repository's benchmark.  One run measures one workload:

     perfbench --workload NAME --seed N --seconds S --trace 0|1

   Every run prints a human-readable report (every metric by name and
   unit, host metadata), then, as its last stdout line, one JSON object
   {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
   with --trace 0, the per-layer metrics with --trace 1.  The exit code
   is 0 only when every answer checked out.  [perfbench/run.sh] builds
   this program and the server from source and runs it. *)

module Samples = Stats.Samples
module Tally = Stats.Tally

let workloads =
  [ ("serve_ycsb", Serve_ycsb.run);
    ("cold_eth", Cold_eth.run);
    ("wiki_history", Wiki_history.run) ]

(* The metric names and units of a section of BENCHMARK.json
   ("end_to_end" or "per_layer"), in the order it lists them. *)
let metric_specs bench section =
  List.map
    (fun m ->
      match
        ( Option.bind (Jsonp.member "name" m) Jsonp.string,
          Option.bind (Jsonp.member "unit" m) Jsonp.string )
      with
      | Some name, Some unit -> (name, unit)
      | _ -> failwith ("BENCHMARK.json: a " ^ section ^ " metric lacks a name or unit"))
    (Option.fold ~none:[] ~some:Jsonp.list (Jsonp.member section bench))

let read_json path =
  let ic = open_in_bin path in
  Jsonp.parse
    (Fun.protect
       ~finally:(fun () -> close_in ic)
       (fun () -> really_input_string ic (in_channel_length ic)))

let ms s = 1000.0 *. s

let host_json ~workload ~seed ~flush_policy =
  let git =
    match Sys.getenv_opt "PERFBENCH_GIT_COMMIT" with
    | Some c when c <> "" -> c
    | _ -> "unknown"
  in
  Printf.sprintf
    "{\"workload\":%S,\"seed\":%d,\"nproc\":%d,\"ocaml\":%S,\"flambda\":%b,\"git_commit\":%S,\"flush_policy\":%S}"
    workload seed (Domain.recommended_domain_count ()) Sys.ocaml_version
    Build_info.flambda git flush_policy

let fail_usage msg =
  prerr_endline ("perfbench: " ^ msg);
  exit 2

let main () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed (default 1)");
      ("--seconds", Arg.Set_int seconds, "S length of the timed phase");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics") ]
    (fun a -> fail_usage ("unexpected argument " ^ a))
    "perfbench --workload NAME --seed N --seconds S --trace 0|1";
  let run =
    match List.assoc_opt !workload workloads with
    | Some r -> r
    | None ->
        fail_usage
          ("unknown workload; one of: " ^ String.concat ", " (List.map fst workloads))
  in
  if !seconds < 1 then fail_usage "--seconds must be at least 1";
  if !trace <> 0 && !trace <> 1 then fail_usage "--trace must be 0 or 1";
  let traced = !trace = 1 in
  (* The metrics to report, and the map that explains each per-layer
     one, must agree before anything runs. *)
  let specs, layer_map =
    match (read_json "BENCHMARK.json", read_json (Filename.concat "perfbench" "layers.json")) with
    | bench, layers ->
        ( metric_specs bench (if traced then "per_layer" else "end_to_end"),
          Option.bind (Jsonp.member "per_layer" layers) (function
            | Jsonp.Obj kvs -> Some (List.map fst kvs)
            | _ -> None) )
    | exception (Sys_error e | Failure e | Jsonp.Error e) -> fail_usage e
  in
  if traced then
    List.iter
      (fun (name, _) ->
        if not (List.mem name (Option.value ~default:[] layer_map)) then
          fail_usage ("perfbench/layers.json does not describe " ^ name))
      specs;
  let r : Common.result =
    run ~seed:!seed ~seconds:(float_of_int !seconds) ~traced
  in
  let tally = r.Common.tally in
  (* Report every operation kind: median, mean and the highest tail
     percentile with ten samples beyond it. *)
  let problems = ref [] in
  let pct samples p =
    match Stats.percentile samples p with
    | Ok v -> ms v
    | Error e ->
        problems := e :: !problems;
        0.0
  in
  Printf.printf "# %s seed=%d seconds=%d trace=%d\n" !workload !seed !seconds !trace;
  Printf.printf "# host %s\n"
    (host_json ~workload:!workload ~seed:!seed ~flush_policy:r.Common.flush_policy);
  let line name value unit = Printf.printf "%-34s %14.6g %s\n" name value unit in
  (* Timings are printed as measured, then gated after scaling to the
     reference host speed (see calib.ml), where the workload uses it. *)
  let scale = Option.fold ~none:1.0 ~some:Calib.scale r.Common.calib in
  let setup_s = scale *. Stats.median r.Common.setup_s in
  let ops_per_s = float_of_int r.Common.ops /. (scale *. r.Common.timed_s) in
  let gated_mean i =
    let kind, s = List.nth r.Common.roles i in
    if Samples.count s = 0 then problems := (kind ^ ": no samples") :: !problems;
    scale *. ms (Samples.mean s)
  in
  Printf.printf "# set-ups (s): %s\n"
    (String.concat " " (List.map (Printf.sprintf "%.4f") r.Common.setup_s));
  (match r.Common.calib with
  | None -> print_endline "# host-speed reference: not used; timings are gated as measured"
  | Some c ->
      Printf.printf
        "# host-speed reference: median kernel %.4f ms over %d samples, reference %.4f ms; \
         gated timings = measured x %.6g\n"
        (ms (Calib.median_s c)) (Calib.count c) (ms Calib.reference_s) scale);
  line "setup_s (measured)" (Stats.median r.Common.setup_s) "s";
  line "ops_per_s (measured)" (float_of_int r.Common.ops /. r.Common.timed_s) "1/s";
  List.iter
    (fun (kind, s) ->
      let sorted = Samples.sorted s in
      let n = Array.length sorted in
      line (kind ^ "_p50_ms") (pct sorted 0.5) "ms";
      line (kind ^ "_mean_ms") (ms (Samples.mean s)) "ms";
      match Stats.highest_tail n with
      | Some p ->
          line
            (Printf.sprintf "%s_p%g_ms (n=%d)" kind (p *. 100.0) n)
            (pct sorted p) "ms"
      | None -> Printf.printf "%-34s %14s (n=%d)\n" (kind ^ "_tail_ms") "-" n)
    r.Common.roles;
  Option.iter (fun v -> line "reopen_s" v "s") r.Common.reopen_s;
  line "error_rate" (Tally.error_rate tally) "ratio";
  Printf.printf "# attempted=%d refused=%d failed=%d wrong=%d\n" tally.Tally.attempted
    tally.Tally.refused tally.Tally.failed tally.Tally.wrong;
  Option.iter (fun m -> Printf.printf "# first problem: %s\n" m) tally.Tally.first_problem;
  let values =
    if not traced then
      [ ("setup_s", setup_s);
        ("ops_per_s", ops_per_s);
        ("main_op_mean_ms", gated_mean 0);
        ("second_op_mean_ms", gated_mean 1);
        ("third_op_mean_ms", gated_mean 2);
        ("bytes_per_user_byte", r.Common.bytes_per_user_byte);
        ("peak_rss_mb", r.Common.peak_rss_mb) ]
    else begin
      List.iter
        (fun name ->
          if List.mem_assoc name r.Common.layers then
            problems := (name ^ ": measured on a workload that says it bypasses it") :: !problems)
        r.Common.bypasses;
      List.map (fun name -> (name, 0.0)) r.Common.bypasses @ r.Common.layers
    end
  in
  (* Every metric BENCHMARK.json names must have a value; a per-layer
     metric reads 0 only on a workload that says it bypasses the layer. *)
  Printf.printf "# %s metrics:\n" (if traced then "per-layer" else "gated end-to-end");
  let metrics =
    List.map
      (fun (name, unit) ->
        let v =
          match List.assoc_opt name values with
          | Some v -> v
          | None ->
              problems := (name ^ ": no value from this workload") :: !problems;
              0.0
        in
        line name v unit;
        (name, v, unit))
      specs
  in
  if traced then begin
    Common.ensure_dir Common.scratch_root;
    let path =
      Filename.concat Common.scratch_root
        (Printf.sprintf "trace-%s-seed%d.ndjson" !workload !seed)
    in
    Trace.write path;
    Printf.printf "# spans written to %s\n" path
  end;
  List.iter
    (fun (name, v, _) ->
      if not (Float.is_finite v) then problems := (name ^ " is not a finite number") :: !problems)
    metrics;
  List.iter (fun p -> Printf.printf "# statistics problem: %s\n" p) (List.rev !problems);
  let correct = Tally.bad tally = 0 && !problems = [] in
  let metric_json (name, v, unit) =
    Printf.sprintf "%S:{\"value\":%.17g,\"unit\":%S}" name
      (if Float.is_finite v then v else 0.0)
      unit
  in
  Printf.printf "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}\n"
    correct tally.Tally.attempted (Tally.bad tally)
    (String.concat "," (List.map metric_json metrics));
  exit (if correct then 0 else 1)

let () =
  if Array.length Sys.argv > 1 && Sys.argv.(1) = "calibrate" then Calib.child_main ()
  else if Array.length Sys.argv > 1 && Sys.argv.(1) = "build-cold" then Cold_eth.loader_main ()
  else main ()
