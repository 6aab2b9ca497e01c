(* Machine-readable metrics sidecars.

   Every figure that prints a table can also emit a BENCH_<id>.json file so
   downstream tooling (plotters, regression checks) consumes structured
   numbers instead of scraping stdout — and the numbers themselves come
   from the telemetry sinks the indexes report into, not from counts
   recomputed by hand inside each figure.  Set BENCH_METRICS_DIR to choose
   the output directory (default: the working directory). *)

module Telemetry = Siri_telemetry.Telemetry
module Json = Telemetry.Json

let out_path id =
  let dir =
    match Sys.getenv_opt "BENCH_METRICS_DIR" with Some d -> d | None -> "."
  in
  Filename.concat dir ("BENCH_" ^ id ^ ".json")

(* The host block a sidecar records: CPU count, compiler version, whether
   flambda is on, and the git commit of the tree that was built (a
   "-dirty" suffix marks uncommitted changes). *)
let host () =
  let git =
    match
      Unix.open_process_args_in "git"
        [| "git"; "describe"; "--always"; "--dirty"; "--abbrev=40" |]
    with
    | ic ->
        let line = In_channel.input_line ic in
        ignore (Unix.close_process_in ic);
        Option.value line ~default:"unknown"
    | exception Unix.Unix_error _ -> "unknown"
  in
  Json.obj
    [ ("cpus", Json.int (Domain.recommended_domain_count ()));
      ("ocaml", Json.str Sys.ocaml_version);
      ("flambda", Json.bool Build_info.flambda);
      ("git_commit", Json.str git) ]

let write ~id json =
  let path = out_path id in
  let oc = open_out path in
  output_string oc (Json.to_string json);
  output_char oc '\n';
  close_out oc;
  Printf.printf "[metrics sidecar: %s]\n%!" path

(* A printed Table.series, as JSON. *)
let series ~id ~title ~x_label ~columns rows =
  write ~id
    (Json.obj
       [ ("experiment", Json.str id);
         ("title", Json.str title);
         ("x_label", Json.str x_label);
         ("columns", Json.arr (List.map Json.str columns));
         ( "rows",
           Json.arr
             (List.map
                (fun (x, ys) ->
                  Json.obj
                    [ ("x", Json.str x);
                      ("values", Json.arr (List.map Json.num ys)) ])
                rows) ) ])

(* Per-structure telemetry captured during a workload run.  Counters and
   histogram summaries only: per-op spans would dwarf the file, so they are
   reduced to a count. *)
let sink_json sink =
  Json.obj
    [ ( "counters",
        Json.obj
          (List.map (fun (k, v) -> (k, Json.int v)) (Telemetry.counters sink)) );
      ( "histograms",
        Json.obj
          (List.map
             (fun (k, h) -> (k, Telemetry.json_of_histo h))
             (Telemetry.histograms sink)) );
      ("span_count", Json.int (List.length (Telemetry.spans sink))) ]

let sinks ~id ~title entries =
  write ~id
    (Json.obj
       [ ("experiment", Json.str id);
         ("title", Json.str title);
         ( "structures",
           Json.arr
             (List.map
                (fun (label, sink) ->
                  Json.obj
                    [ ("structure", Json.str label);
                      ("telemetry", sink_json sink) ])
                entries) ) ])
