(* Extension (not a paper figure): the SHA-256 kernel every node address
   goes through.

   Times one-shot [digest_string] at the sizes the indexes hash — 32 B
   (a child hash), 64 B (a hash pair), 256 B .. 4 KiB (encoded nodes) —
   on the kernel cpuid selected on this host and on the portable C
   kernel.  Each cell is the best of five passes of a fixed byte budget,
   so a slow moment on a shared host does not set the figure.  The
   sidecar records which kernel the host selected. *)

module Sha256 = Siri_crypto.Sha256
module Clock = Siri_benchkit.Clock
module Table = Siri_benchkit.Table
module Json = Siri_telemetry.Telemetry.Json

let sizes = [ 32; 64; 256; 1024; 4096 ]
let passes = 5

(* Bytes hashed per pass: enough for a pass to take milliseconds on the
   portable kernel at every size. *)
let budget () = Params.pick ~quick:(4 lsl 20) ~full:(64 lsl 20)

type cell = { mb_per_s : float; us_per_digest : float }

let measure digest size =
  let input = String.init size (fun i -> Char.chr ((i * 131) land 0xFF)) in
  let iters = max 1 (budget () / size) in
  let best = ref infinity in
  for _ = 1 to passes do
    let s =
      Clock.time_unit (fun () ->
          for _ = 1 to iters do
            ignore (Sys.opaque_identity (digest input) : string)
          done)
    in
    if s < !best then best := s
  done;
  { mb_per_s = float_of_int (iters * size) /. !best /. 1e6;
    us_per_digest = !best *. 1e6 /. float_of_int iters }

let run () =
  let paths =
    [ ("dispatched", Sha256.digest_string);
      ("portable", Sha256.Portable.digest_string) ]
  in
  let rows =
    List.map
      (fun size ->
        (size, List.map (fun (name, f) -> (name, measure f size)) paths))
      sizes
  in
  Printf.printf "selected kernel: %s\n" Sha256.implementation;
  let cell c = Printf.sprintf "%.1f / %.3f" c.mb_per_s c.us_per_digest in
  Table.print
    ~title:
      (Printf.sprintf "SHA-256 one-shot digests (MB/s / us per digest), %s \
                       selected"
         Sha256.implementation)
    ~headers:[ "bytes"; "dispatched"; "portable"; "speedup" ]
    (List.map
       (fun (size, cells) ->
         let d = List.assoc "dispatched" cells
         and p = List.assoc "portable" cells in
         [ string_of_int size; cell d; cell p;
           Printf.sprintf "%.2fx" (d.mb_per_s /. p.mb_per_s) ])
       rows);
  Metrics.write ~id:"crypto"
    (Json.obj
       [ ("experiment", Json.str "crypto");
         ("host", Metrics.host ());
         ("implementation", Json.str Sha256.implementation);
         ("passes", Json.int passes);
         ("bytes_per_pass", Json.int (budget ()));
         ( "rows",
           Json.arr
             (List.concat_map
                (fun (size, cells) ->
                  List.map
                    (fun (path, c) ->
                      Json.obj
                        [ ("bytes", Json.int size);
                          ("path", Json.str path);
                          ("mb_per_s", Json.num c.mb_per_s);
                          ("us_per_digest", Json.num c.us_per_digest) ])
                    cells)
                rows) ) ])
