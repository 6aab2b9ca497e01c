(* The host-speed reference.

   On a shared host, other tenants slow this machine down by a third or
   more, for seconds to minutes at a time.  A slowdown that lasts a whole
   run moves every figure of that run, however the run's own samples are
   summarised.  So every workload times a fixed [kernel] at regular
   points of the run, and scales its timings by
   [reference_s] / (the median kernel time of the run): the figures read
   as they would on a host that runs the kernel in [reference_s].

   The kernel runs in a calibrator process of its own ([perfbench
   calibrate], started with [Unix.create_process]) while the benchmark
   waits for its answer, with no request of the workload in flight, so
   it neither competes with the workload for a CPU nor shares its heap:
   no code of the system under test runs in it, and no state the system
   leaves behind (the size of its heap, say) changes its time.  A change
   to the system therefore moves the scaled figures exactly as it moves
   the raw ones.

   The kernel is small system calls: 4 KiB written to a pipe and read
   back.  On the 2-CPU virtual machine the bounds were set on, its time
   followed the slowdowns of all three workloads more closely than
   integer mixing, allocation with hash-table inserts or dependent loads
   from a 16 MiB table, alone or mixed: over two ten-run sets of each
   workload, scaling by it kept every timing's spread within 0.17 and
   moved no median between the sets by more than 7%; the best of the
   others (the inserts alone) reached 0.19 and 9%, all four summed 0.27
   and 18%. *)

let page = Bytes.make 4096 'p'

let kernel (pipe_r, pipe_w) =
  for _ = 1 to 1000 do
    ignore (Unix.write pipe_w page 0 4096 : int);
    ignore (Unix.read pipe_r page 0 4096 : int)
  done

(* The kernel time that defines the reference host: a scaled figure
   equals the raw one in a run whose median kernel time is this long
   (about the median on the 2-CPU host the bounds were set on). *)
let reference_s = 0.001

(* Samples are taken between operations, at most one per [interval_s]
   of a timed phase. *)
let interval_s = 0.1

(* [perfbench calibrate]: answer every line on stdin with the time of
   one kernel run, in seconds; exit at end of input. *)
let child_main () =
  let pipe = Unix.pipe () in
  for _ = 1 to 3 do
    kernel pipe
  done;
  (try
     while true do
       ignore (input_line stdin : string);
       let t0 = Unix.gettimeofday () in
       kernel pipe;
       Printf.printf "%.9f\n%!" (Unix.gettimeofday () -. t0)
     done
   with End_of_file -> ());
  exit 0

type t = {
  pid : int;
  requests : out_channel;
  answers : in_channel;
  mutable samples : float list;
  mutable spent : float;  (** wall time this process spent waiting for samples *)
  mutable last : float;
  mutable stopped : bool;
}

let start () =
  let exe = Sys.executable_name in
  let req_r, req_w = Unix.pipe ~cloexec:true () in
  let ans_r, ans_w = Unix.pipe ~cloexec:true () in
  let pid = Unix.create_process exe [| exe; "calibrate" |] req_r ans_w Unix.stderr in
  Unix.close req_r;
  Unix.close ans_w;
  { pid;
    requests = Unix.out_channel_of_descr req_w;
    answers = Unix.in_channel_of_descr ans_r;
    samples = [];
    spent = 0.0;
    last = neg_infinity;
    stopped = false }

(* Closing its input ends the calibrator; wait until it has exited. *)
let stop t =
  if not t.stopped then begin
    t.stopped <- true;
    close_out_noerr t.requests;
    let rec wait () =
      try ignore (Unix.waitpid [] t.pid : int * Unix.process_status)
      with Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
    in
    (try wait () with Unix.Unix_error _ -> ());
    close_in_noerr t.answers
  end

(* Run [f] with a calibrator that is stopped however [f] ends. *)
let with_calibrator f =
  let t = start () in
  Fun.protect ~finally:(fun () -> stop t) (fun () -> f t)

let sample t =
  let t0 = Unix.gettimeofday () in
  output_char t.requests '\n';
  flush t.requests;
  let dt = float_of_string (input_line t.answers) in
  t.samples <- dt :: t.samples;
  let t1 = Unix.gettimeofday () in
  t.spent <- t.spent +. (t1 -. t0);
  t.last <- t1

(* One sample, if [interval_s] has passed since the last. *)
let tick t = if Unix.gettimeofday () -. t.last >= interval_s then sample t

let count t = List.length t.samples
let median_s t = Stats.median t.samples

(* Raw times are multiplied by this. *)
let scale t = reference_s /. median_s t
