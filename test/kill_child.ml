(* Child processes for the SIGKILL crash harnesses.

   A harness needs a real process to kill mid-write.  [Unix.fork] is
   refused once a process has spawned domains, so instead the test binary
   re-executes itself ([Sys.executable_name]) with a hidden first argument:
   the child is a fresh process with its own runtime and domain pool, and
   the parent keeps every domain it already has. *)

let flag = "--kill-child"

(* Call first thing in a test binary's main: in a child, run [body] on the
   child's arguments and exit; otherwise return and let the suite run. *)
let dispatch body =
  match Array.to_list Sys.argv with
  | _ :: f :: args when String.equal f flag ->
      body args;
      exit 0
  | _ -> ()

(* In the child: announce that set-up is done and the write loop starts.
   Nothing else may be written to stdout afterwards. *)
let ready () =
  print_endline "READY";
  flush stdout

(* Start a child with [args] and wait for its [ready], so the parent's
   seeded kill delay counts from the start of the write loop rather than
   from process start-up. *)
let spawn args =
  let exe = Sys.executable_name in
  let r, w = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process exe
      (Array.of_list (exe :: flag :: args))
      Unix.stdin w Unix.stderr
  in
  Unix.close w;
  let ic = Unix.in_channel_of_descr r in
  let up =
    match input_line ic with
    | line -> String.equal line "READY"
    | exception End_of_file -> false
  in
  close_in ic;
  if not up then begin
    (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
    ignore (Unix.waitpid [] pid);
    failwith "kill child did not come up"
  end;
  pid

let kill pid =
  (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
  ignore (Unix.waitpid [] pid)
