(* Unit tests of the benchmark's statistics code. *)

let check_float = Alcotest.(check (float 1e-9))

let sorted n = Array.init n (fun i -> float_of_int (i + 1))

let test_median_and_percentiles () =
  check_float "p50 of 1..100" 50.0 (Result.get_ok (Stats.percentile (sorted 100) 0.5));
  check_float "p90 of 1..100" 90.0 (Result.get_ok (Stats.percentile (sorted 100) 0.9));
  check_float "p99 of 1..1000" 990.0 (Result.get_ok (Stats.percentile (sorted 1000) 0.99));
  check_float "median of an even list" 2.5 (Stats.median [ 4.0; 1.0; 3.0; 2.0 ]);
  check_float "median of an odd list" 3.0 (Stats.median [ 5.0; 3.0; 1.0 ])

let test_tail_needs_ten_beyond () =
  (* p90 of 99 samples has only 9 beyond it; of 100, exactly 10. *)
  Alcotest.(check bool) "p90 of 99 rejected" true
    (Result.is_error (Stats.percentile (sorted 99) 0.9));
  Alcotest.(check bool) "p90 of 100 accepted" true
    (Result.is_ok (Stats.percentile (sorted 100) 0.9));
  Alcotest.(check bool) "p99 of 999 rejected" true
    (Result.is_error (Stats.percentile (sorted 999) 0.99));
  Alcotest.(check bool) "median needs no tail" true
    (Result.is_ok (Stats.percentile (sorted 3) 0.5));
  Alcotest.(check bool) "no samples" true (Result.is_error (Stats.percentile [||] 0.5));
  Alcotest.(check (option (float 0.0))) "highest tail of 1000" (Some 0.99)
    (Stats.highest_tail 1000);
  Alcotest.(check (option (float 0.0))) "highest tail of 150" (Some 0.9)
    (Stats.highest_tail 150);
  Alcotest.(check (option (float 0.0))) "highest tail of 50" None (Stats.highest_tail 50)

let test_samples () =
  let s = Stats.Samples.create () in
  for i = 1 to 3000 do
    Stats.Samples.add s (float_of_int i)
  done;
  Alcotest.(check int) "count past the first growth" 3000 (Stats.Samples.count s);
  check_float "mean" 1500.5 (Stats.Samples.mean s);
  let t = Stats.Samples.create () in
  Stats.Samples.add t 0.5;
  Stats.Samples.append t s;
  Alcotest.(check int) "append" 3001 (Stats.Samples.count t);
  check_float "smallest first" 0.5 (Stats.Samples.sorted t).(0);
  Stats.Samples.clear t;
  check_float "mean of nothing" 0.0 (Stats.Samples.mean t)

let test_error_rate () =
  let t = Stats.Tally.create () in
  List.iter (Stats.Tally.record t)
    [ Stats.Done; Stats.Done; Stats.Refused "overload"; Stats.Failed "raised";
      Stats.Wrong "bad value"; Stats.Done; Stats.Done; Stats.Done ];
  Stats.Tally.check t false "final state differs";
  Stats.Tally.check t true "ok";
  Alcotest.(check int) "attempted" 10 t.Stats.Tally.attempted;
  Alcotest.(check int) "bad" 4 (Stats.Tally.bad t);
  check_float "error rate" 0.4 (Stats.Tally.error_rate t);
  Alcotest.(check (option string)) "first problem" (Some "refused: overload")
    t.Stats.Tally.first_problem;
  let total = Stats.Tally.create () in
  Stats.Tally.merge total t;
  Stats.Tally.merge total t;
  Alcotest.(check int) "merged attempted" 20 total.Stats.Tally.attempted;
  check_float "merged error rate" 0.4 (Stats.Tally.error_rate total);
  check_float "empty tally" 0.0 (Stats.Tally.error_rate (Stats.Tally.create ()))

let before_json =
  {|{"counters":{"wal.fsync":10,"store.put":100},
     "histograms":{"server.req.commit":{"count":4,"sum":0.5,"min":0.1,"max":0.2,"mean":0.125,"p50":0.1,"p95":0.2,"p99":0.2}},
     "spans":[{"name":"x \"quoted\"","start":1.5e0,"stop":2,"depth":0}]}|}

let after_json =
  {|{"counters":{"wal.fsync":25,"store.put":160,"server.overload":3},
     "histograms":{"server.req.commit":{"count":10,"sum":1.25,"min":0.1,"max":0.3,"mean":0.125,"p50":0.1,"p95":0.2,"p99":0.3},
                   "server.req.get_many":{"count":2,"sum":0.004,"min":0.001,"max":0.003,"mean":0.002,"p50":0.002,"p95":0.003,"p99":0.003}},
     "spans":[]}|}

let test_snapshot_diff () =
  let before = Stats.snapshot_of_string before_json
  and after = Stats.snapshot_of_string after_json in
  let d = Stats.diff ~before ~after in
  Alcotest.(check int) "counter delta" 15 (Stats.counter d "wal.fsync");
  Alcotest.(check int) "second counter delta" 60 (Stats.counter d "store.put");
  Alcotest.(check int) "counter new in after" 3 (Stats.counter d "server.overload");
  Alcotest.(check int) "counter absent on both sides" 0 (Stats.counter d "pack.read");
  Alcotest.(check int) "histogram count delta" 6 (Stats.histo_count d "server.req.commit");
  check_float "histogram sum delta" 0.75 (Stats.histo_sum d "server.req.commit");
  check_float "mean from sum/count" 0.125 (Stats.histo_mean d "server.req.commit");
  check_float "histogram new in after" 0.002 (Stats.histo_mean d "server.req.get_many");
  check_float "absent histogram" 0.0 (Stats.histo_mean d "pos-tree.batch");
  let same = Stats.diff ~before ~after:before in
  Alcotest.(check int) "self diff is zero" 0 (Stats.counter same "wal.fsync");
  Alcotest.(check int) "self diff histogram" 0 (Stats.histo_count same "server.req.commit")

let test_json_rejects_garbage () =
  List.iter
    (fun s ->
      Alcotest.(check bool) s true
        (match Jsonp.parse s with _ -> false | exception Jsonp.Error _ -> true))
    [ ""; "{"; "{\"a\":}"; "[1,]x"; "{\"a\":1} trailing"; "\"unterminated" ]

let () =
  Alcotest.run "perfbench"
    [ ( "stats",
        [ Alcotest.test_case "median and percentiles" `Quick test_median_and_percentiles;
          Alcotest.test_case "tail percentile needs ten samples beyond" `Quick
            test_tail_needs_ten_beyond;
          Alcotest.test_case "samples grow, append and average" `Quick test_samples;
          Alcotest.test_case "error rate counts refused, failed and wrong" `Quick
            test_error_rate;
          Alcotest.test_case "telemetry snapshots subtract" `Quick test_snapshot_diff;
          Alcotest.test_case "json reader rejects malformed input" `Quick
            test_json_rejects_garbage ] ) ]
