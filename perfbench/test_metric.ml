(* The benchmark's metric arithmetic against synthetic inputs. *)

let failures = ref 0

let expect name cond =
  if not cond then begin
    incr failures;
    Printf.printf "FAIL %s\n" name
  end

let raises name fn =
  expect name (match fn () with _ -> false | exception Invalid_argument _ -> true)

let cmd submit apply = { Metric.submit; apply }

let close a b = Float.abs (a -. b) < 1e-12

let () =
  (* median / normalisation *)
  expect "median odd" (close (Metric.median [ 3.0; 1.0; 2.0 ]) 2.0);
  expect "median even" (close (Metric.median [ 4.0; 1.0; 3.0; 2.0 ]) 2.5);
  raises "median empty" (fun () -> Metric.median []);
  expect "normalised is a ratio of medians"
    (close (Metric.normalised [ 2.0; 9.0; 4.0 ] ~ref_s:[ 0.5; 2.0; 1.0 ]) 4.0);
  expect "normalisation cancels a uniform slowdown"
    (close
       (Metric.normalised [ 2.0; 4.0; 6.0 ] ~ref_s:[ 1.0; 2.0; 3.0 ])
       (Metric.normalised [ 2.5; 5.0; 7.5 ] ~ref_s:[ 1.25; 2.5; 3.75 ]));
  raises "normalised empty reference" (fun () -> Metric.normalised [ 1.0 ] ~ref_s:[]);
  raises "normalised zero reference" (fun () -> Metric.normalised [ 1.0 ] ~ref_s:[ 0.0 ]);
  (* latencies *)
  expect "latencies of applied commands only"
    (Metric.latencies [ cmd 0 (Some 5); cmd 10 None; cmd 20 (Some 27) ] = [| 5; 7 |]);
  (* deadline rule: horizon 20000, deadline 5000, judged up to t = 15000 *)
  let d = Metric.deadline_failures ~horizon:20_000 ~deadline:5000 in
  expect "applied within the deadline" (d [ cmd 0 (Some 5000) ] = (1, 0));
  expect "applied one ms late" (d [ cmd 0 (Some 5001) ] = (1, 1));
  expect "never applied" (d [ cmd 15_000 None ] = (1, 1));
  expect "too late to judge" (d [ cmd 15_001 None; cmd 19_999 None ] = (0, 0));
  expect "mixed"
    (d [ cmd 100 (Some 200); cmd 200 None; cmd 300 (Some 9000); cmd 16_000 None ] = (3, 2));
  (* SLO rung: p99 <= 1000 and >= 99% of commands before 19000 applied *)
  let slo = Metric.slo_met ~p99_limit:1000 ~window:1000 ~horizon:20_000 in
  let fast k = List.init k (fun i -> cmd (i * 10) (Some ((i * 10) + 100))) in
  expect "fast rung meets" (slo (fast 200));
  expect "slow tail fails" (not (slo (cmd 0 (Some 1001) :: cmd 1 (Some 1002) :: fast 98)));
  expect "one slow in a hundred meets" (slo (cmd 0 (Some 5000) :: fast 99));
  expect "growing backlog fails" (not (slo (cmd 5 None :: cmd 6 None :: fast 98)));
  expect "one lost in a hundred meets" (slo (cmd 5 None :: fast 99));
  expect "unapplied after the window is ignored" (slo (cmd 19_500 None :: cmd 19_600 None :: fast 50));
  expect "nothing applied fails" (not (slo [ cmd 0 None ]));
  (* highest passing rung *)
  expect "max rate: highest passing" (Metric.max_rate_slo [ (5, true); (10, true); (20, false) ] = 10);
  expect "max rate: not necessarily contiguous"
    (Metric.max_rate_slo [ (5, true); (10, false); (20, true); (40, false) ] = 20);
  expect "max rate: none" (Metric.max_rate_slo [ (5, false); (10, false) ] = 0);
  (* outage *)
  expect "gap between responses" (Metric.longest_gap ~after:1000 ~until:5000 [ 1100; 3000; 4900 ] = 1900);
  expect "gap to the horizon" (Metric.longest_gap ~after:1000 ~until:5000 [ 1100; 1200 ] = 3800);
  expect "responses before [after] ignored"
    (Metric.longest_gap ~after:1000 ~until:2000 [ 10; 1500; 900 ] = 500);
  expect "no responses" (Metric.longest_gap ~after:1000 ~until:2000 [] = 1000);
  if !failures > 0 then exit 1;
  print_endline "metric tests passed"
