(* The repository's benchmark: SMR load ladders, injected faults, history
   verification and the model checker, measured from outside through each
   layer's public functions (see METRICS.md for the metric map).

   Usage: main.exe --workload (smr-ladder|kv-faults) [--seed N] [--seconds S]
                   [--trace 0|1]

   Every end-to-end metric is either deterministic (virtual time, shares,
   counts: identical for a given seed) or a wall time divided by a stdlib
   reference kernel timed just before each unit in this same process, so a
   uniform slowdown of the host cancels. One process, one domain, no
   threads. The last line of standard output is the JSON result; exit code
   1 when any output check fails. *)

module Instance = Smr.Replica.Instance
module Rng = Stdext.Rng
module Json = Stdext.Json
module History = Checker.History

(* -- Fixed parameters ---------------------------------------------------- *)

(* The paper's object variant at its tight bound: n = max{2e+f-1, 2f+1} = 5
   with e = f = 2. *)
let protocol = Core.Rgs.obj

let n = 5

let e = 2

let f = 2

let topology = Workload.Topology.planet5

(* Injected message delay: the planet5 one-way matrix (1-115 ms), jitter 0. *)
let delta = Workload.Topology.max_oneway topology + 10

let net = Checker.Scenario.Wan { latency = Workload.Topology.latency_fn topology; jitter = 0 }

let clients = 120

let pipeline = 16

let batch_max = 64

let keys = 64

let hot_rate = 0.1

let horizon = 20_000

let p99_limit = 1000

let backlog_window = 1000

let deadline = 5000

let outage_after = 1000

(* Each rung pools independent 20 s schedules: enough to submit about
   [commands_per_rung] commands, so its p99 has ~64 samples beyond it and
   the SLO verdict at the lowest rung does not flip with the seed, and at
   least [min_runs_per_rung], because throughput at and past the knee
   varies from one schedule to the next. The reference rung pools
   [reference_runs]: its latencies and response gaps are gated. *)
let commands_per_rung = 6400

let min_runs_per_rung = 4

let reference_rate = 40

let reference_runs = 24

let ladder_rates = [ 5; 10; 20; 40; 80; 160; 320; 640; 1280 ]

let fault_rates = [ 5; 10; 20; 40 ]

let fault_plan =
  Dsim.Network.Fault.random ~drop_rate:0.01 ~dup_rate:0.01 ~max_extra_delay:50 ()

let crash_at = 10_000

let crash_runs = 24

(* A capped linearizability check stops after this many reference-kernel
   times and counts as exactly that long, so it normalises to a constant. *)
let cap_refs = 2.0

let explore_rounds = 2

let explore_faults = { Checker.Explore.max_drops = 1; max_dups = 1 }

(* -- Command line -------------------------------------------------------- *)

let workload = ref ""

let seed = ref 1

let seconds = ref 10

let trace = ref 0

let () =
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "smr-ladder | kv-faults");
      ("--seed", Arg.Set_int seed, "workload seed (default 1)");
      ("--seconds", Arg.Set_int seconds, "timed seconds (default 10)");
      ("--trace", Arg.Set_int trace, "0: end-to-end metrics, 1: traced per-layer metrics");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload W [--seed N] [--seconds S] [--trace 0|1]";
  if not (List.mem !workload [ "smr-ladder"; "kv-faults" ]) then begin
    prerr_endline ("unknown workload: " ^ !workload);
    exit 2
  end;
  if !seconds < 1 || (!trace <> 0 && !trace <> 1) then begin
    prerr_endline "--seconds must be >= 1 and --trace 0 or 1";
    exit 2
  end

let say fmt = Printf.eprintf (fmt ^^ "\n%!")

let now = Unix.gettimeofday

(* -- Reference kernel ---------------------------------------------------- *)

(* Stdlib only: 60M steps of a xorshift generator. On a 2-vCPU host whose
   speed drifts with its neighbours, this register-bound loop tracked the
   simulator's unit time best among the kernels tried (correlation 0.66;
   a 200k-entry Map.Make(Int) built and sorted: 0.44; a pointer chase
   through a 64 MB array: 0.23) and varied least itself (CV 5% vs 15%). *)
let reference_kernel () =
  let x = ref 88172645463325252 and acc = ref 0 in
  for _ = 1 to 60_000_000 do
    x := !x lxor (!x lsl 13);
    x := !x lxor (!x lsr 7);
    x := !x lxor (!x lsl 17);
    acc := !acc + (!x land 0xff)
  done;
  !acc

(* Median of three back-to-back runs, each from a freshly collected heap. *)
let time_reference () =
  Metric.median
    (List.init 3 (fun _ ->
         Gc.full_major ();
         let t0 = now () in
         ignore (Sys.opaque_identity (reference_kernel ()));
         now () -. t0))

(* -- Benchmark spans (traced run only) ------------------------------------ *)

type span = { id : int; parent : int; name : string; start : float; finish : float }

let tracing = ref false

let spans : span list ref = ref []

let open_spans : int list ref = ref []

let next_span = ref 0

let span name fn =
  if not !tracing then fn ()
  else begin
    let id = !next_span in
    incr next_span;
    let parent = match !open_spans with p :: _ -> p | [] -> -1 in
    open_spans := id :: !open_spans;
    let start = now () in
    Fun.protect
      ~finally:(fun () ->
        open_spans := List.tl !open_spans;
        spans := { id; parent; name; start; finish = now () } :: !spans)
      fn
  end

(* Self time per span name: each span's duration minus the part its
   children cover (children never overlap one another). *)
let self_times all =
  let child = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child s.parent
          (s.finish -. s.start +. Option.value ~default:0.0 (Hashtbl.find_opt child s.parent)))
    all;
  let self = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let own = s.finish -. s.start -. Option.value ~default:0.0 (Hashtbl.find_opt child s.id) in
      Hashtbl.replace self s.name (own +. Option.value ~default:0.0 (Hashtbl.find_opt self s.name)))
    all;
  self

let write_spans path =
  let oc = open_out path in
  List.iter
    (fun s ->
      output_string oc
        (Json.to_string
           (Json.Obj
              [
                ("id", Json.Int s.id);
                ("parent", Json.Int s.parent);
                ("name", Json.String s.name);
                ("start_s", Json.Float s.start);
                ("end_s", Json.Float s.finish);
              ]));
      output_char oc '\n')
    (List.rev !spans);
  close_out oc

(* -- Inputs ----------------------------------------------------------------- *)

type cmd = { at : int; client : int; key : int; kind : History.kind; word : int }

let proxy_of client = client mod n

(* Open-loop Poisson arrivals: each client submits at [rate / clients]
   commands per second through its proxy, whatever the system does. *)
let schedule ~seed ~rate ~read_rate =
  let rng = Rng.create ~seed in
  let mean_gap = 1000.0 *. float_of_int clients /. float_of_int rate in
  let gap () = mean_gap *. -.log (1.0 -. Rng.float rng 1.0) in
  let acc = ref [] in
  for client = 0 to clients - 1 do
    let t = ref (gap ()) in
    while !t < float_of_int horizon do
      let key = Workload.Conflict.key ~rng ~keys ~hot_rate in
      let kind, action =
        if read_rate > 0.0 && Rng.float rng 1.0 < read_rate then (History.Read, Smr.Kv.Get)
        else
          let v = Rng.int rng 1024 in
          (History.Write v, Smr.Kv.Put v)
      in
      let word = Smr.Kv.encode { Smr.Kv.client; key; action } in
      acc := { at = int_of_float !t; client; key; kind; word } :: !acc;
      t := !t +. gap ()
    done
  done;
  let a = Array.of_list (List.rev !acc) in
  Array.stable_sort (fun x y -> Int.compare x.at y.at) a;
  a

let schedules ~tag ~rate ~count ~read_rate =
  List.init count (fun i ->
      let s = Hashtbl.hash (!seed, tag, rate, i) in
      (s, schedule ~seed:s ~rate ~read_rate))

let runs_for rate =
  if rate = reference_rate then reference_runs
  else
    let per_run = rate * horizon / 1000 in
    max min_runs_per_rung ((commands_per_rung + per_run - 1) / per_run)

(* -- One SMR run ------------------------------------------------------------ *)

type run = {
  cmds : cmd array;
  apply : int option array;  (** apply time at the command's proxy *)
  ret : int option array;
  converged : bool;
  slots : int;  (** slots replica 0 applied *)
  slot_cmds : int;  (** commands in those slots *)
  max_batch : int;
  run_s : float;  (** wall time inside [Instance.run] *)
}

let smr_run ?crashes ?faults ?metrics ?causality (run_seed, cmds) =
  let commands = Array.to_list (Array.map (fun c -> (c.at, proxy_of c.client, c.word)) cmds) in
  let inst =
    span "smr.create" (fun () ->
        Instance.create ~protocol ~n ~e ~f ~delta ~net ~seed:run_seed ~pipeline ~batch_max ~commands
          ?crashes ?faults ?metrics ?causality ())
  in
  let t0 = now () in
  ignore (span "dsim.run" (fun () -> Instance.run ~until:horizon inst));
  let run_s = now () -. t0 in
  span "smr.collect" (fun () ->
      let apply = Array.make (Array.length cmds) None in
      let ret = Array.make (Array.length cmds) None in
      (* Equal command words queue FIFO; a word's client fixes its proxy. *)
      let waiting = Hashtbl.create (Array.length cmds) in
      Array.iteri
        (fun i c ->
          match Hashtbl.find_opt waiting c.word with
          | Some q -> Queue.add i q
          | None ->
              let q = Queue.create () in
              Queue.add i q;
              Hashtbl.add waiting c.word q)
        cmds;
      List.iter
        (fun (t, pid, (_slot, word, r)) ->
          match Hashtbl.find_opt waiting word with
          | Some q when (not (Queue.is_empty q)) && proxy_of cmds.(Queue.peek q).client = pid ->
              let i = Queue.pop q in
              apply.(i) <- Some t;
              ret.(i) <- Some r
          | _ -> ())
        (Instance.outputs inst);
      let sizes = Hashtbl.create 256 in
      List.iter
        (fun (slot, _) ->
          Hashtbl.replace sizes slot (1 + Option.value ~default:0 (Hashtbl.find_opt sizes slot)))
        (Instance.applied_log inst 0);
      {
        cmds;
        apply;
        ret;
        converged = Instance.converged inst;
        slots = Hashtbl.length sizes;
        slot_cmds = Hashtbl.fold (fun _ k acc -> acc + k) sizes 0;
        max_batch = Hashtbl.fold (fun _ k acc -> max acc k) sizes 0;
        run_s;
      })

let commands r =
  Array.to_list (Array.mapi (fun i c -> { Metric.submit = c.at; apply = r.apply.(i) }) r.cmds)

let history r =
  History.sort
    (Array.to_list
       (Array.mapi
          (fun i c ->
            {
              History.client = c.client;
              key = c.key;
              kind = c.kind;
              invoke = c.at;
              respond = r.apply.(i);
              ret = r.ret.(i);
            })
          r.cmds))

let outage r =
  Metric.longest_gap ~after:outage_after ~until:horizon
    (Array.to_list r.apply |> List.filter_map Fun.id)

(* -- Linearizability under a wall-time cap ---------------------------------- *)

exception Capped

let armed = ref false

let () = Sys.set_signal Sys.sigalrm (Sys.Signal_handle (fun _ -> if !armed then raise Capped))

let check_capped ~cap h =
  let set s = ignore (Unix.setitimer Unix.ITIMER_REAL { Unix.it_interval = 0.0; it_value = s }) in
  armed := true;
  set cap;
  let outcome =
    try
      let o = Checker.Linearizability.check_history h in
      armed := false;
      Some o
    with Capped -> None
  in
  armed := false;
  set 0.0;
  outcome

(* -- Units -------------------------------------------------------------------- *)

(* Everything one unit measured. [det] holds the deterministic end-to-end
   metrics, [layer] the deterministic per-layer values. *)
type result = {
  det : (string * float) list;
  layer : (string * float) list;
  sim_s : float;  (** everything but [check_history] *)
  verify_s : float;  (** [check_history] calls, a capped one at its cap *)
  run_s : float;
  explore_s : float;
  lin_s : float;  (** time of the uncapped checks *)
  rung_s : (int * float) list;
  attempted : int;
  failed : int;
  problems : string list;
  gc : Gc.stat * Gc.stat;
}

type inputs = {
  ladder : (int * (int * cmd array) list) list;  (** rate, schedules *)
  crash : (int * cmd array) list;
  cliff : (string * History.t) list;
  proposals5 : (Dsim.Time.t * Dsim.Pid.t * Proto.Value.t) list;
  proposals4 : (Dsim.Time.t * Dsim.Pid.t * Proto.Value.t) list;
}

let is_kv () = !workload = "kv-faults"

let read_rate () = if is_kv () then 0.3 else 0.0

let faults () = if is_kv () then fault_plan else Dsim.Network.Fault.none

(* The model checker's input is the task configuration itself (process i
   proposes n-1-i); its search covers every schedule, so nothing is left
   for the seed to choose. *)
let proposals ~n = Checker.Scenario.all_proposals_at_zero ~n (List.init n (fun i -> n - 1 - i))

(* The two overloaded histories whose check is known not to return in
   minutes. They keep their fixed seeds and sizes, are checked under the
   cap every unit, and their operations count as failed while capped. *)
let cliff_histories () =
  let run ~clients ~rate ~read_rate ~faults ~seed =
    let cfg : Workload.Fleet.config =
      {
        clients;
        arrival = Workload.Fleet.Open { rate_per_client = rate };
        keys;
        hot_rate;
        read_rate;
        horizon;
        tick = 100;
      }
    in
    (Workload.Fleet.run ~protocol ~e ~f ~n ~topology ~pipeline ~batch_max ~seed ~faults cfg)
      .Workload.Fleet.history
  in
  [
    ("cliff1", run ~clients:120 ~rate:4.0 ~read_rate:0.3 ~faults:Dsim.Network.Fault.none ~seed:1);
    ("cliff2", run ~clients:240 ~rate:2.0 ~read_rate:0.5 ~faults:fault_plan ~seed:3);
  ]

let make_inputs () =
  let rates = if is_kv () then fault_rates else ladder_rates in
  let read_rate = read_rate () in
  {
    ladder =
      List.map
        (fun rate -> (rate, schedules ~tag:"ladder" ~rate ~count:(runs_for rate) ~read_rate))
        rates;
    crash =
      (if is_kv () then schedules ~tag:"crash" ~rate:reference_rate ~count:crash_runs ~read_rate
       else []);
    cliff = (if is_kv () then cliff_histories () else []);
    proposals5 = proposals ~n:5;
    proposals4 = proposals ~n:4;
  }

let lowest_rate inp = fst (List.hd inp.ladder)

(* Share of commits whose causal critical path took exactly two message
   delays, plus the path statistics the traced run reports. *)
let attribution causality =
  let paths = Smr.Spans.command_paths causality in
  let attr = Smr.Spans.attribution paths in
  let commits = attr.Smr.Spans.commits in
  let two = Option.value ~default:0 (List.assoc_opt 2 attr.Smr.Spans.steps_hist) in
  let total = List.fold_left (fun acc p -> acc + Smr.Spans.total_ms p) 0 paths in
  (* Queueing is the latency not spent on the wire after submission. This
     is [path.queue_ms], except that [Smr.Spans] lets a leg delivered
     before the submission subtract from the wire time, which can push
     [queue_ms] above the latency itself. *)
  let queue =
    List.fold_left
      (fun acc (p : Smr.Spans.path) ->
        let wire =
          List.fold_left
            (fun w (l : Smr.Spans.leg) -> w + max 0 (l.delivered_at - max l.sent_at p.submit))
            0 p.legs
        in
        acc + max 0 (Smr.Spans.total_ms p - wire))
      0 paths
  in
  let steps = List.fold_left (fun acc p -> acc + p.Smr.Spans.delay_steps) 0 paths in
  (commits, two, queue, total, steps)

let share a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b

let median_int l = Metric.median (List.map float_of_int l)

(* The unit: every SMR run of the workload, the history checks and (kv-faults)
   the model checker. [registry] and [traced] are set only in the traced run. *)
let run_unit ?(traced = false) ?(registry = Stdext.Metrics.disabled) ~ref_s inp =
  let q0 = Gc.quick_stat () in
  let w0 = Gc.minor_words () in
  let excluded_words = ref 0.0 in
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  let sim_s = ref 0.0 and verify_s = ref 0.0 and run_s = ref 0.0 and explore_s = ref 0.0 in
  let attempted = ref 0 and failed = ref 0 in
  let layer = ref [] in
  let put name v = layer := (name, v) :: !layer in
  let timed acc fn =
    let t0 = now () in
    let r = fn () in
    acc := !acc +. (now () -. t0);
    r
  in
  (* Linearizability: every history at or below the reference rate must
     pass; the cliff histories may hit the cap instead. Each run's history
     is checked as soon as the run ends, so the checks sample the host
     across the unit as the runs do, not in one short burst. Above the
     reference rate a few large, mostly incomplete histories would carry
     half the check time and make it swing with the seed. *)
  let cap = cap_refs *. ref_s in
  let lin_ops = ref 0 and lin_incomplete = ref 0 and lin_keys = ref 0 and lin_states = ref 0 in
  let lin_capped = ref 0 and lin_histories = ref 0 in
  let lin_s = ref 0.0 in
  let verify (name, hist) =
    incr lin_histories;
    lin_ops := !lin_ops + List.length hist;
    lin_incomplete := !lin_incomplete + List.length (List.filter (fun ev -> ev.History.respond = None) hist);
    lin_keys := !lin_keys + List.length (List.sort_uniq Int.compare (List.map (fun ev -> ev.History.key) hist));
    let words0 = Gc.minor_words () in
    let t0 = now () in
    let outcome = span "checker.lin" (fun () -> check_capped ~cap hist) in
    let dt = now () -. t0 in
    match outcome with
    | None ->
        excluded_words := !excluded_words +. (Gc.minor_words () -. words0);
        incr lin_capped;
        verify_s := !verify_s +. cap;
        false
    | Some o ->
        verify_s := !verify_s +. dt;
        lin_s := !lin_s +. dt;
        lin_states := !lin_states + o.Checker.Linearizability.stats.Checker.Linearizability.states;
        if not o.Checker.Linearizability.ok then
          problem "%s is not linearizable: %s" name
            (Option.value ~default:"" o.Checker.Linearizability.reason);
        o.Checker.Linearizability.ok
  in
  let causal_totals = Hashtbl.create 16 in
  let one_run ?crashes ~rate sched =
    (* Critical paths are attributed per ladder rung; crash runs are not. *)
    let causality = if traced && crashes = None then Some (Dsim.Causality.create ()) else None in
    let r =
      timed sim_s (fun () ->
          smr_run ?crashes ~faults:(faults ()) ~metrics:registry ?causality sched)
    in
    run_s := !run_s +. r.run_s;
    if not r.converged then problem "run at %d cmd/s did not converge" rate;
    Option.iter
      (fun c ->
        let commits, two, queue, total, steps = attribution c in
        let a, b, q, t, s =
          Option.value ~default:(0, 0, 0, 0, 0) (Hashtbl.find_opt causal_totals rate)
        in
        Hashtbl.replace causal_totals rate (a + commits, b + two, q + queue, t + total, s + steps))
      causality;
    let a, fl = Metric.deadline_failures ~horizon ~deadline (commands r) in
    attempted := !attempted + a;
    failed := !failed + fl;
    if rate <= reference_rate then
      ignore (verify (Printf.sprintf "history %d (%d cmd/s)" !lin_histories rate, history r));
    r
  in
  let rung_s = ref [] in
  let rungs =
    span "smr.ladder" (fun () ->
        List.map
          (fun (rate, scheds) ->
            let sim0 = !sim_s in
            let runs = List.map (one_run ~rate) scheds in
            rung_s := (rate, !sim_s -. sim0) :: !rung_s;
            (rate, runs))
          inp.ladder)
  in
  let reference = List.assoc reference_rate rungs in
  let crash_runs =
    span "smr.crash" (fun () ->
        List.map (one_run ~crashes:[ (crash_at, 0) ] ~rate:reference_rate) inp.crash)
  in
  List.iter
    (fun (name, hist) ->
      let ops = List.length hist in
      attempted := !attempted + ops;
      if not (verify (name, hist)) then failed := !failed + ops)
    inp.cliff;
  (* Model checker: safe at the task bound, violated one below it. The
     search starts from a collected heap, so the major-GC work the runs
     leave behind is not billed to it. *)
  if is_kv () then begin
    Gc.full_major ();
    span "checker.explore" (fun () ->
        let search ~n ~proposals ~metrics =
          timed explore_s (fun () ->
              timed sim_s (fun () ->
                  Checker.Explore.synchronous_report Core.Rgs.task ~n ~e:2 ~f:1 ~delta:100 ~proposals
                    ~rounds:explore_rounds ~faults:explore_faults ~dedup:Checker.Explore.Exact
                    ~por:Checker.Explore.Sleep ~domains:1 ~metrics ~check:Checker.Safety.safe ()))
        in
        let r5, rep5 = search ~n:5 ~proposals:inp.proposals5 ~metrics:registry in
        let r4, _ = search ~n:4 ~proposals:inp.proposals4 ~metrics:Stdext.Metrics.disabled in
        if r5.Checker.Explore.violations > 0 then problem "n = 5 search found a violation";
        if r4.Checker.Explore.violations = 0 then problem "n = 4 search found no violation";
        let t = rep5.Checker.Explore.Run_report.totals in
        let s = rep5.Checker.Explore.Run_report.sched in
        let arrivals = t.distinct_states + t.dedup_hits in
        put "explore.runs" (float_of_int t.explored);
        put "explore.distinct_states" (float_of_int t.distinct_states);
        put "explore.dedup_hit_rate" (share t.dedup_hits arrivals);
        put "explore.por_pruned" (float_of_int t.por_pruned);
        put "explore.sleep_hits" (float_of_int t.sleep_hits);
        put "explore.evals" (float_of_int s.evals);
        put "explore.violations_n4" (float_of_int r4.Checker.Explore.violations))
  end;
  let q1 = Gc.quick_stat () in
  let alloc = Gc.minor_words () -. w0 -. !excluded_words in
  (* End-to-end deterministic metrics. *)
  let pooled runs = List.concat_map commands runs in
  let ref_lat = Metric.latencies (pooled reference) in
  let slo =
    List.map
      (fun (rate, runs) ->
        (rate, Metric.slo_met ~p99_limit ~window:backlog_window ~horizon (pooled runs)))
      rungs
  in
  let outage_runs = if is_kv () then crash_runs else reference in
  let det =
    [
      ("commit_p50_vms", float_of_int (Stdext.Stats.p50 ref_lat));
      ("commit_p99_vms", float_of_int (Stdext.Stats.p99 ref_lat));
      ("max_rate_slo", float_of_int (Metric.max_rate_slo slo));
      ("failed_share", share !failed !attempted);
      ("outage_vms", median_int (List.map outage outage_runs));
      ("alloc_mw", alloc /. 1e6);
    ]
  in
  (* Deterministic per-layer values. *)
  List.iter
    (fun (rate, runs) ->
      let lat = Metric.latencies (pooled runs) in
      let applied = Array.length lat in
      put (Printf.sprintf "smr.p99_vms.r%d" rate)
        (if applied = 0 then 0.0 else float_of_int (Stdext.Stats.p99 lat));
      put (Printf.sprintf "smr.cps.r%d" rate)
        (float_of_int applied *. 1000.0 /. float_of_int (horizon * List.length runs)))
    rungs;
  let slots = List.fold_left (fun acc r -> acc + r.slots) 0 reference in
  let slot_cmds = List.fold_left (fun acc r -> acc + r.slot_cmds) 0 reference in
  put "smr.slots_applied" (float_of_int slots);
  put "smr.mean_batch" (share slot_cmds slots);
  put "smr.max_batch" (float_of_int (List.fold_left (fun acc r -> max acc r.max_batch) 0 reference));
  let all_runs = List.concat_map snd rungs @ crash_runs in
  let submitted = List.fold_left (fun acc r -> acc + Array.length r.cmds) 0 all_runs in
  let applied =
    List.fold_left (fun acc r -> acc + Array.length (Metric.latencies (commands r))) 0 all_runs
  in
  put "smr.applied" (float_of_int applied);
  put "smr.backlog_end" (float_of_int (submitted - applied));
  put "lin.histories" (float_of_int !lin_histories);
  put "lin.ops" (float_of_int !lin_ops);
  put "lin.incomplete" (float_of_int !lin_incomplete);
  put "lin.keys" (float_of_int !lin_keys);
  put "lin.states" (float_of_int !lin_states);
  put "lin.capped" (float_of_int !lin_capped);
  let det =
    if not traced then det
    else begin
      Hashtbl.iter
        (fun rate (commits, two, queue, total, steps) ->
          put (Printf.sprintf "smr.two_step_share.r%d" rate) (share two commits);
          if rate = reference_rate then begin
            put "smr.queue_share" (share queue total);
            put "smr.delay_steps_mean" (share steps commits)
          end)
        causal_totals;
      let commits, two, _, _, _ = Hashtbl.find causal_totals (lowest_rate inp) in
      ("two_step_share", share two commits) :: det
    end
  in
  {
    det;
    layer = List.rev !layer;
    sim_s = !sim_s;
    verify_s = !verify_s;
    run_s = !run_s;
    explore_s = !explore_s;
    lin_s = !lin_s;
    rung_s = List.rev !rung_s;
    attempted = !attempted;
    failed = !failed;
    problems = List.rev !problems;
    gc = (q0, q1);
  }

(* Two-step share at the lowest rung, from a causally traced re-run of its
   schedules (tracing never perturbs a run, so these are the same commits). *)
let two_step_share inp =
  let commits = ref 0 and two = ref 0 in
  List.iter
    (fun sched ->
      let causality = Dsim.Causality.create () in
      ignore (smr_run ~faults:(faults ()) ~causality sched);
      let c, t, _, _, _ = attribution causality in
      commits := !commits + c;
      two := !two + t)
    (List.assoc (lowest_rate inp) inp.ladder);
  share !two !commits

(* One closed-loop, conflict-free client: every commit must take the
   two-step fast path, or the two-step metric is broken. *)
let calibrate () =
  let causality = Dsim.Causality.create () in
  let inst =
    Instance.create ~protocol ~n ~e ~f ~delta ~net ~seed:!seed ~pipeline ~batch_max ~causality ()
  in
  let rng = Rng.create ~seed:(Hashtbl.hash (!seed, "calibrate")) in
  let submit at =
    let word =
      Smr.Kv.encode { Smr.Kv.client = 0; key = Rng.int rng keys; action = Smr.Kv.Put (Rng.int rng 1024) }
    in
    Instance.submit inst ~at ~proxy:0 word
  in
  submit 0;
  let until = 4000 and think = 100 in
  let t = ref 0 in
  while !t < until do
    t := !t + 10;
    ignore (Instance.run ~until:!t inst);
    Instance.drain_new_outputs inst ~f:(fun time pid _ _ _ ->
        if pid = 0 && time + think < until then submit (time + think))
  done;
  let commits, two, _, _, _ = attribution causality in
  (commits, two)

(* -- Fixtures for per-layer engine timings ------------------------------------- *)

(* clone and fingerprint of a mid-search explorer engine: the n = 5 task
   instance after one synchronous round, round-two messages pending. *)
let engine_costs inp =
  let (module P : Proto.Protocol.S) = Core.Rgs.task in
  let engine =
    Dsim.Engine.create
      ~automaton:(P.make ~n:5 ~e:2 ~f:1 ~delta:100)
      ~n:5
      ~network:(Dsim.Network.Sync_rounds { delta = 100; order = Dsim.Network.Arrival })
      ~disable_timers:true ~inputs:inp.proposals5 ()
  in
  ignore (Dsim.Engine.run ~until:150 engine);
  let per_call fn =
    let reps = 2000 in
    Metric.median
      (List.init 5 (fun _ ->
           let t0 = now () in
           for _ = 1 to reps do
             ignore (Sys.opaque_identity (fn ()))
           done;
           (now () -. t0) /. float_of_int reps *. 1e6))
  in
  ( per_call (fun () -> Dsim.Engine.clone engine),
    per_call (fun () -> Dsim.Engine.fingerprint engine) )

(* -- Declared metrics ------------------------------------------------------------ *)

let declared section =
  let ic = open_in_bin "BENCHMARK.json" in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  match Json.member section (Json.parse_exn text) with
  | Some (Json.List l) ->
      List.map
        (fun m ->
          match (Json.member "name" m, Json.member "unit" m) with
          | Some (Json.String name), Some (Json.String u) -> (name, u)
          | _ -> failwith "BENCHMARK.json: metric without name/unit")
        l
  | _ -> failwith ("BENCHMARK.json: no " ^ section)

(* -- Main ------------------------------------------------------------------------ *)

let () =
  say "perfbench: workload %s seed %d seconds %d trace %d" !workload !seed !seconds !trace;
  let decl = declared (if !trace = 0 then "end_to_end" else "per_layer") in
  let problems = ref [] in
  let fail_if cond fmt = Printf.ksprintf (fun s -> if cond then problems := s :: !problems) fmt in
  (* Set-up: inputs and the calibration client, prepared three times (the
     median counts), then the cold first unit. *)
  let prepare () =
    let t0 = now () in
    let inp = make_inputs () in
    let commits, two = calibrate () in
    ((inp, commits, two), now () -. t0)
  in
  let preps = List.init 3 (fun _ -> prepare ()) in
  let (inp, commits, two), _ = List.hd preps in
  fail_if (commits = 0 || two <> commits)
    "calibration: %d of %d conflict-free commits took two message delays" two commits;
  let ref0 = time_reference () in
  let t0 = now () in
  let cold = run_unit ~ref_s:ref0 inp in
  let setup_s = Metric.median (List.map snd preps) +. (now () -. t0) in
  say "setup %.2fs (reference %.3fs)" setup_s ref0;
  (* Timed units, each preceded by the reference kernel. *)
  let units = ref [] and refs = ref [] in
  (* At least three units; no unit that would end well past the budget. *)
  let t_end = now () +. float_of_int !seconds in
  let last_s = ref 0.0 in
  while now () +. (!last_s /. 2.0) < t_end || List.length !units < 3 do
    let t0 = now () in
    let r = time_reference () in
    Gc.full_major ();
    let u = run_unit ~ref_s:r inp in
    say "unit %d: ref %.3fs sim %.3fs verify %.3fs" (List.length !units) r u.sim_s u.verify_s;
    refs := r :: !refs;
    units := u :: !units;
    last_s := now () -. t0
  done;
  let units = List.rev !units and refs = List.rev !refs in
  let last = List.nth units (List.length units - 1) in
  List.iter (fun u -> problems := List.rev_append u.problems !problems) (cold :: units);
  List.iteri
    (fun i u ->
      fail_if (u.det <> cold.det) "unit %d: deterministic metrics differ from the cold unit" i;
      fail_if (u.layer <> cold.layer) "unit %d: per-layer counts differ from the cold unit" i)
    units;
  let med f = Metric.median (List.map f units) in
  let sim_norm = Metric.normalised (List.map (fun u -> u.sim_s) units) ~ref_s:refs in
  let verify_norm = Metric.normalised (List.map (fun u -> u.verify_s) units) ~ref_s:refs in
  let metrics =
    if !trace = 0 then begin
      let share2 = two_step_share inp in
      let heap = (Gc.quick_stat ()).Gc.top_heap_words in
      [
        ("setup_s", setup_s);
        ("sim_norm", sim_norm);
        ("verify_norm", verify_norm);
        ("heap_peak_mb", float_of_int (heap * (Sys.word_size / 8)) /. 1e6);
        ("two_step_share", share2);
      ]
      @ cold.det
    end
    else begin
      (* The traced run: causal tracing on every SMR run, an enabled
         registry, benchmark spans around each layer call. *)
      let registry = Stdext.Metrics.create () in
      let clone_us, fingerprint_us = engine_costs inp in
      let r = time_reference () in
      Gc.full_major ();
      tracing := true;
      let traced = span "unit" (fun () -> run_unit ~traced:true ~registry ~ref_s:r inp) in
      tracing := false;
      problems := List.rev_append traced.problems !problems;
      List.iter
        (fun (name, v) ->
          if name <> "alloc_mw" then
            fail_if
              (List.assoc_opt name traced.det <> Some v)
              "traced run: %s differs from the untraced units" name)
        cold.det;
      List.iter
        (fun (name, v) ->
          fail_if (List.assoc_opt name traced.layer <> Some v) "traced run: %s differs" name)
        cold.layer;
      let out_dir = ".bench_out" in
      if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755;
      let path = Printf.sprintf "%s/spans-%s-seed%d.jsonl" out_dir !workload !seed in
      write_spans path;
      say "spans written to %s" path;
      let self = self_times !spans in
      let self_of name = Option.value ~default:0.0 (Hashtbl.find_opt self name) in
      Hashtbl.iter (fun name s -> say "self time %-16s %.3fs" name s) self;
      let c name = float_of_int (Stdext.Metrics.get_counter registry name) in
      let gauge name =
        match Stdext.Metrics.find registry name with
        | Some (Stdext.Metrics.Gauge g) -> float_of_int g
        | _ -> 0.0
      in
      let q0, q1 = last.gc in
      let run_s = med (fun u -> u.run_s) in
      let explore_s = med (fun u -> u.explore_s) in
      let counted name = List.assoc name traced.layer in
      let timed_and_counters =
        [
          ("bench.ref_s", Metric.median refs);
          ("bench.sim_s", med (fun u -> u.sim_s));
          ("bench.verify_s", med (fun u -> u.verify_s));
          ("dsim.events", c "engine.steps");
          ("dsim.events_per_s", c "engine.steps" /. run_s);
          ("dsim.sent_per_commit", c "engine.sent" /. counted "smr.applied");
          ("dsim.timer_fires", c "engine.timer_fires");
          ("dsim.queue_hwm", gauge "engine.queue_hwm");
          ("dsim.dropped", c "engine.dropped");
          ("dsim.duplicated", c "engine.duplicated");
          ("dsim.clone_us", clone_us);
          ("dsim.fingerprint_us", fingerprint_us);
          ("dsim.trace_overhead_pct", 100.0 *. (traced.run_s -. run_s) /. run_s);
          ("stateset.hits", c "stateset.hits");
          ("stateset.misses", c "stateset.misses");
          ("stateset.collisions", c "stateset.collisions");
          ("stateset.resizes", c "stateset.resizes");
          ("lin.check_s", med (fun u -> u.lin_s));
          ("gc.promoted_mw", (q1.Gc.promoted_words -. q0.Gc.promoted_words) /. 1e6);
          ("gc.major_collections", float_of_int (q1.Gc.major_collections - q0.Gc.major_collections));
          ("gc.minor_collections", float_of_int (q1.Gc.minor_collections - q0.Gc.minor_collections));
          ("self_s.smr.create", self_of "smr.create");
          ("self_s.dsim.run", self_of "dsim.run");
          ("self_s.smr.collect", self_of "smr.collect");
          ("self_s.checker.lin", self_of "checker.lin");
          ("self_s.checker.explore", self_of "checker.explore");
          ("self_s.bench", self_of "unit" +. self_of "smr.ladder" +. self_of "smr.crash");
        ]
        @ List.map
            (fun (rate, _) ->
              ( Printf.sprintf "smr.sim_s.r%d" rate,
                Metric.median (List.map (fun u -> List.assoc rate u.rung_s) units) ))
            inp.ladder
        @ (if is_kv () then
             [
               ( "explore.states_per_s",
                 counted "explore.distinct_states" /. explore_s );
             ]
           else [])
      in
      (* A layer this workload does not run reads 0: the explorer and its
         visited set on smr-ladder, rungs above 40 cmd/s on kv-faults. *)
      let not_run name =
        let prefixed p = String.length name > String.length p && String.sub name 0 (String.length p) = p in
        ((not (is_kv ())) && (prefixed "explore." || prefixed "stateset."))
        || (prefixed "smr."
           && List.exists
                (fun rate ->
                  (not (List.mem_assoc rate inp.ladder))
                  && Filename.extension name = Printf.sprintf ".r%d" rate)
                ladder_rates)
      in
      List.filter_map
        (fun (name, _) ->
          match List.assoc_opt name timed_and_counters with
          | Some v -> Some (name, v)
          | None -> (
              match List.assoc_opt name traced.layer with
              | Some v -> Some (name, v)
              | None -> if not_run name then Some (name, 0.0) else None))
        decl
    end
  in
  (* Every declared metric, and nothing else, with its declared unit. *)
  let names l = List.sort compare (List.map fst l) in
  fail_if (names decl <> names metrics) "printed metrics differ from those BENCHMARK.json declares";
  List.iter (fun (name, v) -> fail_if (not (Float.is_finite v)) "%s is not finite" name) metrics;
  let problems = List.rev !problems in
  List.iter (fun p -> say "CHECK FAILED: %s" p) problems;
  Printf.printf "# workload %s seed %d units %d\n" !workload !seed (List.length units);
  List.iter
    (fun (name, u) ->
      Printf.printf "%-28s %16.6f %s\n" name
        (Option.value ~default:nan (List.assoc_opt name metrics))
        u)
    decl;
  let json =
    Json.Obj
      [
        ("correct", Json.Bool (problems = []));
        ("attempted", Json.Int (max 1 last.attempted));
        ("failed", Json.Int last.failed);
        ( "metrics",
          Json.Obj
            (List.map
               (fun (name, u) ->
                 ( name,
                   Json.Obj
                     [
                       ("value", Json.Float (Option.value ~default:0.0 (List.assoc_opt name metrics)));
                       ("unit", Json.String u);
                     ] ))
               decl) );
      ]
  in
  print_endline (Json.to_string json);
  exit (if problems = [] then 0 else 1)
