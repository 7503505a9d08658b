let median = function
  | [] -> invalid_arg "Metric.median: empty"
  | l ->
      let a = Array.of_list l in
      Array.sort Float.compare a;
      let k = Array.length a in
      if k mod 2 = 1 then a.(k / 2) else (a.((k / 2) - 1) +. a.(k / 2)) /. 2.0

let normalised unit_s ~ref_s =
  let r = median ref_s in
  if not (r > 0.0) then invalid_arg "Metric.normalised: reference median not positive";
  median unit_s /. r

type command = { submit : int; apply : int option }

let latencies cmds =
  Array.of_list (List.filter_map (fun c -> Option.map (fun a -> a - c.submit) c.apply) cmds)

let deadline_failures ~horizon ~deadline cmds =
  List.fold_left
    (fun (attempted, failed) c ->
      if c.submit > horizon - deadline then (attempted, failed)
      else
        let missed =
          match c.apply with None -> true | Some a -> a - c.submit > deadline
        in
        (attempted + 1, if missed then failed + 1 else failed))
    (0, 0) cmds

let slo_met ~p99_limit ~window ~horizon cmds =
  let lat = latencies cmds in
  let early = List.filter (fun c -> c.submit < horizon - window) cmds in
  let applied = List.length (List.filter (fun c -> c.apply <> None) early) in
  Array.length lat > 0
  && Stdext.Stats.p99 lat <= p99_limit
  && 100 * applied >= 99 * List.length early

let max_rate_slo rungs =
  List.fold_left (fun best (rate, ok) -> if ok then max best rate else best) 0 rungs

let longest_gap ~after ~until times =
  let inside = List.sort Int.compare (List.filter (fun t -> t >= after && t <= until) times) in
  let _, gap =
    List.fold_left (fun (prev, gap) t -> (t, max gap (t - prev))) (after, 0) (inside @ [ until ])
  in
  gap
