type report = {
  resists : bool;
  scenarios_checked : int;
  exhaustive : bool;
  counterexample : (Platform.proc list * Dag.task list) option;
  worst_latency : float;
  static_agrees : bool option;
}

let m_scenarios =
  Obs_metrics.counter ~help:"crash sets enumerated or sampled by check"
    "fault_check.scenarios"

(* -- crash-set enumeration --------------------------------------------- *)

(* The hot path iterates increasing k-subsets of [0, n-1] with an in-place
   index array — the crash-time scratch is filled straight from it, so no
   list (or Bitset mask) is materialized per subset.  [advance_subset]
   steps [idx] to its lexicographic successor; it returns [false] when
   [idx] was the last subset. *)
let advance_subset ~n ~k idx =
  let i = ref (k - 1) in
  while !i >= 0 && idx.(!i) = n - k + !i do
    decr i
  done;
  if !i < 0 then false
  else begin
    idx.(!i) <- idx.(!i) + 1;
    for j = !i + 1 to k - 1 do
      idx.(j) <- idx.(j - 1) + 1
    done;
    true
  end

(* thin wrapper for tests: same subsets, as materialized lists; each
   step copies the index array so the sequence stays persistent *)
let combinations n k =
  if k < 0 || k > n then Seq.empty
  else
    let rec from idx () =
      Seq.Cons
        ( Array.to_list idx,
          fun () ->
            let idx = Array.copy idx in
            if advance_subset ~n ~k idx then from idx () else Seq.Nil )
    in
    from (Array.init k Fun.id)

let count_combinations n k =
  if k < 0 || k > n then 0
  else begin
    let k = min k (n - k) in
    let rec go acc i =
      if i > k then acc
      else
        let acc' = acc * (n - k + i) / i in
        if acc' < acc then max_int (* overflow *) else go acc' (i + 1)
    in
    go 1 1
  end

(* Lexicographic unranking (combinatorial number system): the [rank]-th
   increasing k-subset of [0, n-1], counting from 0 — the entry point of
   an enumeration shard.  Requires [0 <= rank < count_combinations n k],
   which the exhaustive check guarantees via [max_exhaustive], far below
   the saturation threshold of [count_combinations]. *)
let subset_at_rank ~n ~k rank =
  let idx = Array.make k 0 in
  let rank = ref rank in
  let next = ref 0 in
  for i = 0 to k - 1 do
    (* smallest element c >= next leaving more than [rank] subsets after
       fixing prefix..c *)
    let rec find c =
      let after = count_combinations (n - c - 1) (k - i - 1) in
      if after <= !rank then begin
        rank := !rank - after;
        find (c + 1)
      end
      else c
    in
    let c = find !next in
    idx.(i) <- c;
    next := c + 1
  done;
  idx

(* -- the check --------------------------------------------------------- *)

(* Crash sets are judged in blocks of [Monte_carlo.batch_block] through
   [Replay.eval_batch].  A block's crash-time arrays are allocated once
   per enumeration (shard or sampled loop) and refilled per block; the
   block is scanned in order, so the first [nan] is the lowest-ranked (or
   earliest drawn) counterexample of the block and only the sets before
   it count towards the worst latency. *)
let scenario_block ~m len =
  Array.init len (fun _ -> Scenario.of_crash_times (Array.make m infinity))

let eval_block ~cancel c block len =
  Replay.eval_batch ~cancel c
    (if len = Array.length block then block else Array.sub block 0 len)

(* Judge a block: fold its completed latencies into [worst] up to its
   first [nan] and return that position ([br_count] when every set
   completed).  The sets after a [nan] were evaluated but are not judged,
   so they count neither here nor in [fault_check.scenarios]. *)
let scan_block (res : Replay.batch) worst =
  let len = res.Replay.br_count and lat = res.Replay.br_latency in
  let j = ref 0 in
  while !j < len && not (Float.is_nan lat.(!j)) do
    if Float.is_nan !worst || lat.(!j) > !worst then worst := lat.(!j);
    incr j
  done;
  Obs_metrics.incr ~by:(min len (!j + 1)) m_scenarios;
  !j

(* The processors a crash-time array kills from the start, increasing. *)
let dead_from_start crash_time =
  let dead = ref [] in
  for p = Array.length crash_time - 1 downto 0 do
    if crash_time.(p) = neg_infinity then dead := p :: !dead
  done;
  !dead

(* One shard of the exhaustive enumeration: ranks [start, stop). *)
type shard = {
  sh_start : int;
  sh_worst : float;  (* max completed latency before the counterexample *)
  sh_counterexample : (int * Platform.proc list * Dag.task list) option;
      (* rank, crash set, starved tasks — the shard's lowest-rank refutation *)
  sh_engine : Replay.compiled;  (* reused by the static cross-check *)
}

let check ?(max_exhaustive = 20000) ?(samples = 1000) ?(seed = 7)
    ?(domains = 1) ?pool ?(cancel = Cancel.never) ?static ~epsilon sched =
  let m = Platform.proc_count (Schedule.platform sched) in
  let epsilon = min epsilon m in
  let total = count_combinations m epsilon in
  let exhaustive = total <= max_exhaustive in
  let checked = ref 0 in
  let counterexample = ref None in
  let worst = ref nan in
  let engine =
    if exhaustive then begin
      (* Shard the rank space into [domains] contiguous ranges.  Each
         shard compiles its own engine and stops at its own first
         counterexample; the combine step keeps the lowest-rank one, so
         the report cannot depend on [domains]: the scenarios at ranks
         below the winning rank are exactly those the sequential
         enumeration would have completed. *)
      let workers =
        match pool with Some p -> Parallel.pool_size p | None -> domains
      in
      let shards = max 1 (min workers total) in
      let bounds = Array.init (shards + 1) (fun i -> total * i / shards) in
      let run_shard i =
        Obs_prof.phase ~trace:false "check.shard" @@ fun () ->
        let start = bounds.(i) and stop = bounds.(i + 1) in
        let c = Replay.compile sched in
        let idx = subset_at_rank ~n:m ~k:epsilon start in
        let block =
          scenario_block ~m (min Monte_carlo.batch_block (stop - start))
        in
        let rank = ref start in
        let sh_worst = ref nan in
        let sh_ce = ref None in
        while !rank < stop && !sh_ce = None do
          let len = min (Array.length block) (stop - !rank) in
          for j = 0 to len - 1 do
            if j > 0 then ignore (advance_subset ~n:m ~k:epsilon idx);
            let crash_time = block.(j).Scenario.sc_crash_time in
            Array.fill crash_time 0 m infinity;
            Array.iter (fun p -> crash_time.(p) <- neg_infinity) idx
          done;
          let j = scan_block (eval_block ~cancel c block len) sh_worst in
          if j < len then begin
            (* re-evaluate in full (once per shard at most) for the task
               list *)
            let crash_time = block.(j).Scenario.sc_crash_time in
            let out = Replay.eval c ~crash_time in
            sh_ce :=
              Some
                (!rank + j, dead_from_start crash_time, out.Replay.failed_tasks)
          end
          else begin
            rank := !rank + len;
            if !rank < stop then ignore (advance_subset ~n:m ~k:epsilon idx)
          end
        done;
        {
          sh_start = start;
          sh_worst = !sh_worst;
          sh_counterexample = !sh_ce;
          sh_engine = c;
        }
      in
      let results =
        match pool with
        | Some p -> Parallel.map_pool p run_shard (List.init shards Fun.id)
        | None -> Parallel.map ~domains run_shard (List.init shards Fun.id)
      in
      let winner =
        List.fold_left
          (fun acc sh ->
            match (acc, sh.sh_counterexample) with
            | None, Some _ -> Some sh
            | Some best, Some (r, _, _) ->
                let br =
                  match best.sh_counterexample with
                  | Some (br, _, _) -> br
                  | None -> assert false
                in
                if r < br then Some sh else acc
            | _, None -> acc)
          None results
      in
      (match winner with
      | Some { sh_counterexample = Some (r, crashed, failed); _ } ->
          counterexample := Some (crashed, failed);
          checked := r + 1;
          (* worst over the completed scenarios at ranks below [r] only —
             shards beyond the winning rank are discarded *)
          List.iter
            (fun sh ->
              if sh.sh_start <= r && not (Float.is_nan sh.sh_worst) then
                if Float.is_nan !worst || sh.sh_worst > !worst then
                  worst := sh.sh_worst)
            results
      | _ ->
          checked := total;
          List.iter
            (fun sh ->
              if not (Float.is_nan sh.sh_worst) then
                if Float.is_nan !worst || sh.sh_worst > !worst then
                  worst := sh.sh_worst)
            results);
      (List.hd results).sh_engine
    end
    else begin
      Obs_prof.phase ~cat:"sim" "check.sample" @@ fun () ->
      (* Each block draws its sets from the one generator in order, so the
         stream is the sequential one; a counterexample reports its crash
         set as drawn. *)
      let rng = Rng.create seed in
      let c = Replay.compile sched in
      let block =
        scenario_block ~m (max 0 (min Monte_carlo.batch_block samples))
      in
      let drawn = Array.make (Array.length block) [] in
      while !checked < samples && !counterexample = None do
        let len = min (Array.length block) (samples - !checked) in
        for j = 0 to len - 1 do
          let crashed = Rng.sample_without_replacement rng epsilon m in
          drawn.(j) <- crashed;
          let crash_time = block.(j).Scenario.sc_crash_time in
          Array.fill crash_time 0 m infinity;
          List.iter (fun p -> crash_time.(p) <- neg_infinity) crashed
        done;
        let j = scan_block (eval_block ~cancel c block len) worst in
        checked := !checked + min len (j + 1);
        if j < len then begin
          let crash_time = block.(j).Scenario.sc_crash_time in
          let out = Replay.eval c ~crash_time in
          counterexample := Some (drawn.(j), out.Replay.failed_tasks)
        end
      done;
      c
    end
  in
  (* Cross-validation against the static supply-graph certificate.  The
     static verdict is exact, so in exhaustive mode the two must agree
     outright.  In sampled mode the replay may have missed the refuting
     crash set — replay the static counterexample before judging, and
     adopt it when the replay confirms it. *)
  let static_agrees =
    match static with
    | None -> None
    | Some (st : Resilience.report) -> (
        match (st.Resilience.rs_counterexample, !counterexample) with
        | None, None -> Some true
        | None, Some _ -> Some false
        | Some _, Some _ -> Some true
        | Some (crashed, _), None ->
            let out = Replay.eval_crashed engine ~crashed in
            incr checked;
            if not out.Replay.completed then begin
              counterexample := Some (crashed, out.Replay.failed_tasks);
              Some true
            end
            else Some false)
  in
  {
    resists = !counterexample = None;
    scenarios_checked = !checked;
    exhaustive;
    counterexample = !counterexample;
    worst_latency = !worst;
    static_agrees;
  }
