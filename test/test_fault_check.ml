(* Unit tests for crash-set enumeration and fault checking. *)

let test_combinations () =
  let combos n k = List.of_seq (Fault_check.combinations n k) in
  Helpers.check_bool "3 choose 2" true
    (combos 3 2 = [ [ 0; 1 ]; [ 0; 2 ]; [ 1; 2 ] ]);
  Helpers.check_bool "k=0" true (combos 4 0 = [ [] ]);
  Helpers.check_bool "k=n" true (combos 3 3 = [ [ 0; 1; 2 ] ]);
  Helpers.check_bool "k>n empty" true (combos 2 3 = []);
  Helpers.check_int "5 choose 3 count" 10 (List.length (combos 5 3));
  Helpers.check_bool "all distinct" true
    (let l = combos 6 3 in
     List.length (List.sort_uniq compare l) = List.length l)

let test_count_combinations () =
  Helpers.check_int "10 choose 3" 120 (Fault_check.count_combinations 10 3);
  Helpers.check_int "20 choose 5" 15504 (Fault_check.count_combinations 20 5);
  Helpers.check_int "n choose 0" 1 (Fault_check.count_combinations 7 0);
  Helpers.check_int "n choose n" 1 (Fault_check.count_combinations 7 7);
  Helpers.check_int "k > n" 0 (Fault_check.count_combinations 3 5)

let test_check_accepts_tolerant_schedule () =
  let _, costs = Helpers.random_instance ~seed:41 () in
  let sched = Caft.run ~epsilon:2 costs in
  let report = Fault_check.check ~epsilon:2 sched in
  Helpers.check_bool "resists" true report.Fault_check.resists;
  Helpers.check_bool "exhaustive on 6 procs" true report.Fault_check.exhaustive;
  Helpers.check_int "C(6,2) scenarios" 15 report.Fault_check.scenarios_checked;
  Helpers.check_bool "worst latency finite" true
    (Float.is_finite report.Fault_check.worst_latency)

let test_check_rejects_unreplicated () =
  (* a fault-free schedule cannot resist 1 failure (any used proc kills it) *)
  let _, costs = Helpers.random_instance ~seed:42 () in
  let sched = Heft.run costs in
  let report = Fault_check.check ~epsilon:1 sched in
  Helpers.check_bool "heft does not resist" false report.Fault_check.resists;
  match report.Fault_check.counterexample with
  | Some (crashed, failed) ->
      Helpers.check_int "single crash" 1 (List.length crashed);
      Helpers.check_bool "some task failed" true (failed <> [])
  | None -> Alcotest.fail "expected a counterexample"

let test_check_beyond_replication () =
  (* epsilon-replicated schedules generally break at epsilon+1 crashes on
     small platforms; verify the checker can detect that too *)
  let dag = Families.chain 6 in
  let platform = Helpers.uniform_platform 3 in
  let costs = Helpers.flat_costs dag platform in
  let sched = Caft.run ~epsilon:1 costs in
  let report1 = Fault_check.check ~epsilon:1 sched in
  Helpers.check_bool "resists epsilon" true report1.Fault_check.resists;
  let report2 = Fault_check.check ~epsilon:2 sched in
  (* with only 3 processors, 2 crashes leave one processor: a 2-replica
     schedule cannot have a full chain on every single processor unless
     it co-locates everything; either outcome is legal, but if it reports
     failure there must be a concrete counterexample *)
  if not report2.Fault_check.resists then
    Helpers.check_bool "counterexample provided" true
      (report2.Fault_check.counterexample <> None)

let test_sampling_mode () =
  let _, costs = Helpers.random_instance ~seed:43 ~m:8 () in
  let sched = Caft.run ~epsilon:2 costs in
  let report = Fault_check.check ~max_exhaustive:5 ~samples:40 ~epsilon:2 sched in
  Helpers.check_bool "sampled" false report.Fault_check.exhaustive;
  Helpers.check_int "sample count" 40 report.Fault_check.scenarios_checked;
  Helpers.check_bool "resists in sampled mode" true report.Fault_check.resists

let test_scenarios () =
  let rng = Rng.create 3 in
  for _ = 1 to 50 do
    let procs = Scenario.uniform_procs rng ~m:10 ~count:3 in
    Helpers.check_int "count" 3 (List.length procs);
    Helpers.check_bool "distinct" true
      (List.length (List.sort_uniq compare procs) = 3);
    Helpers.check_bool "range" true (List.for_all (fun p -> p >= 0 && p < 10) procs)
  done;
  let timed = Scenario.timed rng ~m:10 ~count:4 ~horizon:100. in
  Helpers.check_int "timed count" 4 (List.length timed);
  List.iter
    (fun (_, tau) -> Helpers.check_bool "tau in horizon" true (tau >= 0. && tau < 100.))
    timed;
  (* count > m saturates *)
  Helpers.check_int "saturation" 5
    (List.length (Scenario.uniform_procs rng ~m:5 ~count:9))

(* -- batched check ≡ per-set oracle -------------------------------------- *)

(* The per-set oracle: one [Replay.eval_latency] per crash set, in
   enumeration order (exhaustive) or draw order (sampled, off the same
   [Rng.sample_without_replacement] stream), stopping at the first set
   that starves a task.  [Fault_check.check] judges the same sets in
   [Replay.eval_batch] blocks and must report exactly this. *)
let oracle_check ?(max_exhaustive = 20000) ?(samples = 1000) ?(seed = 7)
    ?static ~epsilon sched =
  let m = Platform.proc_count (Schedule.platform sched) in
  let epsilon = min epsilon m in
  let exhaustive = Fault_check.count_combinations m epsilon <= max_exhaustive in
  let c = Replay.compile sched in
  let checked = ref 0 and worst = ref nan and ce = ref None in
  let judge crashed =
    incr checked;
    let crash_time = Array.make m infinity in
    List.iter (fun p -> crash_time.(p) <- neg_infinity) crashed;
    let lat = Replay.eval_latency c ~crash_time in
    if Float.is_nan lat then
      ce := Some (crashed, (Replay.eval c ~crash_time).Replay.failed_tasks)
    else if Float.is_nan !worst || lat > !worst then worst := lat
  in
  let rec walk sets =
    match sets () with
    | Seq.Cons (crashed, rest) when !ce = None ->
        judge crashed;
        walk rest
    | _ -> ()
  in
  (if exhaustive then walk (Fault_check.combinations m epsilon)
   else
     let rng = Rng.create seed in
     while !checked < samples && !ce = None do
       judge (Rng.sample_without_replacement rng epsilon m)
     done);
  let static_agrees =
    match static with
    | None -> None
    | Some st -> (
        match (st.Resilience.rs_counterexample, !ce) with
        | None, None | Some _, Some _ -> Some true
        | None, Some _ -> Some false
        | Some (crashed, _), None ->
            let out = Replay.crash_from_start sched ~crashed in
            incr checked;
            if out.Replay.completed then Some false
            else begin
              ce := Some (crashed, out.Replay.failed_tasks);
              Some true
            end)
  in
  {
    Fault_check.resists = !ce = None;
    scenarios_checked = !checked;
    exhaustive;
    counterexample = !ce;
    worst_latency = !worst;
    static_agrees;
  }

let test_batched_matches_oracle () =
  let bytes_of (r : Fault_check.report) = Marshal.to_string r [] in
  let late = ref false in
  let compare_all name ?max_exhaustive ?samples ?static ~epsilon sched =
    let expected =
      bytes_of (oracle_check ?max_exhaustive ?samples ?static ~epsilon sched)
    in
    let same what r =
      if bytes_of r <> expected then
        Alcotest.failf "%s: %s report differs from the per-set oracle" name
          what
    in
    let reports =
      List.map
        (fun domains ->
          let r =
            Fault_check.check ?max_exhaustive ?samples ?static ~domains
              ~epsilon sched
          in
          same (Printf.sprintf "domains=%d" domains) r;
          r)
        [ 1; 2; 4 ]
    in
    let r = List.hd reports in
    if (not r.Fault_check.resists)
       && r.Fault_check.scenarios_checked > Monte_carlo.batch_block
    then late := true;
    List.iter
      (fun size ->
        let pool = Parallel.pool ~domains:size () in
        Fun.protect
          ~finally:(fun () -> Parallel.shutdown pool)
          (fun () ->
            same
              (Printf.sprintf "pool=%d" size)
              (Fault_check.check ?max_exhaustive ?samples ?static ~pool
                 ~epsilon sched)))
      [ 1; 2; 4 ];
    r
  in
  (* 364 and 1,820 crash sets at ε, and ε+1 refutations at ranks 171 of
     364 and 821 of 1,820: blocks of 256 end inside the enumeration and
     inside every shard *)
  List.iter
    (fun (m, eps, seed) ->
      let _, costs = Helpers.random_instance ~seed ~m ~tasks:6 () in
      let sched = Caft.run ~epsilon:eps costs in
      let name = Printf.sprintf "m=%d eps=%d seed=%d" m eps seed in
      (* resisting, then refuted by one crash more than the replication *)
      let resists r = r.Fault_check.resists in
      Helpers.check_bool "resists eps" true
        (resists (compare_all (name ^ " exhaustive") ~epsilon:eps sched));
      Helpers.check_bool "refuted at eps+1" false
        (resists
           (compare_all (name ^ " exhaustive eps+1") ~epsilon:(eps + 1) sched));
      Helpers.check_bool "sampled resists eps" true
        (resists
           (compare_all (name ^ " sampled") ~max_exhaustive:0 ~samples:600
              ~epsilon:eps sched));
      Helpers.check_bool "sampled refuted at eps+1" false
        (resists
           (compare_all (name ^ " sampled eps+1") ~max_exhaustive:0
              ~samples:600 ~epsilon:(eps + 1) sched));
      (* too few samples to refute: the static counterexample is replayed
         on the check's own engine *)
      let static = Resilience.certify ~domains:1 ~epsilon:(eps + 1) sched in
      let r =
        compare_all (name ^ " sampled eps+1 static") ~max_exhaustive:0
          ~samples:2 ~static ~epsilon:(eps + 1) sched
      in
      Helpers.check_int "static counterexample replayed" 3
        r.Fault_check.scenarios_checked;
      Helpers.check_bool "static replay confirms" true
        (r.Fault_check.static_agrees = Some true && not (resists r)))
    [ (14, 3, 52); (16, 4, 54); (14, 2, 55); (16, 3, 53) ];
  Helpers.check_bool "some counterexample lies past the first block" true
    !late

let suite =
  [
    Alcotest.test_case "combinations enumeration" `Quick test_combinations;
    Alcotest.test_case "binomial counting" `Quick test_count_combinations;
    Alcotest.test_case "accepts tolerant schedule" `Quick
      test_check_accepts_tolerant_schedule;
    Alcotest.test_case "rejects unreplicated schedule" `Quick
      test_check_rejects_unreplicated;
    Alcotest.test_case "beyond replication level" `Quick
      test_check_beyond_replication;
    Alcotest.test_case "sampling mode" `Quick test_sampling_mode;
    Alcotest.test_case "scenario generation" `Quick test_scenarios;
    Alcotest.test_case "batched check ≡ per-set oracle" `Quick
      test_batched_matches_oracle;
  ]
