(* Every check of the benchmark passes on a real output and fails on a
   deliberately broken copy of it: a check that cannot fail checks
   nothing. *)

module C = Bench_checks

let is_ok = function Ok _ -> true | Error _ -> false
let passes name r = Alcotest.(check bool) (name ^ " passes") true (is_ok r)
let fires name r = Alcotest.(check bool) (name ^ " fires") false (is_ok r)

let instance ?(m = 10) ?(tasks = 60) seed =
  match Instance.make ~seed ~tasks ~m () with
  | Ok (_, costs) -> costs
  | Error e -> failwith e

let costs = instance 3
let sched = Caft.run ~epsilon:2 costs
let tasks = Dag.task_count (Costs.dag costs)
let edges = Dag.edge_count (Costs.dag costs)

let test_replication () =
  let ps = C.placements sched in
  passes "replication" (C.replication ~tasks ~epsilon:2 ps);
  (* move replica 1 of task 0 onto the processor of its twin, replica 0 *)
  let twin = List.find (fun p -> p.C.p_task = 0 && p.C.p_index = 0) ps in
  let moved =
    List.map
      (fun p ->
        if p.C.p_task = 0 && p.C.p_index = 1 then { p with C.p_proc = twin.C.p_proc }
        else p)
      ps
  in
  fires "twin on one processor" (C.replication ~tasks ~epsilon:2 moved);
  let dropped = List.filter (fun p -> not (p.C.p_task = 5 && p.C.p_index = 2)) ps in
  fires "missing replica" (C.replication ~tasks ~epsilon:2 dropped)

let test_overlap () =
  let ps = C.placements sched in
  passes "no overlap" (C.no_overlap ps);
  (* start the second replica of some processor when the first starts *)
  let first = List.hd ps in
  let other =
    List.find (fun p -> p.C.p_proc = first.C.p_proc && p != first) ps
  in
  let shifted =
    List.map
      (fun p ->
        if p == other then
          let d = p.C.p_finish -. p.C.p_start in
          { p with C.p_start = first.C.p_start; p_finish = first.C.p_start +. d }
        else p)
      ps
  in
  fires "overlapping replicas" (C.no_overlap shifted)

let test_latency_and_messages () =
  let l = Schedule.latency_zero_crash sched in
  passes "latency bound" (C.latency_bound costs ~latency:l);
  passes "schedule" (C.schedule costs sched);
  fires "latency below the critical path"
    (C.latency_bound costs ~latency:(0.5 *. C.critical_path costs));
  fires "nan latency" (C.latency_bound costs ~latency:nan);
  let messages = C.count_messages sched in
  Alcotest.(check int) "messages counted from supplies" (Schedule.message_count sched) messages;
  passes "message bound" (C.message_bound ~edges ~epsilon:2 ~messages);
  fires "too many messages" (C.message_bound ~edges ~epsilon:2 ~messages:((edges * 9) + 1))

let test_replay_checks () =
  let r = Monte_carlo.run ~runs:50 ~crashes:2 ~mode:Monte_carlo.From_start sched in
  passes "Monte-Carlo" (C.all_completed ~runs:50 ~completed:r.completed);
  fires "a lost run" (C.all_completed ~runs:50 ~completed:49);
  let static = Resilience.certify ~domains:1 sched in
  let fc = Fault_check.check ~static ~epsilon:2 sched in
  passes "fault check" (C.fault_check ~exhaustive:true fc);
  fires "not resistant" (C.fault_check ~exhaustive:true { fc with resists = false });
  fires "sampled" (C.fault_check ~exhaustive:true { fc with exhaustive = false });
  fires "no static verdict" (C.fault_check ~exhaustive:true { fc with static_agrees = None });
  fires "static disagrees" (C.fault_check ~exhaustive:true { fc with static_agrees = Some false });
  let sampled = Fault_check.check ~max_exhaustive:1 ~samples:20 ~static ~epsilon:2 sched in
  passes "sampled check" (C.fault_check ~exhaustive:false sampled);
  fires "sampled where exhaustive was due" (C.fault_check ~exhaustive:true sampled);
  (* a single-replica schedule starves under one crash: the real check fires *)
  let ff = Caft.fault_free costs in
  fires "eps = 0 against one crash"
    (C.fault_check ~exhaustive:true
       (Fault_check.check ~static:(Resilience.certify ~epsilon:1 ~domains:1 ff) ~epsilon:1 ff))

let with_file f =
  let path = Filename.temp_file ~temp_dir:Filename.current_dir_name "ftbench" ".sched" in
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

let test_stream () =
  with_file @@ fun path ->
  Caft.run_stream ~epsilon:1 ~path costs;
  let parsed = C.parse_stream path in
  passes "parse" parsed;
  let s = Result.get_ok parsed in
  passes "stream matches" (C.stream_matches ~path costs ~epsilon:1 s);
  fires "another instance" (C.stream_matches ~path (instance 4) ~epsilon:1 s);
  fires "another epsilon" (C.stream_matches ~path costs ~epsilon:2 s);
  (* cut the file in the middle of its replica lines *)
  let text = In_channel.with_open_bin path In_channel.input_all in
  Out_channel.with_open_bin path (fun oc ->
      output_string oc (String.sub text 0 (String.length text * 2 / 3)));
  fires "truncated file" (C.parse_stream path);
  fires "missing file" (C.parse_stream (path ^ ".none"))

(* -- serve --------------------------------------------------------------- *)

let params = Json.Obj [ ("seed", Json.Int 5); ("tasks", Json.Int 60); ("epsilon", Json.Int 1) ]

let evaluate op extra =
  let ctx = Serve_ops.create () in
  let params = match params with Json.Obj l -> Json.Obj (l @ extra) | j -> j in
  match Serve_ops.prepare ctx ~op ~params with
  | Error (_, e) -> failwith e
  | Ok p -> (
      match p.p_run ~cancel:Cancel.never with Ok s -> s | Error (_, e) -> failwith e)

let tamper s =
  let b = Bytes.of_string s in
  let i = Bytes.length b / 2 in
  Bytes.set b i (if Bytes.get b i = '1' then '2' else '1');
  Bytes.to_string b

let test_response () =
  let result = evaluate "schedule" [] in
  let frame cached =
    Serve_protocol.ok_response ~id:(Json.Int 7) ~op:"schedule" ~cached ~elapsed_ms:1.5
      result
  in
  (match C.response ~id:7 ~cached:false (frame false) with
  | Ok (bytes, ms) ->
      Alcotest.(check string) "result bytes" result bytes;
      Alcotest.(check (float 0.)) "elapsed" 1.5 ms
  | Error e -> Alcotest.fail e);
  fires "wrong id" (C.response ~id:8 ~cached:false (frame false));
  fires "miss served as a hit" (C.response ~id:7 ~cached:true (frame false));
  fires "hit served as a miss" (C.response ~id:7 ~cached:false (frame true));
  fires "error reply"
    (C.response ~id:7 ~cached:false
       (Serve_protocol.error_response ~id:(Json.Int 7) Serve_protocol.Internal "boom"));
  fires "not a frame" (C.response ~id:7 ~cached:false "{\"v\":1");
  passes "hit bytes" (C.same_bytes ~miss:result ~hit:result);
  fires "tampered cached response" (C.same_bytes ~miss:result ~hit:(tamper result))

let serve_costs = instance 5
let json s = Json.parse_exn s

let replace name v = function
  | Json.Obj l -> Json.Obj (List.map (fun (k, x) -> if k = name then (k, v) else (k, x)) l)
  | j -> j

let test_serve_results () =
  let s = json (evaluate "schedule" []) in
  passes "schedule result" (C.serve_schedule serve_costs ~epsilon:1 s);
  fires "invalid" (C.serve_schedule serve_costs ~epsilon:1 (replace "valid" (Json.Bool false) s));
  fires "replica count"
    (C.serve_schedule serve_costs ~epsilon:1 (replace "replicas" (Json.Int 60) s));
  fires "latency too short"
    (C.serve_schedule serve_costs ~epsilon:1 (replace "latency_zero_crash" (Json.Float 1.) s));
  fires "too many messages"
    (C.serve_schedule serve_costs ~epsilon:1 (replace "messages" (Json.Int 1_000_000) s));
  fires "instance of another size" (C.serve_schedule (instance ~tasks:61 9) ~epsilon:1 s);
  let a = json (evaluate "analyze" []) in
  passes "analyze result" (C.serve_analyze ~tasks:60 ~epsilon:1 a);
  let cert = Option.get (Json.member "certificate" a) in
  fires "refuted certificate"
    (C.serve_analyze ~tasks:60 ~epsilon:1
       (replace "certificate" (replace "resists" (Json.Bool false) cert) a));
  fires "certificate of another size" (C.serve_analyze ~tasks:61 ~epsilon:1 a);
  let mc = json (evaluate "montecarlo" [ ("runs", Json.Int 40) ]) in
  passes "montecarlo result" (C.serve_montecarlo ~runs:40 mc);
  fires "lost run" (C.serve_montecarlo ~runs:40 (replace "completed" (Json.Int 39) mc));
  let r = json (evaluate "replay" [ ("crashed", Json.List [ Json.Int 2 ]) ]) in
  passes "replay result" (C.serve_replay r);
  fires "starved replay" (C.serve_replay (replace "completed" (Json.Bool false) r));
  (* beyond the tolerance, the real daemon result fails the check *)
  let nine = Json.List (List.init 9 (fun p -> Json.Int p)) in
  let beyond = json (evaluate "replay" [ ("crashed", nine) ]) in
  fires "nine crashes" (C.serve_replay beyond)

let () =
  Alcotest.run "ftbench"
    [
      ( "checks",
        [
          Alcotest.test_case "replication" `Quick test_replication;
          Alcotest.test_case "processor overlap" `Quick test_overlap;
          Alcotest.test_case "latency and messages" `Quick test_latency_and_messages;
          Alcotest.test_case "replay and fault check" `Quick test_replay_checks;
          Alcotest.test_case "streamed schedule" `Quick test_stream;
          Alcotest.test_case "serve responses" `Quick test_response;
          Alcotest.test_case "serve results" `Quick test_serve_results;
        ] );
    ]
