(* The repository's end-to-end benchmark.

   bench.exe --workload paper|scale|serve --seed N --seconds S --trace 0|1
             [--cli PATH]

   Runs whole rounds of one workload for about S seconds, checks every
   output against the properties in Bench_checks, and prints one JSON
   object as the last line of stdout:
     {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
   With --trace 0 the metrics are the end-to-end ones, measured with
   tracing off; with --trace 1 they are the per-layer ones, from a traced
   pass over the same calls plus an untraced pass over the same rounds
   (for the tracing overhead).  The process exits 1 when any check
   failed.  See README.md for the workloads and what each metric means. *)

let now = Unix.gettimeofday
let out_dir = ".ftbench-out"

(* -- layers -----------------------------------------------------------------
   Every call into the program goes through [timed], which adds its wall
   time and minor-heap words to the named layer and, in the traced pass,
   wraps it in a trace span.  Work of the benchmark's own (checks, probes)
   goes through [untimed] and is left out of the pass's wall time. *)

type layer = { mutable secs : float; mutable words : float }

let layers : (string, layer) Hashtbl.t = Hashtbl.create 32
let tracing = ref false
let excluded = ref 0.

let layer name =
  match Hashtbl.find_opt layers name with
  | Some l -> l
  | None ->
      let l = { secs = 0.; words = 0. } in
      Hashtbl.replace layers name l;
      l

let secs name = (layer name).secs
let words name = (layer name).words

let span name f =
  if !tracing then Obs.Trace.with_span ~cat:"bench" name f else f ()

let timed name f =
  let l = layer name in
  let w0 = Gc.minor_words () and t0 = now () in
  let r = span name f in
  l.secs <- l.secs +. (now () -. t0);
  l.words <- l.words +. (Gc.minor_words () -. w0);
  r

let untimed f =
  let t0 = now () in
  Fun.protect
    ~finally:(fun () -> excluded := !excluded +. (now () -. t0))
    (fun () -> span "bench.verify" f)

(* -- operations -------------------------------------------------------------
   An operation is one stage call on one instance, or one request.  A unit
   of work (an instance, a request) declares its operations up front; when
   one raises or fails its check, it and every later operation of the unit
   count as failed, so [failed / attempted] does not depend on timing. *)

exception Check_failed of string

let attempted = ref 0
let failed = ref 0

(* failed checks that belong to no operation: the trace file, the metrics *)
let run_failures : string list ref = ref []
let verify check =
  untimed (fun () ->
      match check () with Ok () -> () | Error e -> raise (Check_failed e))

let describe = function
  | Check_failed e -> e
  | e -> Printexc.to_string e

let unit_of_work ~ops ~label body =
  attempted := !attempted + ops;
  let passed = ref 0 in
  (match body (fun () -> incr passed) with
  | () -> ()
  | exception e -> prerr_endline (Printf.sprintf "FAILED %s: %s" label (describe e)));
  failed := !failed + (ops - !passed)

(* -- small helpers --------------------------------------------------------- *)

let vm_hwm_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  In_channel.with_open_text path (fun ic ->
      let rec go () =
        match In_channel.input_line ic with
        | None -> failwith ("no VmHWM in " ^ path)
        | Some l when String.starts_with ~prefix:"VmHWM:" l ->
            Scanf.sscanf l "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)
        | Some _ -> go ()
      in
      go ())

let setup_repeats = 5

let time_setup f =
  let samples =
    List.init setup_repeats (fun _ ->
        let t0 = now () in
        ignore (Sys.opaque_identity (f ()));
        now () -. t0)
  in
  Stats.median samples

(* A pass runs rounds until [seconds] have elapsed and at least
   [min_rounds] rounds ran, or exactly [rounds] rounds when given; its wall
   time leaves out the [untimed] work. *)
type pass = { rounds : int; wall : float }

let run_pass ?rounds ?(min_rounds = 1) ?(prepare = ignore) ~seconds round =
  Hashtbl.reset layers;
  excluded := 0.;
  let t0 = now () in
  prepare ();
  let rec go r =
    round r;
    let r = r + 1 in
    match rounds with
    | Some n -> if r < n then go r else r
    | None -> if r < min_rounds || now () -. t0 < seconds then go r else r
  in
  let rounds = go 0 in
  { rounds; wall = now () -. t0 -. !excluded }

(* -- paper: the Section 6 instances ------------------------------------------ *)

type platform = { pm : int; peps : int; pcrashes : int; per_range : int }

(* m/eps = 10/1, 10/3, 20/5 with 1, 2, 3 crashed processors: Figures 1-6.
   [per_range] instances of each granularity range per paper round: the
   quality ratios vary by about 30% from one instance to the next, so a
   seed needs a few dozen instances for its means to be steady. *)
let platforms =
  [
    { pm = 10; peps = 1; pcrashes = 1; per_range = 6 };
    { pm = 10; peps = 3; pcrashes = 2; per_range = 6 };
    { pm = 20; peps = 5; pcrashes = 3; per_range = 6 };
  ]

type pinst = {
  i_label : string;
  i_eps : int;
  i_costs : Costs.t;
  i_seed : int;
  i_crashed : int list;
}

let paper_instances seed =
  let rng = Rng.create seed in
  List.concat_map
    (fun pl ->
      List.concat_map
        (fun (rname, range) ->
          List.init pl.per_range @@ fun _ ->
          let r = Rng.split rng in
          let dag = Random_dag.generate_default r in
          let g = Rng.pick r (Array.of_list range) in
          let costs =
            Platform_gen.instance r ~granularity:g (Platform_gen.default ~m:pl.pm ()) dag
          in
          {
            i_label =
              Printf.sprintf "%d/%d %s g=%g n=%d" pl.pm pl.peps rname g
                (Dag.task_count dag);
            i_eps = pl.peps;
            i_costs = costs;
            i_seed = Rng.int r 1_000_000;
            i_crashed = Scenario.uniform_procs r ~m:pl.pm ~count:pl.pcrashes;
          })
        [ ("A", Config.range_a); ("B", Config.range_b) ])
    platforms

let mc_runs_paper = 1000

(* quality figures, collected over the instances of a pass *)
let ratios = ref []
let msgs = ref 0
let edges = ref 0
let tasks_scheduled = ref 0
let caft_tasks = ref 0
let tasks_analyzed = ref 0
let mc_scenarios = ref 0
let check_scenarios = ref 0
let schedule_mb = ref 0.

(* Per-unit samples (work, seconds) of each rate, one per instance or
   evaluated request.  A rate is their geometric mean, so that every
   instance weighs the same whatever its size: summing work and time
   instead lets the few heaviest instances of a seed set the figure, and
   their cost varies tenfold from seed to seed (analysis at 20/5 takes
   50-490 ms on 81-118 tasks). *)
let samples : (string, (float * float) list) Hashtbl.t = Hashtbl.create 8

let sample name work secs =
  Hashtbl.replace samples name
    ((work, secs) :: Option.value ~default:[] (Hashtbl.find_opt samples name))

let geomean_rate name =
  match Hashtbl.find_opt samples name with
  | None | Some [] -> nan
  | Some l ->
      exp (Stats.mean (List.map (fun (w, s) -> log (w /. s)) l))

let reset_counters () =
  ratios := [];
  msgs := 0;
  edges := 0;
  tasks_scheduled := 0;
  caft_tasks := 0;
  tasks_analyzed := 0;
  mc_scenarios := 0;
  check_scenarios := 0;
  schedule_mb := 0.;
  Hashtbl.reset samples

(* Analysis_report.analyze, or in the traced pass its four parts called in
   the same order, so that their layer times add up to it. *)
let analyze sched =
  if not !tracing then
    timed "analysis.analyze_s" (fun () -> Analysis_report.analyze ~domains:1 sched)
  else begin
    untimed (fun () ->
        ignore (timed "analysis.supply_graph_s" (fun () -> Supply_graph.build sched)));
    let epsilon = Schedule.epsilon sched in
    let resilience =
      timed "analysis.certify_s" (fun () ->
          match Resilience.certify ~epsilon ~domains:1 sched with
          | r -> Some r
          | exception Resilience.Family_overflow _ -> None)
    in
    let certificate =
      timed "analysis.certificate_s" (fun () ->
          Option.map (Certificate.of_report sched) resilience)
    in
    let mapping = timed "analysis.mapping_s" (fun () -> Mapping.verify sched) in
    let findings = timed "analysis.lint_s" (fun () -> Lint.run sched) in
    {
      Analysis_report.a_schedule = sched;
      a_epsilon = epsilon;
      a_resilience = resilience;
      a_certificate = certificate;
      a_mapping = mapping;
      a_findings = findings;
    }
  end

let analysis_ok (a : Analysis_report.t) =
  match a.a_resilience with
  | Some r when r.rs_resists && Lint.errors a.a_findings = 0 -> Ok r
  | Some _ -> Error "analysis did not certify the schedule"
  | None -> Error "certification overflowed"

let check_sched costs s = verify (fun () -> Bench_checks.schedule costs s)

let monte_carlo ~runs ~seed ~crashes sched =
  let r =
    timed "sim.mc_s" (fun () ->
        Monte_carlo.run ~seed ~runs ~crashes ~mode:Monte_carlo.From_start sched)
  in
  verify (fun () -> Bench_checks.all_completed ~runs ~completed:r.completed);
  mc_scenarios := !mc_scenarios + r.runs

(* Exhaustive crash enumeration where it has at most this many sets: all
   of 10/1 (10 sets) and 10/3 (120).  At 20/5 its 15,504 sets take
   3.5-15.5 s per instance, so Fault_check samples 200 of them there, still
   cross-checked against the static certificate. *)
let max_exhaustive = 1000
let sampled_sets = 200

let fault_check ~static sched =
  let epsilon = Schedule.epsilon sched in
  let m = Platform.proc_count (Schedule.platform sched) in
  let sets = Fault_check.count_combinations m epsilon in
  let r =
    timed "sim.check_s" (fun () ->
        Fault_check.check ~max_exhaustive ~samples:sampled_sets ~static ~epsilon sched)
  in
  verify (fun () -> Bench_checks.fault_check ~exhaustive:(sets <= max_exhaustive) r);
  check_scenarios := !check_scenarios + r.scenarios_checked

(* the layers each per-instance rate divides by *)
let stages =
  [
    ( "sched_tasks_per_s",
      [ "core.caft_s"; "core.fault_free_s"; "baselines.ftsa_s"; "baselines.ftbar_s" ],
      tasks_scheduled );
    ( "analyze_tasks_per_s",
      [ "sched.parse_s"; "sched.validate_s"; "analysis.analyze_s" ],
      tasks_analyzed );
    ("mc_scenarios_per_s", [ "sim.mc_s" ], mc_scenarios);
    ("check_scenarios_per_s", [ "sim.check_s" ], check_scenarios);
  ]

let sum_secs names = List.fold_left (fun acc n -> acc +. secs n) 0. names

(* Runs one instance and, when none of its operations failed, records
   its samples; its wall time leaves out the checks. *)
let with_samples f =
  let before = List.map (fun (_, names, c) -> (sum_secs names, !c)) stages in
  let t0 = now () and x0 = !excluded and f0 = !failed in
  f ();
  if !failed = f0 then begin
    List.iter2
      (fun (name, names, c) (s0, c0) ->
        sample name (float_of_int (!c - c0)) (sum_secs names -. s0))
      stages before;
    sample "instances_per_s" 1. (now () -. t0 -. (!excluded -. x0))
  end

let paper_ops = 11

let paper_instance inst =
  with_samples @@ fun () ->
  unit_of_work ~ops:paper_ops ~label:inst.i_label @@ fun passed ->
  span "instance" @@ fun () ->
  let costs = inst.i_costs and epsilon = inst.i_eps and seed = inst.i_seed in
  let dag = Costs.dag costs in
  let n = Dag.task_count dag and e = Dag.edge_count dag in
  let build name f =
    let s = timed name f in
    check_sched costs s;
    tasks_scheduled := !tasks_scheduled + n;
    passed ();
    s
  in
  let caft = build "core.caft_s" (fun () -> Caft.run ~seed ~epsilon costs) in
  caft_tasks := !caft_tasks + n;
  let messages = Bench_checks.count_messages caft in
  verify (fun () -> Bench_checks.message_bound ~edges:e ~epsilon ~messages);
  let ftsa = build "baselines.ftsa_s" (fun () -> Ftsa.run ~seed ~epsilon costs) in
  let ftbar = build "baselines.ftbar_s" (fun () -> Ftbar.run ~seed ~epsilon costs) in
  let ff = build "core.fault_free_s" (fun () -> Caft.fault_free ~seed costs) in
  (* one crash replay per fault-tolerant schedule, as in the figures *)
  List.iter
    (fun s ->
      let c = timed "sim.compile_s" (fun () -> Replay.compile s) in
      let o =
        timed "sim.crash_eval_s" (fun () -> Replay.eval_crashed c ~crashed:inst.i_crashed)
      in
      verify (fun () ->
          if not o.completed then Error "crash replay within eps did not complete"
          else Bench_checks.latency_bound costs ~latency:o.latency);
      passed ())
    [ caft; ftsa; ftbar ];
  let violations = timed "sched.validate_s" (fun () -> Validate.run caft) in
  verify (fun () ->
      if violations = [] then Ok () else Error "validation rejected the CAFT schedule");
  passed ();
  let report = analyze caft in
  let static = untimed (fun () -> analysis_ok report) in
  let static = match static with Ok r -> r | Error e -> raise (Check_failed e) in
  tasks_analyzed := !tasks_analyzed + n;
  passed ();
  monte_carlo ~runs:mc_runs_paper ~seed:(seed + 1) ~crashes:epsilon caft;
  passed ();
  fault_check ~static caft;
  passed ();
  ratios := (Schedule.latency_zero_crash caft /. Schedule.latency_zero_crash ff) :: !ratios;
  msgs := !msgs + messages;
  edges := !edges + e

(* -- scale: two ~2*10^4-task graphs through the streaming path ------------- *)

let scale_tasks = 20_000
let scale_m = 25
let scale_eps = 1
let mc_runs_scale = 200

type sinst = { s_label : string; s_costs : Costs.t; s_seed : int }

let scale_instances seed =
  List.mapi
    (fun k family ->
      match
        Instance.make ~seed:(seed + k) ~family ~tasks:scale_tasks ~m:scale_m ()
      with
      | Ok (dag, costs) ->
          {
            s_label = Printf.sprintf "%s n=%d" family (Dag.task_count dag);
            s_costs = costs;
            s_seed = seed + k;
          }
      | Error e -> failwith e)
    [ "staged"; "pipelines" ]

let scale_ops = 7

let scale_instance inst =
  with_samples @@ fun () ->
  unit_of_work ~ops:scale_ops ~label:inst.s_label @@ fun passed ->
  span "instance" @@ fun () ->
  let costs = inst.s_costs and epsilon = scale_eps and seed = inst.s_seed in
  let dag = Costs.dag costs in
  let n = Dag.task_count dag and e = Dag.edge_count dag in
  let path = Filename.concat out_dir (Printf.sprintf "scale-%d.sched" (Unix.getpid ())) in
  Fun.protect ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
  @@ fun () ->
  timed "core.caft_s" (fun () -> Caft.run_stream ~seed ~epsilon ~path costs);
  tasks_scheduled := !tasks_scheduled + n;
  caft_tasks := !caft_tasks + n;
  passed ();
  let bytes = (Unix.stat path).Unix.st_size in
  let sched =
    match timed "sched.parse_s" (fun () -> Bench_checks.parse_stream path) with
    | Ok s -> s
    | Error e -> raise (Check_failed e)
  in
  schedule_mb := !schedule_mb +. (float_of_int bytes /. 1048576.);
  verify (fun () -> Bench_checks.stream_matches ~path costs ~epsilon sched);
  check_sched costs sched;
  let messages = Bench_checks.count_messages sched in
  verify (fun () -> Bench_checks.message_bound ~edges:e ~epsilon ~messages);
  passed ();
  let violations = timed "sched.validate_s" (fun () -> Validate.run sched) in
  verify (fun () ->
      if violations = [] then Ok () else Error "validation rejected the streamed schedule");
  passed ();
  let report = analyze sched in
  let static = match untimed (fun () -> analysis_ok report) with
    | Ok r -> r
    | Error e -> raise (Check_failed e)
  in
  tasks_analyzed := !tasks_analyzed + n;
  passed ();
  monte_carlo ~runs:mc_runs_scale ~seed:(seed + 1) ~crashes:epsilon sched;
  passed ();
  fault_check ~static sched;
  passed ();
  let ff = timed "core.fault_free_s" (fun () -> Caft.fault_free ~seed costs) in
  check_sched costs ff;
  tasks_scheduled := !tasks_scheduled + n;
  passed ();
  ratios := (Schedule.latency_zero_crash sched /. Schedule.latency_zero_crash ff) :: !ratios;
  msgs := !msgs + messages;
  edges := !edges + e

(* -- serve: the daemon under a closed loop of two connections --------------- *)

type kind =
  | Schedule_k of int  (* epsilon *)
  | Analyze_k
  | Montecarlo_k of int  (* runs *)
  | Replay_k

type sinstance = {
  v_seed : int;
  v_tasks : int;
  v_m : int;
  v_eps : int;
  v_gran : float;
}

(* one evaluated request and the hits that repeat it *)
type cold = {
  c_inst : sinstance;
  c_kind : kind;
  c_body : string;  (* the request frame without its id *)
  mutable c_result : string option;
  mutable c_ms : float;  (* evaluation time the daemon reported *)
  mutable c_hits : int;
  mutable c_failed : bool;
}

type request = { q_id : int; q_cold : cold; q_hit : bool }

let hits_per_request = 10
let serve_tasks = 100
let serve_mc_runs = 1000
let serve_mc_runs_2 = 500

let params_json ~epsilon v extra =
  Json.Obj
    ([
       ("seed", Json.Int v.v_seed);
       ("tasks", Json.Int v.v_tasks);
       ("m", Json.Int v.v_m);
       ("epsilon", Json.Int epsilon);
       ("granularity", Json.Float v.v_gran);
     ]
    @ extra)

let colds_of v rng =
  (* two distinct crash sets of eps processors, so both replays miss *)
  let set1 = List.sort compare (Scenario.uniform_procs rng ~m:v.v_m ~count:v.v_eps) in
  let rec other () =
    let s = List.sort compare (Scenario.uniform_procs rng ~m:v.v_m ~count:v.v_eps) in
    if s = set1 then other () else s
  in
  let set2 = other () in
  let procs l = Json.List (List.map (fun p -> Json.Int p) l) in
  let mk ?(epsilon = v.v_eps) kind op extra =
    let body =
      Printf.sprintf "\"op\":%S,\"params\":%s}" op
        (Json.to_string (params_json ~epsilon v extra))
    in
    {
      c_inst = v;
      c_kind = kind;
      c_body = body;
      c_result = None;
      c_ms = nan;
      c_hits = 0;
      c_failed = false;
    }
  in
  [
    mk (Schedule_k v.v_eps) "schedule" [];
    mk ~epsilon:0 (Schedule_k 0) "schedule" [];
    mk Analyze_k "analyze" [];
    mk (Montecarlo_k serve_mc_runs) "montecarlo"
      [ ("runs", Json.Int serve_mc_runs); ("crashes", Json.Int v.v_eps) ];
    mk Replay_k "replay" [ ("crashed", procs set1) ];
    mk Replay_k "replay" [ ("crashed", procs set2) ];
    mk (Montecarlo_k serve_mc_runs_2) "montecarlo"
      [ ("runs", Json.Int serve_mc_runs_2); ("crashes", Json.Int (max 1 (v.v_eps - 1))) ];
  ]

(* The requests of one round, per connection: each connection gets one
   instance of each platform, so that both carry the same kind of load.
   Repeats follow their miss on the same connection, so which requests
   hit never depends on timing. *)
let serve_round ~seed round =
  let rng = Rng.create ((seed * 7919) + round) in
  let next_id = ref (round * 100_000) in
  let per_conn = [| []; [] |] in
  List.iteri
    (fun k pl ->
      List.iteri
        (fun j range ->
          let r = Rng.split rng in
          let g = Rng.pick r (Array.of_list range) in
          let v =
            {
              v_seed = Rng.int r 1_000_000_000;
              v_tasks = serve_tasks;
              v_m = pl.pm;
              v_eps = pl.peps;
              v_gran = float_of_string (Printf.sprintf "%.12g" g);
            }
          in
          let colds = colds_of v r in
          let req c hit =
            incr next_id;
            { q_id = !next_id; q_cold = c; q_hit = hit }
          in
          let first = List.map (fun c -> req c false) colds in
          let repeats =
            List.concat
              (List.init hits_per_request (fun _ -> List.map (fun c -> req c true) colds))
          in
          let conn = (k + j) mod 2 in
          per_conn.(conn) <- per_conn.(conn) @ first @ repeats)
        [ Config.range_a; Config.range_b ])
    platforms;
  per_conn

let frame q = Printf.sprintf "{\"v\":1,\"id\":%d,%s" q.q_id q.q_cold.c_body

(* latencies of the socket pass, in seconds *)
let cold_lat : float list ref = ref []
let hit_lat : float list ref = ref []
let responses = ref 0
let hit_count = ref 0
let colds_seen : cold list ref = ref []

(* Check one response frame; a hit must repeat its miss's bytes. *)
let take_response q resp =
  incr responses;
  let c = q.q_cold in
  if q.q_hit then c.c_hits <- c.c_hits + 1;
  let r =
    match Bench_checks.response ~id:q.q_id ~cached:q.q_hit resp with
    | Error e -> Error e
    | Ok (bytes, ms) -> (
        if not q.q_hit then begin
          c.c_result <- Some bytes;
          c.c_ms <- ms;
          colds_seen := c :: !colds_seen;
          Ok ()
        end
        else
          match c.c_result with
          | Some miss ->
              incr hit_count;
              Bench_checks.same_bytes ~miss ~hit:bytes
          | None -> Error "hit before its miss was answered")
  in
  attempted := !attempted + 1;
  match r with
  | Ok () -> ()
  | Error e ->
      incr failed;
      prerr_endline (Printf.sprintf "FAILED request %d: %s" q.q_id e)

(* Semantic checks of the evaluated results, after the timed loop: each
   instance is rebuilt here to know its edges and critical path.  A failed
   result fails its request and every hit that repeated it. *)
let check_colds colds =
  let by_inst = Hashtbl.create 64 in
  List.iter
    (fun c ->
      let l = Option.value ~default:[] (Hashtbl.find_opt by_inst c.c_inst) in
      Hashtbl.replace by_inst c.c_inst (c :: l))
    colds;
  Hashtbl.iter
    (fun v cs ->
      let costs =
        match
          Instance.make ~seed:v.v_seed ~tasks:v.v_tasks ~m:v.v_m ~granularity:v.v_gran ()
        with
        | Ok (_, costs) -> costs
        | Error e -> failwith e
      in
      let tasks = Dag.task_count (Costs.dag costs) in
      let latency eps =
        List.find_map
          (fun c -> if c.c_kind = Schedule_k eps && not c.c_failed then c.c_result else None)
          cs
      in
      List.iter
        (fun c ->
          let res =
            match c.c_result with
            | None -> Error "no result"
            | Some bytes -> (
                match Json.parse bytes with
                | Error e -> Error ("result is not JSON: " ^ e)
                | Ok j -> (
                    match c.c_kind with
                    | Schedule_k eps ->
                        Result.map
                          (fun (_, m) ->
                            if eps = v.v_eps then begin
                              msgs := !msgs + m;
                              edges := !edges + Dag.edge_count (Costs.dag costs)
                            end)
                          (Bench_checks.serve_schedule costs ~epsilon:eps j)
                    | Analyze_k -> Bench_checks.serve_analyze ~tasks ~epsilon:v.v_eps j
                    | Montecarlo_k runs -> Bench_checks.serve_montecarlo ~runs j
                    | Replay_k -> Bench_checks.serve_replay j))
          in
          match res with
          | Ok () -> ()
          | Error e ->
              c.c_failed <- true;
              failed := !failed + 1 + c.c_hits;
              prerr_endline ("FAILED serve result: " ^ e))
        cs;
      let lat b =
        Option.bind b (fun s ->
            Option.bind (Result.to_option (Json.parse s)) (fun j ->
                Option.bind (Json.member "latency_zero_crash" j) Json.to_float))
      in
      match (lat (latency v.v_eps), lat (latency 0)) with
      | Some l, Some l0 -> ratios := (l /. l0) :: !ratios
      | _ -> ())
    by_inst

(* -- the daemon process -- *)

let sock_path = Filename.concat out_dir "serve.sock"
let cache_path = Filename.concat out_dir "serve.cache"

type daemon = { pid : int; fd : Unix.file_descr; rbuf : Buffer.t }

let write_all fd s =
  let b = Bytes.of_string s in
  let rec go off =
    if off < Bytes.length b then go (off + Unix.write fd b off (Bytes.length b - off))
  in
  go 0

let chunk = Bytes.create 65536

(* append what the socket has; [false] at end of file *)
let read_into fd buf =
  match Unix.read fd chunk 0 (Bytes.length chunk) with
  | 0 -> false
  | k ->
      Buffer.add_subbytes buf chunk 0 k;
      true

(* the complete lines in [buf], oldest first; the partial tail stays *)
let take_lines buf =
  let s = Buffer.contents buf in
  match String.rindex_opt s '\n' with
  | None -> []
  | Some i ->
      Buffer.clear buf;
      Buffer.add_string buf (String.sub s (i + 1) (String.length s - i - 1));
      String.split_on_char '\n' (String.sub s 0 i)

let rec read_line fd buf =
  let s = Buffer.contents buf in
  match String.index_opt s '\n' with
  | Some i ->
      Buffer.clear buf;
      Buffer.add_string buf (String.sub s (i + 1) (String.length s - i - 1));
      String.sub s 0 i
  | None ->
      if read_into fd buf then read_line fd buf else failwith "daemon closed the connection"

let connect () =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX sock_path);
  fd

let rec connect_retry deadline =
  match connect () with
  | fd -> fd
  | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _)
    when now () < deadline ->
      Unix.sleepf 0.0002;
      connect_retry deadline

(* Spawn the daemon on a fresh journal and wait for its first ping. *)
let spawn ~cli =
  if Sys.file_exists cache_path then Sys.remove cache_path;
  if Sys.file_exists sock_path then Sys.remove sock_path;
  let pid =
    Unix.create_process cli
      [| cli; "serve"; "--socket"; sock_path; "--cache"; cache_path |]
      Unix.stdin Unix.stderr Unix.stderr
  in
  match connect_retry (now () +. 30.) with
  | fd ->
      let d = { pid; fd; rbuf = Buffer.create 4096 } in
      write_all fd "{\"v\":1,\"id\":0,\"op\":\"ping\"}\n";
      ignore (read_line fd d.rbuf);
      d
  | exception e ->
      Unix.kill pid Sys.sigkill;
      ignore (Unix.waitpid [] pid);
      raise e

(* Ask the daemon to drain and exit; kill it if it has not within 30 s. *)
let shutdown d =
  (try write_all d.fd "{\"v\":1,\"id\":0,\"op\":\"shutdown\"}\n"
   with Unix.Unix_error _ -> ());
  let deadline = now () +. 30. in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] d.pid with
    | 0, _ when now () < deadline ->
        Unix.sleepf 0.001;
        wait ()
    | 0, _ ->
        Unix.kill d.pid Sys.sigkill;
        ignore (Unix.waitpid [] d.pid)
    | _ -> ()
  in
  Fun.protect ~finally:(fun () -> Unix.close d.fd) wait

type conn = {
  k_fd : Unix.file_descr;
  k_buf : Buffer.t;
  mutable k_todo : request list;
  mutable k_sent : (request * float) option;
}

let send k =
  match k.k_todo with
  | [] -> k.k_sent <- None
  | q :: rest ->
      k.k_todo <- rest;
      k.k_sent <- Some (q, now ());
      write_all k.k_fd (frame q ^ "\n")

(* One round of the closed loop: each connection sends its next request
   as soon as the previous answer arrived. *)
let socket_round conns lists =
  Array.iteri (fun i k -> k.k_todo <- lists.(i); send k) conns;
  let busy () = Array.exists (fun k -> k.k_sent <> None) conns in
  while busy () do
    let fds =
      Array.to_list conns
      |> List.filter (fun k -> k.k_sent <> None)
      |> List.map (fun k -> k.k_fd)
    in
    let ready, _, _ = Unix.select fds [] [] 60. in
    if ready = [] then failwith "daemon stopped answering";
    Array.iter
      (fun k ->
        if List.mem k.k_fd ready then begin
          if not (read_into k.k_fd k.k_buf) then failwith "daemon closed the connection";
          List.iter
            (fun line ->
              match k.k_sent with
              | None -> failwith "response without a request"
              | Some (q, t0) ->
                  let dt = now () -. t0 in
                  if q.q_hit then hit_lat := dt :: !hit_lat
                  else cold_lat := dt :: !cold_lat;
                  take_response q line;
                  send k)
            (take_lines k.k_buf)
        end)
      conns
  done

(* The daemon's memory grows with every new request (its result cache,
   and the replay engine each montecarlo request leaves behind), so its
   peak is read after a fixed number of rounds, which every run
   completes. *)
let rss_rounds = 8

type socket_result = {
  so_setup : float;
  so_rss : float;
  so_pass : pass;
}

let socket_pass ~cli ~seed ?rounds ~seconds () =
  let setups = ref [] in
  let timed_spawn () =
    let t0 = now () in
    let d = spawn ~cli in
    setups := (now () -. t0) :: !setups;
    d
  in
  for _ = 2 to setup_repeats do
    shutdown (timed_spawn ())
  done;
  let d = timed_spawn () in
  Fun.protect ~finally:(fun () -> shutdown d) @@ fun () ->
  let conns =
    [|
      { k_fd = d.fd; k_buf = d.rbuf; k_todo = []; k_sent = None };
      { k_fd = connect (); k_buf = Buffer.create 4096; k_todo = []; k_sent = None };
    |]
  in
  Fun.protect ~finally:(fun () -> Unix.close conns.(1).k_fd) @@ fun () ->
  let rss = ref nan in
  let pass =
    run_pass ?rounds ~min_rounds:rss_rounds ~seconds (fun r ->
        socket_round conns (serve_round ~seed r);
        if r + 1 = rss_rounds then rss := vm_hwm_mb (string_of_int d.pid))
  in
  { so_setup = Stats.median !setups; so_rss = !rss; so_pass = pass }

(* The same frames through Serve_server.admit/step in this process, on a
   journaled cache of its own: the per-layer view of the daemon. *)
let inprocess_pass ~seed ~rounds =
  let path = Filename.concat out_dir (Printf.sprintf "inproc-%d.cache" (Unix.getpid ())) in
  if Sys.file_exists path then Sys.remove path;
  let cache =
    match Serve_cache.journaled ~resume:false path with
    | Ok (c, _) -> c
    | Error e -> failwith e
  in
  let t = Serve_server.create Serve_server.default_config ~cache in
  Fun.protect ~finally:(fun () -> Serve_server.finish t; Sys.remove path) @@ fun () ->
  run_pass ~rounds ~seconds:0. (fun r ->
      let lists = serve_round ~seed r in
      Array.iter
        (List.iter (fun q ->
             span "request" @@ fun () ->
             let f = frame q in
             let resp =
               match timed "serve.admit_s" (fun () -> Serve_server.admit t ~client:() f) with
               | Serve_server.Reply s | Serve_server.Reply_shutdown s -> s
               | Serve_server.Queued -> (
                   match timed "serve.step_s" (fun () -> Serve_server.step t) with
                   | Some ((), s) -> s
                   | None -> failwith "queued request vanished")
             in
             untimed (fun () -> take_response q resp)))
        lists)

(* -- work in a child process ---------------------------------------------------
   Monte_carlo.run and Fault_check.check keep every compiled replay engine
   they build (see README), so a process slows and grows from round to
   round.  Each timed round of [paper] and [scale], and each pass of a
   traced run, therefore runs in a child forked from the set-up process
   and sends back what it measured: all of them start from the same heap,
   whatever ran before. *)

type round_result = {
  rr_samples : (string * (float * float) list) list;
  rr_ratios : float list;
  rr_msgs : int;
  rr_edges : int;
  rr_hwm : float;
}

(* Runs [f] in a forked child and returns its result, marshalled over a
   pipe, adding the child's operations and failures to this process's. *)
let forked (f : unit -> 'a) : 'a =
  flush stdout;
  flush stderr;
  let r, w = Unix.pipe () in
  match Unix.fork () with
  | 0 ->
      Unix.close r;
      let code =
        let a0 = !attempted and f0 = !failed in
        run_failures := [];
        match f () with
        | v ->
            let oc = Unix.out_channel_of_descr w in
            Marshal.to_channel oc (v, !attempted - a0, !failed - f0, !run_failures) [];
            close_out oc;
            0
        | exception e ->
            prerr_endline ("child: " ^ Printexc.to_string e);
            1
      in
      Unix._exit code
  | pid -> (
      Unix.close w;
      let ic = Unix.in_channel_of_descr r in
      let res =
        try Some (Marshal.from_channel ic : 'a * int * int * string list)
        with End_of_file -> None
      in
      close_in ic;
      ignore (Unix.waitpid [] pid);
      match res with
      | Some (v, a, fl, rf) ->
          attempted := !attempted + a;
          failed := !failed + fl;
          run_failures := rf @ !run_failures;
          v
      | None -> failwith "a forked pass failed")

(* -- metrics ---------------------------------------------------------------- *)

type metric = { name : string; unit_ : string; value : float }

let m name unit_ value = { name; unit_; value }
let rate num den = if den > 0. then num /. den else nan

let end_to_end ~setup ~rss ~instances_per_s =
  [
    m "setup_s" "s" setup;
    m "peak_rss_mb" "MiB" rss;
    m "instances_per_s" "1/s" instances_per_s;
    m "sched_tasks_per_s" "1/s" (geomean_rate "sched_tasks_per_s");
    m "analyze_tasks_per_s" "1/s" (geomean_rate "analyze_tasks_per_s");
    m "mc_scenarios_per_s" "1/s" (geomean_rate "mc_scenarios_per_s");
    m "check_scenarios_per_s" "1/s" (geomean_rate "check_scenarios_per_s");
    m "latency_ratio" "ratio" (Stats.mean !ratios);
    m "msgs_per_edge" "ratio" (rate (float_of_int !msgs) (float_of_int !edges));
  ]

(* every per-layer metric; a layer a workload does not touch reads 0 *)
let per_layer_names =
  [
    ("workload.instance_s", "s");
    ("core.caft_s", "s");
    ("core.caft_words_per_task", "words");
    ("core.fault_free_s", "s");
    ("baselines.ftsa_s", "s");
    ("baselines.ftbar_s", "s");
    ("sched.validate_s", "s");
    ("sched.parse_s", "s");
    ("sched.schedule_mb", "MiB");
    ("analysis.certify_s", "s");
    ("analysis.certificate_s", "s");
    ("analysis.mapping_s", "s");
    ("analysis.lint_s", "s");
    ("analysis.supply_graph_s", "s");
    ("sim.compile_s", "s");
    ("sim.crash_eval_s", "s");
    ("sim.mc_s", "s");
    ("sim.mc_words_per_scenario", "words");
    ("sim.check_s", "s");
    ("sim.check_words_per_scenario", "words");
    ("serve.admit_s", "s");
    ("serve.step_s", "s");
    ("serve.hit_share", "ratio");
    ("serve.cold_p50_ms", "ms");
    ("serve.cold_p90_ms", "ms");
    ("serve.hit_p50_ms", "ms");
    ("serve.hit_p99_ms", "ms");
    ("traced_wall_s", "s");
    ("unattributed_s", "s");
    ("trace_overhead_s", "s");
  ]

(* a probe whose time is not part of the pass's work *)
let outside_sum = [ "analysis.supply_graph_s" ]

let per_layer ~traced ~untraced ~extra =
  let attributed =
    Hashtbl.fold
      (fun name l acc -> if List.mem name outside_sum then acc else acc +. l.secs)
      layers 0.
  in
  let per num den = if den > 0. then num /. den else 0. in
  let derived =
    [
      ("core.caft_words_per_task", per (words "core.caft_s") (float_of_int !caft_tasks));
      ("sim.mc_words_per_scenario", per (words "sim.mc_s") (float_of_int !mc_scenarios));
      ( "sim.check_words_per_scenario",
        per (words "sim.check_s") (float_of_int !check_scenarios) );
      ("sched.schedule_mb", !schedule_mb);
      ("traced_wall_s", traced.wall);
      ("unattributed_s", traced.wall -. attributed);
      ("trace_overhead_s", traced.wall -. untraced.wall);
    ]
    @ extra
  in
  List.map
    (fun (name, unit_) ->
      let value =
        match List.assoc_opt name derived with
        | Some v -> v
        | None -> secs name
      in
      m name unit_ value)
    per_layer_names

(* -- the trace file ---------------------------------------------------------- *)

(* The file must load as Chrome trace-event JSON: a traceEvents list whose
   complete events carry a name, a timestamp and a duration. *)
let check_trace path =
  match Json.parse (In_channel.with_open_bin path In_channel.input_all) with
  | Error e -> Error ("trace is not JSON: " ^ e)
  | Ok j -> (
      match Json.member "traceEvents" j with
      | Some (Json.List evs) ->
          let complete =
            List.filter (fun e -> Json.member "ph" e = Some (Json.String "X")) evs
          in
          let well_formed e =
            List.for_all (fun k -> Json.member k e <> None) [ "name"; "ts"; "dur"; "pid"; "tid" ]
          in
          if complete = [] then Error "trace has no complete events"
          else if not (List.for_all well_formed complete) then
            Error "trace event without name/ts/dur/pid/tid"
          else Ok (List.length complete)
      | _ -> Error "trace has no traceEvents list")

(* -- main -------------------------------------------------------------------- *)

let usage =
  "bench.exe --workload paper|scale|serve --seed N --seconds S --trace 0|1 [--cli PATH]"

let () =
  let workload = ref "" and seed = ref min_int and seconds = ref 0. in
  let trace = ref (-1) and cli = ref "_build/default/bin/ftsched_cli.exe" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "paper, scale or serve");
      ("--seed", Arg.Set_int seed, "seed of the generated inputs");
      ("--seconds", Arg.Set_float seconds, "how long a pass measures");
      ("--trace", Arg.Set_int trace, "0: end-to-end metrics, 1: per-layer metrics");
      ("--cli", Arg.Set_string cli, "the ftsched executable (serve workload)");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  if
    (not (List.mem !workload [ "paper"; "scale"; "serve" ]))
    || !seed = min_int || !seconds <= 0.
    || (!trace <> 0 && !trace <> 1)
  then begin
    prerr_endline usage;
    exit 2
  end;
  if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755;
  (* a daemon that dies mid-request must fail the run, not kill it *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let seed = !seed and seconds = !seconds and traced = !trace = 1 in
  let trace_path = Filename.concat out_dir (Printf.sprintf "trace-%s-%d.json" !workload seed) in
  let with_trace f =
    tracing := true;
    Obs.Trace.start ();
    let r = f () in
    Obs.Trace.stop ();
    tracing := false;
    Obs.Trace.write trace_path;
    (match check_trace trace_path with
    | Ok _ -> ()
    | Error e -> run_failures := e :: !run_failures);
    r
  in
  let metrics =
    match !workload with
    | "paper" | "scale" ->
        let paper = !workload = "paper" in
        let gen () = if paper then `P (paper_instances seed) else `S (scale_instances seed) in
        let setup = time_setup gen in
        let insts = ref (gen ()) in
        let run ?rounds ?prepare ~seconds () =
          reset_counters ();
          run_pass ?rounds ?prepare ~seconds (fun _ ->
              match !insts with
              | `P l -> List.iter paper_instance l
              | `S l -> List.iter scale_instance l)
        in
        if traced then
          (* both passes generate their instances, as set-up does *)
          let prepare () = insts := timed "workload.instance_s" gen in
          let u = forked (fun () -> run ~prepare ~seconds:(seconds /. 2.) ()) in
          forked (fun () ->
              let t = with_trace (fun () -> run ~rounds:u.rounds ~prepare ~seconds ()) in
              per_layer ~traced:t ~untraced:u ~extra:[])
        else begin
          let round () =
            reset_counters ();
            (match !insts with
            | `P l -> List.iter paper_instance l
            | `S l -> List.iter scale_instance l);
            {
              rr_samples = Hashtbl.fold (fun k v acc -> (k, v) :: acc) samples [];
              rr_ratios = !ratios;
              rr_msgs = !msgs;
              rr_edges = !edges;
              rr_hwm = vm_hwm_mb "self";
            }
          in
          let results = ref [] in
          ignore (run_pass ~seconds (fun _ -> results := forked round :: !results));
          reset_counters ();
          List.iter
            (fun rr ->
              List.iter (fun (k, l) -> List.iter (fun (w, s) -> sample k w s) l) rr.rr_samples;
              ratios := rr.rr_ratios @ !ratios;
              msgs := !msgs + rr.rr_msgs;
              edges := !edges + rr.rr_edges)
            !results;
          (* the peak of the first round's process *)
          let first = List.nth !results (List.length !results - 1) in
          end_to_end ~setup ~rss:first.rr_hwm
            ~instances_per_s:(geomean_rate "instances_per_s")
        end
    | _ ->
        let cli = !cli in
        let socket ?rounds ~seconds () =
          reset_counters ();
          cold_lat := [];
          hit_lat := [];
          colds_seen := [];
          socket_pass ~cli ~seed ?rounds ~seconds ()
        in
        let percentiles () =
          [
            ("serve.cold_p50_ms", 1000. *. Stats.median !cold_lat);
            ("serve.cold_p90_ms", 1000. *. Stats.percentile 0.90 !cold_lat);
            ("serve.hit_p50_ms", 1000. *. Stats.median !hit_lat);
            ("serve.hit_p99_ms", 1000. *. Stats.percentile 0.99 !hit_lat);
          ]
        in
        if traced then begin
          let s = socket ~seconds:(seconds /. 3.) () in
          check_colds !colds_seen;
          let lat = percentiles () in
          let rounds = s.so_pass.rounds in
          let inproc () =
            colds_seen := [];
            let p = inprocess_pass ~seed ~rounds in
            check_colds !colds_seen;
            p
          in
          let u = forked inproc in
          forked (fun () ->
              responses := 0;
              hit_count := 0;
              let t = with_trace inproc in
              let share = rate (float_of_int !hit_count) (float_of_int !responses) in
              per_layer ~traced:t ~untraced:u ~extra:(("serve.hit_share", share) :: lat))
        end
        else begin
          let s = socket ~seconds () in
          check_colds !colds_seen;
          (* each evaluated request is one sample of its kind's rate,
             timed by the evaluation time the daemon reports *)
          List.iter
            (fun c ->
              let secs = c.c_ms /. 1000. and tasks = float_of_int c.c_inst.v_tasks in
              match c.c_kind with
              | Schedule_k _ -> sample "sched_tasks_per_s" tasks secs
              | Analyze_k -> sample "analyze_tasks_per_s" tasks secs
              | Montecarlo_k runs -> sample "mc_scenarios_per_s" (float_of_int runs) secs
              | Replay_k -> sample "check_scenarios_per_s" 1. secs)
            !colds_seen;
          let instances = List.length (List.filter (fun c -> c.c_kind = Analyze_k) !colds_seen) in
          end_to_end ~setup:s.so_setup ~rss:s.so_rss
            ~instances_per_s:(rate (float_of_int instances) s.so_pass.wall)
        end
  in
  let bad_metric mt = (not (Float.is_finite mt.value)) || ((not traced) && mt.value <= 0.) in
  List.iter
    (fun mt ->
      if bad_metric mt then
        run_failures :=
          ("metric " ^ mt.name ^ " is not positive and finite") :: !run_failures)
    metrics;
  List.iter (fun e -> prerr_endline ("FAILED " ^ e)) !run_failures;
  List.iter (fun mt -> Printf.eprintf "  %-30s %14.6g %s\n" mt.name mt.value mt.unit_) metrics;
  let correct = !failed = 0 && !run_failures = [] in
  let metric_json mt =
    Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" mt.name
      (if Float.is_finite mt.value then mt.value else 0.)
      mt.unit_
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct !attempted !failed
    (String.concat ", " (List.map metric_json metrics));
  exit (if correct then 0 else 1)
