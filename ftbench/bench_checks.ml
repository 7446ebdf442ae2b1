type placement = {
  p_task : int;
  p_index : int;
  p_proc : int;
  p_start : float;
  p_finish : float;
}

let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e
let fail fmt = Printf.ksprintf (fun s -> Error s) fmt

let placements sched =
  List.map
    (fun (r : Schedule.replica) ->
      {
        p_task = r.r_task;
        p_index = r.r_index;
        p_proc = r.r_proc;
        p_start = r.r_start;
        p_finish = r.r_finish;
      })
    (Schedule.all_replicas sched)

let replication ~tasks ~epsilon ps =
  let k = epsilon + 1 in
  let procs = Array.make tasks [] and indices = Array.make tasks [] in
  let rec go = function
    | [] -> Ok ()
    | p :: rest ->
        if p.p_task < 0 || p.p_task >= tasks then
          fail "replica of unknown task %d" p.p_task
        else if List.mem p.p_proc procs.(p.p_task) then
          fail "task %d has two replicas on processor %d" p.p_task p.p_proc
        else begin
          procs.(p.p_task) <- p.p_proc :: procs.(p.p_task);
          indices.(p.p_task) <- p.p_index :: indices.(p.p_task);
          go rest
        end
  in
  let* () = go ps in
  let expected = List.init k Fun.id in
  let rec each t =
    if t >= tasks then Ok ()
    else if List.sort compare indices.(t) <> expected then
      fail "task %d has replicas %s, expected indices 0..%d" t
        (String.concat "," (List.map string_of_int (List.rev indices.(t))))
        epsilon
    else each (t + 1)
  in
  each 0

let tol x = 1e-9 *. Float.max 1. (Float.abs x)

let no_overlap ps =
  let by_proc = Hashtbl.create 16 in
  List.iter
    (fun p ->
      Hashtbl.replace by_proc p.p_proc
        (p :: Option.value ~default:[] (Hashtbl.find_opt by_proc p.p_proc)))
    ps;
  Hashtbl.fold
    (fun proc l acc ->
      let* () = acc in
      let sorted =
        List.sort (fun a b -> compare (a.p_start, a.p_finish) (b.p_start, b.p_finish)) l
      in
      let rec scan = function
        | a :: (b :: _ as rest) ->
            if b.p_start < a.p_finish -. tol a.p_finish then
              fail "processor %d runs task %d [%g, %g] and task %d [%g, %g] at once"
                proc a.p_task a.p_start a.p_finish b.p_task b.p_start b.p_finish
            else scan rest
        | _ -> Ok ()
      in
      scan sorted)
    by_proc (Ok ())

let critical_path costs =
  let dag = Costs.dag costs in
  let finish = Array.make (Dag.task_count dag) 0. in
  Array.iter
    (fun t ->
      let ready =
        Array.fold_left (fun acc (p, _) -> Float.max acc finish.(p)) 0. (Dag.preds dag t)
      in
      finish.(t) <- ready +. Costs.min_exec costs t)
    (Dag.topological_order dag);
  Array.fold_left Float.max 0. finish

let latency_bound costs ~latency =
  let bound = critical_path costs in
  if Float.is_nan latency || latency < bound -. tol bound then
    fail "latency %.17g below the critical-path bound %.17g" latency bound
  else Ok ()

let count_messages sched =
  List.fold_left
    (fun acc (r : Schedule.replica) ->
      List.fold_left
        (fun acc -> function Schedule.Message _ -> acc + 1 | Schedule.Local _ -> acc)
        acc r.r_inputs)
    0 (Schedule.all_replicas sched)

let message_bound ~edges ~epsilon ~messages =
  let k = epsilon + 1 in
  if messages > edges * k * k then
    fail "%d messages exceed e(eps+1)^2 = %d" messages (edges * k * k)
  else Ok ()

let schedule costs sched =
  let tasks = Dag.task_count (Costs.dag costs) in
  let ps = placements sched in
  let* () = replication ~tasks ~epsilon:(Schedule.epsilon sched) ps in
  let* () = no_overlap ps in
  latency_bound costs ~latency:(Schedule.latency_zero_crash sched)

let all_completed ~runs ~completed =
  if runs < 1 || completed <> runs then
    fail "%d of %d runs completed within the tolerated crash count" completed runs
  else Ok ()

let fault_check ~exhaustive (r : Fault_check.report) =
  if r.exhaustive <> exhaustive then
    fail "crash enumeration exhaustive = %b, expected %b" r.exhaustive exhaustive
  else if not r.resists then fail "the exhaustive check found a starving crash set"
  else if r.static_agrees <> Some true then
    fail "the static certificate disagrees with the replay verdict"
  else Ok ()

let count_replica_lines path =
  In_channel.with_open_bin path (fun ic ->
      let rec go n =
        match In_channel.input_line ic with
        | None -> n
        | Some l -> go (if String.starts_with ~prefix:"replica " l then n + 1 else n)
      in
      go 0)

let same_instance costs parsed =
  let dag = Costs.dag costs and pdag = Costs.dag parsed in
  let n = Dag.task_count dag in
  let m = Platform.proc_count (Costs.platform costs) in
  let sorted a = List.sort compare (Array.to_list a) in
  if Dag.task_count pdag <> n || Dag.edge_count pdag <> Dag.edge_count dag then
    fail "parsed graph has %d tasks / %d edges, expected %d / %d"
      (Dag.task_count pdag) (Dag.edge_count pdag) n (Dag.edge_count dag)
  else if Platform.proc_count (Costs.platform parsed) <> m then
    fail "parsed platform has %d processors, expected %d"
      (Platform.proc_count (Costs.platform parsed)) m
  else
    let rec task t =
      if t >= n then Ok ()
      else if sorted (Dag.succs pdag t) <> sorted (Dag.succs dag t) then
        fail "task %d has other successors after parsing" t
      else
        let rec proc p =
          if p >= m then task (t + 1)
          else if Costs.exec parsed t p <> Costs.exec costs t p then
            fail "cost of task %d on processor %d changed by parsing" t p
          else proc (p + 1)
        in
        proc 0
    in
    task 0

let parse_stream path =
  match Schedule_io.of_file path with
  | sched -> Ok sched
  | exception Schedule_io.Parse_error { line; message } ->
      fail "%s:%d: %s" path line message
  | exception (Invalid_argument msg | Failure msg | Sys_error msg) ->
      fail "%s: %s" path msg

let stream_matches ~path costs ~epsilon sched =
  let tasks = Dag.task_count (Costs.dag costs) in
  let* () = same_instance costs (Schedule.costs sched) in
  let lines = count_replica_lines path in
  if lines <> tasks * (epsilon + 1) then
    fail "%s holds %d replica lines, expected %d" path lines (tasks * (epsilon + 1))
  else if Schedule.epsilon sched <> epsilon then
    fail "%s: epsilon %d, expected %d" path (Schedule.epsilon sched) epsilon
  else Ok ()

(* -- serve responses ----------------------------------------------------- *)

let result_marker = ",\"result\":"

let find_sub s sub =
  let n = String.length s and k = String.length sub in
  let rec go i =
    if i + k > n then None
    else if String.sub s i k = sub then Some i
    else go (i + 1)
  in
  go 0

let response ~id ~cached frame =
  match Serve_protocol.parse_response frame with
  | Error e -> fail "request %d: malformed response: %s" id e
  | Ok r ->
      if r.rs_id <> Json.Int id then
        fail "response id %s does not match request %d" (Json.to_string r.rs_id) id
      else if not r.rs_ok then
        fail "request %d failed: %s" id
          (match r.rs_error with
          | Some (c, m) -> Serve_protocol.class_name c ^ ": " ^ m
          | None -> "?")
      else if r.rs_cached <> cached then
        fail "request %d: cached = %b, expected %b" id r.rs_cached cached
      else
        match (find_sub frame result_marker, r.rs_elapsed_ms) with
        | None, _ -> fail "request %d: no result member" id
        | _, None -> fail "request %d: no elapsed_ms" id
        | Some i, Some ms ->
            let start = i + String.length result_marker in
            Ok (String.sub frame start (String.length frame - start - 1), ms)

let same_bytes ~miss ~hit =
  if String.equal miss hit then Ok ()
  else fail "cached result differs from the computed one"

let field name j =
  match Json.member name j with
  | Some v -> Ok v
  | None -> fail "result has no %S" name

let int_field name j =
  let* v = field name j in
  match Json.to_int v with Some i -> Ok i | None -> fail "%S is not an integer" name

let float_field name j =
  let* v = field name j in
  match Json.to_float v with Some f -> Ok f | None -> fail "%S is not a number" name

let bool_field name j =
  let* v = field name j in
  match Json.to_bool v with Some b -> Ok b | None -> fail "%S is not a boolean" name

let serve_schedule costs ~epsilon j =
  let dag = Costs.dag costs in
  let tasks = Dag.task_count dag in
  let* valid = bool_field "valid" j in
  let* replicas = int_field "replicas" j in
  let* n = int_field "tasks" j in
  let* messages = int_field "messages" j in
  let* latency = float_field "latency_zero_crash" j in
  if not valid then fail "schedule reported invalid"
  else if n <> tasks || replicas <> tasks * (epsilon + 1) then
    fail "%d tasks / %d replicas, expected %d / %d" n replicas tasks
      (tasks * (epsilon + 1))
  else
    let* () = message_bound ~edges:(Dag.edge_count dag) ~epsilon ~messages in
    let* () = latency_bound costs ~latency in
    Ok (latency, messages)

let serve_analyze ~tasks ~epsilon j =
  let* cert = field "certificate" j in
  let* resists = bool_field "resists" cert in
  let* ctasks = int_field "tasks" cert in
  let* ceps = int_field "epsilon" cert in
  let* findings = field "findings" j in
  let errors =
    List.filter
      (fun f -> Json.member "level" f = Some (Json.String "error"))
      (Json.to_list findings)
  in
  if not resists then fail "analyze did not certify the schedule"
  else if ctasks <> tasks || ceps <> epsilon then
    fail "certificate covers %d tasks at eps %d, expected %d at %d" ctasks ceps
      tasks epsilon
  else if errors <> [] then fail "analyze reported %d error findings" (List.length errors)
  else Ok ()

let serve_montecarlo ~runs j =
  let* r = int_field "runs" j in
  let* completed = int_field "completed" j in
  if r <> runs then fail "montecarlo ran %d runs, asked %d" r runs
  else all_completed ~runs ~completed

let serve_replay j =
  let* completed = bool_field "completed" j in
  let* failed = field "failed_tasks" j in
  if completed && Json.to_list failed = [] then Ok ()
  else fail "replay within the tolerated crash count did not complete"
