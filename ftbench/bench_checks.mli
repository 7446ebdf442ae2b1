(** Correctness properties the benchmark asserts on every output.

    Each check is a property of the method (Section 5 of the paper) or a
    comparison with a value the benchmark computes itself from the
    instance — never a comparison with a stored copy of earlier output.
    A check returns [Error reason] when the property fails; the
    benchmark then counts the operation that produced the output as
    failed.  [test_checks.ml] feeds every check a deliberately broken
    input to show that it can fail. *)

type placement = {
  p_task : int;
  p_index : int;
  p_proc : int;
  p_start : float;
  p_finish : float;
}
(** One replica, flattened out of a schedule so that tests can break it. *)

val placements : Schedule.t -> placement list

val replication :
  tasks:int -> epsilon:int -> placement list -> (unit, string) result
(** Every task [0 .. tasks-1] has exactly [epsilon + 1] replicas, with
    indices [0 .. epsilon], on pairwise distinct processors. *)

val no_overlap : placement list -> (unit, string) result
(** No two replicas on one processor overlap in time. *)

val critical_path : Costs.t -> float
(** Longest path of per-task minimum execution costs: a lower bound on
    any schedule's latency, communication ignored. *)

val latency_bound : Costs.t -> latency:float -> (unit, string) result
(** [latency >= critical_path costs] (within a relative 1e-9). *)

val count_messages : Schedule.t -> int
(** Inter-processor messages, counted from the replicas' supply lists. *)

val message_bound :
  edges:int -> epsilon:int -> messages:int -> (unit, string) result
(** [messages <= edges * (epsilon + 1)^2], the full-replication worst
    case that CAFT never exceeds. *)

val schedule : Costs.t -> Schedule.t -> (unit, string) result
(** {!replication}, {!no_overlap} and {!latency_bound} on the zero-crash
    latency, for a schedule of the given instance. *)

val all_completed : runs:int -> completed:int -> (unit, string) result
(** Proposition 5.2 on a Monte-Carlo campaign with at most ε crashes:
    every run completes. *)

val fault_check : exhaustive:bool -> Fault_check.report -> (unit, string) result
(** The crash check found the schedule resistant, the static certificate
    passed to it agrees ([static_agrees = Some true]), and it enumerated
    every crash set iff [exhaustive]. *)

val parse_stream : string -> (Schedule.t, string) result
(** {!Schedule_io.of_file}, with a malformed or truncated file as [Error]. *)

val stream_matches :
  path:string -> Costs.t -> epsilon:int -> Schedule.t -> (unit, string) result
(** The schedule parsed from a streamed file holds the instance's tasks,
    edges and costs, and the file holds exactly [tasks * (epsilon + 1)]
    replica lines, counted from the raw text. *)

(** {1 Serve responses} *)

val response :
  id:int -> cached:bool -> string -> (string * float, string) result
(** An [ok] response frame for request [id], served from the cache iff
    [cached]; returns the raw bytes of its [result] member and the
    [elapsed_ms] the daemon reports. *)

val same_bytes : miss:string -> hit:string -> (unit, string) result
(** A cache hit re-serves the exact result bytes of the miss. *)

val serve_schedule :
  Costs.t -> epsilon:int -> Json.t -> (float * int, string) result
(** A [schedule] result for the given instance: valid, [tasks * (ε+1)]
    replicas, messages within {!message_bound}, zero-crash latency
    within {!latency_bound}.  Returns the latency and message count. *)

val serve_analyze : tasks:int -> epsilon:int -> Json.t -> (unit, string) result
(** An [analyze] result that certifies ε-resistance with no
    error-level finding. *)

val serve_montecarlo : runs:int -> Json.t -> (unit, string) result
(** A [montecarlo] result in which every run completed. *)

val serve_replay : Json.t -> (unit, string) result
(** A [replay] result that completed with no failed task. *)
