(** Structured reporting of engine results.

    Renders {!Engine.circuit_result} values as aligned text, markdown or
    CSV, and computes the aggregate rows the paper's tables are built
    from. Used by the [step] CLI and the benchmark harness. *)

type aggregate = {
  n_outputs : int;
  n_decomposed : int;
  n_optimal : int;
  n_timed_out : int;
  n_failed : int;  (** POs whose job raised and no ladder rung recovered. *)
  n_degraded : int;  (** POs recovered through the degradation ladder. *)
  mean_disjointness : float; (** Over decomposed POs; [nan] if none. *)
  mean_balancedness : float;
  total_cpu : float;
}

val aggregate_of : Engine.circuit_result -> aggregate

val counters_of : Engine.circuit_result -> (string * int) list
(** Key-wise sum of the per-PO engine counters (SAT calls, seeds,
    CEGAR refinements, QBF queries…), in first-seen order. *)

val cache_counts : Engine.circuit_result -> int * int
(** [(hits, misses)] over the per-PO cache outcomes; [(0, 0)] for runs
    without [Config.cache]. *)

val cert_counts : Engine.circuit_result -> int * int
(** [(checked, failed)] over the per-PO certificates; [(0, 0)] for runs
    without [Config.certify]. *)

val cert_totals : Engine.circuit_result -> int * float
(** [(proof_bytes, seconds)] summed over the per-PO certificates —
    proof text size and generate+check time. *)

val to_text : Engine.circuit_result -> string
(** Aligned per-PO table plus a summary line. *)

val to_csv : Engine.circuit_result -> string
(** One row per PO:
    [po,support,decomposed,optimal,timed_out,status,attempts,xa,xb,xc,eD,eB,cpu,cache,cert,counters]
    — [status] is {!Engine.po_status}, [cert] is [ok]/[FAIL] (empty
    without [Config.certify]), the counters cell is [;]-separated
    [key=value] pairs. *)

val to_markdown : Engine.circuit_result -> string

(** JSON rendering lives in {!Step_api.Api.run_to_json} — one versioned
    serializer shared by [report -f json], the bench harness and the
    server. *)

val compare_table :
  baseline:Engine.circuit_result ->
  challenger:Engine.circuit_result ->
  metric:(Step_core.Partition.t -> float) ->
  string
(** Per-PO metric comparison of two runs over the same circuit (the
    Table I cell computation), rendered as text. *)
