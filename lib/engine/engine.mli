(** Session-based decomposition engine.

    An {!t} is a decomposition session: a circuit plus a validated
    {!Config.t}. {!run} decomposes every primary output, fanning the
    per-output jobs over [config.jobs] OCaml domains through a work
    queue; each job solves on a private copy of its output's cone
    ({!Step_aig.Circuit.cone}; solver scaffolding never touches the
    session circuit), so the result array is deterministic and
    identically ordered for any [jobs] value.

    {[
      let eng =
        Engine.create
          ~config:(Config.default |> Config.with_jobs 4)
          circuit
      in
      let result = Engine.run eng in
      Printf.printf "#Dec = %d\n" result.n_decomposed
    ]} *)

(** {1 Results} *)

type po_failure = {
  error : string;  (** [Printexc.to_string] of the final exception. *)
  backtrace : string;
  attempts : int;  (** Attempts the failing method consumed. *)
  elapsed : float;  (** Wall-clock across those attempts, backoff included. *)
  transient : bool;
      (** Whether the final failure was classified retryable
          ({!Retry.classify}); [true] means the retry budget ran out. *)
}

type po_result = {
  po_name : string;
  support_size : int;
  partition : Step_core.Partition.t option;
      (** [None]: not decomposable / timeout. *)
  proven_optimal : bool;  (** Only ever [true] for QBF methods. *)
  timed_out : bool;
  cache_hit : bool option;
      (** [None] when the run had no cache; otherwise whether this
          output's cone was served from {!Config.cache}. *)
  cpu : float;
  counters : (string * int) list;
      (** Engine statistics for this output — e.g. [sat_calls] /
          [seeds_tried] for the SAT methods, [mg_sat_calls] /
          [refinements] / [qbf_queries] for the QBF methods. Keys are
          stable per method; see docs/OBSERVABILITY.md. *)
  diags : Step_lint.Diag.t list;
      (** Artifact-lint findings for this output (the partition checked
          against the support). Empty unless [check_artifacts] was set. *)
  method_used : Step_core.Method.t;
      (** The method that produced this row — the configured one, or a
          degradation-ladder rung when [degraded]. *)
  degraded : bool;
      (** The configured method failed (or timed out empty-handed) and
          this row came from a [Config.fallback] rung. *)
  attempts : int;
      (** Supervision attempts spent on this output, all methods
          included ([1] when nothing went wrong). *)
  failure : po_failure option;
      (** [Some] when the configured method's job raised: the row is
          [failed] if no ladder rung recovered it, [degraded] otherwise
          (the record then describes the primary method's failure). *)
  certificate : Step_core.Certify.t option;
      (** Checked summary of the proof-carrying certificate for this
          row's answer ([ok] / [diags] record the independent checker's
          verdict). The certificate itself is not kept: it is saved to
          [Config.cert_dir] when that is set, and dropped. Only present
          under [Config.certify]; never present for timeouts or
          failures. For cached cones the certificate speaks in the cone's
          canonical input indices. *)
}

val po_status : po_result -> string
(** One word per row, the vocabulary shared by reports and the CLI:
    ["optimal" | "decomposed" | "indecomposable" | "timeout" |
    "degraded" | "failed"]. *)

type circuit_result = {
  circuit_name : string;
  method_used : Step_core.Method.t;
  gate_used : Step_core.Gate.t;
  per_po : po_result array;
  n_decomposed : int;  (** The paper's "#Dec". *)
  total_cpu : float;  (** The paper's "CPU(s)". *)
  diags : Step_lint.Diag.t list;
      (** Circuit-level lint findings (the input AIG). Empty unless
          [check_artifacts] was set. *)
}

(** {1 Sessions} *)

type t
(** A decomposition session: circuit + validated configuration. Cheap to
    create; owns no solver state (each job builds its own). *)

val create : ?config:Config.t -> Step_aig.Circuit.t -> t
(** [create ?config circuit] validates [config] (default
    {!Config.default}) and opens a session on [circuit], creating
    [config.cert_dir] if it is set and missing. The session never
    mutates [circuit].

    @raise Invalid_argument when {!Config.validate} rejects the config. *)

val circuit : t -> Step_aig.Circuit.t

val config : t -> Config.t

val run : t -> circuit_result
(** Decomposes every primary output under the session config. Jobs are
    fanned over [config.jobs] domains ({!Pool.map}); output [i] of the
    result is always output [i] of the circuit. When [total_budget]
    expires, jobs not yet started are cancelled cooperatively and
    reported as timed out ([cpu = 0.], [support_size = 0]). Spans go to
    the installed {!Step_obs.Obs} sink; wrap the call in
    {!Step_obs.Obs.with_sink} to collect them. *)

val run_auto : t -> (Step_core.Gate.t option * po_result) array
(** Like {!run} but tries all three gates per output (sharing the
    per-output budget, carrying any unspent slack forward) and keeps the
    best partition — lowest disjointness, ties broken by balancedness.
    The gate is [None] for outputs where nothing decomposed. A row's
    [cpu] is the sum over the three gates tried. *)

val decompose_po : t -> int -> po_result
(** One output, same per-job isolation as {!run}, no total-budget
    deadline.

    @raise Invalid_argument ["po I out of range (circuit has N outputs)"]
    for an index outside the circuit ({!Step_aig.Circuit.check_output_index}). *)

val decompose_po_auto : t -> int -> Step_core.Gate.t option * po_result
(** One output, all three gates; see {!run_auto}.

    @raise Invalid_argument as {!decompose_po}. *)

val lint_circuit : Step_aig.Circuit.t -> Step_lint.Diag.t list
(** Lints a circuit's AIG manager (rules AIG001–AIG004) through
    {!Step_lint.Lint.check_aig}, rooting reachability at the primary
    outputs. *)
