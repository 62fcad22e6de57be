module Circuit = Step_aig.Circuit
module Cone = Step_aig.Cone
module Cache = Step_cache.Cache
module Obs = Step_obs.Obs
module Clock = Step_obs.Clock
module Json = Step_obs.Json
module Metrics = Step_obs.Metrics
module Fault = Step_fault.Fault
module Method = Step_core.Method
module Gate = Step_core.Gate
module Partition = Step_core.Partition
module Problem = Step_core.Problem
module Certify = Step_core.Certify
module Cert = Step_cert.Cert

(* supervision telemetry, merged across runs and worker domains *)
let m_retries = Metrics.counter "engine.retries"

let m_failures = Metrics.counter "engine.failures"

let m_degraded = Metrics.counter "engine.degraded"

(* per-PO latency distribution — the percentile view (p50/p90/p99 via
   Metrics.stats) that per-run totals can't give *)
let h_po = Metrics.histogram "engine.po_s"

type po_failure = {
  error : string;
  backtrace : string;
  attempts : int;
  elapsed : float;
  transient : bool;
}

type po_result = {
  po_name : string;
  support_size : int;
  partition : Partition.t option;
  proven_optimal : bool;
  timed_out : bool;
  cache_hit : bool option;
  cpu : float;
  counters : (string * int) list;
  diags : Step_lint.Diag.t list;
  method_used : Method.t;
  degraded : bool;
  attempts : int;
  failure : po_failure option;
  certificate : Certify.t option;
}

let po_status r =
  if r.degraded then "degraded"
  else
    match r.failure with
    | Some _ -> "failed"
    | None -> (
        match r.partition with
        | Some _ when r.proven_optimal -> "optimal"
        | Some _ -> "decomposed"
        | None -> if r.timed_out then "timeout" else "indecomposable")

type circuit_result = {
  circuit_name : string;
  method_used : Method.t;
  gate_used : Gate.t;
  per_po : po_result array;
  n_decomposed : int;
  total_cpu : float;
  diags : Step_lint.Diag.t list;
}

let lint_circuit (c : Circuit.t) =
  let aig = c.Circuit.aig in
  let module Aig = Step_aig.Aig in
  let view =
    {
      Step_lint.Lint.n_nodes = Aig.n_nodes aig;
      node =
        (fun id ->
          match Aig.node_kind aig id with
          | `Const -> Step_lint.Lint.Const
          | `Input i -> Step_lint.Lint.Input i
          | `And (f0, f1) -> Step_lint.Lint.And (f0, f1));
      roots = Array.to_list (Array.map snd c.Circuit.outputs);
    }
  in
  Step_lint.Lint.check_aig ~name:c.Circuit.name view

(* The cache key pins everything the cached result depends on besides the
   cone itself. The budget component is the *configured* per-PO budget,
   not the possibly total-budget-clamped one a particular job ran with —
   keys must not depend on scheduling (see find_or_compute's refusal to
   store timed-out entries for the other half of that argument). *)
let cache_key ~gate ~method_ ~budget ~min_support cone =
  Printf.sprintf "v1|%s|%s|%h|%d|%s" (Gate.to_string gate)
    (Method.to_string method_) budget min_support cone.Cone.key

let timeout_stub ~method_ name =
  {
    po_name = name;
    support_size = 0;
    partition = None;
    proven_optimal = false;
    timed_out = true;
    cache_hit = None;
    cpu = 0.0;
    counters = [];
    diags = [];
    method_used = method_;
    degraded = false;
    attempts = 1;
    failure = None;
    certificate = None;
  }

(* The single-output kernel: output [i] of [circuit] under the job's
   config, with [budget] the per-PO budget already clamped by what is
   left of the total budget. [circuit] is the job's private copy of the
   output's cone — the QBF methods add copy inputs and scratch nodes to its
   manager. Cache keys use the configured [cfg.per_po_budget], never the
   clamped [budget].

   Solving and certifying are two steps. The kernel solves and returns
   the row, with no certificate, and its certify step. [certify ()]
   returns the row with its certificate's checked summary and the step's
   time added to [cpu], and the certificate body, which the row does not
   keep (see [supervise_job]); without [cfg.certify], or for a timeout,
   it returns the row unchanged and no body. The fixed-gate path is
   [eager]: the kernel runs the step itself, inside its span, returns
   the certified row, and the step only hands the result back; it also
   observes [engine.po_s]. The auto path is not, runs the step for the
   gate it keeps only, and observes [engine.po_s] once per output. *)
let decompose_kernel (cfg : Config.t) ~budget ~eager circuit i gate method_ =
  let name = Circuit.output_name circuit i in
  Obs.span
    ~attrs:
      [
        ("po", Json.String name);
        ("method", Json.String (Method.to_string method_));
        ("gate", Json.String (Gate.to_string gate));
      ]
    "pipeline.po"
  @@ fun () ->
  let t0 = Clock.now () in
  let p = Problem.of_output circuit i in
  let n = Problem.n_vars p in
  let finish ?cache_hit ?(counters = []) partition proven_optimal timed_out =
    let partition = Option.map Partition.canonical partition in
    let diags =
      match partition with
      | Some part when cfg.check_artifacts ->
          Partition.lint ~name ~support:p.Problem.support part
      | _ -> []
    in
    let row =
      {
        (timeout_stub ~method_ name) with
        support_size = n;
        partition;
        proven_optimal;
        timed_out;
        cache_hit;
        cpu = Clock.elapsed_since t0;
        counters;
        diags;
      }
    in
    Obs.add_attr "n" (Json.Int n);
    Obs.add_attr "status" (Json.String (po_status row));
    Option.iter
      (fun hit ->
        Obs.add_attr "cache" (Json.String (if hit then "hit" else "miss")))
      cache_hit;
    Option.iter
      (fun part -> Obs.add_attr "xc" (Json.Int (List.length part.Partition.xc)))
      partition;
    row
  in
  (* Certificates re-solve the answer with proof logging on, so they are
     only built when asked for, and never for timeouts (a timeout is not
     a claim — there is nothing to certify). Body and checked summary. *)
  let wanted timed_out = cfg.certify && not timed_out in
  let mk_cert problem partition =
    Obs.span "cert.generate" (fun () ->
        Certify.for_po ~po:name ~method_name:(Method.to_string method_)
          problem gate partition)
  in
  let row, cert =
    if n < max 2 cfg.min_support then (finish None true false, fun () -> None)
    else
      match cfg.cache with
      | None ->
          let { Method.partition; optimal; timed_out; counters } =
            Method.run ~time_budget:budget method_ p gate
          in
          ( finish ~counters partition optimal timed_out,
            fun () -> if wanted timed_out then mk_cert p partition else None )
      | Some cache ->
          (* Canonicalize the cone; on a miss solve the canonical rebuild,
             not the original, so the stored entry is a pure function of
             the key (two isomorphic cones would otherwise race to publish
             their own numbering's solution, making warm results depend on
             scheduling). On a hit rehydrate through the input mapping. *)
          let cone =
            Obs.span "cache.extract" (fun () ->
                Cone.extract circuit.Circuit.aig (Circuit.output circuit i))
          in
          let key =
            cache_key ~gate ~method_ ~budget:cfg.per_po_budget
              ~min_support:cfg.min_support cone
          in
          (* the canonical rebuild serves both the miss solve and any
             certificate work; built at most once per call *)
          let canonical_problem =
            lazy
              (let cm, croot = Cone.build cone in
               Problem.of_edge cm croot)
          in
          let compute () =
            let cp = Lazy.force canonical_problem in
            let budget = Float.max 0.0 (budget -. Clock.elapsed_since t0) in
            let { Method.partition; optimal; timed_out; counters } =
              Method.run ~time_budget:budget method_ cp gate
            in
            {
              Cache.partition;
              proven_optimal = optimal;
              timed_out;
              counters;
              cert = None;
            }
          in
          let entry, hit =
            Cache.find_or_compute cache ~key ~n_inputs:(Cone.n_inputs cone)
              compute
          in
          (* An entry is solved with no certificate, and certified once,
             the first time a certified run reports it. The certificate
             speaks for the canonical problem, so — like the entry
             itself — it is a pure function of the key, in canonical
             input indices. *)
          let cert () =
            if not (wanted entry.Cache.timed_out) then None
            else
              Cache.certify cache ~key (fun () ->
                  mk_cert (Lazy.force canonical_problem) entry.Cache.partition)
          in
          let rehydrate part =
            let mapv = List.map (fun k -> cone.Cone.inputs.(k)) in
            Partition.make ~xa:(mapv part.Partition.xa)
              ~xb:(mapv part.Partition.xb) ~xc:(mapv part.Partition.xc)
          in
          ( finish ~cache_hit:hit ~counters:entry.Cache.counters
              (Option.map rehydrate entry.Cache.partition)
              entry.Cache.proven_optimal entry.Cache.timed_out,
            cert )
  in
  let certify () =
    let t1 = Clock.now () in
    match cert () with
    | None -> (row, None)
    | Some (body, summary) ->
        ( {
            row with
            certificate = Some summary;
            cpu = row.cpu +. Clock.elapsed_since t1;
          },
          Some body )
  in
  if eager then begin
    let ((r, _) as certified) = certify () in
    Metrics.observe h_po r.cpu;
    (r, fun () -> certified)
  end
  else (row, certify)

let score (r : po_result) =
  match r.partition with
  | None -> (infinity, infinity)
  | Some p -> (Partition.disjointness p, Partition.balancedness p)

(* Auto-gate kernel: tries the three gates on one output. Each gate's
   slice is an even share of the budget *still unspent*, so a gate that
   finishes early (tiny support, fast UNSAT) hands its slack to the
   remaining gates instead of wasting it. The gates are scored with no
   certificates; only the kept one is certified. *)
let decompose_auto_kernel cfg ~budget circuit i method_ =
  let _, rev_candidates =
    List.fold_left
      (fun (remaining, acc) gate ->
        let gates_left = List.length Gate.all - List.length acc in
        let slice = remaining /. float_of_int gates_left in
        let r, certify =
          decompose_kernel cfg ~budget:slice ~eager:false circuit i gate
            method_
        in
        (Float.max 0.0 (remaining -. r.cpu), (gate, r, certify) :: acc))
      (budget, []) Gate.all
  in
  let candidates = List.rev rev_candidates in
  let best =
    List.fold_left
      (fun acc ((_, r, _) as c) ->
        match acc with
        | None -> Some c
        | Some (_, br, _) -> if score r < score br then Some c else acc)
      None candidates
  in
  match best with
  | None -> assert false
  | Some (gate, best_r, certify) ->
      let r, body = certify () in
      (* the row reports the time of every gate tried, not just the
         winner's, plus the winner's certificate *)
      let cpu =
        List.fold_left (fun acc (_, c, _) -> acc +. c.cpu) 0.0 candidates
        +. (r.cpu -. best_r.cpu)
      in
      Metrics.observe h_po cpu;
      let gate = if r.partition <> None then Some gate else None in
      (gate, { r with cpu }, body)

type t = { circuit : Circuit.t; config : Config.t }

let rec mkdir_p d =
  if d = "" || d = "." || d = "/" || Sys.file_exists d then ()
  else begin
    mkdir_p (Filename.dirname d);
    try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let create ?(config = Config.default) circuit =
  match Config.validate config with
  | Ok config ->
      Option.iter mkdir_p config.Config.cert_dir;
      { circuit; config }
  | Error msg -> invalid_arg ("Step_engine.Engine.create: " ^ msg)

let circuit t = t.circuit

let config t = t.config

let failed_stub ~method_ ~attempts ~elapsed name failure =
  {
    (timeout_stub ~method_ name) with
    timed_out = false;
    cpu = elapsed;
    attempts;
    failure = Some failure;
  }

let po_failure_of (f : Retry.failure) =
  {
    error = Printexc.to_string f.Retry.exn;
    backtrace = Printexc.raw_backtrace_to_string f.Retry.backtrace;
    attempts = f.Retry.attempts;
    elapsed = f.Retry.elapsed;
    transient = f.Retry.classification = Retry.Transient;
  }

(* Runs [kernel] for output [i] as one job: on a private copy of that
   output's cone alone ({!Circuit.cone}, a one-output circuit whose
   output 0 is output [i]), so solver work pollutes the copy's manager,
   never the session's, and every job — on any domain, in any order —
   sees the same input (that is what makes results independent of
   [jobs]); with the per-PO budget clamped by what is left before
   [deadline]. Past the deadline the job is a timeout stub. *)
let method_job eng ~deadline ~no_aux kernel method_ i =
  let cfg = eng.config in
  let remaining = deadline -. Clock.now () in
  if remaining <= 0.0 then
    (no_aux, timeout_stub ~method_ (Circuit.output_name eng.circuit i), None)
  else
    kernel cfg
      ~budget:(Float.min cfg.Config.per_po_budget remaining)
      (Circuit.cone eng.circuit i) 0 method_

(* A result a degradation rung may stand on: either a partition was
   found or the method reached a real verdict (indecomposable). A
   timeout with nothing in hand is not usable — the ladder moves on. *)
let usable r = r.partition <> None || not r.timed_out

let po_scope i = "po:" ^ string_of_int i

(* The per-job fault domain. Everything one output does — every attempt
   of every ladder rung — runs inside one Fault scope named after the
   output index, so injected-fault ordinals are deterministic at any
   [jobs]. [job method_ i] returns an auxiliary value (the chosen gate
   for the auto path, unit otherwise), the certified row and its
   certificate body (the job has already run the kernel's certify step,
   for the kept gate only under auto); [no_aux] is what a failed output
   reports for the first.

   The flow: the configured method runs under the retry policy
   (transient failures back off and retry, deterministic ones do not);
   if it fails or times out empty-handed, the fallback ladder re-runs
   the output with each cheaper method in turn, and the first usable
   result is kept, marked [degraded] and carrying the primary's failure
   record. A job only yields a [failed] row when the primary raised and
   every rung was exhausted. Once the row is final, its certificate body
   is written to [cert_dir], if set, and dropped: rows keep only the
   checked summary. *)
let supervise_job eng ~no_aux ~job i =
  let cfg = eng.config in
  let name = Circuit.output_name eng.circuit i in
  let scope = po_scope i in
  Fault.with_scope scope @@ fun () ->
  let t0 = Clock.now () in
  let total_attempts = ref 0 in
  let attempt_method ~fallback method_ =
    Retry.run
      ~on_retry:(fun ~attempt:_ _ -> Metrics.inc m_retries)
      cfg.Config.retry ~scope
      (fun ~attempt ->
        incr total_attempts;
        Obs.span
          ~attrs:
            [
              ("po", Json.String name);
              ("method", Json.String (Method.to_string method_));
              ("attempt", Json.Int attempt);
              ("fallback", Json.Bool fallback);
            ]
          "engine.attempt"
        @@ fun () ->
        Fault.hit "pool.dispatch";
        let ((_, r, _) as res) = job method_ i in
        Obs.add_attr "status" (Json.String (po_status r));
        res)
  in
  let primary = attempt_method ~fallback:false cfg.Config.method_ in
  let primary_failure =
    match primary with Error f -> Some (po_failure_of f) | Ok _ -> None
  in
  let restamp (aux, r, body) =
    (aux, { r with attempts = !total_attempts }, body)
  in
  let degraded (aux, r, body) =
    Metrics.inc m_degraded;
    ( aux,
      {
        r with
        degraded = true;
        attempts = !total_attempts;
        failure = primary_failure;
      },
      body )
  in
  let rec try_ladder ~on_exhausted = function
    | [] -> on_exhausted ()
    | m :: rest -> (
        match attempt_method ~fallback:true m with
        | Ok ((_, r, _) as res) when usable r -> degraded res
        | Ok _ | Error _ -> try_ladder ~on_exhausted rest)
  in
  let ladder =
    List.filter (fun m -> m <> cfg.Config.method_) cfg.Config.fallback
  in
  let aux, r, body =
    match primary with
    | Ok ((_, r, _) as res) when usable r || ladder = [] -> restamp res
    | Ok res ->
        (* timed out with nothing: degrade if a rung delivers, else keep
           the honest timeout row *)
        try_ladder ~on_exhausted:(fun () -> restamp res) ladder
    | Error f ->
        try_ladder ladder ~on_exhausted:(fun () ->
            Metrics.inc m_failures;
            ( no_aux,
              failed_stub ~method_:cfg.Config.method_
                ~attempts:!total_attempts
                ~elapsed:(Clock.elapsed_since t0) name (po_failure_of f),
              None ))
  in
  (match (cfg.Config.cert_dir, body) with
  | Some dir, Some cert -> Cert.save (Cert.file ~dir name) cert
  | _ -> ());
  (aux, r)

let run_job eng ~deadline i =
  let kernel cfg ~budget circuit i method_ =
    let _, certify =
      decompose_kernel cfg ~budget ~eager:true circuit i cfg.Config.gate
        method_
    in
    let r, body = certify () in
    ((), r, body)
  in
  snd
    (supervise_job eng ~no_aux:()
       ~job:(method_job eng ~deadline ~no_aux:() kernel)
       i)

let run_auto_job eng ~deadline i =
  supervise_job eng ~no_aux:None
    ~job:(method_job eng ~deadline ~no_aux:None decompose_auto_kernel)
    i

let decompose_po eng i =
  Circuit.check_output_index eng.circuit i;
  run_job eng ~deadline:infinity i

let decompose_po_auto eng i =
  Circuit.check_output_index eng.circuit i;
  run_auto_job eng ~deadline:infinity i

(* Wrap [body] (which fans the per-output jobs over the pool) in the run's
   span. The span wraps the whole run; with [jobs = 1] the jobs
   execute inline in the calling domain, so their "pipeline.po" spans nest
   under the run's root span ("pipeline.run" / "pipeline.auto"). Worker
   domains have their own span stacks, so under [jobs > 1] the per-output
   spans are delivered as roots (still serialized through the sink). *)
let with_run_obs eng span_name body =
  let cfg = eng.config in
  Obs.span
    ~attrs:
      [
        ("circuit", Json.String eng.circuit.Circuit.name);
        ("method", Json.String (Method.to_string cfg.Config.method_));
        ("gate", Json.String (Gate.to_string cfg.Config.gate));
        ("n_outputs", Json.Int (Circuit.n_outputs eng.circuit));
        ("jobs", Json.Int cfg.Config.jobs);
      ]
    span_name body

(* One [job] per output, over the pool, under the total-budget deadline
   counted from [t0]. *)
let map_outputs eng ~t0 job =
  let cfg = eng.config in
  Pool.map_result ~fatal:Retry.fatal ~jobs:cfg.Config.jobs
    (Circuit.n_outputs eng.circuit)
    (job eng ~deadline:(t0 +. cfg.Config.total_budget))
  |> Array.map (function
       | Ok r -> r
       (* supervision converts non-fatal failures into rows; anything
          still escaping is a harness bug and must surface *)
       | Error (e, bt) -> Printexc.raise_with_backtrace e bt)

let run eng =
  let cfg = eng.config in
  with_run_obs eng "pipeline.run" @@ fun () ->
  let t0 = Clock.now () in
  let per_po = map_outputs eng ~t0 run_job in
  let count p = Array.fold_left (fun acc r -> if p r then acc + 1 else acc) 0 per_po in
  let n_decomposed = count (fun r -> r.partition <> None) in
  Obs.add_attr "n_decomposed" (Json.Int n_decomposed);
  Obs.add_attr "n_failed" (Json.Int (count (fun r -> po_status r = "failed")));
  Obs.add_attr "n_degraded" (Json.Int (count (fun r -> r.degraded)));
  {
    circuit_name = eng.circuit.Circuit.name;
    method_used = cfg.Config.method_;
    gate_used = cfg.Config.gate;
    per_po;
    n_decomposed;
    total_cpu = Clock.elapsed_since t0;
    diags =
      (if cfg.Config.check_artifacts then lint_circuit eng.circuit else []);
  }

let run_auto eng =
  with_run_obs eng "pipeline.auto" @@ fun () ->
  let results = map_outputs eng ~t0:(Clock.now ()) run_auto_job in
  let n_decomposed =
    Array.fold_left
      (fun acc (_, r) -> if r.partition <> None then acc + 1 else acc)
      0 results
  in
  Obs.add_attr "n_decomposed" (Json.Int n_decomposed);
  results
