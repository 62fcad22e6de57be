(* The one flag vocabulary shared by the step subcommands.

   decompose / report / compare / serve all accept the same engine knobs
   (gate, method, budgets, jobs, cache, faults, supervision, certify,
   telemetry); defining each exactly once here keeps their names,
   defaults and doc strings from drifting between subcommands. *)

module Circuit = Step_aig.Circuit
module Blif = Step_aig.Blif
module Aag = Step_aig.Aag
module Config = Step_engine.Config
module Retry = Step_engine.Retry
module Metrics = Step_obs.Metrics
module Diag = Step_lint.Diag
module Cache = Step_cache.Cache
module Fault = Step_fault.Fault
module Suite = Step_circuits.Suite

open Cmdliner

(* ---------- circuit loading ---------- *)

(* Missing or unreadable inputs are usage errors, not crashes: one line
   on stderr, exit 2, no backtrace. *)
let input_error msg =
  Printf.eprintf "step: %s\n" msg;
  exit 2

let load_circuit path_or_name =
  if Sys.file_exists path_or_name then begin
    match
      if Filename.check_suffix path_or_name ".aag" then
        Aag.parse_file path_or_name
      else if Filename.check_suffix path_or_name ".aig" then
        Step_aig.Aig_bin.parse_file path_or_name
      else Blif.parse_file path_or_name
    with
    | c -> c
    | exception Sys_error msg -> input_error msg
  end
  else
    match Suite.by_name path_or_name with
    | c -> c
    | exception Not_found ->
        input_error
          (Printf.sprintf
             "%s: not a file and not a known benchmark name (try `step suite`)"
             path_or_name)

(* An output index outside the circuit is an input error too. *)
let check_po c i =
  try Circuit.check_output_index c i with Invalid_argument msg -> input_error msg

let circuit_arg =
  let doc =
    "Input circuit: a .blif or .aag file, or a named benchmark from the \
     built-in suite (see $(b,step suite))."
  in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"CIRCUIT" ~doc)

(* ---------- engine knobs ---------- *)

let gate_arg =
  let doc = "Gate type: or, and, xor, or 'auto' to pick per output." in
  Arg.(value & opt string "or" & info [ "gate"; "g" ] ~docv:"GATE" ~doc)

let method_arg =
  let doc = "Partitioning method: ljh, mg, qd, qb, qdb." in
  Arg.(value & opt string "qd" & info [ "method"; "m" ] ~docv:"METHOD" ~doc)

let budget_arg =
  let doc = "Per-output time budget in seconds." in
  Arg.(value & opt float 10.0 & info [ "budget"; "b" ] ~docv:"SECONDS" ~doc)

let jobs_arg =
  let doc =
    "Decompose primary outputs on $(docv) worker domains in parallel. \
     Results are identical to a sequential run, in the same order."
  in
  Arg.(value & opt int 1 & info [ "jobs"; "j" ] ~docv:"N" ~doc)

let po_arg =
  let doc = "Decompose only the output with this index." in
  Arg.(value & opt (some int) None & info [ "po" ] ~docv:"INDEX" ~doc)

let check_artifacts_flag =
  let doc =
    "Lint the intermediate artifacts (input AIG, produced partitions) and \
     print any findings; exits non-zero on lint errors."
  in
  Arg.(value & flag & info [ "check-artifacts" ] ~doc)

(* ---------- telemetry ---------- *)

let trace_arg =
  let doc =
    "Write a JSONL span trace of the run to $(docv) (inspect with $(b,step \
     trace))."
  in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

let stats_flag =
  let doc =
    "After the run, print the process-wide telemetry: SAT \
     conflicts/decisions/propagations, CEGAR refinements, QBF queries, and \
     latency histograms."
  in
  Arg.(value & flag & info [ "stats" ] ~doc)

let profile_flag =
  let doc =
    "After the run, print a hierarchical hotpath profile aggregated live \
     from the span stream (works with or without $(b,--trace))."
  in
  Arg.(value & flag & info [ "profile" ] ~doc)

let deep_stats_flag =
  let doc =
    "Enable deep telemetry (equivalent to STEP_DEEP_TELEMETRY=1): \
     learned-clause LBD/length distributions, restart episode and \
     clause-DB-reduction timings, per-call solver phase counts, CEGAR \
     per-iteration series, and per-cone cache attribution."
  in
  Arg.(value & flag & info [ "deep-stats" ] ~doc)

let metrics_out_arg =
  let doc =
    "Write the full metrics registry to $(docv) when the run finishes — \
     Prometheus text format, or JSON if $(docv) ends in .json. With \
     $(b,--metrics-interval) the file is republished periodically \
     (atomically) during the run."
  in
  Arg.(value & opt (some string) None & info [ "metrics-out" ] ~docv:"FILE" ~doc)

let metrics_interval_arg =
  let doc =
    "Republish $(b,--metrics-out) every $(docv) seconds during the run \
     (0 = only at the end)."
  in
  Arg.(value & opt float 0.0 & info [ "metrics-interval" ] ~docv:"SECONDS" ~doc)

let metrics_format path =
  if Filename.check_suffix path ".json" then `Json else `Prometheus

(* ---------- robustness ---------- *)

let sanitize_flag =
  let doc =
    "Enable the solver's runtime invariant sanitizer (equivalent to \
     STEP_SANITIZE=1): audits watch lists, trail/assignment consistency \
     and clause references at decision boundaries."
  in
  Arg.(value & flag & info [ "sanitize" ] ~doc)

(* Solvers read STEP_SANITIZE at creation, so setting it here covers every
   solver the run creates, however deep in the stack. *)
let apply_sanitize flag = if flag then Unix.putenv "STEP_SANITIZE" "1"

let faults_arg =
  let doc =
    "Arm the deterministic fault-injection harness with $(docv) — same \
     grammar as $(b,STEP_FAULTS) (see docs/ROBUSTNESS.md), e.g. \
     'seed=7;solver.solve@po:0#1'."
  in
  Arg.(value & opt (some string) None & info [ "faults" ] ~docv:"SPEC" ~doc)

(* The library arms itself from STEP_FAULTS at startup; the flag goes
   through [configure] directly so it also works after that point. *)
let apply_faults = function
  | None -> Ok ()
  | Some text -> (
      match Fault.parse text with
      | Ok spec ->
          Fault.configure spec;
          Ok ()
      | Error msg -> Error msg)

let fallback_arg =
  let doc =
    "Degradation ladder: when an output's job fails (or times out with \
     nothing to show), retry it with these methods in order, e.g. \
     'qdb>qb>mg'. Recovered outputs are reported as degraded."
  in
  Arg.(
    value & opt (some string) None & info [ "fallback" ] ~docv:"LADDER" ~doc)

let retries_arg =
  let doc =
    "Retry transiently-failing per-output jobs up to $(docv) times with \
     seeded exponential backoff (deterministic failures are never \
     retried)."
  in
  Arg.(
    value
    & opt int (Retry.default.Retry.max_attempts - 1)
    & info [ "retries" ] ~docv:"N" ~doc)

let supervision_config ~fallback ~retries config =
  let config =
    {
      config with
      Config.retry = { Retry.default with Retry.max_attempts = retries + 1 };
    }
  in
  match fallback with
  | None -> config
  | Some text -> (
      match Config.fallback_of_string text with
      | Ok ladder -> { config with Config.fallback = ladder }
      | Error msg -> failwith msg)

(* ---------- cache ---------- *)

let cache_flag =
  let doc =
    "Memoize per-output decompositions by canonical cone structure. \
     Outputs whose cones are structurally identical up to input renaming \
     are solved once and replayed."
  in
  Arg.(value & flag & info [ "cache" ] ~doc)

let no_cache_flag =
  let doc =
    "Disable the decomposition cache (overrides $(b,--cache) and \
     $(b,--cache-dir))."
  in
  Arg.(value & flag & info [ "no-cache" ] ~doc)

let cache_dir_arg =
  let doc =
    "Persist cache entries as versioned JSON files under $(docv), shared \
     across runs (implies $(b,--cache)). Corrupt or stale entries are \
     skipped with a diagnostic, never fatal."
  in
  Arg.(value & opt (some string) None & info [ "cache-dir" ] ~docv:"DIR" ~doc)

let make_cache ~cache ~no_cache ~cache_dir =
  if no_cache then None
  else if cache || cache_dir <> None then Some (Cache.create ?dir:cache_dir ())
  else None

(* Summary goes to stdout (it is part of the run's result); disk-layer
   diagnostics go to stderr so machine-readable formats stay parseable. *)
let print_cache_diags c =
  List.iter (fun d -> prerr_endline (Diag.to_text d)) (Cache.diags c)

let print_cache_summary c =
  print_cache_diags c;
  let s = Cache.stats c in
  Printf.printf "cache: hits=%d misses=%d entries=%d\n" s.Cache.hits
    s.Cache.misses s.Cache.entries;
  if Metrics.deep () then
    List.iter
      (fun a ->
        Printf.printf "cache: cone %s hits=%d misses=%d\n"
          (String.sub (Digest.to_hex (Digest.string a.Cache.cone_key)) 0 12)
          a.Cache.cone_hits a.Cache.cone_misses)
      (Cache.attribution ~top:5 c)

(* ---------- certification ---------- *)

let certify_flag =
  let doc =
    "Produce a proof-carrying certificate for every solved output (LRAT \
     refutations, SAT witnesses) and re-validate each with the independent \
     checker; exits non-zero if any certificate fails. Roughly doubles solve \
     cost. See docs/CERTIFICATION.md."
  in
  Arg.(value & flag & info [ "certify" ] ~doc)

let cert_dir_arg =
  let doc =
    "Write each output's certificate to $(docv)/<po>.cert.json (implies \
     $(b,--certify)); re-check them later with $(b,step certify)."
  in
  Arg.(value & opt (some string) None & info [ "cert-dir" ] ~docv:"DIR" ~doc)

(* ---------- diagnostics ---------- *)

let print_diags diags =
  List.iter (fun d -> print_endline (Diag.to_text d)) diags
