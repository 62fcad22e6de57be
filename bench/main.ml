(* Benchmark harness entry point.

   Default mode regenerates every table and figure of the paper's
   evaluation (plus the DESIGN.md ablations) and prints them. The
   [--bechamel] mode additionally runs a Bechamel micro-benchmark suite
   with one Test.make per table, timing the table's underlying workload
   on a reduced configuration (Bechamel needs many iterations, so each
   test wraps a single-circuit slice of the table's computation).

   Usage:
     dune exec bench/main.exe                 # all tables + figure + ablations
     dune exec bench/main.exe -- --quick      # reduced circuit set
     dune exec bench/main.exe -- --table 3    # one artifact (1..4, fig, a1..a7)
     dune exec bench/main.exe -- --budget 5.0 # per-PO time budget (seconds)
     dune exec bench/main.exe -- --bechamel   # Bechamel micro-suite
*)

module Method = Step_core.Method
module Gate = Step_core.Gate

let usage () =
  prerr_endline
    "usage: main.exe [--quick] [--budget SECONDS] [--scale S] [--jobs N] \
     [--cache] [--cache-dir DIR] [--certify] \
     [--table 1|2|3|4|fig|a1|a2|a3|a4|a5|a6|a7] [--bechamel]";
  exit 2

type selection =
  | All
  | One of string

let () =
  let config = ref Runs.default_config in
  let selection = ref All in
  let bechamel = ref false in
  let rec parse = function
    | [] -> ()
    | "--quick" :: rest ->
        config := { !config with Runs.quick = true };
        parse rest
    | "--budget" :: v :: rest ->
        config := { !config with Runs.per_po_budget = float_of_string v };
        parse rest
    | "--scale" :: v :: rest ->
        config := { !config with Runs.scale = float_of_string v };
        parse rest
    | ("--jobs" | "-j") :: v :: rest ->
        config := { !config with Runs.jobs = int_of_string v };
        parse rest
    | "--cache" :: rest ->
        config := { !config with Runs.cache = true };
        parse rest
    | "--cache-dir" :: v :: rest ->
        config := { !config with Runs.cache_dir = Some v };
        parse rest
    | "--certify" :: rest ->
        config := { !config with Runs.certify = true };
        parse rest
    | "--table" :: v :: rest ->
        selection := One (String.lowercase_ascii v);
        parse rest
    | "--bechamel" :: rest ->
        bechamel := true;
        parse rest
    | other :: _ ->
        Printf.eprintf "unknown argument %S\n" other;
        usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let config = !config in
  let artifacts =
    [
      ("1", "table1", fun () -> Tables.table1 config);
      ("2", "table2", fun () -> Tables.table2 config);
      ("3", "table3", fun () -> Tables.table3 config);
      ("4", "table4", fun () -> Tables.table4 config);
      ("fig", "fig", fun () -> Tables.figure1 config);
      ("a1", "a1", fun () -> Tables.ablation_symmetry config);
      ("a2", "a2", fun () -> Tables.ablation_strategy config);
      ("a3", "a3", fun () -> Tables.ablation_extract config);
      ("a4", "a4", fun () -> Tables.ablation_weights config);
      ("a5", "a5", fun () -> Tables.ablation_bdd config);
      ("a6", "a6", fun () -> Tables.ablation_depth config);
      ("a7", "a7", fun () -> Tables.ablation_seed_order config);
    ]
  in
  (* Each artifact also leaves a machine-readable record of every
     pipeline run it (and its predecessors) performed. *)
  let with_dump (_, artifact, f) () =
    f ();
    Runs.dump_json config ~dir:"bench_out" ~artifact
  in
  if !bechamel then begin
    (* One Bechamel test per table: each samples the table's workload on
       the smallest suite circuit so a run is fast enough to repeat. *)
    let open Bechamel in
    let quick = { config with Runs.quick = true; per_po_budget = 0.5 } in
    let circuit () =
      match Runs.circuits quick with c :: _ -> c | [] -> assert false
    in
    let method_run m () =
      (* fresh run (bypasses the cache) to measure actual work *)
      ignore
        (Runs.fresh ~per_po_budget:quick.Runs.per_po_budget (circuit ())
           Gate.Or_gate m)
    in
    let tests =
      [
        Test.make ~name:"table1-quality-runs (QD slice)"
          (Staged.stage (method_run Method.Qd));
        Test.make ~name:"table2-aggregate (QB slice)"
          (Staged.stage (method_run Method.Qb));
        Test.make ~name:"table3-performance (MG slice)"
          (Staged.stage (method_run Method.Mg));
        Test.make ~name:"table4-solved (QDB slice)"
          (Staged.stage (method_run Method.Qdb));
        Test.make ~name:"figure1-scatter (LJH slice)"
          (Staged.stage (method_run Method.Ljh));
      ]
    in
    let instances = Toolkit.Instance.[ monotonic_clock ] in
    let cfg = Benchmark.cfg ~limit:20 ~quota:(Time.second 2.0) () in
    let ols =
      Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| "run" |]
    in
    List.iter
      (fun test ->
        let raw = Benchmark.all cfg instances test in
        let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
        Hashtbl.iter
          (fun label o ->
            let per_run_ns =
              match Analyze.OLS.estimates o with
              | Some (t :: _) -> t
              | Some [] | None -> nan
            in
            Printf.printf "bechamel %-40s %10.3f ms/run\n" label
              (per_run_ns /. 1e6))
          results)
      tests;
    print_endline "bechamel suite done"
  end
  else begin
    match !selection with
    | All -> List.iter (fun a -> with_dump a ()) artifacts
    | One key -> begin
        match
          List.find_opt (fun (k, _, _) -> k = key) artifacts
        with
        | Some a -> with_dump a ()
        | None -> usage ()
      end
  end
