(* Benchmark harness entry point.

   Default mode regenerates every table and figure of the paper's
   evaluation (plus the DESIGN.md ablations) and prints them. Timing
   measurements live in bench/perf (sh bench/perf/bench.sh). Ablation
   A4, the weighted-cost sweep, is retired: Definition 4's cost is
   reachable only as STEP-QDB (unit weights), which tables 2-4 run.

   Usage:
     dune exec bench/main.exe                 # all tables + figure + ablations
     dune exec bench/main.exe -- --quick      # reduced circuit set
     dune exec bench/main.exe -- --table 3    # one artifact: 1..4, fig,
                                              # a1..a3, a5, a6
     dune exec bench/main.exe -- --budget 5.0 # per-PO time budget (seconds)
*)

let usage () =
  prerr_endline
    "usage: main.exe [--quick] [--budget SECONDS] [--scale S] [--jobs N] \
     [--cache] [--cache-dir DIR] [--certify] \
     [--table 1|2|3|4|fig|a1|a2|a3|a5|a6]";
  exit 2

type selection =
  | All
  | One of string

let () =
  let config = ref Runs.default_config in
  let selection = ref All in
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
      ("a5", "a5", fun () -> Tables.ablation_bdd config);
      ("a6", "a6", fun () -> Tables.ablation_depth config);
    ]
  in
  (* Each artifact also leaves a machine-readable record of every
     pipeline run it (and its predecessors) performed. *)
  let with_dump (_, artifact, f) () =
    f ();
    Runs.dump_json config ~dir:"bench_out" ~artifact
  in
  match !selection with
  | All -> List.iter (fun a -> with_dump a ()) artifacts
  | One key -> begin
      match List.find_opt (fun (k, _, _) -> k = key) artifacts with
      | Some a -> with_dump a ()
      | None -> usage ()
    end
