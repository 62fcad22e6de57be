(* Regeneration of every table and figure of the paper's evaluation
   (Section V), plus the ablations listed in DESIGN.md. Absolute numbers
   differ from the paper's 2011 testbed; the comparisons are the point. *)

module Circuit = Step_aig.Circuit
module Gate = Step_core.Gate
module Partition = Step_core.Partition
module Engine = Step_engine.Engine
module Method = Step_core.Method
module Problem = Step_core.Problem
module Copies = Step_core.Copies
module Mg = Step_core.Mg
module Qbf_model = Step_core.Qbf_model
module Extract = Step_core.Extract
module Verify = Step_core.Verify
module Aig = Step_aig.Aig

let hr = String.make 100 '-'

(* ---------- Table I ---------- *)

let table1 config =
  Printf.printf "%s\nTABLE I: quality of OR bi-decomposition, per circuit\n" hr;
  Printf.printf
    "(%% of POs decomposed by both tools where the QBF model is strictly \
     better / both equal)\n";
  Printf.printf
    "%-10s %4s %4s %4s | %28s | %28s\n" "Circuit" "#In" "#InM" "#Out"
    "vs LJH   QD        QB        QDB" "vs MG    QD        QB        QDB";
  let gate = Gate.Or_gate in
  List.iter
    (fun circuit ->
      let stats = Runs.stats_of circuit.Circuit.name in
      let n_in = stats.Runs.n_in in
      let inm = stats.Runs.inm in
      let n_out = stats.Runs.n_out in
      let ljh = Runs.run config circuit gate Method.Ljh in
      let mg = Runs.run config circuit gate Method.Mg in
      let qd = Runs.run config circuit gate Method.Qd in
      let qb = Runs.run config circuit gate Method.Qb in
      let qdb = Runs.run config circuit gate Method.Qdb in
      let cell metric challenger baseline =
        let b, e, t = Runs.compare_metric metric challenger baseline in
        Printf.sprintf "%5.1f/%5.1f" (Runs.pct b t) (Runs.pct e t)
      in
      Printf.printf "%-10s %4d %4d %4d | %s %s %s | %s %s %s\n"
        circuit.Circuit.name n_in inm n_out
        (cell Runs.metric_disjointness qd ljh)
        (cell Runs.metric_balancedness qb ljh)
        (cell Runs.metric_sum qdb ljh)
        (cell Runs.metric_disjointness qd mg)
        (cell Runs.metric_balancedness qb mg)
        (cell Runs.metric_sum qdb mg))
    (Runs.circuits config)

(* ---------- Table II ---------- *)

let aggregate config gate challenger_m baseline_m metric =
  let better = ref 0 and equal = ref 0 and total = ref 0 in
  List.iter
    (fun circuit ->
      let c = Runs.run config circuit gate challenger_m in
      let b = Runs.run config circuit gate baseline_m in
      let bb, ee, tt = Runs.compare_metric metric c b in
      better := !better + bb;
      equal := !equal + ee;
      total := !total + tt)
    (Runs.circuits config);
  (Runs.pct !better !total, Runs.pct !equal !total)

let table2 config =
  Printf.printf "%s\nTABLE II: aggregate quality comparison, all models\n" hr;
  let row label gate baseline =
    let qd = aggregate config gate Method.Qd baseline Runs.metric_disjointness in
    let qb = aggregate config gate Method.Qb baseline Runs.metric_balancedness in
    let qdb = aggregate config gate Method.Qdb baseline Runs.metric_sum in
    Printf.printf
      "%-16s QD better/equal: %5.1f%%/%5.1f%%   QB: %5.1f%%/%5.1f%%   QDB: \
       %5.1f%%/%5.1f%%\n"
      label (fst qd) (snd qd) (fst qb) (snd qb) (fst qdb) (snd qdb)
  in
  row "OR  vs LJH" Gate.Or_gate Method.Ljh;
  row "OR  vs STEP-MG" Gate.Or_gate Method.Mg;
  row "AND vs STEP-MG" Gate.And_gate Method.Mg;
  row "XOR vs STEP-MG" Gate.Xor_gate Method.Mg

(* ---------- Table III ---------- *)

let table3 config =
  Printf.printf "%s\nTABLE III: performance, OR bi-decomposition\n" hr;
  Printf.printf "%-10s | %-14s | %-14s | %-14s | %-14s | %-14s\n" "Circuit"
    "LJH #Dec/CPU" "MG #Dec/CPU" "QD #Dec/CPU" "QB #Dec/CPU" "QDB #Dec/CPU";
  let gate = Gate.Or_gate in
  List.iter
    (fun circuit ->
      let cell m =
        let r = Runs.run config circuit gate m in
        Printf.sprintf "%4d %8.2fs" r.Engine.n_decomposed
          r.Engine.total_cpu
      in
      Printf.printf "%-10s | %s | %s | %s | %s | %s\n" circuit.Circuit.name
        (cell Method.Ljh) (cell Method.Mg) (cell Method.Qd)
        (cell Method.Qb) (cell Method.Qdb))
    (Runs.circuits config)

(* ---------- Table IV ---------- *)

let table4 config =
  Printf.printf
    "%s\nTABLE IV: %% of POs solved to optimality, OR bi-decomposition\n" hr;
  Printf.printf
    "(swept over per-output budgets; the paper's 4s-per-QBF-call limit on a \
     2011 Xeon\n corresponds to the tighter rows at this workload scale)\n";
  let gate = Gate.Or_gate in
  let budgets =
    if config.Runs.quick then [ 0.01; 0.1 ]
    else [ 0.005; 0.02; 0.1; config.Runs.per_po_budget ]
  in
  let solved_pct budget m =
    let total = ref 0 and solved = ref 0 in
    List.iter
      (fun circuit ->
        (* the configured-budget row reuses the shared cached runs; the
           tighter rows are cheap because every output is capped *)
        let r =
          if budget = config.Runs.per_po_budget then
            Runs.run config circuit gate m
          else Runs.fresh ~per_po_budget:budget circuit gate m
        in
        Array.iter
          (fun po ->
            incr total;
            (* solved = settled within budget: proven-optimal partition or
               definitive non-decomposability *)
            if
              po.Engine.proven_optimal
              || (po.Engine.partition = None && not po.Engine.timed_out)
            then incr solved)
          r.Engine.per_po)
      (Runs.circuits config);
    (!total, Runs.pct !solved !total)
  in
  Printf.printf "%-12s %10s %10s %10s\n" "budget/PO" "STEP-QD" "STEP-QB"
    "STEP-QDB";
  List.iter
    (fun budget ->
      let t, qd = solved_pct budget Method.Qd in
      let _, qb = solved_pct budget Method.Qb in
      let _, qdb = solved_pct budget Method.Qdb in
      Printf.printf "%9.3fs %9.2f%% %9.2f%% %9.2f%%   (#Out=%d)\n" budget qd qb
        qdb t)
    budgets

(* ---------- Figure 1 ---------- *)

let figure1 config =
  Printf.printf
    "%s\nFIGURE 1: CPU time comparison between models (full %d-circuit suite)\n"
    hr
    (List.length (Step_circuits.Suite.full_suite ~scale:config.Runs.scale ()));
  let suite =
    let l = Step_circuits.Suite.full_suite ~scale:config.Runs.scale () in
    if config.Runs.quick then List.filteri (fun i _ -> i mod 10 = 0) l else l
  in
  let gate = Gate.Or_gate in
  (* the scatter compares run times across methods; a tighter per-output
     cap keeps the 145-circuit sweep fast without changing who is faster *)
  let fig_config =
    { config with Runs.per_po_budget = Float.min 0.3 config.Runs.per_po_budget }
  in
  let times m =
    List.map
      (fun c ->
        let r = Runs.run fig_config c gate m in
        (c.Circuit.name, Float.max 1e-4 r.Engine.total_cpu))
      suite
  in
  let ljh = times Method.Ljh in
  let mg = times Method.Mg in
  let qd = times Method.Qd in
  let qb = times Method.Qb in
  let qdb = times Method.Qdb in
  let plot (xl, xs) (yl, ys) =
    let pts = List.map2 (fun (_, x) (_, y) -> (x, y)) xs ys in
    print_string
      (Scatter.render
         ~title:(Printf.sprintf "%s vs %s" xl yl)
         ~xlabel:xl ~ylabel:yl pts);
    let named = List.map2 (fun (n, x) (_, y) -> (n, x, y)) xs ys in
    let dir = "bench_out" in
    if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
    let file = Printf.sprintf "%s/fig1_%s_vs_%s.csv" dir xl yl in
    let oc = open_out file in
    output_string oc (Scatter.csv ~xlabel:xl ~ylabel:yl named);
    close_out oc;
    Printf.printf "  (CSV: %s)\n\n" file
  in
  List.iter
    (fun base ->
      List.iter (fun q -> plot q base) [ ("QD", qd); ("QB", qb); ("QDB", qdb) ])
    [ ("LJH", ljh); ("MG", mg) ]

(* ---------- Ablations ---------- *)

(* problems drawn from the first few suite circuits' decomposable POs *)
let sample_problems config gate limit =
  let rec collect circuits acc n =
    if n >= limit then List.rev acc
    else
      match circuits with
      | [] -> List.rev acc
      | c :: rest ->
          let mg = Runs.run config c gate Method.Mg in
          let found = ref acc and count = ref n in
          Array.iter
            (fun po ->
              if !count < limit && po.Engine.partition <> None then begin
                let p =
                  Problem.of_edge c.Circuit.aig
                    (Circuit.find_output c po.Engine.po_name)
                in
                found := (p, Option.get po.Engine.partition) :: !found;
                incr count
              end)
            mg.Engine.per_po;
          collect rest !found !count
  in
  collect (Runs.circuits config) [] 0

let ablation_symmetry config =
  Printf.printf
    "%s\nABLATION A1: symmetry breaking |XA| >= |XB| in the QBF abstraction\n"
    hr;
  let problems = sample_problems config Gate.Or_gate 40 in
  let measure symmetry_breaking =
    let t0 = Unix.gettimeofday () in
    let refinements = ref 0 and queries = ref 0 in
    List.iter
      (fun (p, bootstrap) ->
        let o =
          Qbf_model.optimize ~symmetry_breaking ~bootstrap ~time_budget:1.0 p
            Gate.Or_gate Qbf_model.Disjointness
        in
        refinements := !refinements + o.Qbf_model.refinements;
        queries := !queries + o.Qbf_model.qbf_queries)
      problems;
    (Unix.gettimeofday () -. t0, !refinements, !queries)
  in
  let t_on, r_on, q_on = measure true in
  let t_off, r_off, q_off = measure false in
  Printf.printf
    "with symmetry breaking:    %.3fs  refinements=%d  queries=%d\n" t_on r_on
    q_on;
  Printf.printf
    "without symmetry breaking: %.3fs  refinements=%d  queries=%d\n" t_off
    r_off q_off;
  Printf.printf "(problems: %d decomposable POs)\n" (List.length problems)

let ablation_strategy config =
  Printf.printf
    "%s\nABLATION A2: optimum-search strategies (MI / MD / Bin / composite)\n"
    hr;
  let problems = sample_problems config Gate.Or_gate 40 in
  List.iter
    (fun (label, strategy, target) ->
      let t0 = Unix.gettimeofday () in
      let queries = ref 0 and refinements = ref 0 and optimal = ref 0 in
      List.iter
        (fun (p, bootstrap) ->
          let o =
            Qbf_model.optimize ~strategy ~bootstrap ~time_budget:1.0 p
              Gate.Or_gate target
          in
          queries := !queries + o.Qbf_model.qbf_queries;
          refinements := !refinements + o.Qbf_model.refinements;
          if o.Qbf_model.optimal then incr optimal)
        problems;
      Printf.printf
        "%-22s %.3fs  queries=%-5d refinements=%-5d optimal=%d/%d\n" label
        (Unix.gettimeofday () -. t0)
        !queries !refinements !optimal (List.length problems))
    [
      ("disjointness/MI", Qbf_model.Mi, Qbf_model.Disjointness);
      ("disjointness/MD", Qbf_model.Md, Qbf_model.Disjointness);
      ("disjointness/Bin", Qbf_model.Bin, Qbf_model.Disjointness);
      ("disjointness/Composite", Qbf_model.Composite, Qbf_model.Disjointness);
      ("balancedness/MI", Qbf_model.Mi, Qbf_model.Balancedness);
      ("balancedness/Composite", Qbf_model.Composite, Qbf_model.Balancedness);
    ]

let ablation_bdd config =
  Printf.printf
    "%s\nABLATION A5: BDD-based vs SAT-based decomposability checks\n" hr;
  Printf.printf
    "(the paper's §III motivation: BDDs are exact but blow up with input \
     count)\n";
  ignore config;
  let time f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  let show = function
    | Some true -> "dec"
    | Some false -> "non"
    | None -> "BLOWUP"
  in
  let measure label p part =
    let sat_r, sat_t =
      time (fun () -> Step_core.Check.decomposable p Gate.Or_gate part)
    in
    let bdd_r, bdd_t =
      time (fun () ->
          Step_bdd.Bidec.decomposable ~max_nodes:500_000 p Gate.Or_gate part)
    in
    Printf.printf "%-12s SAT: %-4s %8.4fs    BDD: %-7s %8.4fs\n" label
      (show (Some sat_r)) sat_t (show bdd_r) bdd_t
  in
  (* the adder MSB under the adder's natural (non-interleaved) input order
     a0..an b0..bn: linear for SAT, exponential for the fixed-order BDD —
     the paper's "sensitive to variable orders" *)
  List.iter
    (fun n ->
      let c = Step_circuits.Generators.ripple_adder n in
      let p =
        Problem.of_edge c.Circuit.aig
          (Circuit.find_output c (Printf.sprintf "s%d" (n - 1)))
      in
      let half = List.filteri (fun i _ -> i < n) p.Problem.support in
      let rest =
        List.filter (fun v -> not (List.mem v half)) p.Problem.support
      in
      let part =
        Partition.make ~xa:half
          ~xb:(List.filteri (fun i _ -> i < 1) rest)
          ~xc:(List.filteri (fun i _ -> i >= 1) rest)
      in
      measure (Printf.sprintf "adder s%d" (n - 1)) p part)
    [ 8; 12; 16; 20; 24 ];
  (* the multiplier middle bit: exponential BDDs under every order *)
  List.iter
    (fun n ->
      let c = Step_circuits.Generators.multiplier n in
      let p =
        Problem.of_edge c.Circuit.aig
          (Circuit.find_output c (Printf.sprintf "p%d" (n - 1)))
      in
      let half = List.filteri (fun i _ -> i < n) p.Problem.support in
      let rest =
        List.filter (fun v -> not (List.mem v half)) p.Problem.support
      in
      let part =
        Partition.make ~xa:half
          ~xb:(List.filteri (fun i _ -> i < 1) rest)
          ~xc:(List.filteri (fun i _ -> i >= 1) rest)
      in
      measure (Printf.sprintf "mult p%d" (n - 1)) p part)
    [ 6; 8; 10; 12 ]

let ablation_depth config =
  Printf.printf
    "%s\nABLATION A6: balancedness vs network depth (the paper's delay claim)\n"
    hr;
  let problems = sample_problems config Gate.Or_gate 30 in
  let measure target =
    let depth_sum = ref 0 and bal_sum = ref 0 and found = ref 0 in
    List.iter
      (fun ((p : Problem.t), bootstrap) ->
        let o =
          Qbf_model.optimize ~bootstrap ~time_budget:1.0 p Gate.Or_gate target
        in
        match o.Qbf_model.partition with
        | None -> ()
        | Some part -> begin
            match Extract.run p Gate.Or_gate part with
            | e ->
                incr found;
                let aig = p.Problem.aig in
                let rebuilt = Aig.or_ aig e.Extract.fa e.Extract.fb in
                depth_sum := !depth_sum + Aig.depth aig rebuilt;
                bal_sum :=
                  !bal_sum + Partition.balancedness_k (Partition.canonical part)
            | exception Aig.Blowup -> ()
          end)
      problems;
    (!found, !depth_sum, !bal_sum)
  in
  let report label (found, depth_sum, bal_sum) =
    Printf.printf
      "%-10s mean rebuilt depth = %.2f   mean ||XA|-|XB|| = %.2f   (%d POs)\n"
      label
      (float_of_int depth_sum /. float_of_int (max 1 found))
      (float_of_int bal_sum /. float_of_int (max 1 found))
      found
  in
  report "STEP-QD" (measure Qbf_model.Disjointness);
  report "STEP-QB" (measure Qbf_model.Balancedness);
  Printf.printf
    "(lower balancedness should track lower depth of the decomposed network)\n"

let ablation_extract config =
  Printf.printf
    "%s\nABLATION A3: extraction engines (quantification vs interpolation)\n" hr;
  let problems = sample_problems config Gate.Or_gate 25 in
  List.iter
    (fun (label, engine) ->
      let t0 = Unix.gettimeofday () in
      let nodes = ref 0 and verified = ref 0 in
      List.iter
        (fun ((p : Problem.t), part) ->
          match Extract.run ~engine p Gate.Or_gate part with
          | { Extract.fa; fb } ->
              let aig = p.Problem.aig in
              nodes := !nodes + Aig.cone_size aig fa + Aig.cone_size aig fb;
              if Verify.decomposition p Gate.Or_gate part ~fa ~fb then
                incr verified
          | exception Aig.Blowup -> ())
        problems;
      Printf.printf "%-22s %.3fs  total fA/fB AND-nodes=%-6d verified=%d/%d\n"
        label
        (Unix.gettimeofday () -. t0)
        !nodes !verified (List.length problems))
    [ ("quantify", Extract.Quantify); ("interpolate", Extract.Interpolate) ]
