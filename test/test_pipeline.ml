(* Tests for whole-circuit Engine sessions, automatic gate selection and
   the Report module — the integration layer. *)

module Aig = Step_aig.Aig
module Circuit = Step_aig.Circuit
module Gate = Step_core.Gate
module Partition = Step_core.Partition
module Problem = Step_core.Problem
module Engine = Step_engine.Engine
module Method = Step_core.Method
module Config = Step_engine.Config
module Report = Step_engine.Report
module Check = Step_core.Check
module Suite = Step_circuits.Suite
module Generators = Step_circuits.Generators

(* a small circuit with known decomposability profile *)
let toy_circuit () =
  let m = Aig.create () in
  let xs = Array.init 6 (fun _ -> Aig.fresh_input m) in
  let or_dec = Aig.or_ m (Aig.and_ m xs.(0) xs.(1)) (Aig.and_ m xs.(2) xs.(3)) in
  let and_dec =
    Aig.and_ m (Aig.or_ m xs.(0) xs.(1)) (Aig.or_ m xs.(4) xs.(5))
  in
  let xor_dec = Aig.xor_ m (Aig.and_ m xs.(0) xs.(1)) (Aig.xor_ m xs.(2) xs.(3)) in
  let parity = Aig.xor_list m (Array.to_list xs) in
  Circuit.make ~name:"toy" m
    [ ("ord", or_dec); ("andd", and_dec); ("xord", xor_dec); ("par", parity) ]

let methods =
  [ Method.Ljh; Method.Mg; Method.Qd; Method.Qb; Method.Qdb ]

let session ?(config = Config.default) c gate m =
  Engine.create
    ~config:(config |> Config.with_gate gate |> Config.with_method m)
    c

let run ?config c gate m = Engine.run (session ?config c gate m)

let test_run_counts () =
  let c = toy_circuit () in
  List.iter
    (fun m ->
      let r = run c Gate.Or_gate m in
      Alcotest.(check int)
        (Method.to_string m ^ " total POs")
        4
        (Array.length r.Engine.per_po);
      Alcotest.(check bool)
        (Method.to_string m ^ " #Dec sane")
        true
        (r.Engine.n_decomposed >= 1 && r.Engine.n_decomposed <= 4))
    methods

let test_all_partitions_valid () =
  let c = toy_circuit () in
  List.iter
    (fun gate ->
      List.iter
        (fun m ->
          let r = run c gate m in
          Array.iter
            (fun (po : Engine.po_result) ->
              match po.Engine.partition with
              | None -> ()
              | Some part ->
                  let p =
                    Problem.of_edge c.Circuit.aig
                      (Circuit.find_output c po.Engine.po_name)
                  in
                  Alcotest.(check bool)
                    (Printf.sprintf "%s/%s/%s nontrivial"
                       (Gate.to_string gate) (Method.to_string m)
                       po.Engine.po_name)
                    false (Partition.is_trivial part);
                  Alcotest.(check bool)
                    (Printf.sprintf "%s/%s/%s valid" (Gate.to_string gate)
                       (Method.to_string m) po.Engine.po_name)
                    true
                    (Check.decomposable p gate part))
            r.Engine.per_po)
        methods)
    Gate.all

let test_qbf_not_worse_than_mg () =
  let c = Suite.by_name "mm9b" in
  let mg = run c Gate.Or_gate Method.Mg in
  let qd = run c Gate.Or_gate Method.Qd in
  Array.iteri
    (fun i (mg_po : Engine.po_result) ->
      let qd_po = qd.Engine.per_po.(i) in
      match (mg_po.Engine.partition, qd_po.Engine.partition) with
      | Some mp, Some qp ->
          Alcotest.(check bool) "disjointness no worse" true
            (Partition.disjointness qp <= Partition.disjointness mp +. 1e-9)
      | None, Some _ | None, None -> ()
      | Some _, None -> Alcotest.fail "QD lost a decomposition MG found")
    mg.Engine.per_po

let test_auto_gate () =
  let c = toy_circuit () in
  (* parity must come out as XOR; the OR-planted output as OR *)
  let eng = session c Gate.Or_gate Method.Qd in
  let g_par, r_par = Engine.decompose_po_auto eng 3 in
  Alcotest.(check bool) "parity decomposed" true (r_par.Engine.partition <> None);
  (match g_par with
  | Some Gate.Xor_gate -> ()
  | Some g -> Alcotest.fail ("parity chose " ^ Gate.to_string g)
  | None -> Alcotest.fail "parity not decomposed");
  let g_or, r_or = Engine.decompose_po_auto eng 0 in
  Alcotest.(check bool) "or-cone decomposed" true (r_or.Engine.partition <> None);
  match g_or with
  | Some _ -> ()
  | None -> Alcotest.fail "or cone not decomposed"

let test_report_aggregate () =
  let c = toy_circuit () in
  let r = run c Gate.Or_gate Method.Qd in
  let a = Report.aggregate_of r in
  Alcotest.(check int) "outputs" 4 a.Report.n_outputs;
  Alcotest.(check int) "decomposed" r.Engine.n_decomposed a.Report.n_decomposed;
  Alcotest.(check bool) "mean eD defined" true
    (not (Float.is_nan a.Report.mean_disjointness))

let test_report_csv_shape () =
  let c = toy_circuit () in
  let r = run c Gate.Or_gate Method.Mg in
  let csv = Report.to_csv r in
  let lines =
    String.split_on_char '\n' csv |> List.filter (fun l -> l <> "")
  in
  Alcotest.(check int) "header + 4 rows" 5 (List.length lines);
  List.iter
    (fun line ->
      Alcotest.(check int)
        ("16 fields: " ^ line)
        16
        (List.length (String.split_on_char ',' line)))
    lines

let test_report_markdown_and_text () =
  let c = toy_circuit () in
  let r = run c Gate.Or_gate Method.Qb in
  let md = Report.to_markdown r in
  Alcotest.(check bool) "has table header" true
    (String.length md > 0
    && String.sub md 0 3 = "###");
  let text = Report.to_text r in
  Alcotest.(check bool) "mentions summary" true
    (String.length text > 0)

let test_compare_table () =
  let c = toy_circuit () in
  let baseline = run c Gate.Or_gate Method.Ljh in
  let challenger = run c Gate.Or_gate Method.Qd in
  let t =
    Report.compare_table ~baseline ~challenger
      ~metric:Partition.disjointness
  in
  Alcotest.(check bool) "renders" true (String.length t > 0)

let test_total_budget_timeout () =
  let c = Suite.by_name "C7552" in
  let r = run ~config:(Config.with_total_budget 0.0 Config.default)
      c Gate.Or_gate Method.Qd in
  (* everything after the first PO must be reported as timed out *)
  let timed_out =
    Array.fold_left
      (fun acc po -> if po.Engine.timed_out then acc + 1 else acc)
      0 r.Engine.per_po
  in
  Alcotest.(check bool) "timeouts reported" true
    (timed_out >= Array.length r.Engine.per_po - 1)

let () =
  Alcotest.run "step_pipeline"
    [
      ( "pipeline",
        [
          Alcotest.test_case "run counts" `Quick test_run_counts;
          Alcotest.test_case "all partitions valid" `Slow
            test_all_partitions_valid;
          Alcotest.test_case "qbf never worse than mg" `Quick
            test_qbf_not_worse_than_mg;
          Alcotest.test_case "auto gate" `Quick test_auto_gate;
          Alcotest.test_case "total budget timeout" `Quick
            test_total_budget_timeout;
        ] );
      ( "report",
        [
          Alcotest.test_case "aggregate" `Quick test_report_aggregate;
          Alcotest.test_case "csv shape" `Quick test_report_csv_shape;
          Alcotest.test_case "markdown/text" `Quick
            test_report_markdown_and_text;
          Alcotest.test_case "compare table" `Quick test_compare_table;
        ] );
    ]
