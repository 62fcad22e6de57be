(* Tests for the benchmark itself: the answer oracle against the
   library's exhaustive search, the oracle's rejections, the quality
   arithmetic, and the metric names a run emits. *)

module Aig = Step_aig.Aig
module Circuit = Step_aig.Circuit
module Gate = Step_core.Gate
module Method = Step_core.Method
module Partition = Step_core.Partition
module Problem = Step_core.Problem
module Exhaustive = Step_core.Exhaustive
module Generators = Step_circuits.Generators
module Engine = Step_engine.Engine
module Qdimacs = Step_qbf.Qdimacs
module Json = Step_obs.Json
module Oracle = Step_perf.Oracle
module Run = Step_perf.Run
module W = Step_perf.Workload

(* ---------- oracle vs Exhaustive.best ---------- *)

(* 30 single-output circuits with supports of 2..7: planted cones of
   every gate, and random DAG outputs, which are often indecomposable. *)
let cones =
  let planted =
    List.init 15 (fun i ->
        let gate = List.nth Gate.all (i mod 3) in
        let na = 1 + (i mod 3) and nb = 1 + (i / 3 mod 3) and nc = i / 9 in
        (Generators.planted_cone ~seed:(100 + i) ~na ~nb ~nc gate)
          .Generators.circuit)
  in
  let rec dags seed acc =
    if List.length acc = 15 then List.rev acc
    else
      let c =
        Generators.random_dag ~seed ~n_inputs:(4 + (seed mod 4)) ~n_gates:10
          ~n_outputs:1
      in
      let n = (Circuit.support_sizes c).(0) in
      dags (seed + 1) (if n >= 2 && n <= 7 then c :: acc else acc)
  in
  planted @ dags 1 []

let objectives =
  [
    (Method.Qd, Partition.disjointness_k);
    (Method.Qb, Partition.balancedness_k);
    (Method.Qdb, Partition.combined_k);
  ]

let test_oracle_matches_exhaustive () =
  List.iteri
    (fun i c ->
      let t = Oracle.table c.Circuit.aig (Circuit.output c 0) in
      List.iter
        (fun gate ->
          let mine = Oracle.exhaustive t gate in
          List.iter
            (fun (m, objective) ->
              (* the library search adds scaffolding to the manager it
                 works in, so it gets a private copy *)
              let p = Problem.of_output (Circuit.compact c) 0 in
              let want = Option.map objective (Exhaustive.best ~objective p gate) in
              Alcotest.(check (option int))
                (Printf.sprintf "cone %d %s %s" i (Gate.to_string gate)
                   (Method.to_string m))
                want
                (Option.map (Oracle.target_of_optimum m) mine))
            objectives)
        Gate.all)
    cones

(* ---------- rejections ---------- *)

(* f = (x0 op1 x1) op (x2 op1 x3), decomposable with XA = {0,1},
   XB = {2,3} and no other split of the four inputs into two pairs. *)
let paired gate =
  let m = Aig.create () in
  let x = Array.init 4 (fun _ -> Aig.fresh_input m) in
  let inner, outer =
    match gate with
    | Gate.Or_gate -> (Aig.and_ m, Aig.or_ m)
    | Gate.And_gate -> (Aig.or_ m, Aig.and_ m)
    | Gate.Xor_gate -> (Aig.and_ m, Aig.xor_ m)
  in
  Circuit.make m [ ("f", outer (inner x.(0) x.(1)) (inner x.(2) x.(3))) ]

let is_wrong = function Oracle.Wrong _ -> true | _ -> false

let verdict_name = function
  | Oracle.Exhaustive -> "exhaustive"
  | Oracle.Checked -> "checked"
  | Oracle.Unchecked m -> "unchecked: " ^ m
  | Oracle.Wrong m -> "wrong: " ^ m

let test_oracle_rejects () =
  List.iter
    (fun gate ->
      let c = paired gate in
      let g = Gate.to_string gate in
      let good = Partition.make ~xa:[ 0; 1 ] ~xb:[ 2; 3 ] ~xc:[] in
      let swapped = Partition.make ~xa:[ 0; 2 ] ~xb:[ 1; 3 ] ~xc:[] in
      let short = Partition.make ~xa:[ 0; 1 ] ~xb:[ 2 ] ~xc:[] in
      Alcotest.(check string) (g ^ " valid") "checked"
        (verdict_name (Oracle.valid c 0 gate good));
      Alcotest.(check bool) (g ^ " swapped") true
        (is_wrong (Oracle.valid c 0 gate swapped));
      Alcotest.(check bool) (g ^ " not covering") true
        (is_wrong (Oracle.valid c 0 gate short));
      Alcotest.(check string) (g ^ " optimum") "exhaustive"
        (verdict_name
           (Oracle.check_exact c 0 gate Method.Qd ~partition:(Some good)
              ~proven_optimal:true));
      Alcotest.(check bool) (g ^ " false indecomposable") true
        (is_wrong
           (Oracle.check_exact c 0 gate Method.Qd ~partition:None
              ~proven_optimal:true));
      let worse = Partition.make ~xa:[ 0; 1 ] ~xb:[ 2 ] ~xc:[ 3 ] in
      Alcotest.(check bool) (g ^ " non-optimal claimed optimal") true
        (is_wrong
           (Oracle.check_exact c 0 gate Method.Qd ~partition:(Some worse)
              ~proven_optimal:true)))
    Gate.all

(* Above 16 inputs the oracle extracts fA/fB and proves the miter. *)
let test_oracle_rejects_large () =
  let pl = Generators.planted_cone ~seed:7 ~na:8 ~nb:8 ~nc:2 Gate.Or_gate in
  let c = pl.Generators.circuit and truth = pl.Generators.truth in
  Alcotest.(check string) "planted partition" "checked"
    (verdict_name (Oracle.valid c 0 Gate.Or_gate truth));
  let a = List.hd truth.Partition.xa and b = List.hd truth.Partition.xb in
  let swap l = List.map (fun v -> if v = a then b else if v = b then a else v) l in
  let swapped =
    Partition.make ~xa:(swap truth.Partition.xa) ~xb:(swap truth.Partition.xb)
      ~xc:truth.Partition.xc
  in
  Alcotest.(check bool) "swapped partition" true
    (is_wrong (Oracle.valid c 0 Gate.Or_gate swapped))

let test_oracle_qdimacs () =
  let c = paired Gate.Or_gate in
  Alcotest.(check string) "False on a decomposable f" "exhaustive"
    (verdict_name (Oracle.check_qdimacs c 0 Qdimacs.False));
  Alcotest.(check bool) "True on a decomposable f" true
    (is_wrong (Oracle.check_qdimacs c 0 Qdimacs.True))

(* ---------- quality arithmetic ---------- *)

let row ?partition ?(optimal = true) ?(timed_out = false) n =
  {
    Engine.po_name = "f";
    support_size = n;
    partition;
    proven_optimal = optimal;
    timed_out;
    cache_hit = None;
    cpu = 0.0;
    counters = [];
    diags = [];
    method_used = Method.Qd;
    degraded = false;
    attempts = 1;
    failure = None;
    certificate = None;
  }

let test_quality () =
  let op kind = { W.circuit = 0; po = 0; kind } in
  let p xa xb xc = Some (Partition.make ~xa ~xb ~xc) in
  let dec m = op (W.Decompose (m, Gate.Or_gate)) in
  let po ?partition ?optimal ?timed_out n =
    Run.Po (Some Gate.Or_gate, row ?partition ?optimal ?timed_out n)
  in
  let rows =
    [
      (* |XC| = 1 *)
      (dec Method.Qd, po ?partition:(p [ 0; 1 ] [ 2 ] [ 3 ]) 4, false);
      (* ||XA| - |XB|| = 2, read on the canonical form *)
      (dec Method.Qb, po ?partition:(p [ 3 ] [ 0; 1; 2 ] []) 4, false);
      (* |XC| + |XA| - |XB| = 1 + 1 *)
      (dec Method.Qdb, po ?partition:(p [ 0; 1 ] [ 2 ] [ 3 ]) 4, false);
      (* an MG miss costs the support and is not a failure *)
      (dec Method.Mg, po ~optimal:false 5, false);
      (* a QD timeout costs the support and fails *)
      (dec Method.Qd, po ~optimal:false ~timed_out:true 6, false);
      (* a QD answer without its optimality proof fails *)
      (dec Method.Qd, po ~optimal:false ?partition:(p [ 0 ] [ 1 ] [ 2 ]) 3, false);
      (* auto costs |XC| *)
      ( op W.Auto,
        Run.Po (Some Gate.Xor_gate, row ?partition:(p [ 0 ] [ 1 ] [ 2; 3 ]) 4),
        false );
      (* QDIMACS ops carry no cost; Unknown fails *)
      (op W.Qdimacs, Run.Qbf Qdimacs.Unknown, false);
      (op W.Qdimacs, Run.Qbf Qdimacs.True, false);
      (* a wrong answer counts once, as wrong *)
      (dec Method.Qd, po ~optimal:false ~timed_out:true 2, true);
    ]
  in
  let q = Run.quality rows in
  Alcotest.(check int) "ops" 10 q.Run.ops;
  Alcotest.(check int) "n_decomposed" 5 q.Run.n_decomposed;
  Alcotest.(check int) "n_optimal" 4 q.Run.n_optimal;
  Alcotest.(check int) "total_cost" (1 + 2 + 2 + 5 + 6 + 1 + 2 + 2)
    q.Run.total_cost;
  Alcotest.(check int) "failed" 3 q.Run.n_failed;
  Alcotest.(check int) "wrong" 1 q.Run.n_wrong;
  Alcotest.(check (float 1e-9)) "fail_ratio" 0.4 (Run.fail_ratio q)

(* ---------- metric names ---------- *)

let tiny =
  {
    W.name = "tiny";
    generate =
      (fun ~seed ->
        [|
          (Generators.planted_cone ~seed ~na:2 ~nb:2 ~nc:1 Gate.Or_gate)
            .Generators.circuit;
          Generators.gray_encoder 3;
          Generators.gray_encoder 4;
        |]);
    ops =
      (fun _ ->
        let op circuit po kind = { W.circuit; po; kind } in
        [|
          op 0 0 (W.Decompose (Method.Qd, Gate.Or_gate));
          op 0 0 (W.Decompose (Method.Mg, Gate.Xor_gate));
          op 0 0 (W.Decompose (Method.Ljh, Gate.Or_gate));
          op 0 0 W.Qdimacs;
          op 1 0 W.Auto;
          op 2 0 W.Auto;
        |]);
    cache = true;
    certify = true;
  }

let declared section =
  let j =
    Json.of_string
      (In_channel.with_open_bin "../../../BENCHMARK.json" In_channel.input_all)
  in
  List.map
    (fun m ->
      ( Option.get (Json.to_string_opt (Json.member "name" m)),
        Option.get (Json.to_string_opt (Json.member "unit" m)) ))
    (Json.to_list (Json.member section j))

let emitted ~trace =
  let r = Run.run tiny ~seed:1 ~seconds:0.001 ~trace in
  Alcotest.(check bool) "correct" true r.Run.correct;
  Alcotest.(check int) "failed" 0 r.Run.failed;
  match Json.member "metrics" (Run.to_json ~trace r) with
  | Json.Obj ms ->
      List.map
        (fun (name, m) ->
          (name, Option.get (Json.to_string_opt (Json.member "unit" m))))
        ms
  | _ -> Alcotest.fail "no metrics object"

let pairs = Alcotest.(list (pair string string))

let test_emits_end_to_end () =
  Alcotest.check pairs "end_to_end" (declared "end_to_end") (emitted ~trace:false)

let test_emits_per_layer () =
  Alcotest.check pairs "per_layer" (declared "per_layer") (emitted ~trace:true)

let () =
  Alcotest.run "step_perf"
    [
      ( "oracle",
        [
          Alcotest.test_case "agrees with Exhaustive.best" `Quick
            test_oracle_matches_exhaustive;
          Alcotest.test_case "rejects corrupted partitions" `Quick
            test_oracle_rejects;
          Alcotest.test_case "rejects above 16 inputs" `Quick
            test_oracle_rejects_large;
          Alcotest.test_case "checks QDIMACS verdicts" `Quick test_oracle_qdimacs;
        ] );
      ("quality", [ Alcotest.test_case "cost and failures" `Quick test_quality ]);
      ( "metrics",
        [
          Alcotest.test_case "end-to-end names" `Quick test_emits_end_to_end;
          Alcotest.test_case "per-layer names" `Quick test_emits_per_layer;
        ] );
    ]
