(* A mini logic-synthesis flow, the scenario motivating the paper:
   load/generate a multi-output circuit, bi-decompose every output with
   both the heuristic (STEP-MG) and the optimum QBF model (STEP-QD),
   rebuild the network from the extracted fA/fB pairs, and compare shared
   inputs before/after.

   Run with: dune exec examples/synthesis_flow.exe *)

module Aig = Step_aig.Aig
module Circuit = Step_aig.Circuit
module Blif = Step_aig.Blif
module Gate = Step_core.Gate
module Partition = Step_core.Partition
module Problem = Step_core.Problem
module Engine = Step_engine.Engine
module Method = Step_core.Method
module Extract = Step_core.Extract
module Verify = Step_core.Verify

let () =
  (* an ALU-like block from the generator library *)
  let circuit = Step_circuits.Generators.alu 3 in
  Printf.printf "input circuit: %s\n" (Circuit.stats circuit);

  let decompose method_ =
    let config =
      Step_engine.Config.(
        default |> with_gate Gate.Or_gate |> with_method method_
        |> with_per_po_budget 5.0)
    in
    let r = Engine.run (Engine.create ~config circuit) in
    Printf.printf "\n== %s: decomposed %d/%d outputs in %.2fs\n"
      (Method.to_string method_)
      r.Engine.n_decomposed
      (Array.length r.Engine.per_po)
      r.Engine.total_cpu;
    r
  in
  let mg = decompose Method.Mg in
  let qd = decompose Method.Qd in

  (* compare the shared-variable counts (the area/power proxy the paper
     optimizes) on outputs both methods decomposed *)
  Array.iteri
    (fun i mg_po ->
      let qd_po = qd.Engine.per_po.(i) in
      match (mg_po.Engine.partition, qd_po.Engine.partition) with
      | Some mp, Some qp ->
          Printf.printf "%-8s |XC| mg=%d qd=%d%s\n" mg_po.Engine.po_name
            (List.length mp.Partition.xc)
            (List.length qp.Partition.xc)
            (if
               List.length qp.Partition.xc < List.length mp.Partition.xc
             then "  <- improved"
             else "")
      | _, _ -> ())
    mg.Engine.per_po;

  (* rebuild each decomposed output as an OR of its extracted halves and
     emit the result as BLIF *)
  let rebuilt =
    Array.to_list qd.Engine.per_po
    |> List.filter_map (fun (po : Engine.po_result) ->
           match po.Engine.partition with
           | None -> None
           | Some part ->
               let f = Circuit.find_output circuit po.Engine.po_name in
               let p = Problem.of_edge circuit.Circuit.aig f in
               let e = Extract.run p Gate.Or_gate part in
               assert (
                 Verify.decomposition p Gate.Or_gate part ~fa:e.Extract.fa
                   ~fb:e.Extract.fb);
               Some
                 [
                   (po.Engine.po_name ^ "$a", e.Extract.fa);
                   (po.Engine.po_name ^ "$b", e.Extract.fb);
                 ])
    |> List.concat
  in
  let out = Circuit.make ~name:"alu3_decomposed" circuit.Circuit.aig rebuilt in
  let path = Filename.temp_file "step_flow" ".blif" in
  Blif.write_file path out;
  Printf.printf "\nwrote decomposed halves of %d outputs to %s\n"
    (List.length rebuilt / 2) path
