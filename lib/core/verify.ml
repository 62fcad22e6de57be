module Aig = Step_aig.Aig
module Solver = Step_sat.Solver
module Tseitin = Step_cnf.Tseitin

let subset l1 l2 =
  let s = Hashtbl.create (2 * List.length l2 + 1) in
  List.iter (fun x -> Hashtbl.replace s x ()) l2;
  List.for_all (fun x -> Hashtbl.mem s x) l1

let supports_ok (p : Problem.t) (part : Partition.t) ~fa ~fb =
  let aig = p.Problem.aig in
  subset (Aig.support aig fa) (part.Partition.xa @ part.Partition.xc)
  && subset (Aig.support aig fb) (part.Partition.xb @ part.Partition.xc)

let equivalent (p : Problem.t) g ~fa ~fb =
  let aig = p.Problem.aig in
  let miter = Aig.xor_ aig p.Problem.f (Gate.edge aig g fa fb) in
  if miter = Aig.f then true
  else begin
    let enc = Tseitin.create aig in
    ignore (Solver.add_clause (Tseitin.solver enc) [ Tseitin.lit_of enc miter ]);
    Solver.solve (Tseitin.solver enc) = Solver.Unsat
  end

let decomposition p g part ~fa ~fb =
  supports_ok p part ~fa ~fb && equivalent p g ~fa ~fb
