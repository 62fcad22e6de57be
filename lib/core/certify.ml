(* Building proof-carrying certificates for decomposition answers.

   A partition is normally checked under selector *assumptions* (OR/AND)
   or on a miter solved once and dropped (XOR); neither leaves an
   exportable refutation. [Copies.certificate] builds the same check as
   an assumption-free CNF on a fresh proof-logging solver, so its Unsat
   answer carries a complete, unconditional refutation of "this
   partition fails to decompose f", and its Sat model is a checkable
   counterexample.

   Certificates produced here are checked (by default) with the
   independent checker in Step_cert before being attached to results, so
   a certificate the pipeline hands out has already survived an audit
   that shares no code with the CDCL engine. *)

module Aig = Step_aig.Aig
module Solver = Step_sat.Solver
module Lrat = Step_sat.Lrat
module Tseitin = Step_cnf.Tseitin
module Cert = Step_cert.Cert
module Diag = Step_lint.Diag
module Clock = Step_obs.Clock
module Metrics = Step_obs.Metrics

let h_gen = Metrics.histogram "cert.gen_s"

type t = {
  ok : bool;
  diags : Diag.t list;
  gen_s : float;
  check_s : float;
  proof_bytes : int;
}

exception Refuted of string
(** The solver answer contradicts the claim being certified — a genuine
    soundness alarm, not a certificate-format problem. *)

let prop1_obligation p gate part =
  let solver = Copies.certificate p gate part in
  if Solver.solve solver = Solver.Sat then
    raise
      (Refuted
         "claimed decomposition is satisfiable at the prop-1 check \
          (partition does not decompose f)")
  else begin
    let e = Lrat.export solver in
    {
      Cert.label = "prop1";
      n_vars = e.Lrat.n_vars;
      cnf = Cert.pack_cnf e.Lrat.cnf;
      answer = Cert.Unsat { format = Cert.Lrat; proof = e.Lrat.proof };
    }
  end

let dimacs_model solver =
  List.init (Solver.n_vars solver) (fun v ->
      if Solver.var_value solver v then v + 1 else -(v + 1))

(* Spot witness for an "indecomposable" answer: one concrete non-trivial
   partition (the balanced split of the support) shown satisfiable at the
   prop-1 check, i.e. refuted as a decomposition. This samples the
   claim rather than proving it for every partition — honest scope, see
   docs/CERTIFICATION.md. *)
let witness_obligation p gate =
  let support = p.Problem.support in
  let n = List.length support in
  if n < 2 then None
  else begin
    let k = (n + 1) / 2 in
    let xa = List.filteri (fun i _ -> i < k) support in
    let xb = List.filteri (fun i _ -> i >= k) support in
    let part = Partition.make ~xa ~xb ~xc:[] in
    let solver = Copies.certificate p gate part in
    if Solver.solve solver = Solver.Unsat then
      raise
        (Refuted
           "claimed indecomposable, but the balanced sample partition \
            decomposes f")
    else
      Some
        {
          Cert.label = "witness";
          n_vars = Solver.n_vars solver;
          cnf = Cert.pack_cnf (Lrat.input_cnf solver);
          answer = Cert.Sat (dimacs_model solver);
        }
  end

(* Equivalence of f with fA <gate> fB, as a proof-carrying miter
   refutation. [None] when the miter folds to constant false (nothing to
   prove: the equivalence is structural). *)
let equivalence_obligation (p : Problem.t) g ~fa ~fb =
  let aig = p.Problem.aig in
  let miter = Aig.xor_ aig p.Problem.f (Gate.edge aig g fa fb) in
  if miter = Aig.f then None
  else begin
    let solver = Solver.create ~proof:true () in
    let enc = Tseitin.create ~solver aig in
    Tseitin.add_clause enc [ Tseitin.lit_of enc miter ];
    if Solver.solve solver = Solver.Sat then
      raise (Refuted "extracted fA/fB are not equivalent to f (miter is SAT)")
    else begin
      let e = Lrat.export solver in
      Some
        {
          Cert.label = "equivalence";
          n_vars = e.Lrat.n_vars;
          cnf = Cert.pack_cnf e.Lrat.cnf;
          answer = Cert.Unsat { format = Cert.Lrat; proof = e.Lrat.proof };
        }
    end
  end

let partition_triple (pt : Partition.t) =
  (pt.Partition.xa, pt.Partition.xb, pt.Partition.xc)

let summary ?file ~check ~gen_s cert =
  let t1 = Clock.now () in
  let diags = if check then Cert.check ?file cert else [] in
  let check_s = if check then Clock.elapsed_since t1 else 0.0 in
  {
    ok = not (Diag.has_errors diags);
    diags;
    gen_s;
    check_s;
    proof_bytes = Cert.proof_bytes cert;
  }

let for_po ?(check = true) ~po ~method_name (p : Problem.t) gate partition =
  let t0 = Clock.now () in
  let obligations =
    match partition with
    | Some part -> [ prop1_obligation p gate part ]
    | None -> (
        match witness_obligation p gate with Some ob -> [ ob ] | None -> [])
  in
  if obligations = [] then None
  else
    let cert =
      {
        Cert.po;
        gate = Gate.to_string gate;
        method_ = method_name;
        partition = Option.map partition_triple partition;
        obligations;
      }
    in
    let gen_s = Clock.elapsed_since t0 in
    Metrics.observe h_gen gen_s;
    Some (cert, summary ~check ~gen_s cert)

(* Check a bare certificate (e.g. one rehydrated from a cache entry). *)
let of_cert ?file cert = summary ?file ~check:true ~gen_s:0.0 cert

(* The obligation is checked on its own; the certificate it extends was
   checked when [t] was made. *)
let add_obligation t ~po ob =
  let t1 = Clock.now () in
  let diags = Cert.check_obligation ~po ob in
  {
    ok = t.ok && not (Diag.has_errors diags);
    diags = t.diags @ diags;
    gen_s = t.gen_s;
    check_s = t.check_s +. Clock.elapsed_since t1;
    proof_bytes = t.proof_bytes + Cert.obligation_proof_bytes ob;
  }
