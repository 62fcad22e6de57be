module Aig = Step_aig.Aig
module Solver = Step_sat.Solver
module Lit = Step_sat.Lit
module Tseitin = Step_cnf.Tseitin
module Interpolant = Step_interp.Interpolant

type engine = Quantify | Interpolate

type result = { fa : Aig.lit; fb : Aig.lit }

exception Timeout

let cofactor_all aig vars value e =
  List.fold_left (fun e v -> Aig.cofactor aig v value e) e vars

let quantify_engine ?max_nodes (p : Problem.t) g (part : Partition.t) =
  let aig = p.Problem.aig in
  let f = p.Problem.f in
  match g with
  | Gate.Or_gate ->
      {
        fa = Aig.forall ?max_nodes aig part.Partition.xb f;
        fb = Aig.forall ?max_nodes aig part.Partition.xa f;
      }
  | Gate.And_gate ->
      {
        fa = Aig.exists ?max_nodes aig part.Partition.xb f;
        fb = Aig.exists ?max_nodes aig part.Partition.xa f;
      }
  | Gate.Xor_gate ->
      let f_b0 = cofactor_all aig part.Partition.xb false f in
      let f_a0 = cofactor_all aig part.Partition.xa false f in
      let f_ab0 = cofactor_all aig part.Partition.xb false f_a0 in
      { fa = f_b0; fb = Aig.xor_ aig f_a0 f_ab0 }

(* One interpolation round: the interpolant of
     A = [f_pos ∧ ¬f_pos_primed]   (prime copy on [primed_vars])
     B = [¬f_pos]                  (with [b_copy_vars] freshly copied)
   over the shared inputs (support minus b_copy_vars). *)
let interpolate_once ~deadline aig ~f_a1 ~f_a2_neg ~f_b_neg ~support
    ~b_copy_vars =
  let solver = Solver.create ~proof:true () in
  let enc_a = Tseitin.create ~solver aig in
  let enc_b = Tseitin.create ~solver aig in
  let a_ids = ref [] and b_ids = ref [] in
  Tseitin.set_sink enc_a (Some (fun id -> a_ids := id :: !a_ids));
  Tseitin.set_sink enc_b (Some (fun id -> b_ids := id :: !b_ids));
  (* A part *)
  Tseitin.add_clause enc_a [ Tseitin.lit_of enc_a f_a1 ];
  Tseitin.add_clause enc_a [ Tseitin.lit_of enc_a f_a2_neg ];
  (* B part: share the SAT variables of the non-copied inputs *)
  let shared_vars =
    let copied = Hashtbl.create (2 * List.length b_copy_vars + 1) in
    List.iter (fun i -> Hashtbl.replace copied i ()) b_copy_vars;
    List.filter (fun i -> not (Hashtbl.mem copied i)) support
  in
  List.iter
    (fun i -> Tseitin.bind_input enc_b i (Tseitin.lit_of_input enc_a i))
    shared_vars;
  Tseitin.add_clause enc_b [ Tseitin.lit_of enc_b f_b_neg ];
  (match Solver.solve ~deadline solver with
  | Solver.Sat ->
      failwith "Extract: partition does not decompose the function"
  | Solver.Unknown -> raise Timeout
  | Solver.Unsat -> ());
  let edge_of_var = Hashtbl.create 16 in
  List.iter
    (fun i ->
      Hashtbl.replace edge_of_var
        (Lit.var (Tseitin.lit_of_input enc_a i))
        (Aig.input aig i))
    shared_vars;
  Interpolant.compute solver ~a_clauses:!a_ids ~b_clauses:!b_ids
    ~var_edge:(fun v -> Hashtbl.find_opt edge_of_var v)
    ~aig

let interpolate_or ~deadline (p : Problem.t) (part : Partition.t) =
  let aig = p.Problem.aig in
  let f = p.Problem.f in
  let support = p.Problem.support in
  let copy vars =
    let tbl = Hashtbl.create 16 in
    List.iter (fun i -> Hashtbl.replace tbl i (Aig.fresh_input aig)) vars;
    Aig.compose aig (fun i -> Hashtbl.find_opt tbl i) f
  in
  (* fA over XA ∪ XC: A = f(X) ∧ ¬f(X'|XA), B = ¬f(X''|XB) *)
  let f_primed_a = copy part.Partition.xa in
  let fa =
    interpolate_once ~deadline aig ~f_a1:f ~f_a2_neg:(Aig.not_ f_primed_a)
      ~f_b_neg:(Aig.not_ f) ~support ~b_copy_vars:part.Partition.xb
  in
  (* fB over XB ∪ XC: A = f ∧ ¬fA, B = ¬f(X'''|XA) *)
  let fb =
    interpolate_once ~deadline aig ~f_a1:f ~f_a2_neg:(Aig.not_ fa)
      ~f_b_neg:(Aig.not_ f) ~support ~b_copy_vars:part.Partition.xa
  in
  { fa; fb }

let interpolate_engine ~deadline (p : Problem.t) g part =
  match g with
  | Gate.Or_gate -> interpolate_or ~deadline p part
  | Gate.And_gate ->
      let r = interpolate_or ~deadline (Problem.negate p) part in
      { fa = Aig.not_ r.fa; fb = Aig.not_ r.fb }
  | Gate.Xor_gate -> quantify_engine p g part

let run ?(engine = Quantify) ?max_nodes ?(deadline = infinity) p g part =
  match engine with
  | Quantify -> quantify_engine ?max_nodes p g part
  | Interpolate -> interpolate_engine ~deadline p g part
