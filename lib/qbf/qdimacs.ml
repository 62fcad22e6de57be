module Aig = Step_aig.Aig
module Solver = Step_sat.Solver
module SLit = Step_sat.Lit

type quantifier = Step_sat.Dimacs.quantifier = Exists | Forall

type t = {
  num_vars : int;
  prefix : (quantifier * int list) list;
  clauses : int list list;
}

let parse_string_diags ?file text =
  let s = Step_sat.Dimacs.scan ?file ~qdimacs:true text in
  match s.fatal with
  | Some msg -> failwith ("Qdimacs: " ^ msg)
  | None ->
      ( {
          num_vars = s.n_vars;
          prefix = List.map (fun (q, vars) -> (q, List.map pred vars)) s.prefix;
          clauses = s.matrix;
        },
        s.diags )

let parse_string text = fst (parse_string_diags text)

let parse_file_diags path =
  In_channel.with_open_bin path In_channel.input_all
  |> parse_string_diags ~file:path

let parse_file path = fst (parse_file_diags path)

let to_string q =
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (Printf.sprintf "p cnf %d %d\n" q.num_vars (List.length q.clauses));
  List.iter
    (fun (quant, vars) ->
      Buffer.add_string buf (match quant with Exists -> "e" | Forall -> "a");
      List.iter (fun v -> Buffer.add_string buf (Printf.sprintf " %d" (v + 1))) vars;
      Buffer.add_string buf " 0\n")
    q.prefix;
  List.iter
    (fun clause ->
      List.iter (fun l -> Buffer.add_string buf (Printf.sprintf "%d " l)) clause;
      Buffer.add_string buf "0\n")
    q.clauses;
  Buffer.contents buf

type answer = True | False | Unknown

(* merge adjacent blocks of the same quantifier; bind free variables
   existentially at the outermost level *)
let normalized_prefix q =
  let bound = Hashtbl.create 16 in
  List.iter
    (fun (_, vars) -> List.iter (fun v -> Hashtbl.replace bound v ()) vars)
    q.prefix;
  let free =
    List.init q.num_vars Fun.id
    |> List.filter (fun v -> not (Hashtbl.mem bound v))
  in
  let blocks =
    (if free = [] then [] else [ (Exists, free) ]) @ q.prefix
  in
  let rec merge = function
    | (q1, v1) :: (q2, v2) :: rest when q1 = q2 -> merge ((q1, v1 @ v2) :: rest)
    | b :: rest -> b :: merge rest
    | [] -> []
  in
  merge (List.filter (fun (_, vars) -> vars <> []) blocks)

let build_matrix q =
  let aig = Aig.create () in
  let inputs = Array.init (max 1 q.num_vars) (fun _ -> Aig.fresh_input aig) in
  let clause_edge clause =
    Aig.or_list aig
      (List.map
         (fun l ->
           let e = inputs.(abs l - 1) in
           if l > 0 then e else Aig.not_ e)
         clause)
  in
  (aig, Aig.and_list aig (List.map clause_edge q.clauses))

(* A single-level prefix is one SAT call, bounded by the budget. *)
let solve_within time_budget s =
  let deadline =
    match time_budget with
    | Some b -> Step_obs.Clock.now () +. b
    | None -> infinity
  in
  Solver.solve ~deadline s

let solve ?max_iterations ?time_budget q =
  match normalized_prefix q with
  | [] | [ (Exists, _) ] -> (
      let s = Solver.create () in
      Solver.ensure_var s (q.num_vars - 1);
      List.iter
        (fun clause ->
          ignore
            (Solver.add_clause s (List.map (fun l -> SLit.of_dimacs l) clause)))
        q.clauses;
      match solve_within time_budget s with
      | Solver.Sat -> True
      | Solver.Unsat -> False
      | Solver.Unknown -> Unknown)
  | [ (Forall, _) ] -> (
      (* ∀X.φ ⟺ ¬SAT(¬φ); with φ in CNF, check whether some clause can be
         falsified: φ is a tautology iff every assignment satisfies it *)
      let aig, matrix = build_matrix q in
      let enc = Step_cnf.Tseitin.create aig in
      ignore
        (Solver.add_clause (Step_cnf.Tseitin.solver enc)
           [ Step_cnf.Tseitin.lit_of enc (Aig.not_ matrix) ]);
      match solve_within time_budget (Step_cnf.Tseitin.solver enc) with
      | Solver.Sat -> False
      | Solver.Unsat -> True
      | Solver.Unknown -> Unknown)
  | [ (Exists, xs); (Forall, ys) ] -> begin
      let aig, matrix = build_matrix q in
      match
        Cegar.solve ?max_iterations ?time_budget aig ~matrix ~exists_vars:xs
          ~forall_vars:ys
      with
      | Cegar.Valid _, _ -> True
      | Cegar.Invalid, _ -> False
      | Cegar.Unknown, _ -> Unknown
    end
  | [ (Forall, xs); (Exists, ys) ] -> begin
      (* ∀X∃Y.φ ⟺ ¬(∃X∀Y.¬φ) *)
      let aig, matrix = build_matrix q in
      match
        Cegar.solve ?max_iterations ?time_budget aig ~matrix:(Aig.not_ matrix)
          ~exists_vars:xs ~forall_vars:ys
      with
      | Cegar.Valid _, _ -> False
      | Cegar.Invalid, _ -> True
      | Cegar.Unknown, _ -> Unknown
    end
  | _ -> failwith "Qdimacs.solve: more than two quantifier levels"
