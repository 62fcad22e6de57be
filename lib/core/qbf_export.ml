module Aig = Step_aig.Aig
module Solver = Step_sat.Solver
module Lit = Step_sat.Lit
module Tseitin = Step_cnf.Tseitin
module Cardinality = Step_cnf.Cardinality

(* The export routes every clause through one (never-solved) SAT solver
   acting as variable allocator and clause store, then dumps its problem
   clauses. Definitional clauses (Tseitin gates, totalizer structure, c_i
   definitions) hold unconditionally; the three disjuncts of the negated
   model (9) are guarded by switch literals sM (matrix), sN (¬fN),
   sT (¬fT), with the top-level clause sM ∨ sN ∨ sT. A QBF solver proves
   the formula false exactly when some (α, β) defeats all three switches —
   i.e. is a valid partition meeting the bound. *)

let or_model ?k ?(target = Qbf_model.Disjointness) (p : Problem.t) =
  let support = p.Problem.support in
  let n = List.length support in
  if n < 2 then invalid_arg "Qbf_export.or_model: support too small";
  let k = match k with Some k -> k | None -> n - 2 in
  let solver = Solver.create () in
  let add c = ignore (Solver.add_clause solver c) in
  let fresh () = Lit.pos (Solver.new_var solver) in
  (* control variables *)
  let alpha = Array.init n (fun _ -> fresh ()) in
  let beta = Array.init n (fun _ -> fresh ()) in
  (* function copies *)
  let aig = p.Problem.aig in
  let copy () =
    let tbl = Hashtbl.create 16 in
    List.iter (fun i -> Hashtbl.replace tbl i (Aig.fresh_input aig)) support;
    (tbl, Aig.compose aig (fun i -> Hashtbl.find_opt tbl i) p.Problem.f)
  in
  let c1, f1 = copy () in
  let c2, f2 = copy () in
  let enc = Tseitin.create ~solver aig in
  let lit_f = Tseitin.lit_of enc p.Problem.f in
  let lit_f1 = Tseitin.lit_of enc f1 in
  let lit_f2 = Tseitin.lit_of enc f2 in
  let x i = Tseitin.lit_of_input enc i in
  let x1 i = Tseitin.lit_of enc (Hashtbl.find c1 i) in
  let x2 i = Tseitin.lit_of enc (Hashtbl.find c2 i) in
  (* switches *)
  let s_m = fresh () and s_n = fresh () and s_t = fresh () in
  add [ s_m; s_n; s_t ];
  (* sM -> f(X) ∧ ¬f(X') ∧ ¬f(X'') with relaxed equalities (formula (2)) *)
  add [ Lit.negate s_m; lit_f ];
  add [ Lit.negate s_m; Lit.negate lit_f1 ];
  add [ Lit.negate s_m; Lit.negate lit_f2 ];
  List.iteri
    (fun j i ->
      let a = alpha.(j) and b = beta.(j) in
      add [ Lit.negate s_m; Lit.negate (x i); x1 i; a ];
      add [ Lit.negate s_m; x i; Lit.negate (x1 i); a ];
      add [ Lit.negate s_m; Lit.negate (x i); x2 i; b ];
      add [ Lit.negate s_m; x i; Lit.negate (x2 i); b ])
    support;
  (* sN -> ¬fN: all α false, or all β false *)
  let s_na = fresh () and s_nb = fresh () in
  add [ Lit.negate s_n; s_na; s_nb ];
  Array.iter (fun a -> add [ Lit.negate s_na; Lit.negate a ]) alpha;
  Array.iter (fun b -> add [ Lit.negate s_nb; Lit.negate b ]) beta;
  (* sT -> ¬fT: the target count exceeds k *)
  (match target with
  | Qbf_model.Disjointness ->
      (* c_i ⇔ ¬α ∧ ¬β; ¬fT = (Σ c_i ≥ k+1) *)
      let shared =
        Array.map2
          (fun a b ->
            let c = fresh () in
            add [ c; a; b ];
            add [ Lit.negate c; Lit.negate a ];
            add [ Lit.negate c; Lit.negate b ];
            c)
          alpha beta
      in
      let counter = Cardinality.totalizer solver shared in
      (match Cardinality.at_least counter (min n (k + 1)) with
      | Some o when k + 1 <= n -> add [ Lit.negate s_t; o ]
      | Some _ | None -> add [ Lit.negate s_t ])
  | Qbf_model.Balancedness ->
      (* ¬fT = ∃j: countA ≥ k+j+1 ∧ countB ≤ j *)
      let ca = Cardinality.totalizer solver alpha in
      let cb = Cardinality.totalizer solver beta in
      let picks = ref [] in
      for j = 0 to n - k - 1 do
        match Cardinality.at_least ca (k + j + 1) with
        | Some oa ->
            let t = fresh () in
            add [ Lit.negate t; oa ];
            (match Cardinality.at_least cb (j + 1) with
            | Some ob -> add [ Lit.negate t; Lit.negate ob ]
            | None -> () (* j >= n: countB ≤ j is vacuous *));
            picks := t :: !picks
        | None -> ()
      done;
      if !picks = [] then add [ Lit.negate s_t ]
      else add (Lit.negate s_t :: !picks)
  | Qbf_model.Combined ->
      (* fT ⇔ |XB| ≥ ceil((n-k)/2); ¬fT = |XB| ≤ that-1 *)
      let lb = (n - k + 1) / 2 in
      if lb <= 0 then add [ Lit.negate s_t ]
      else begin
        let cb = Cardinality.totalizer solver beta in
        match Cardinality.at_most cb (lb - 1) with
        | Some no -> add [ Lit.negate s_t; no ]
        | None -> add [ Lit.negate s_t ]
      end);
  (* assemble QDIMACS: the paper's symmetry-breaking optimization is kept
     out of the export so external solvers see the plain model *)
  let universal =
    Array.to_list (Array.map Lit.var (Array.append alpha beta))
    |> List.sort compare
  in
  let is_universal =
    let tbl = Hashtbl.create 64 in
    List.iter (fun v -> Hashtbl.replace tbl v ()) universal;
    fun v -> Hashtbl.mem tbl v
  in
  let max_var = Solver.n_vars solver in
  let existential =
    List.init max_var Fun.id |> List.filter (fun v -> not (is_universal v))
  in
  let n_clauses = Solver.n_clauses solver in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    (Printf.sprintf "c negated model (9), OR bi-decomposition, n=%d k=%d\n" n k);
  Buffer.add_string buf (Printf.sprintf "p cnf %d %d\n" max_var n_clauses);
  let quant_line tag vars =
    Buffer.add_string buf tag;
    List.iter
      (fun v -> Buffer.add_string buf (Printf.sprintf " %d" (v + 1)))
      vars;
    Buffer.add_string buf " 0\n"
  in
  quant_line "a" universal;
  quant_line "e" existential;
  for id = 0 to n_clauses - 1 do
    Array.iter
      (fun l -> Buffer.add_string buf (Lit.to_string l ^ " "))
      (Solver.clause_lits solver id);
    Buffer.add_string buf "0\n"
  done;
  Buffer.contents buf

let parse_answer ~expected_decomposable = function
  | Step_qbf.Qdimacs.False -> Some (expected_decomposable = true)
  | Step_qbf.Qdimacs.True -> Some (expected_decomposable = false)
  | Step_qbf.Qdimacs.Unknown -> None
