(* Tests for the CEGAR 2QBF engine (vs brute force) and MUS extraction. *)

module Aig = Step_aig.Aig
module Solver = Step_sat.Solver
module Lit = Step_sat.Lit
module Cegar = Step_qbf.Cegar
module Naive = Step_qbf.Naive
module Mus = Step_mus.Mus

(* ---------- qbf unit tests ---------- *)

let test_tautology () =
  let m = Aig.create () in
  let y = Aig.fresh_input m in
  let matrix = Aig.or_ m y (Aig.not_ y) in
  match Cegar.solve m ~matrix ~exists_vars:[] ~forall_vars:[ 0 ] with
  | Cegar.Valid _, _ -> ()
  | (Cegar.Invalid | Cegar.Unknown), _ -> Alcotest.fail "tautology is valid"

let test_exists_pick () =
  (* ∃x ∀y . x ∨ y is invalid... x∨y with x=1 is a tautology: valid *)
  let m = Aig.create () in
  let x = Aig.fresh_input m and y = Aig.fresh_input m in
  let matrix = Aig.or_ m x y in
  match Cegar.solve m ~matrix ~exists_vars:[ 0 ] ~forall_vars:[ 1 ] with
  | Cegar.Valid w, _ -> Alcotest.(check bool) "x must be 1" true (w 0)
  | (Cegar.Invalid | Cegar.Unknown), _ -> Alcotest.fail "expected Valid"

let test_invalid () =
  (* ∃x ∀y . x ⊕ y is invalid *)
  let m = Aig.create () in
  let x = Aig.fresh_input m and y = Aig.fresh_input m in
  let matrix = Aig.xor_ m x y in
  match Cegar.solve m ~matrix ~exists_vars:[ 0 ] ~forall_vars:[ 1 ] with
  | Cegar.Invalid, _ -> ()
  | (Cegar.Valid _ | Cegar.Unknown), _ -> Alcotest.fail "expected Invalid"

let test_equality_witness () =
  (* ∃x1 x2 ∀y1 y2 . (x1 ≡ y1∨¬y1) ∧ (x2 ≡ y2∧¬y2): forces x1=1, x2=0 *)
  let m = Aig.create () in
  let x1 = Aig.fresh_input m and x2 = Aig.fresh_input m in
  let y1 = Aig.fresh_input m and y2 = Aig.fresh_input m in
  let c1 = Aig.iff_ m x1 (Aig.or_ m y1 (Aig.not_ y1)) in
  let c2 = Aig.iff_ m x2 (Aig.and_ m y2 (Aig.not_ y2)) in
  let matrix = Aig.and_ m c1 c2 in
  match Cegar.solve m ~matrix ~exists_vars:[ 0; 1 ] ~forall_vars:[ 2; 3 ] with
  | Cegar.Valid w, _ ->
      Alcotest.(check bool) "x1" true (w 0);
      Alcotest.(check bool) "x2" false (w 1)
  | (Cegar.Invalid | Cegar.Unknown), _ -> Alcotest.fail "expected Valid"

let test_budget () =
  let m = Aig.create () in
  let xs = List.init 4 (fun _ -> Aig.fresh_input m) in
  let ys = List.init 4 (fun _ -> Aig.fresh_input m) in
  let matrix =
    Aig.and_list m
      (List.map2 (fun x y -> Aig.iff_ m x y) xs ys)
  in
  match
    Cegar.solve ~max_iterations:0 m ~matrix ~exists_vars:[ 0; 1; 2; 3 ]
      ~forall_vars:[ 4; 5; 6; 7 ]
  with
  | Cegar.Unknown, _ -> ()
  | (Cegar.Valid _ | Cegar.Invalid), _ -> Alcotest.fail "expected Unknown"

let test_deadline_recheck () =
  (* Swap in a fake clock that advances 1s on every read: the 3.5s budget
     is over within a handful of clock reads, long before any solve could
     "finish". Every deadline check (the loop head and each SAT call's
     own) reads the same clock, so the solve must come back Unknown after
     at most one refinement instead of looping. *)
  let t = ref 0.0 in
  Step_obs.Clock.set_source (fun () ->
      t := !t +. 1.0;
      !t);
  Fun.protect ~finally:Step_obs.Clock.use_wall_clock (fun () ->
      let m = Aig.create () in
      let x = Aig.fresh_input m and y = Aig.fresh_input m in
      let matrix = Aig.xor_ m x y in
      match
        Cegar.solve ~time_budget:3.5 m ~matrix ~exists_vars:[ 0 ]
          ~forall_vars:[ 1 ]
      with
      | Cegar.Unknown, stats ->
          Alcotest.(check bool) "no runaway refinement" true
            (stats.Cegar.iterations <= 1)
      | (Cegar.Valid _ | Cegar.Invalid), _ ->
          Alcotest.fail "expected Unknown under an expired fake-clock budget")

let test_deadline_bounds_slow_verify () =
  (* ∃p00 ∀rest. ¬PHP(13,12): the abstraction is trivially SAT, so the very
     first verification call asks the SAT solver for PHP(13,12) — a ~2min
     refutation for this solver, far past the 0.3s budget. Before each
     solve ran under the remaining wall-clock budget, that single
     verification pass overshot the deadline by the full refutation time;
     now it must abort at conflict-count granularity and yield Unknown. *)
  let pigeons = 13 and holes = 12 in
  let m = Aig.create () in
  let p =
    Array.init pigeons (fun _ ->
        Array.init holes (fun _ -> Aig.fresh_input m))
  in
  let placed =
    List.init pigeons (fun i ->
        Aig.or_list m (Array.to_list p.(i)))
  in
  let conflicts = ref [] in
  for j = 0 to holes - 1 do
    for i = 0 to pigeons - 1 do
      for k = i + 1 to pigeons - 1 do
        conflicts :=
          Aig.or_ m (Aig.not_ p.(i).(j)) (Aig.not_ p.(k).(j)) :: !conflicts
      done
    done
  done;
  let php = Aig.and_list m (placed @ !conflicts) in
  let n = pigeons * holes in
  let t0 = Unix.gettimeofday () in
  let outcome, _ =
    Cegar.solve ~time_budget:0.3 m ~matrix:(Aig.not_ php) ~exists_vars:[ 0 ]
      ~forall_vars:(List.init (n - 1) (fun v -> v + 1))
  in
  let elapsed = Unix.gettimeofday () -. t0 in
  (match outcome with
  | Cegar.Unknown -> ()
  | Cegar.Valid _ | Cegar.Invalid ->
      Alcotest.fail "expected Unknown on a budget far below the PHP runtime");
  (* generous bound: the budgeted solver aborts at conflict-count
     granularity, so well under the ~2min full refutation *)
  Alcotest.(check bool)
    (Printf.sprintf "bounded past-deadline work (%.2fs)" elapsed)
    true (elapsed < 20.0)

let test_support_check () =
  let m = Aig.create () in
  let x = Aig.fresh_input m in
  let _y = Aig.fresh_input m in
  match Cegar.solve m ~matrix:x ~exists_vars:[ 1 ] ~forall_vars:[] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument"

(* ---------- qbf property test ---------- *)

type expr =
  | Var of int
  | Not of expr
  | And of expr * expr
  | Or of expr * expr
  | Xor of expr * expr

let rec build_aig m inputs = function
  | Var i -> inputs.(i)
  | Not e -> Aig.not_ (build_aig m inputs e)
  | And (a, b) -> Aig.and_ m (build_aig m inputs a) (build_aig m inputs b)
  | Or (a, b) -> Aig.or_ m (build_aig m inputs a) (build_aig m inputs b)
  | Xor (a, b) -> Aig.xor_ m (build_aig m inputs a) (build_aig m inputs b)

let rec pp_expr = function
  | Var i -> Printf.sprintf "x%d" i
  | Not e -> Printf.sprintf "!(%s)" (pp_expr e)
  | And (a, b) -> Printf.sprintf "(%s & %s)" (pp_expr a) (pp_expr b)
  | Or (a, b) -> Printf.sprintf "(%s | %s)" (pp_expr a) (pp_expr b)
  | Xor (a, b) -> Printf.sprintf "(%s ^ %s)" (pp_expr a) (pp_expr b)

let n_vars = 6

let gen_expr =
  let open QCheck2.Gen in
  sized_size (int_range 1 30) @@ fix (fun self n ->
      if n = 0 then map (fun i -> Var i) (int_range 0 (n_vars - 1))
      else
        oneof
          [
            map (fun i -> Var i) (int_range 0 (n_vars - 1));
            map (fun e -> Not e) (self (n - 1));
            map2 (fun a b -> And (a, b)) (self (n / 2)) (self (n / 2));
            map2 (fun a b -> Or (a, b)) (self (n / 2)) (self (n / 2));
            map2 (fun a b -> Xor (a, b)) (self (n / 2)) (self (n / 2));
          ])

let prop_cegar_matches_naive =
  QCheck2.Test.make ~count:250 ~name:"cegar agrees with brute force"
    ~print:pp_expr gen_expr (fun e ->
      let m = Aig.create () in
      let inputs = Array.init n_vars (fun _ -> Aig.fresh_input m) in
      let matrix = build_aig m inputs e in
      let exists_vars = [ 0; 1; 2 ] and forall_vars = [ 3; 4; 5 ] in
      let expected = Naive.exists_forall m ~matrix ~exists_vars ~forall_vars in
      match Cegar.solve m ~matrix ~exists_vars ~forall_vars with
      | Cegar.Valid w, _ ->
          expected
          && (* verify the witness *)
          Naive.exists_forall m ~matrix:(
            Aig.compose m
              (fun v ->
                if List.mem v exists_vars then
                  Some (if w v then Aig.t_ else Aig.f)
                else None)
              matrix)
            ~exists_vars:[] ~forall_vars
      | Cegar.Invalid, _ -> not expected
      | Cegar.Unknown, _ -> false)

let prop_cegar_duality =
  QCheck2.Test.make ~count:150 ~name:"forall-exists via negated dual"
    ~print:pp_expr gen_expr (fun e ->
      let m = Aig.create () in
      let inputs = Array.init n_vars (fun _ -> Aig.fresh_input m) in
      let matrix = build_aig m inputs e in
      let forall_vars = [ 0; 1; 2 ] and exists_vars = [ 3; 4; 5 ] in
      let expected = Naive.forall_exists m ~matrix ~forall_vars ~exists_vars in
      (* ∀Y∃X.φ  ⇔  ¬(∃Y∀X.¬φ) *)
      match
        Cegar.solve m ~matrix:(Aig.not_ matrix) ~exists_vars:forall_vars
          ~forall_vars:exists_vars
      with
      | Cegar.Valid _, _ -> not expected
      | Cegar.Invalid, _ -> expected
      | Cegar.Unknown, _ -> false)

(* ---------- qdimacs ---------- *)

module Qdimacs = Step_qbf.Qdimacs

let test_qdimacs_parse () =
  let q = Qdimacs.parse_string "p cnf 3 2\ne 1 2 0\na 3 0\n1 3 0\n-2 -3 0\n" in
  Alcotest.(check int) "vars" 3 q.Qdimacs.num_vars;
  Alcotest.(check int) "clauses" 2 (List.length q.Qdimacs.clauses);
  Alcotest.(check int) "prefix blocks" 2 (List.length q.Qdimacs.prefix);
  let q2 = Qdimacs.parse_string (Qdimacs.to_string q) in
  Alcotest.(check bool) "roundtrip" true (q = q2)

let solve_text text =
  Qdimacs.solve (Qdimacs.parse_string text)

let test_qdimacs_solve_cases () =
  let check name text expected =
    match solve_text text with
    | r -> Alcotest.(check bool) name true (r = expected)
  in
  (* ∃x. x ∧ ¬x : false *)
  check "contradiction" "p cnf 1 2\ne 1 0\n1 0\n-1 0\n" Qdimacs.False;
  (* ∀x ∃y. (x∨y)(¬x∨¬y): true (y = ¬x) *)
  check "forall-exists true" "p cnf 2 2\na 1 0\ne 2 0\n1 2 0\n-1 -2 0\n"
    Qdimacs.True;
  (* ∃y ∀x. (x∨y)(¬x∨¬y): false *)
  check "exists-forall false" "p cnf 2 2\ne 2 0\na 1 0\n1 2 0\n-1 -2 0\n"
    Qdimacs.False;
  (* ∀x. x∨¬x : true *)
  check "forall tautology" "p cnf 1 1\na 1 0\n1 -1 0\n" Qdimacs.True;
  (* ∀x. x : false *)
  check "forall contradiction" "p cnf 1 1\na 1 0\n1 0\n" Qdimacs.False;
  (* free variable bound existentially: x free, ∀y. x∨y ... = ∃x∀y x∨y: true *)
  check "free variable" "p cnf 2 1\na 2 0\n1 2 0\n" Qdimacs.True

let test_qdimacs_budget () =
  let q =
    Qdimacs.parse_string "p cnf 4 2\ne 1 2 0\na 3 4 0\n1 3 0\n2 -4 0\n"
  in
  match Qdimacs.solve ~max_iterations:0 q with
  | Qdimacs.Unknown -> ()
  | Qdimacs.True | Qdimacs.False ->
      Alcotest.fail "expected Unknown at zero budget"

(* The budget bounds every prefix, the single-level ones (one SAT call)
   as well as the two-level ones. The fake clock advances 1 s per read,
   so a 0.5 s budget has run out by the first check. *)
let test_qdimacs_single_level_budget () =
  let t = ref 0.0 in
  Step_obs.Clock.set_source (fun () ->
      t := !t +. 1.0;
      !t);
  Fun.protect ~finally:Step_obs.Clock.use_wall_clock (fun () ->
      List.iter
        (fun (label, text) ->
          match Qdimacs.solve ~time_budget:0.5 (Qdimacs.parse_string text) with
          | Qdimacs.Unknown -> ()
          | Qdimacs.True | Qdimacs.False ->
              Alcotest.failf "%s: expected Unknown past the budget" label)
        [
          ("propositional", "p cnf 2 2\n1 2 0\n-1 2 0\n");
          ("exists", "p cnf 2 2\ne 1 2 0\n1 2 0\n-1 2 0\n");
          ("forall", "p cnf 2 1\na 1 2 0\n1 2 0\n");
          ("exists-forall", "p cnf 2 1\ne 1 0\na 2 0\n1 2 0\n");
        ])

let test_qdimacs_three_blocks_rejected () =
  let q =
    Qdimacs.parse_string "p cnf 3 1\ne 1 0\na 2 0\ne 3 0\n1 2 3 0\n"
  in
  match Qdimacs.solve q with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "expected rejection of 3 quantifier levels"

let prop_qdimacs_matches_naive =
  (* random 2QBF over 6 vars, 3 in each block *)
  let gen =
    let open QCheck2.Gen in
    let* n_clauses = int_range 1 12 in
    let gen_lit = map2 (fun v s -> if s then v else -v) (int_range 1 6) bool in
    let* clauses = list_size (pure n_clauses) (list_size (int_range 1 3) gen_lit) in
    let+ order = bool in
    (clauses, order)
  in
  QCheck2.Test.make ~count:200 ~name:"qdimacs solve matches brute force"
    ~print:(fun (cls, order) ->
      Printf.sprintf "%s %b"
        (String.concat "; "
           (List.map
              (fun c -> String.concat " " (List.map string_of_int c))
              cls))
        order)
    gen
    (fun (clauses, exists_first) ->
      let prefix =
        if exists_first then
          [ (Qdimacs.Exists, [ 0; 1; 2 ]); (Qdimacs.Forall, [ 3; 4; 5 ]) ]
        else [ (Qdimacs.Forall, [ 0; 1; 2 ]); (Qdimacs.Exists, [ 3; 4; 5 ]) ]
      in
      let q = { Qdimacs.num_vars = 6; prefix; clauses } in
      (* brute force on the AIG matrix *)
      let m = Aig.create () in
      let inputs = Array.init 6 (fun _ -> Aig.fresh_input m) in
      let clause_edge c =
        Aig.or_list m
          (List.map
             (fun l ->
               let e = inputs.(abs l - 1) in
               if l > 0 then e else Aig.not_ e)
             c)
      in
      let matrix = Aig.and_list m (List.map clause_edge clauses) in
      let expected =
        if exists_first then
          Naive.exists_forall m ~matrix ~exists_vars:[ 0; 1; 2 ]
            ~forall_vars:[ 3; 4; 5 ]
        else
          Naive.forall_exists m ~matrix ~forall_vars:[ 0; 1; 2 ]
            ~exists_vars:[ 3; 4; 5 ]
      in
      match Qdimacs.solve q with
      | Qdimacs.True -> expected
      | Qdimacs.False -> not expected
      | Qdimacs.Unknown -> false)

(* ---------- mus ---------- *)

let selector_clause s solver sel lits =
  ignore s;
  ignore (Solver.add_clause solver (Lit.negate sel :: lits))

let test_mus_simple () =
  (* groups: {x}, {¬x}, {y} — the MUS is the first two *)
  let solver = Solver.create () in
  let sel () = Lit.pos (Solver.new_var solver) in
  let s1 = sel () and s2 = sel () and s3 = sel () in
  let x = Lit.pos (Solver.new_var solver) in
  let y = Lit.pos (Solver.new_var solver) in
  selector_clause () solver s1 [ x ];
  selector_clause () solver s2 [ Lit.negate x ];
  selector_clause () solver s3 [ y ];
  let oracle = Mus.solver_oracle solver in
  let mus = (Mus.minimize oracle ~selectors:[ s1; s2; s3 ]).Mus.mus in
  Alcotest.(check (list int)) "mus = {s1,s2}" (List.sort compare [ s1; s2 ])
    (List.sort compare mus);
  Alcotest.(check bool) "is minimal" true (Mus.is_minimal oracle mus)

let test_mus_requires_unsat () =
  let solver = Solver.create () in
  let s1 = Lit.pos (Solver.new_var solver) in
  let x = Lit.pos (Solver.new_var solver) in
  selector_clause () solver s1 [ x ];
  let oracle = Mus.solver_oracle solver in
  match (Mus.minimize oracle ~selectors:[ s1 ]).Mus.mus with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument on satisfiable input"

let test_mus_with_hard () =
  (* hard: x; groups {¬x ∨ y}, {¬y}, {z} → MUS = first two *)
  let solver = Solver.create () in
  let sel () = Lit.pos (Solver.new_var solver) in
  let s1 = sel () and s2 = sel () and s3 = sel () in
  let h = Lit.pos (Solver.new_var solver) in
  let x = Lit.pos (Solver.new_var solver) in
  let y = Lit.pos (Solver.new_var solver) in
  let z = Lit.pos (Solver.new_var solver) in
  ignore (Solver.add_clause solver [ Lit.negate h; x ]);
  selector_clause () solver s1 [ Lit.negate x; y ];
  selector_clause () solver s2 [ Lit.negate y ];
  selector_clause () solver s3 [ z ];
  let mus =
    (Mus.minimize
       (fun sels -> Mus.solver_oracle solver (h :: sels))
       ~selectors:[ s1; s2; s3 ])
      .Mus.mus
  in
  Alcotest.(check (list int)) "mus" (List.sort compare [ s1; s2 ])
    (List.sort compare mus)

let test_mus_deadline_passed () =
  (* a deadline already passed: the working set is all the selectors,
     which is still unsatisfiable, and [is_minimal]'s solves, which carry
     no deadline, still decide it *)
  let solver = Solver.create () in
  let sel () = Lit.pos (Solver.new_var solver) in
  let s1 = sel () and s2 = sel () and s3 = sel () in
  let x = Lit.pos (Solver.new_var solver) in
  selector_clause () solver s1 [ x ];
  selector_clause () solver s2 [ Lit.negate x ];
  selector_clause () solver s3 [ x ];
  let deadline = Step_obs.Clock.now () -. 1.0 in
  let set =
    (Mus.minimize (Mus.solver_oracle ~deadline solver)
       ~selectors:[ s1; s2; s3 ])
      .Mus.mus
  in
  Alcotest.(check (list int)) "working set" [ s1; s2; s3 ]
    (List.sort compare set);
  Alcotest.(check bool) "not minimal" false
    (Mus.is_minimal (Mus.solver_oracle solver) set)

let prop_mus_minimal =
  (* random unsatisfiable group structure: groups of unit clauses over few
     vars; force unsat by adding complementary pair groups *)
  let gen =
    let open QCheck2.Gen in
    let* n_groups = int_range 2 10 in
    let* seed = int_range 0 10000 in
    return (n_groups, seed)
  in
  QCheck2.Test.make ~count:150 ~name:"mus output is a minimal unsat set"
    ~print:(fun (g, s) -> Printf.sprintf "groups=%d seed=%d" g s)
    gen (fun (n_groups, seed) ->
      let st = Random.State.make [| seed |] in
      let solver = Solver.create () in
      let n_base = 4 in
      let base = Array.init n_base (fun _ -> Solver.new_var solver) in
      let selectors =
        List.init n_groups (fun _ ->
            let sel = Lit.pos (Solver.new_var solver) in
            (* each group: 1-2 random unit or binary clauses *)
            let n_cl = 1 + Random.State.int st 2 in
            for _ = 1 to n_cl do
              let lit () =
                Lit.of_var (Random.State.bool st)
                  base.(Random.State.int st n_base)
              in
              let c =
                if Random.State.bool st then [ lit () ] else [ lit (); lit () ]
              in
              ignore (Solver.add_clause solver (Lit.negate sel :: c))
            done;
            sel)
      in
      (* make sure the whole thing is unsat: add two contradictory groups *)
      let sa = Lit.pos (Solver.new_var solver) in
      let sb = Lit.pos (Solver.new_var solver) in
      ignore (Solver.add_clause solver [ Lit.negate sa; Lit.pos base.(0) ]);
      ignore (Solver.add_clause solver [ Lit.negate sb; Lit.neg_of_var base.(0) ]);
      let selectors = sa :: sb :: selectors in
      let oracle = Mus.solver_oracle solver in
      let mus = (Mus.minimize oracle ~selectors).Mus.mus in
      Mus.is_minimal oracle mus
      && List.for_all (fun l -> List.mem l selectors) mus)

(* ---------- screened mus ---------- *)

(* A random group CNF over at most 8 variables, unsatisfiable as a whole,
   built identically on every call for the same seed: the solver, the
   selectors (the first hard, when [with_hard]) and a brute-force
   satisfiability oracle for any selector set. *)
type group_cnf = {
  g_solver : Solver.t;
  g_hard : Lit.t list;
  g_selectors : Lit.t list;
  g_sat : Lit.t list -> bool; (* hard @ sels is satisfiable *)
}

let group_cnf seed =
  let st = Random.State.make [| seed |] in
  let solver = Solver.create () in
  let n_vars = 1 + Random.State.int st 8 in
  let base = Array.init n_vars (fun _ -> Solver.new_var solver) in
  let random_group () =
    List.init (1 + Random.State.int st 2) (fun _ ->
        List.init (1 + Random.State.int st 3) (fun _ ->
            (Random.State.int st n_vars, Random.State.bool st)))
  in
  let groups =
    List.init (3 + Random.State.int st 10) (fun _ -> random_group ())
  in
  let holds assignment group =
    List.for_all
      (List.exists (fun (v, b) -> (assignment lsr v) land 1 = 1 = b))
      group
  in
  let sat_groups gs =
    List.exists
      (fun a -> List.for_all (holds a) gs)
      (List.init (1 lsl n_vars) Fun.id)
  in
  (* a satisfiable draw gets two contradictory groups *)
  let groups =
    if sat_groups groups then
      groups @ [ [ [ (0, true) ] ]; [ [ (0, false) ] ] ]
    else groups
  in
  let table = Hashtbl.create 16 in
  let selectors =
    List.map
      (fun group ->
        let sel = Lit.pos (Solver.new_var solver) in
        List.iter
          (fun clause ->
            ignore
              (Solver.add_clause solver
                 (Lit.negate sel
                 :: List.map (fun (v, b) -> Lit.of_var b base.(v)) clause)))
          group;
        Hashtbl.replace table sel group;
        sel)
      groups
  in
  let hard, selectors =
    match selectors with
    | h :: rest when Random.State.bool st && rest <> [] -> ([ h ], rest)
    | _ -> ([], selectors)
  in
  let sat sels = sat_groups (List.map (Hashtbl.find table) (hard @ sels)) in
  { g_solver = solver; g_hard = hard; g_selectors = selectors; g_sat = sat }

let gen_seed = QCheck2.Gen.int_range 0 1_000_000

(* The solver oracle of a group CNF, its hard selectors always assumed. *)
let solver_of g sels = Mus.solver_oracle g.g_solver (g.g_hard @ sels)

(* An oracle with no core: the brute-force answer, and on Unsat the set
   asked. *)
let coreless g sels = if g.g_sat sels then Mus.Sat else Mus.Unsat sels

(* The deletion walk of the optimistic pass under a complete oracle:
   keep [c] exactly when [needed @ rest] is satisfiable. *)
let oracle_walk sat core =
  let rec go needed = function
    | [] -> List.rev needed
    | c :: rest ->
        if sat (needed @ rest) then go (c :: needed) rest else go needed rest
  in
  go [] core

let prop_mus_complete_hook =
  QCheck2.Test.make ~count:300
    ~name:"mus with a complete hook: one proof, the oracle's deletion walk"
    ~print:string_of_int gen_seed (fun seed ->
      let g = group_cnf seed in
      let r =
        Mus.minimize ~refute:g.g_sat (solver_of g) ~selectors:g.g_selectors
      in
      (* the same first call on an identically built fresh solver *)
      let f = group_cnf seed in
      let core =
        match
          Solver.solve ~assumptions:(f.g_hard @ f.g_selectors)
            f.g_solver
        with
        | Solver.Unsat ->
            let core = Solver.unsat_core f.g_solver in
            List.filter (fun l -> List.mem l core) f.g_selectors
        | Solver.Sat | Solver.Unknown -> failwith "group CNF is satisfiable"
      in
      let plain =
        Mus.minimize (solver_of f) ~selectors:f.g_selectors
      in
      r.Mus.guess = Mus.Confirmed
      && r.Mus.sat_calls <= 2
      && r.Mus.mus = oracle_walk g.g_sat core
      && Mus.is_minimal (solver_of g) r.Mus.mus
      && Mus.is_minimal (solver_of f) plain.Mus.mus
      && plain.Mus.screened = 0 && plain.Mus.guess = Mus.No_guess)

(* A sound but partial hook: it refutes a seeded half of the satisfiable
   sets, so some optimistic passes drop a necessary selector and fall
   back to exact deletion. *)
let partial_hook seed g sels =
  g.g_sat sels && Hashtbl.hash (seed, List.sort compare sels) land 1 = 0

let prop_mus_partial_hook =
  QCheck2.Test.make ~count:300 ~name:"mus with a partial hook is minimal"
    ~print:string_of_int gen_seed (fun seed ->
      let g = group_cnf seed in
      let r =
        Mus.minimize ~refute:(partial_hook seed g) (solver_of g)
          ~selectors:g.g_selectors
      in
      Mus.is_minimal (solver_of g) r.Mus.mus
      && List.for_all (fun l -> List.mem l g.g_selectors) r.Mus.mus)

(* An oracle without cores: the MUS is minimal, with no hook and with a
   partial one, and a complete hook still proves it in at most two
   oracle calls, the first core being the whole selector set. *)
let prop_mus_coreless =
  QCheck2.Test.make ~count:300 ~name:"mus over a core-less oracle"
    ~print:string_of_int gen_seed (fun seed ->
      let g = group_cnf seed in
      let oracle = coreless g in
      let plain = Mus.minimize oracle ~selectors:g.g_selectors in
      let partial =
        Mus.minimize ~refute:(partial_hook seed g) oracle
          ~selectors:g.g_selectors
      in
      let complete =
        Mus.minimize ~refute:g.g_sat oracle ~selectors:g.g_selectors
      in
      List.for_all
        (fun r ->
          Mus.is_minimal oracle r.Mus.mus
          && Mus.is_minimal (solver_of g) r.Mus.mus
          && List.for_all (fun l -> List.mem l g.g_selectors) r.Mus.mus)
        [ plain; partial; complete ]
      && complete.Mus.guess = Mus.Confirmed
      && complete.Mus.sat_calls <= 2
      && complete.Mus.mus = oracle_walk g.g_sat g.g_selectors)

(* The fallback path is taken, and its answer is minimal although the
   optimistic marks it discarded were tested with a necessary selector
   dropped. *)
let test_mus_fallback () =
  let fallbacks = ref 0 and confirmed = ref 0 in
  for seed = 0 to 499 do
    let g = group_cnf seed in
    let r =
      Mus.minimize ~refute:(partial_hook seed g) (solver_of g)
        ~selectors:g.g_selectors
    in
    (match r.Mus.guess with
    | Mus.Fallback -> incr fallbacks
    | Mus.Confirmed -> incr confirmed
    | Mus.No_guess ->
        Alcotest.failf "seed %d: no guess without a deadline" seed);
    if not (Mus.is_minimal (solver_of g) r.Mus.mus) then
      Alcotest.failf "seed %d: %s result is not minimal" seed
        (if r.Mus.guess = Mus.Fallback then "fallback" else "confirmed")
  done;
  Alcotest.(check bool) "some passes fall back" true (!fallbacks > 0);
  Alcotest.(check bool) "some passes are confirmed" true (!confirmed > 0)

(* The clock jumps past the deadline inside the hook, during the
   optimistic pass, so the proof call is never made: the answer is the
   first core, still unsatisfiable. *)
let prop_mus_deadline_in_proof =
  QCheck2.Test.make ~count:200
    ~name:"mus cut short before its proof returns an unsat set"
    ~print:string_of_int gen_seed (fun seed ->
      let g = group_cnf seed in
      let t = ref 0.0 in
      Step_obs.Clock.set_source (fun () -> !t);
      Fun.protect ~finally:Step_obs.Clock.use_wall_clock (fun () ->
          let refute sels =
            t := 100.0;
            g.g_sat sels
          in
          let r =
            Mus.minimize ~refute
              (fun sels ->
                Mus.solver_oracle ~deadline:10.0 g.g_solver (g.g_hard @ sels))
              ~selectors:g.g_selectors
          in
          let unsat =
            Solver.solve ~assumptions:(g.g_hard @ r.Mus.mus) g.g_solver
            = Solver.Unsat
          in
          unsat
          && List.for_all (fun l -> List.mem l g.g_selectors) r.Mus.mus
          && (r.Mus.guess = Mus.No_guess || r.Mus.sat_calls = 1)))

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

(* ---------- lint rules ({i docs/LINT.md}): one seeded defect per rule,
   each caught with the expected code, plus clean artifacts staying clean *)

let codes diags = List.map (fun d -> d.Step_lint.Diag.code) diags

let check_has code diags =
  Alcotest.(check bool)
    (Printf.sprintf "%s reported (got %s)" code
       (String.concat "," (codes diags)))
    true
    (List.mem code (codes diags))

let check_clean what diags =
  Alcotest.(check int)
    (Printf.sprintf "%s clean (got %s)" what (String.concat "," (codes diags)))
    0 (List.length diags)

let check_qdimacs text =
  (Step_sat.Dimacs.scan ~qdimacs:true text).Step_sat.Dimacs.diags

(* ---------- QDIMACS ---------- *)

let qdm_ok = "p cnf 2 2\na 1 0\ne 2 0\n1 2 0\n-1 -2 0\n"

let test_qdm_clean () = check_clean "qdimacs" (check_qdimacs qdm_ok)

let test_qdm001_free_var () =
  let d = check_qdimacs "p cnf 2 1\ne 1 0\n1 2 0\n" in
  check_has "QDM001" d

let test_qdm002_quantified_twice () =
  check_has "QDM002" (check_qdimacs "p cnf 2 1\na 1 0\ne 1 2 0\n1 2 0\n")

let test_qdm003_empty_block () =
  check_has "QDM003" (check_qdimacs "p cnf 1 1\ne 0\na 1 0\n1 0\n")

let test_qdm004_adjacent_blocks () =
  check_has "QDM004" (check_qdimacs "p cnf 2 1\ne 1 0\ne 2 0\n1 2 0\n")

let test_qdm005_quant_after_matrix () =
  check_has "QDM005" (check_qdimacs "p cnf 2 1\ne 1 0\n1 0\na 2 0\n")

let () =
  Alcotest.run "step_qbf_mus"
    [
      ( "cegar",
        [
          Alcotest.test_case "tautology" `Quick test_tautology;
          Alcotest.test_case "exists pick" `Quick test_exists_pick;
          Alcotest.test_case "invalid" `Quick test_invalid;
          Alcotest.test_case "equality witness" `Quick test_equality_witness;
          Alcotest.test_case "budget" `Quick test_budget;
          Alcotest.test_case "deadline re-check" `Quick test_deadline_recheck;
          Alcotest.test_case "deadline bounds slow verify" `Quick
            test_deadline_bounds_slow_verify;
          Alcotest.test_case "support check" `Quick test_support_check;
        ] );
      ( "qdimacs",
        [
          Alcotest.test_case "parse/roundtrip" `Quick test_qdimacs_parse;
          Alcotest.test_case "solve cases" `Quick test_qdimacs_solve_cases;
          Alcotest.test_case "budget" `Quick test_qdimacs_budget;
          Alcotest.test_case "single-level budget" `Quick
            test_qdimacs_single_level_budget;
          Alcotest.test_case "three blocks rejected" `Quick
            test_qdimacs_three_blocks_rejected;
          Alcotest.test_case "clean" `Quick test_qdm_clean;
          Alcotest.test_case "QDM001 free variable" `Quick test_qdm001_free_var;
          Alcotest.test_case "QDM002 quantified twice" `Quick
            test_qdm002_quantified_twice;
          Alcotest.test_case "QDM003 empty block" `Quick test_qdm003_empty_block;
          Alcotest.test_case "QDM004 adjacent blocks" `Quick
            test_qdm004_adjacent_blocks;
          Alcotest.test_case "QDM005 quantifier after matrix" `Quick
            test_qdm005_quant_after_matrix;
        ] );
      ( "mus",
        [
          Alcotest.test_case "simple" `Quick test_mus_simple;
          Alcotest.test_case "requires unsat" `Quick test_mus_requires_unsat;
          Alcotest.test_case "with hard assumptions" `Quick test_mus_with_hard;
          Alcotest.test_case "deadline passed" `Quick test_mus_deadline_passed;
          Alcotest.test_case "screened fallback" `Quick test_mus_fallback;
        ] );
      qsuite "properties"
        [
          prop_cegar_matches_naive;
          prop_cegar_duality;
          prop_qdimacs_matches_naive;
          prop_mus_minimal;
          prop_mus_complete_hook;
          prop_mus_partial_hook;
          prop_mus_coreless;
          prop_mus_deadline_in_proof;
        ];
    ]
