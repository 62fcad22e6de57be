(* Tests for Tseitin encoding and cardinality constraints. *)

module Aig = Step_aig.Aig
module Tseitin = Step_cnf.Tseitin
module Cardinality = Step_cnf.Cardinality
module Solver = Step_sat.Solver
module Lit = Step_sat.Lit

(* The verdict of a solve with no deadline, which cannot be [Unknown]. *)
let sat ?assumptions s =
  match Solver.solve ?assumptions s with
  | Solver.Sat -> true
  | Solver.Unsat -> false
  | Solver.Unknown -> Alcotest.fail "Unknown from a solve with no deadline"

(* random expressions, as in test_aig *)
type expr =
  | Var of int
  | Const of bool
  | Not of expr
  | And of expr * expr
  | Or of expr * expr
  | Xor of expr * expr

let rec eval_expr env = function
  | Var i -> env i
  | Const b -> b
  | Not e -> not (eval_expr env e)
  | And (a, b) -> eval_expr env a && eval_expr env b
  | Or (a, b) -> eval_expr env a || eval_expr env b
  | Xor (a, b) -> eval_expr env a <> eval_expr env b

let rec build_aig m inputs = function
  | Var i -> inputs.(i)
  | Const b -> if b then Aig.t_ else Aig.f
  | Not e -> Aig.not_ (build_aig m inputs e)
  | And (a, b) -> Aig.and_ m (build_aig m inputs a) (build_aig m inputs b)
  | Or (a, b) -> Aig.or_ m (build_aig m inputs a) (build_aig m inputs b)
  | Xor (a, b) -> Aig.xor_ m (build_aig m inputs a) (build_aig m inputs b)

let rec pp_expr = function
  | Var i -> Printf.sprintf "x%d" i
  | Const b -> string_of_bool b
  | Not e -> Printf.sprintf "!(%s)" (pp_expr e)
  | And (a, b) -> Printf.sprintf "(%s & %s)" (pp_expr a) (pp_expr b)
  | Or (a, b) -> Printf.sprintf "(%s | %s)" (pp_expr a) (pp_expr b)
  | Xor (a, b) -> Printf.sprintf "(%s ^ %s)" (pp_expr a) (pp_expr b)

let n_test_vars = 4

let gen_expr =
  let open QCheck2.Gen in
  sized_size (int_range 0 20) @@ fix (fun self n ->
      if n = 0 then
        oneof [ map (fun i -> Var i) (int_range 0 (n_test_vars - 1));
                map (fun b -> Const b) bool ]
      else
        oneof
          [
            map (fun i -> Var i) (int_range 0 (n_test_vars - 1));
            map (fun e -> Not e) (self (n - 1));
            map2 (fun a b -> And (a, b)) (self (n / 2)) (self (n / 2));
            map2 (fun a b -> Or (a, b)) (self (n / 2)) (self (n / 2));
            map2 (fun a b -> Xor (a, b)) (self (n / 2)) (self (n / 2));
          ])

let env_of_mask mask i = (mask lsr i) land 1 = 1

(* ---------- tseitin ---------- *)

let test_tseitin_basic () =
  let m = Aig.create () in
  let x = Aig.fresh_input m and y = Aig.fresh_input m in
  let g = Aig.and_ m x (Aig.not_ y) in
  let enc = Tseitin.create m in
  let gl = Tseitin.lit_of enc g in
  let s = Tseitin.solver enc in
  ignore (Solver.add_clause s [ gl ]);
  Alcotest.(check bool) "sat" true (sat s);
  Alcotest.(check bool) "x true" true
    (Solver.model_value s (Tseitin.lit_of_input enc 0));
  Alcotest.(check bool) "y false" false
    (Solver.model_value s (Tseitin.lit_of_input enc 1))

let test_tseitin_constant () =
  let m = Aig.create () in
  let enc = Tseitin.create m in
  let s = Tseitin.solver enc in
  ignore (Solver.add_clause s [ Tseitin.lit_of enc Aig.t_ ]);
  Alcotest.(check bool) "true const sat" true (sat s);
  ignore (Solver.add_clause s [ Tseitin.lit_of enc Aig.f ]);
  Alcotest.(check bool) "plus false const unsat" false (sat s)

let test_tseitin_sharing () =
  (* encoding the same cone twice must not add variables the second time *)
  let m = Aig.create () in
  let x = Aig.fresh_input m and y = Aig.fresh_input m in
  let g = Aig.xor_ m x y in
  let enc = Tseitin.create m in
  let l1 = Tseitin.lit_of enc g in
  let nv = Solver.n_vars (Tseitin.solver enc) in
  let l2 = Tseitin.lit_of enc g in
  Alcotest.(check int) "same literal" l1 l2;
  Alcotest.(check int) "no new vars" nv (Solver.n_vars (Tseitin.solver enc))

let test_bind_input () =
  let m = Aig.create () in
  let x = Aig.fresh_input m in
  let enc = Tseitin.create m in
  let s = Tseitin.solver enc in
  let v = Lit.pos (Solver.new_var s) in
  Tseitin.bind_input enc 0 v;
  Alcotest.(check int) "bound" v (Tseitin.lit_of_input enc 0);
  Alcotest.(check int) "edge uses binding" v (Tseitin.lit_of enc x);
  match Tseitin.bind_input enc 0 v with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "expected rejection of double bind"

let test_sink_reports_clauses () =
  let m = Aig.create () in
  let x = Aig.fresh_input m and y = Aig.fresh_input m in
  let g = Aig.and_ m x y in
  let enc = Tseitin.create m in
  let ids = ref [] in
  Tseitin.set_sink enc (Some (fun id -> ids := id :: !ids));
  ignore (Tseitin.lit_of enc g);
  Alcotest.(check int) "three gate clauses" 3 (List.length !ids)

let prop_tseitin_equisat =
  QCheck2.Test.make ~count:300 ~name:"tseitin encodes the function"
    ~print:pp_expr gen_expr (fun e ->
      let m = Aig.create () in
      let inputs = Array.init n_test_vars (fun _ -> Aig.fresh_input m) in
      let edge = build_aig m inputs e in
      let enc = Tseitin.create m in
      let out = Tseitin.lit_of enc edge in
      let s = Tseitin.solver enc in
      let in_lits = Array.init n_test_vars (Tseitin.lit_of_input enc) in
      List.for_all
        (fun mask ->
          let assumptions =
            List.init n_test_vars (fun i ->
                if env_of_mask mask i then in_lits.(i)
                else Lit.negate in_lits.(i))
          in
          sat ~assumptions s
          && Solver.model_value s out = eval_expr (env_of_mask mask) e)
        (List.init (1 lsl n_test_vars) Fun.id))

(* ---------- cardinality ---------- *)

let popcount mask n =
  let c = ref 0 in
  for i = 0 to n - 1 do
    if env_of_mask mask i then incr c
  done;
  !c

let test_totalizer_exact () =
  for n = 1 to 6 do
    let s = Solver.create () in
    let lits = List.init n (fun _ -> Lit.pos (Solver.new_var s)) in
    let c = Cardinality.totalizer s lits in
    Alcotest.(check int) "size" n (Cardinality.size c);
    for mask = 0 to (1 lsl n) - 1 do
      let assumptions =
        List.mapi
          (fun i l -> if env_of_mask mask i then l else Lit.negate l)
          lits
      in
      Alcotest.(check bool) "sat" true (sat ~assumptions s);
      let count = popcount mask n in
      Array.iteri
        (fun i o ->
          Alcotest.(check bool)
            (Printf.sprintf "n=%d mask=%d o%d" n mask i)
            (count >= i + 1)
            (Solver.model_value s o))
        c.Cardinality.outputs
    done
  done

let test_at_most_at_least () =
  let n = 5 in
  let s = Solver.create () in
  let lits = List.init n (fun _ -> Lit.pos (Solver.new_var s)) in
  let c = Cardinality.totalizer s lits in
  (* trivial bounds *)
  Alcotest.(check bool) "at_most n trivial" true (Cardinality.at_most c n = None);
  Alcotest.(check bool) "at_least 0 trivial" true
    (Cardinality.at_least c 0 = None);
  (* force exactly 2 true *)
  let am = Option.get (Cardinality.at_most c 2) in
  let al = Option.get (Cardinality.at_least c 2) in
  Alcotest.(check bool) "exactly 2 sat" true
    (sat ~assumptions:[ am; al ] s);
  let count =
    List.fold_left
      (fun acc l -> if Solver.model_value s l then acc + 1 else acc)
      0 lits
  in
  Alcotest.(check int) "count" 2 count;
  (* contradictory bounds *)
  let am1 = Option.get (Cardinality.at_most c 1) in
  let al3 = Option.get (Cardinality.at_least c 3) in
  Alcotest.(check bool) "contradiction" false
    (sat ~assumptions:[ am1; al3 ] s)

let prop_totalizer_bounds =
  let gen =
    let open QCheck2.Gen in
    let* n = int_range 1 7 in
    let* k = int_range 0 n in
    let+ force = int_range 0 ((1 lsl n) - 1) in
    (n, k, force)
  in
  QCheck2.Test.make ~count:300 ~name:"at_most-k is exact"
    ~print:(fun (n, k, f) -> Printf.sprintf "n=%d k=%d force=%d" n k f)
    gen (fun (n, k, force) ->
      let s = Solver.create () in
      let lits = List.init n (fun _ -> Lit.pos (Solver.new_var s)) in
      let c = Cardinality.totalizer s lits in
      (* fix the inputs as in [force]; then at_most k must agree with the
         popcount *)
      let assumptions =
        List.mapi
          (fun i l -> if env_of_mask force i then l else Lit.negate l)
          lits
      in
      let expected = popcount force n <= k in
      match Cardinality.at_most c k with
      | None -> expected
      | Some b -> sat ~assumptions:(b :: assumptions) s = expected)

let test_totalizer_matches_popcount () =
  (* the asserted bound must accept exactly the input assignments with
     at most k true *)
  for n = 1 to 6 do
    for k = 0 to n do
      let s = Solver.create () in
      let lits = List.init n (fun _ -> Lit.pos (Solver.new_var s)) in
      let c = Cardinality.totalizer s lits in
      (match Cardinality.at_most c k with
      | Some l -> ignore (Solver.add_clause s [ l ])
      | None -> ());
      for mask = 0 to (1 lsl n) - 1 do
        let assumptions =
          List.mapi
            (fun i l -> if env_of_mask mask i then l else Lit.negate l)
            lits
        in
        Alcotest.(check bool)
          (Printf.sprintf "n=%d k=%d mask=%d" n k mask)
          (popcount mask n <= k)
          (sat ~assumptions s)
      done
    done
  done

let test_bound_difference () =
  (* left - right <= k over two 3-bit counters, checked exhaustively *)
  let n = 3 in
  List.iter
    (fun k ->
      let s = Solver.create () in
      let ls = List.init n (fun _ -> Lit.pos (Solver.new_var s)) in
      let rs = List.init n (fun _ -> Lit.pos (Solver.new_var s)) in
      let left = Cardinality.totalizer s ls in
      let right = Cardinality.totalizer s rs in
      let act = Lit.pos (Solver.new_var s) in
      Cardinality.add_bound_difference s ~left ~right ~k ~activator:act;
      for ml = 0 to (1 lsl n) - 1 do
        for mr = 0 to (1 lsl n) - 1 do
          let asm =
            act
            :: List.mapi
                 (fun i l -> if env_of_mask ml i then l else Lit.negate l)
                 ls
            @ List.mapi
                (fun i l -> if env_of_mask mr i then l else Lit.negate l)
                rs
          in
          Alcotest.(check bool)
            (Printf.sprintf "k=%d l=%d r=%d" k ml mr)
            (popcount ml n - popcount mr n <= k)
            (sat ~assumptions:asm s)
        done
      done)
    [ 0; 1; 2 ]

let test_parity_miter_stress () =
  (* two structurally different 12-input parity trees must be equivalent:
     a resolution-hard-ish miter exercising the CDCL core through Tseitin *)
  let m = Aig.create () in
  let xs = Array.init 12 (fun _ -> Aig.fresh_input m) in
  let linear =
    Array.fold_left (fun acc x -> Aig.xor_ m acc x) Aig.f xs
  in
  let rec balanced lo len =
    if len = 1 then xs.(lo)
    else Aig.xor_ m (balanced lo (len / 2))
        (balanced (lo + (len / 2)) (len - (len / 2)))
  in
  let tree = balanced 0 12 in
  let miter = Aig.xor_ m linear tree in
  (* strashing may or may not collapse the two shapes; force the SAT path
     by checking through a fresh encoder *)
  let enc = Tseitin.create m in
  let s = Tseitin.solver enc in
  ignore (Solver.add_clause s [ Tseitin.lit_of enc miter ]);
  Alcotest.(check bool) "equivalent" false (sat s);
  (* negating one leaf makes them differ everywhere *)
  let broken = Aig.xor_ m linear (Aig.not_ tree) in
  let enc2 = Tseitin.create m in
  let s2 = Tseitin.solver enc2 in
  ignore (Solver.add_clause s2 [ Tseitin.lit_of enc2 broken ]);
  Alcotest.(check bool) "distinguishable" true (sat s2)

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let () =
  Alcotest.run "step_cnf"
    [
      ( "tseitin",
        [
          Alcotest.test_case "basic" `Quick test_tseitin_basic;
          Alcotest.test_case "constants" `Quick test_tseitin_constant;
          Alcotest.test_case "sharing" `Quick test_tseitin_sharing;
          Alcotest.test_case "bind input" `Quick test_bind_input;
          Alcotest.test_case "sink" `Quick test_sink_reports_clauses;
        ] );
      ( "cardinality",
        [
          Alcotest.test_case "totalizer exact" `Quick test_totalizer_exact;
          Alcotest.test_case "at_most/at_least" `Quick test_at_most_at_least;
          Alcotest.test_case "totalizer = popcount" `Quick
            test_totalizer_matches_popcount;
          Alcotest.test_case "bound difference" `Quick test_bound_difference;
          Alcotest.test_case "parity miter stress" `Quick
            test_parity_miter_stress;
        ] );
      qsuite "properties" [ prop_tseitin_equisat; prop_totalizer_bounds ];
    ]
