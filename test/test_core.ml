(* Core bi-decomposition tests: SAT-based checks vs truth-table reference,
   QBF optimum vs exhaustive partition enumeration, extraction engines
   verified end-to-end. *)

module Aig = Step_aig.Aig
module Circuit = Step_aig.Circuit
module Gate = Step_core.Gate
module Partition = Step_core.Partition
module Problem = Step_core.Problem
module Copies = Step_core.Copies
module Check = Step_core.Check
module Exhaustive = Step_core.Exhaustive
module Mg = Step_core.Mg
module Ljh = Step_core.Ljh
module Qbf_model = Step_core.Qbf_model
module Extract = Step_core.Extract
module Screen = Step_core.Screen
module Separator = Step_core.Separator
module Verify = Step_core.Verify
module Certify = Step_core.Certify
module Engine = Step_engine.Engine
module Method = Step_core.Method

(* ---------- generators ---------- *)

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

let gen_expr n_vars =
  let open QCheck2.Gen in
  sized_size (int_range 1 16) @@ fix (fun self n ->
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

let gen_gate =
  QCheck2.Gen.oneofl [ Gate.Or_gate; Gate.And_gate; Gate.Xor_gate ]

let problem_of_expr n e =
  let m = Aig.create () in
  let inputs = Array.init n (fun _ -> Aig.fresh_input m) in
  Problem.of_edge m (build_aig m inputs e)

(* random partition of the problem's support *)
let gen_partition_of support =
  let open QCheck2.Gen in
  let n = List.length support in
  let+ sorts = list_size (pure n) (int_range 0 2) in
  let cells = List.combine support sorts in
  let pick k = List.filter_map (fun (v, s) -> if s = k then Some v else None) cells in
  (* ensure non-trivial: steal members if needed *)
  let xa = ref (pick 0) and xb = ref (pick 1) and xc = ref (pick 2) in
  (match (!xa, !xb, !xc) with
  | [], [], c :: c' :: rest ->
      xa := [ c ];
      xb := [ c' ];
      xc := rest
  | [], b :: rest, _ when rest <> [] || !xc = [] ->
      xa := [ b ];
      xb := rest
  | [], b, c :: rest ->
      xa := [ c ];
      xb := b;
      xc := rest
  | a :: rest, [], _ when rest <> [] || !xc = [] ->
      xb := rest;
      xa := [ a ]
  | _, [], c :: rest ->
      xb := [ c ];
      xc := rest
  | _, _, _ -> ());
  Partition.make ~xa:!xa ~xb:!xb ~xc:!xc

(* planted decomposable function: g(XA,XC) <op> h(XB,XC) *)
let planted_problem gate seed =
  let st = Random.State.make [| seed |] in
  let m = Aig.create () in
  let inputs = Array.init 6 (fun _ -> Aig.fresh_input m) in
  let rand_fn vars =
    (* random-shaped tree using every given input edge exactly once, so
       the structural support is exactly [vars] *)
    let leaf v = if Random.State.bool st then v else Aig.not_ v in
    let node a b =
      match Random.State.int st 3 with
      | 0 -> Aig.and_ m a b
      | 1 -> Aig.or_ m a b
      | _ -> Aig.xor_ m a b
    in
    match List.map leaf vars with
    | [] -> Aig.f
    | first :: rest -> List.fold_left node first rest
  in
  let xa = [ inputs.(0); inputs.(1) ]
  and xb = [ inputs.(2); inputs.(3) ]
  and xc = [ inputs.(4); inputs.(5) ] in
  let g = rand_fn (xa @ xc) and h = rand_fn (xb @ xc) in
  let f = Gate.edge m gate g h in
  (Problem.of_edge m f, Partition.make ~xa:[ 0; 1 ] ~xb:[ 2; 3 ] ~xc:[ 4; 5 ])

(* ---------- unit tests ---------- *)

let test_partition_metrics () =
  let p = Partition.make ~xa:[ 0; 1; 2 ] ~xb:[ 3 ] ~xc:[ 4 ] in
  Alcotest.(check int) "size" 5 (Partition.size p);
  Alcotest.(check (float 1e-9)) "disjointness" 0.2 (Partition.disjointness p);
  Alcotest.(check (float 1e-9)) "balancedness" 0.4 (Partition.balancedness p);
  Alcotest.(check (float 1e-9)) "cost" 0.6 (Partition.cost p);
  Alcotest.(check int) "combined k" 3 (Partition.combined_k p);
  Alcotest.(check bool) "nontrivial" false (Partition.is_trivial p);
  let c = Partition.canonical (Partition.make ~xa:[ 3 ] ~xb:[ 0; 1 ] ~xc:[]) in
  Alcotest.(check int) "canonical |XA|" 2 (List.length c.Partition.xa)

let test_partition_overlap_rejected () =
  match Partition.make ~xa:[ 0 ] ~xb:[ 0 ] ~xc:[] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected overlap rejection"

let test_or_decomposable_planted () =
  List.iter
    (fun gate ->
      let p, part = planted_problem gate 7 in
      Alcotest.(check bool)
        (Gate.to_string gate ^ " planted decomposable")
        true
        (Check.decomposable p gate part))
    Gate.all

let test_xor_parity_fully_decomposable () =
  (* parity is XOR-decomposable under every partition *)
  let m = Aig.create () in
  let xs = List.init 5 (fun _ -> Aig.fresh_input m) in
  let p = Problem.of_edge m (Aig.xor_list m xs) in
  let part = Partition.make ~xa:[ 0; 1 ] ~xb:[ 2; 3; 4 ] ~xc:[] in
  Alcotest.(check bool) "xor" true
    (Check.decomposable p Gate.Xor_gate part);
  (* but not OR-decomposable: parity has no OR decomposition *)
  Alcotest.(check bool) "or" false
    (Check.decomposable p Gate.Or_gate part)

let test_semantic_input_limit () =
  (* the truth-table reference refuses more than 20 inputs with an
     exception, which -noassert cannot remove *)
  let m = Aig.create () in
  let xs = List.init 21 (fun _ -> Aig.fresh_input m) in
  let p = Problem.of_edge m (Aig.xor_list m xs) in
  match Check.decomposable_semantic p Gate.Or_gate with
  | exception Invalid_argument _ -> ()
  | (_ : Partition.t -> bool) ->
      Alcotest.fail "expected Invalid_argument on 21 inputs"

let test_exhaustive_equal_size_swaps () =
  (* parity of 4 inputs decomposes under all 50 ordered non-trivial
     partitions; canonical forms merge the 32 with |XA| <> |XB| into 16,
     and the 18 with |XA| = |XB| stay in both orders *)
  let m = Aig.create () in
  let xs = List.init 4 (fun _ -> Aig.fresh_input m) in
  let p = Problem.of_edge m (Aig.xor_list m xs) in
  let all = Exhaustive.all_decomposable p Gate.Xor_gate in
  Alcotest.(check int) "entries" 34 (List.length all);
  let equal =
    List.filter
      (fun (q : Partition.t) -> List.length q.xa = List.length q.xb)
      all
  in
  Alcotest.(check int) "equal-size entries" 18 (List.length equal);
  List.iter
    (fun (q : Partition.t) ->
      let swap = Partition.make ~xa:q.xb ~xb:q.xa ~xc:q.xc in
      Alcotest.(check bool)
        ("swap listed: " ^ Partition.to_string q)
        true
        (List.exists (Partition.equal swap) all))
    equal

let test_mg_finds_planted () =
  List.iter
    (fun gate ->
      let p, _ = planted_problem gate 11 in
      let r = Mg.find p gate in
      match r.Mg.partition with
      | None -> Alcotest.fail (Gate.to_string gate ^ ": MG found nothing")
      | Some part ->
          Alcotest.(check bool)
            (Gate.to_string gate ^ " MG partition valid")
            true
            (Check.decomposable p gate part))
    Gate.all

let test_ljh_finds_planted () =
  List.iter
    (fun gate ->
      let p, _ = planted_problem gate 13 in
      let r = Ljh.find p gate in
      match r.Ljh.partition with
      | None -> Alcotest.fail (Gate.to_string gate ^ ": LJH found nothing")
      | Some part ->
          Alcotest.(check bool)
            (Gate.to_string gate ^ " LJH partition valid")
            true
            (Check.decomposable p gate part))
    Gate.all

let test_qbf_optimum_matches_exhaustive () =
  List.iter
    (fun gate ->
      List.iter
        (fun seed ->
          let p, _ = planted_problem gate seed in
          let o = Qbf_model.optimize p gate Qbf_model.Disjointness in
          let e = Exhaustive.best ~objective:Partition.disjointness_k p gate in
          match (o.Qbf_model.partition, e) with
          | Some qp, Some ep ->
              Alcotest.(check bool) "optimal flag" true o.Qbf_model.optimal;
              Alcotest.(check int)
                (Printf.sprintf "%s seed %d optimum |XC|" (Gate.to_string gate)
                   seed)
                (Partition.disjointness_k ep)
                (Partition.disjointness_k qp)
          | None, None -> ()
          | Some _, None -> Alcotest.fail "QBF found, exhaustive did not"
          | None, Some _ -> Alcotest.fail "exhaustive found, QBF did not")
        [ 3; 17 ])
    Gate.all

let test_qbf_balancedness_optimum () =
  let p, _ = planted_problem Gate.Or_gate 23 in
  let o = Qbf_model.optimize p Gate.Or_gate Qbf_model.Balancedness in
  let e = Exhaustive.best ~objective:Partition.balancedness_k p Gate.Or_gate in
  match (o.Qbf_model.partition, e) with
  | Some qp, Some ep ->
      Alcotest.(check int) "optimum balance" (Partition.balancedness_k ep)
        (Partition.balancedness_k qp)
  | _, _ -> Alcotest.fail "expected partitions on planted instance"

let test_qbf_combined_optimum () =
  let p, _ = planted_problem Gate.Or_gate 29 in
  let o = Qbf_model.optimize p Gate.Or_gate Qbf_model.Combined in
  let e =
    Exhaustive.best
      ~objective:(fun part -> Partition.combined_k (Partition.canonical part))
      p Gate.Or_gate
  in
  match (o.Qbf_model.partition, e) with
  | Some qp, Some ep ->
      Alcotest.(check int) "optimum combined"
        (Partition.combined_k (Partition.canonical ep))
        (Partition.combined_k (Partition.canonical qp))
  | _, _ -> Alcotest.fail "expected partitions on planted instance"

let test_strategies_agree () =
  let p, _ = planted_problem Gate.Or_gate 31 in
  let ks =
    List.map
      (fun s ->
        let o =
          Qbf_model.optimize ~strategy:s p Gate.Or_gate Qbf_model.Disjointness
        in
        (o.Qbf_model.best_k, o.Qbf_model.optimal))
      [ Qbf_model.Mi; Qbf_model.Md; Qbf_model.Bin; Qbf_model.Composite ]
  in
  match ks with
  | (k0, _) :: rest ->
      List.iter
        (fun (k, opt) ->
          Alcotest.(check bool) "optimal" true opt;
          Alcotest.(check (option int)) "same k" k0 k)
        rest
  | [] -> assert false

let test_qbf_copies_mismatch_rejected () =
  (* passing [~copies] built for a different problem or gate must raise
     Invalid_argument with a message naming the mismatch, not assert *)
  let p1, _ = planted_problem Gate.Or_gate 71 in
  let p2, _ = planted_problem Gate.Or_gate 73 in
  let copies = Copies.create p1 Gate.Or_gate in
  (match Qbf_model.optimize ~copies p2 Gate.Or_gate Qbf_model.Disjointness with
  | exception Invalid_argument msg ->
      Alcotest.(check bool) "names the problem mismatch" true
        (String.length msg > 0)
  | _ -> Alcotest.fail "expected Invalid_argument on problem mismatch");
  match Qbf_model.optimize ~copies p1 Gate.And_gate Qbf_model.Disjointness with
  | exception Invalid_argument msg ->
      let has_sub sub s =
        let n = String.length sub and m = String.length s in
        let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
        go 0
      in
      Alcotest.(check bool) "names both gates" true
        (has_sub "OR" msg && has_sub "AND" msg)
  | _ -> Alcotest.fail "expected Invalid_argument on gate mismatch"

let test_mg_copies_mismatch_rejected () =
  (* the same guard as Qbf_model.optimize: Invalid_argument, not an
     assert that -noassert would remove *)
  let p1, _ = planted_problem Gate.Or_gate 71 in
  let p2, _ = planted_problem Gate.Or_gate 73 in
  let copies = Copies.create p1 Gate.Or_gate in
  (match Mg.find ~copies p2 Gate.Or_gate with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument on problem mismatch");
  match Mg.find ~copies p1 Gate.Xor_gate with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument on gate mismatch"

let test_qbf_bootstrap_never_worse () =
  let p, _ = planted_problem Gate.Or_gate 37 in
  let copies = Copies.create p Gate.Or_gate in
  let mg = Mg.find ~copies p Gate.Or_gate in
  match mg.Mg.partition with
  | None -> Alcotest.fail "MG failed on planted"
  | Some bootstrap ->
      let o =
        Qbf_model.optimize ~copies ~bootstrap p Gate.Or_gate
          Qbf_model.Disjointness
      in
      let k = Option.get o.Qbf_model.best_k in
      Alcotest.(check bool) "no worse than bootstrap" true
        (k <= Partition.disjointness_k bootstrap)

let test_extract_engines_planted () =
  List.iter
    (fun gate ->
      let p, part = planted_problem gate 41 in
      List.iter
        (fun engine ->
          let r = Extract.run ~engine p gate part in
          Alcotest.(check bool)
            (Printf.sprintf "%s verified" (Gate.to_string gate))
            true
            (Verify.decomposition p gate part ~fa:r.Extract.fa ~fb:r.Extract.fb))
        [ Extract.Quantify; Extract.Interpolate ])
    Gate.all

let test_certified_equivalence () =
  let p, part = planted_problem Gate.Or_gate 67 in
  let e = Extract.run p Gate.Or_gate part in
  (match
     Certify.equivalence_obligation p Gate.Or_gate ~fa:e.Extract.fa
       ~fb:e.Extract.fb
   with
  | None -> Alcotest.fail "miter folded away: nothing was certified"
  | Some ob ->
      Alcotest.(check int) "independent checker accepts" 0
        (List.length (Step_cert.Cert.check_obligation ~po:"f" ob)));
  (* a wrong decomposition must be refuted, not certified *)
  let aig = p.Problem.aig in
  match
    Certify.equivalence_obligation p Gate.Or_gate ~fa:(Aig.input aig 0)
      ~fb:(Aig.input aig 2)
  with
  | exception Certify.Refuted _ -> ()
  | _ -> Alcotest.fail "bogus fA/fB not refuted"

let test_verify_rejects_wrong () =
  let p, part = planted_problem Gate.Or_gate 43 in
  let aig = p.Problem.aig in
  let bogus_fa = Aig.input aig 0 and bogus_fb = Aig.input aig 2 in
  Alcotest.(check bool) "bogus rejected" false
    (Verify.decomposition p Gate.Or_gate part ~fa:bogus_fa ~fb:bogus_fb)

let test_recursive_decomposition () =
  let m = Aig.create () in
  let x = Array.init 8 (fun _ -> Aig.fresh_input m) in
  let f =
    Aig.or_ m
      (Aig.and_ m (Aig.xor_ m x.(0) x.(1)) (Aig.or_ m x.(2) x.(3)))
      (Aig.and_ m (Aig.xor_ m x.(4) x.(5)) (Aig.or_ m x.(6) x.(7)))
  in
  let p = Problem.of_edge m f in
  let module R = Step_core.Recursive in
  let config = { R.default_config with R.stop_support = 2 } in
  let tree = R.decompose ~config p in
  let stats = R.stats_of m tree in
  Alcotest.(check bool) "has internal gates" true (stats.R.gates >= 1);
  Alcotest.(check bool) "leaf support bounded or indecomposable" true
    (stats.R.max_leaf_support <= 2);
  (* the tree must rebuild to an equivalent function *)
  let rebuilt = R.rebuild m tree in
  Alcotest.(check bool) "rebuild equivalent" true
    (Verify.equivalent p Gate.Or_gate ~fa:rebuilt ~fb:Aig.f);
  (* parity is decomposable only by XOR; tree should be XOR nodes *)
  let par = Problem.of_edge m (Aig.xor_list m (Array.to_list x)) in
  let ptree = R.decompose ~config par in
  let pstats = R.stats_of m ptree in
  Alcotest.(check bool) "parity tree nontrivial" true (pstats.R.gates >= 3);
  Alcotest.(check bool) "parity rebuild" true
    (Verify.equivalent par Gate.Or_gate ~fa:(R.rebuild m ptree) ~fb:Aig.f);
  let rec all_xor = function
    | R.Leaf _ -> true
    | R.Node (g, _, a, b) -> g = Gate.Xor_gate && all_xor a && all_xor b
  in
  Alcotest.(check bool) "parity uses xor nodes" true (all_xor ptree)

let test_qbf_export_roundtrip () =
  (* the exported negated model (9) must be FALSE exactly when a partition
     meeting the bound exists; checked against exhaustive enumeration *)
  let m = Aig.create () in
  let xs = Array.init 5 (fun _ -> Aig.fresh_input m) in
  let f =
    Aig.or_ m
      (Aig.and_ m xs.(0) xs.(1))
      (Aig.and_ m xs.(2) (Aig.xor_ m xs.(3) xs.(4)))
  in
  let p = Problem.of_edge m f in
  let feasible k =
    Exhaustive.all_decomposable p Gate.Or_gate
    |> List.exists (fun part -> Partition.disjointness_k part <= k)
  in
  List.iter
    (fun k ->
      let text = Step_core.Qbf_export.or_model ~k p in
      let q = Step_qbf.Qdimacs.parse_string text in
      let answer = Step_qbf.Qdimacs.solve q in
      match
        Step_core.Qbf_export.parse_answer
          ~expected_decomposable:(feasible k) answer
      with
      | Some ok -> Alcotest.(check bool) (Printf.sprintf "k=%d" k) true ok
      | None -> Alcotest.fail "QBF solver gave Unknown")
    [ 0; 1; 2; 3 ];
  (* balancedness and combined targets, loosest bound: feasibility =
     plain decomposability *)
  List.iter
    (fun target ->
      let text = Step_core.Qbf_export.or_model ~target p in
      let answer = Step_qbf.Qdimacs.solve (Step_qbf.Qdimacs.parse_string text) in
      match
        Step_core.Qbf_export.parse_answer ~expected_decomposable:true answer
      with
      | Some ok -> Alcotest.(check bool) "loosest bound" true ok
      | None -> Alcotest.fail "Unknown")
    [ Qbf_model.Balancedness; Qbf_model.Combined ]

let test_pipeline_small_circuit () =
  (* circuit with one decomposable and one non-decomposable PO *)
  let m = Aig.create () in
  let xs = Array.init 6 (fun _ -> Aig.fresh_input m) in
  let dec =
    Aig.or_ m (Aig.and_ m xs.(0) xs.(1)) (Aig.and_ m xs.(2) xs.(3))
  in
  (* parity is not OR-decomposable *)
  let par = Aig.xor_list m (Array.to_list xs) in
  let c = Circuit.make ~name:"toy" m [ ("dec", dec); ("par", par) ] in
  List.iter
    (fun method_ ->
      let config =
        Step_engine.Config.(
          default |> with_gate Gate.Or_gate |> with_method method_)
      in
      let r = Engine.run (Engine.create ~config c) in
      Alcotest.(check int)
        (Method.to_string method_ ^ " #Dec")
        1 r.Engine.n_decomposed;
      Array.iter
        (fun po ->
          match po.Engine.partition with
          | Some part ->
              let p = Problem.of_edge m (Circuit.find_output c po.Engine.po_name) in
              Alcotest.(check bool) "valid" true
                (Check.decomposable p Gate.Or_gate part)
          | None -> ())
        r.Engine.per_po)
    [ Method.Ljh; Method.Mg; Method.Qd; Method.Qb; Method.Qdb ]

(* ---------- property tests ---------- *)

let n_prop_vars = 5

let gen_problem_partition_gate_over n =
  let open QCheck2.Gen in
  let* e = gen_expr n in
  let* g = gen_gate in
  let p = problem_of_expr n e in
  if List.length p.Problem.support < 2 then
    let+ _ = pure () in
    None
  else
    let+ part = gen_partition_of p.Problem.support in
    Some (e, g, part)

let gen_problem_partition_gate = gen_problem_partition_gate_over n_prop_vars

(* 2 to 8 inputs on all three gates, the sizes fuzz --optimum draws *)
let prop_sat_check_matches_semantic =
  QCheck2.Test.make ~count:250 ~name:"Prop.1 SAT check matches truth table"
    ~print:(function
      | _, None -> "trivial support"
      | n, Some (e, g, part) ->
          Printf.sprintf "n=%d %s %s %s" n (pp_expr e) (Gate.to_string g)
            (Partition.to_string part))
    QCheck2.Gen.(
      let* n = int_range 2 8 in
      map (fun c -> (n, c)) (gen_problem_partition_gate_over n))
    (function
      | _, None -> true
      | n, Some (e, g, part) ->
          let p = problem_of_expr n e in
          Check.decomposable p g part = Check.decomposable_semantic p g part)

let prop_extract_verifies =
  QCheck2.Test.make ~count:120
    ~name:"extraction verified on decomposable partitions"
    ~print:(function
      | None -> "trivial"
      | Some (e, g, part) ->
          Printf.sprintf "%s %s %s" (pp_expr e) (Gate.to_string g)
            (Partition.to_string part))
    gen_problem_partition_gate (function
      | None -> true
      | Some (e, g, part) ->
          let p = problem_of_expr n_prop_vars e in
          if not (Check.decomposable p g part) then true
          else begin
            let q = Extract.run ~engine:Extract.Quantify p g part in
            let i = Extract.run ~engine:Extract.Interpolate p g part in
            Verify.decomposition p g part ~fa:q.Extract.fa ~fb:q.Extract.fb
            && Verify.decomposition p g part ~fa:i.Extract.fa ~fb:i.Extract.fb
          end)

let prop_mg_partitions_valid =
  QCheck2.Test.make ~count:100 ~name:"MG partitions are always valid"
    ~print:(fun (e, _) -> pp_expr e)
    QCheck2.Gen.(pair (gen_expr n_prop_vars) gen_gate)
    (fun (e, g) ->
      let p = problem_of_expr n_prop_vars e in
      if List.length p.Problem.support < 2 then true
      else
        match (Mg.find p g).Mg.partition with
        | None -> true
        | Some part ->
            (not (Partition.is_trivial part))
            && Check.decomposable p g part)

(* Every gate with every target: STEP-QD, QB and QDB against the
   truth-table optimum of the same objective. *)
let prop_qbf_optimal_vs_exhaustive =
  let targets =
    [
      ("QD", Qbf_model.Disjointness);
      ("QB", Qbf_model.Balancedness);
      ("QDB", Qbf_model.Combined);
    ]
  in
  QCheck2.Test.make ~count:150 ~name:"QBF optimum is exact"
    ~print:(fun (e, g, (name, _)) ->
      Printf.sprintf "%s, %s, %s" (pp_expr e) (Gate.to_string g) name)
    QCheck2.Gen.(triple (gen_expr n_prop_vars) gen_gate (oneofl targets))
    (fun (e, g, (_, target)) ->
      let p = problem_of_expr n_prop_vars e in
      if List.length p.Problem.support < 2 then true
      else begin
        let o = Qbf_model.optimize p g target in
        let objective = Qbf_model.target_k target in
        let ex = Exhaustive.best ~objective p g in
        match (o.Qbf_model.partition, ex) with
        | Some qp, Some ep ->
            o.Qbf_model.optimal
            && objective qp = objective ep
            && Check.decomposable p g qp
        | None, None -> true
        | Some _, None | None, Some _ -> false
      end)

let prop_recursive_rebuild_equivalent =
  QCheck2.Test.make ~count:40 ~name:"recursive trees rebuild equivalently"
    ~print:pp_expr (gen_expr 6) (fun e ->
      let p = problem_of_expr 6 e in
      let module R = Step_core.Recursive in
      let config =
        { R.default_config with R.stop_support = 2; method_ = Method.Mg }
      in
      let tree = R.decompose ~config p in
      let rebuilt = R.rebuild p.Problem.aig tree in
      Verify.equivalent p Gate.Or_gate ~fa:rebuilt ~fb:Aig.f)

(* ---------- method dispatch ---------- *)

(* Recursive reaches the solvers through the one method kernel,
   Method.run: QB and QDB must deliver their own target's optimum
   there, as checked against exhaustive search. *)
let dispatch_objective = function
  | Method.Qb -> Partition.balancedness_k
  | Method.Qdb -> fun part -> Partition.combined_k (Partition.canonical part)
  | m -> invalid_arg ("dispatch_objective: " ^ Method.to_string m)

(* seeded random cones over at most 6 inputs: planted and unstructured *)
let dispatch_cones gate =
  List.concat_map
    (fun seed ->
      let rand = Random.State.make [| seed |] in
      [
        fst (planted_problem gate seed);
        problem_of_expr 6 (QCheck2.Gen.generate1 ~rand (gen_expr 6));
      ])
    [ 5; 11; 37 ]
  |> List.filter (fun p -> Problem.n_vars p >= 2)

let check_dispatch ~consumer find =
  List.iter
    (fun gate ->
      List.iter
        (fun method_ ->
          List.iteri
            (fun k p ->
              let label =
                Printf.sprintf "%s %s %s cone %d" consumer
                  (Method.to_string method_) (Gate.to_string gate) k
              in
              let objective = dispatch_objective method_ in
              match (find method_ p gate, Exhaustive.best ~objective p gate) with
              | Some part, Some best ->
                  Alcotest.(check int) label (objective best) (objective part)
              | None, None -> ()
              | Some _, None -> Alcotest.fail (label ^ ": exhaustive found none")
              | None, Some _ -> Alcotest.fail (label ^ ": optimum missed"))
            (dispatch_cones gate))
        [ Method.Qb; Method.Qdb ])
    [ Gate.Or_gate; Gate.And_gate; Gate.Xor_gate ]

let test_dispatch_recursive_step () =
  let module R = Step_core.Recursive in
  check_dispatch ~consumer:"Recursive" (fun method_ p gate ->
      (* one step: the root split, its operands left as leaves *)
      let config =
        {
          R.default_config with
          R.method_;
          gates = [ gate ];
          stop_support = 1;
          max_depth = 1;
        }
      in
      match R.decompose ~config p with
      | R.Node (_, part, _, _) -> Some part
      | R.Leaf _ -> None)

(* ---------- simulation screen ---------- *)

let prop_sim_matches_eval =
  QCheck2.Test.make ~count:200 ~name:"compiled simulator = Aig.eval per lane"
    ~print:(fun (e, _) -> pp_expr e)
    QCheck2.Gen.(pair (gen_expr 6) (int_range 0 1_000_000))
    (fun (e, seed) ->
      let m = Aig.create () in
      let inputs = Array.init 6 (fun _ -> Aig.fresh_input m) in
      let f = build_aig m inputs e in
      let sim = Screen.compile m f ~inputs:(Array.init 6 Fun.id) in
      let st = Random.State.make [| seed |] in
      let words =
        Array.init 6 (fun _ ->
            (Random.State.bits st lsl 33)
            lor (Random.State.bits st lsl 3)
            lor Random.State.int st 8)
      in
      let out = Screen.run sim words in
      List.for_all
        (fun lane ->
          let env i = (words.(i) lsr lane) land 1 = 1 in
          Aig.eval m env f = ((out lsr lane) land 1 = 1))
        (List.init 63 Fun.id))

(* the gate condition at a tuple, by plain AIG evaluation *)
let tuple_violates (p : Problem.t) g (x, x1, x2) =
  let pos = Array.make (Aig.n_inputs p.Problem.aig) 0 in
  List.iteri (fun j i -> pos.(i) <- j) p.Problem.support;
  let f pt = Aig.eval p.Problem.aig (fun i -> pt.(pos.(i))) p.Problem.f in
  let x3 = Array.init (Array.length x) (fun j -> x.(j) <> x1.(j) <> x2.(j)) in
  match g with
  | Gate.Or_gate -> f x && (not (f x1)) && not (f x2)
  | Gate.And_gate -> (not (f x)) && f x1 && f x2
  | Gate.Xor_gate -> f x <> f x1 <> f x2 <> f x3

(* x' may differ from x only where [allowed_a], x'' only where
   [allowed_b] *)
let tuple_within (x, x1, x2) ~allowed_a ~allowed_b =
  let ok = ref true in
  Array.iteri
    (fun j xj ->
      if x1.(j) <> xj && not (allowed_a j) then ok := false;
      if x2.(j) <> xj && not (allowed_b j) then ok := false)
    x;
  !ok

(* XOR is decided on a four-point miter built by substitution. On random
   cones of at most 8 inputs and random side arrays (side 3 included) it
   must answer, with no side 3, as the truth table does on the partition.
   Every Sat answer's points must stay within the sides and, completed by
   a fourth point on the side-3 inputs, violate the four-point condition
   under Aig.eval. *)
let gen_xor_miter_case =
  let open QCheck2.Gen in
  let* n = int_range 2 8 in
  let* e = gen_expr n in
  let+ sides = array_size (pure n) (int_range 0 3) in
  (n, e, sides)

let prop_xor_miter_matches_table =
  QCheck2.Test.make ~count:300
    ~name:"XOR miter = truth table"
    ~print:(fun (n, e, sides) ->
      Printf.sprintf "n=%d %s sides=[%s]" n (pp_expr e)
        (String.concat ";" (Array.to_list (Array.map string_of_int sides))))
    gen_xor_miter_case
    (fun (n, e, sides) ->
      let p = problem_of_expr n e in
      let g = Gate.Xor_gate in
      let support = p.Problem.support in
      let side = Array.of_list (List.map (fun i -> sides.(i)) support) in
      (* α_i keeps i out of XA (sides 1, 2), β_i out of XB (sides 0, 2) *)
      let selectors c =
        List.concat_map
          (fun i ->
            match sides.(i) with
            | 0 -> [ Copies.beta_selector c i ]
            | 1 -> [ Copies.alpha_selector c i ]
            | 2 -> [ Copies.alpha_selector c i; Copies.beta_selector c i ]
            | _ -> [])
          support
      in
      let miter = Copies.create p g in
      let verdict = Copies.decide miter (selectors miter) in
      let unsat =
        match verdict with Step_mus.Mus.Unsat _ -> true | _ -> false
      in
      let semantic_ok =
        Array.mem 3 side
        ||
        let pick k = List.filter (fun i -> sides.(i) = k) support in
        unsat
        = Check.decomposable_semantic p g
            (Partition.make ~xa:(pick 0) ~xb:(pick 1) ~xc:(pick 2))
      in
      let points_ok () =
        let x, x1, x2 = Copies.model_points miter in
        let within =
          tuple_within (x, x1, x2)
            ~allowed_a:(fun j -> side.(j) = 0 || side.(j) = 3)
            ~allowed_b:(fun j -> side.(j) = 1 || side.(j) = 3)
        in
        (* the fourth point: x' on XA, x'' on XB, x on XC, free on side 3 *)
        let free =
          List.filter
            (fun j -> side.(j) = 3)
            (List.init (Array.length side) Fun.id)
        in
        let base =
          Array.mapi
            (fun j xj ->
              match side.(j) with 0 -> x1.(j) | 1 -> x2.(j) | _ -> xj)
            x
        in
        let pos = Array.make (Aig.n_inputs p.Problem.aig) 0 in
        List.iteri (fun j i -> pos.(i) <- j) support;
        let f pt =
          Aig.eval p.Problem.aig (fun i -> pt.(pos.(i))) p.Problem.f
        in
        let violated_by x3 = f x <> f x1 <> f x2 <> f x3 in
        let rec some_fourth pt = function
          | [] -> violated_by pt
          | j :: rest ->
              let flipped = Array.copy pt in
              flipped.(j) <- not pt.(j);
              some_fourth pt rest || some_fourth flipped rest
        in
        within && some_fourth base free
      in
      verdict <> Step_mus.Mus.Unknown
      && semantic_ok
      && (unsat || points_ok ()))

let prop_screen_clauses_backed =
  QCheck2.Test.make ~count:250
    ~name:"screen and shrink clauses are backed by violating tuples"
    ~print:(function
      | None -> "trivial support"
      | Some (e, g, part) ->
          Printf.sprintf "%s %s %s" (pp_expr e) (Gate.to_string g)
            (Partition.to_string part))
    gen_problem_partition_gate (function
      | None -> true
      | Some (e, g, part) ->
          let p = problem_of_expr n_prop_vars e in
          let support = Array.of_list p.Problem.support in
          let side =
            Array.map
              (fun i ->
                if List.mem i part.Partition.xa then 0
                else if List.mem i part.Partition.xb then 1
                else 2)
              support
          in
          let screen = Screen.create p g in
          (* a found or loaded tuple must violate, respect the candidate,
             and still violate after shrinking with only inputs reverted *)
          let shrunk_ok () =
            let t0 = Screen.tuple screen in
            let x0, a0, b0 = t0 in
            let within_candidate =
              tuple_within t0
                ~allowed_a:(fun j -> side.(j) = 0)
                ~allowed_b:(fun j -> side.(j) = 1)
            in
            ignore (Screen.shrink screen);
            let t1 = Screen.tuple screen in
            let base, _, _ = t1 in
            tuple_violates p g t0 && within_candidate
            && tuple_violates p g t1 && base = x0
            && tuple_within t1
                 ~allowed_a:(fun j -> a0.(j) <> x0.(j))
                 ~allowed_b:(fun j -> b0.(j) <> x0.(j))
          in
          let screened =
            (not (Screen.refute screen side)) || shrunk_ok ()
          in
          let copies = Copies.create p g in
          let from_sat =
            match Copies.check copies part with
            | Step_sat.Solver.Sat ->
                let x, x1, x2 = Copies.model_points copies in
                Screen.load screen ~x ~x1 ~x2 && shrunk_ok ()
            | Step_sat.Solver.Unsat ->
                (* a decomposable partition: the screen must not refute it *)
                not (Screen.refute screen side)
            | Step_sat.Solver.Unknown -> false
          in
          screened && from_sat)

(* ---------- pairwise sweep ---------- *)

(* Seeded planted cones, with their planted partitions, and random-DAG
   outputs. *)
let pair_cones () =
  let module G = Step_circuits.Generators in
  let planted =
    List.concat_map
      (fun gate ->
        List.map
          (fun seed ->
            let pl = G.planted_cone ~seed ~na:3 ~nb:3 ~nc:2 gate in
            (Problem.of_output pl.G.circuit 0, Some (gate, pl.G.truth)))
          [ 3; 17; 29 ])
      Gate.all
  in
  let dags =
    List.concat_map
      (fun seed ->
        let c = G.random_dag ~seed ~n_inputs:8 ~n_gates:40 ~n_outputs:3 in
        List.init (Circuit.n_outputs c) (fun k -> (Problem.of_output c k, None)))
      [ 1; 2; 5 ]
  in
  List.filter (fun (p, _) -> Problem.n_vars p >= 2) (planted @ dags)

(* Some x over [n] positions makes (x, x ⊕ e_i, x ⊕ e_j) violate. *)
let pair_witness p g n i j =
  let point mask flip =
    Array.init n (fun k -> (mask lsr k) land 1 = 1 <> List.mem k flip)
  in
  List.exists
    (fun mask ->
      tuple_violates p g (point mask [], point mask [ i ], point mask [ j ]))
    (List.init (1 lsl n) Fun.id)

let test_screen_pairs () =
  let total = ref 0 in
  List.iteri
    (fun k (p, planted) ->
      let n = Problem.n_vars p in
      let support = Array.of_list p.Problem.support in
      List.iter
        (fun g ->
          let label what =
            Printf.sprintf "%s cone %d (n=%d): %s" (Gate.to_string g) k n what
          in
          let screen = Screen.create p g in
          let found = ref [] in
          Screen.pairs screen (fun () ->
              let xa = ref [] and xb = ref [] in
              Screen.iter_diff screen
                ~xa:(fun j -> xa := j :: !xa)
                ~xb:(fun j -> xb := j :: !xb);
              let i, j =
                match (!xa, !xb) with
                | [ i ], [ j ] when i <> j -> (i, j)
                | _ -> Alcotest.fail (label "not one flip per copy")
              in
              let t = Screen.tuple screen in
              if not (tuple_violates p g t) then
                Alcotest.fail (label "reported tuple does not violate");
              Alcotest.(check int) (label "shrink reverts nothing") 0
                (Screen.shrink screen);
              if Screen.tuple screen <> t then
                Alcotest.fail (label "shrink changed a pair tuple");
              found := (i, j) :: !found);
          let found = !found in
          total := !total + List.length found;
          (* the graph [conflict] answers, asked first on a fresh screen,
             is symmetric and is exactly the set [pairs] reports *)
          let fresh = Screen.create p g in
          let graph = ref [] in
          for i = 0 to n - 1 do
            for j = 0 to n - 1 do
              if i <> j && Screen.conflict fresh i j then begin
                if not (Screen.conflict fresh j i) then
                  Alcotest.fail (label "conflict is not symmetric");
                graph := (i, j) :: !graph
              end
            done
          done;
          if List.sort compare !graph <> List.sort compare found then
            Alcotest.fail (label "conflict differs from the reported pairs");
          (* after MG's lookups on a shared scaffold, the scaffold's
             screen reports the same pairs in the same order *)
          let c = Copies.create p g in
          ignore (Mg.find ~copies:c p g);
          let after_mg = ref [] in
          Screen.pairs (Copies.screen c) (fun () ->
              let i = ref (-1) and j = ref (-1) in
              Screen.iter_diff (Copies.screen c)
                ~xa:(fun k -> i := k)
                ~xb:(fun k -> j := k);
              after_mg := (!i, !j) :: !after_mg);
          if !after_mg <> found then
            Alcotest.fail (label "pairs after MG differ from a fresh sweep");
          (* both orders of every pair, each once: the two clauses
             ¬α_i ∨ ¬β_j and ¬α_j ∨ ¬β_i *)
          Alcotest.(check int) (label "no pair reported twice")
            (List.length found)
            (List.length (List.sort_uniq compare found));
          List.iter
            (fun (i, j) ->
              if not (List.mem (j, i) found) then
                Alcotest.fail
                  (label (Printf.sprintf "(%d, %d) without (%d, %d)" i j j i)))
            found;
          (match planted with
          | Some (pg, truth) when pg = g ->
              let in_ xs j = List.mem support.(j) xs in
              List.iter
                (fun (i, j) ->
                  if in_ truth.Partition.xa i && in_ truth.Partition.xb j then
                    Alcotest.fail (label "pair crosses the planted XA and XB"))
                found
          | _ -> ());
          if n <= 8 then
            List.iter
              (fun (i, j) ->
                if not (pair_witness p g n i j) then
                  Alcotest.fail
                    (label (Printf.sprintf "(%d, %d) has no witness" i j)))
              found)
        Gate.all)
    (pair_cones ());
  Alcotest.(check bool) "some pairs reported" true (!total > 0)

(* Optimize adds exactly the clauses of the sweep (same seeded screen,
   and the sweep is its first use), before its first query and only if
   it makes one. *)
let test_qbf_pairs_seeded () =
  let pairs = Step_obs.Metrics.counter "qbf.pairs" in
  let added f =
    let before = Step_obs.Metrics.value pairs in
    let o = f () in
    (Step_obs.Metrics.value pairs - before, o)
  in
  let p, _ = planted_problem Gate.Or_gate 37 in
  let expected = ref 0 in
  let screen = Screen.create p Gate.Or_gate in
  Screen.pairs screen (fun () -> incr expected);
  let n, o =
    added (fun () -> Qbf_model.optimize p Gate.Or_gate Qbf_model.Disjointness)
  in
  Alcotest.(check bool) "the planted cone has pairs" true (!expected > 0);
  Alcotest.(check int) "one clause per reported pair" !expected n;
  Alcotest.(check bool) "still optimal" true o.Qbf_model.optimal;
  (* parity with an XC-free bootstrap is already at the floor: no query *)
  let m = Aig.create () in
  let xs = List.init 5 (fun _ -> Aig.fresh_input m) in
  let p = Problem.of_edge m (Aig.xor_list m xs) in
  let bootstrap = Partition.make ~xa:[ 0; 1 ] ~xb:[ 2; 3; 4 ] ~xc:[] in
  let n, o =
    added (fun () ->
        Qbf_model.optimize ~bootstrap p Gate.Xor_gate Qbf_model.Disjointness)
  in
  Alcotest.(check int) "no query, no sweep" 0 n;
  Alcotest.(check int) "no query" 0 o.Qbf_model.qbf_queries

(* A bound query is one abstraction solve: its refinements go into the
   running search through the model hook, so a planted OR cone that
   needs refinements opens exactly one sat.abstraction span per
   qbf.query span, under every target. *)
let test_qbf_one_solve_per_query () =
  let module G = Step_circuits.Generators in
  let pl = G.planted_cone ~seed:5 ~na:5 ~nb:5 ~nc:4 Gate.Or_gate in
  let p = Problem.of_output pl.G.circuit 0 in
  List.iter
    (fun target ->
      let queries = ref 0 and solves = ref 0 in
      let sink =
        Step_obs.Obs.callback_sink (fun r ->
            match r.Step_obs.Obs.r_name with
            | "qbf.query" -> incr queries
            | "sat.abstraction" -> incr solves
            | _ -> ())
      in
      let o =
        Step_obs.Obs.with_sink sink (fun () ->
            Qbf_model.optimize p Gate.Or_gate target)
      in
      Alcotest.(check bool) "refined" true (o.Qbf_model.refinements > 0);
      Alcotest.(check bool) "optimal" true o.Qbf_model.optimal;
      Alcotest.(check int) "queries counted" o.Qbf_model.qbf_queries !queries;
      Alcotest.(check int) "one abstraction solve per query" !queries !solves)
    [ Qbf_model.Disjointness; Qbf_model.Balancedness; Qbf_model.Combined ]

(* MG and the QBF search it bootstraps read one pair graph: the screen of
   their shared scaffold, whose every pair optimize seeds as two
   clauses. *)
let test_mg_qbf_share_screen () =
  let pairs = Step_obs.Metrics.counter "qbf.pairs" in
  let p, _ = planted_problem Gate.Or_gate 37 in
  let n = Problem.n_vars p in
  let c = Copies.create p Gate.Or_gate in
  ignore (Mg.find ~copies:c p Gate.Or_gate);
  let screen = Copies.screen c in
  let before = Step_obs.Metrics.value pairs in
  let o = Qbf_model.optimize ~copies:c p Gate.Or_gate Qbf_model.Disjointness in
  Alcotest.(check bool) "optimal" true o.Qbf_model.optimal;
  Alcotest.(check bool) "one screen" true (Copies.screen c == screen);
  let conflicts = ref 0 in
  for i = 0 to n - 2 do
    for j = i + 1 to n - 1 do
      if Screen.conflict screen i j then incr conflicts
    done
  done;
  Alcotest.(check bool) "the planted cone has conflicts" true (!conflicts > 0);
  Alcotest.(check int) "two clauses per conflict" (2 * !conflicts)
    (Step_obs.Metrics.value pairs - before)

(* A budget far below the MUS time bounds the MUS as well as the seed
   scan. The clock is a fake that advances 1 ms per read, so the run is
   deterministic. The budget is the smallest tenth of the unbudgeted run
   under which the scan still reaches its decomposable seed, so the MUS is
   what the deadline cuts short: the find must return within a few clock
   reads of it, with a partition that is still valid. *)
let test_mg_budget_bounds_mus () =
  let p = Problem.of_output (Step_circuits.Suite.by_name "C7552") 0 in
  let g = Gate.Xor_gate in
  let t = ref 0.0 in
  Step_obs.Clock.set_source (fun () ->
      t := !t +. 0.001;
      !t);
  Fun.protect ~finally:Step_obs.Clock.use_wall_clock (fun () ->
      let full = Mg.find p g in
      Alcotest.(check bool) "decomposable unbudgeted" true
        (full.Mg.partition <> None);
      let rec first_found k =
        if k > 5 then Alcotest.fail "no budget of at most half finds a seed"
        else
          let budget = full.Mg.cpu *. float_of_int k /. 10.0 in
          let r = Mg.find ~time_budget:budget p g in
          match r.Mg.partition with
          | Some part -> (budget, r, part)
          | None -> first_found (k + 1)
      in
      let budget, r, part = first_found 1 in
      if r.Mg.cpu > budget +. 0.05 then
        Alcotest.failf "returned %.3f fake s after a %.3f s budget" r.Mg.cpu
          budget;
      Alcotest.(check bool) "partition still valid" true
        (Check.decomposable p g part))

(* LJH's SAT checks run under its budget too. The problem is the OR of
   two 6x6-multiplier bit-5 cones on interleaved inputs, so LJH's first
   seed (the first two support inputs, one per cone) is decomposable and
   its check is a long search. The clock is a fake that advances 1 ms
   per read; the budget is half of what that check takes alone, so it
   expires mid-check: the find must return within a few clock reads of
   it, with no partition. *)
let test_ljh_budget_bounds_checks () =
  let mult = Step_circuits.Generators.multiplier 6 in
  let m = Aig.create () in
  let xs =
    Array.init (2 * Circuit.n_inputs mult) (fun _ -> Aig.fresh_input m)
  in
  let cone off =
    Aig.import m ~src:mult.Circuit.aig
      ~map_input:(fun i -> xs.((2 * i) + off))
      (Circuit.output mult 5)
  in
  let p = Problem.of_edge m (Aig.or_ m (cone 0) (cone 1)) in
  let g = Gate.Or_gate in
  let t = ref 0.0 in
  Step_obs.Clock.set_source (fun () ->
      t := !t +. 0.001;
      !t);
  Fun.protect ~finally:Step_obs.Clock.use_wall_clock (fun () ->
      let seed =
        match p.Problem.support with
        | u :: v :: rest -> Partition.make ~xa:[ u ] ~xb:[ v ] ~xc:rest
        | _ -> Alcotest.fail "support too small"
      in
      let t0 = Step_obs.Clock.now () in
      Alcotest.(check bool) "first seed decomposable" true
        (Copies.check (Copies.create p g) seed = Step_sat.Solver.Unsat);
      let first = Step_obs.Clock.elapsed_since t0 in
      if first < 0.01 then
        Alcotest.failf "first seed check took only %.3f fake s" first;
      let budget = first /. 2.0 in
      let r = Ljh.find ~time_budget:budget p g in
      if r.Ljh.cpu > budget +. 0.005 then
        Alcotest.failf "returned %.3f fake s after a %.3f s budget" r.Ljh.cpu
          budget;
      Alcotest.(check bool) "cut short in the first seed check" true
        (r.Ljh.partition = None))

(* LJH's closing fA/fB interpolation runs under its budget too. The
   clock is a fake that advances 1 ms per read. On outputs 0-5 of C7552
   under OR, each budget is a tenth of the unbudgeted run: the find must
   return within 5 clock reads of it, whether the deadline passes in the
   seed scan, in the growth or in the interpolation. *)
let test_ljh_budget_bounds_extraction () =
  let c = Step_circuits.Suite.by_name "C7552" in
  let g = Gate.Or_gate in
  let t = ref 0.0 in
  Step_obs.Clock.set_source (fun () ->
      t := !t +. 0.001;
      !t);
  Fun.protect ~finally:Step_obs.Clock.use_wall_clock (fun () ->
      for po = 0 to 5 do
        let p = Problem.of_output c po in
        let full = Ljh.find p g in
        let budget = full.Ljh.cpu /. 10.0 in
        let r = Ljh.find ~time_budget:budget p g in
        if r.Ljh.cpu > budget +. 0.005 then
          Alcotest.failf "po %d: returned %.3f fake s after a %.3f s budget"
            po r.Ljh.cpu budget
      done)

(* ---------- screened MG seed scan ---------- *)

(* Seeded planted cones (decomposable under their own gate, mostly not
   under the others) and random-DAG outputs. *)
let scan_cones () =
  let module G = Step_circuits.Generators in
  let planted =
    List.concat_map
      (fun gate ->
        List.map
          (fun seed ->
            (G.planted_cone ~seed ~na:3 ~nb:3 ~nc:2 gate).G.circuit)
          [ 3; 17 ])
      Gate.all
  in
  let dags =
    List.map
      (fun seed -> G.random_dag ~seed ~n_inputs:9 ~n_gates:40 ~n_outputs:3)
      [ 1; 2 ]
  in
  List.concat_map
    (fun c -> List.init (Circuit.n_outputs c) (Problem.of_output c))
    (planted @ dags)
  |> List.filter (fun p -> Problem.n_vars p >= 2)

(* The reference: the unscreened scan, one SAT call per seed in Mg's
   order and under its default seed limit. Alongside it, the pair graph
   Mg reads (a screen seeded from the gate and support size alone, so
   this replay sees the same words) is asked about each seed: a
   conflicting pair's seed must answer Sat. Returns (seeds tried, seeds
   refuted, found). *)
let reference_scan (p : Problem.t) g =
  let n = Problem.n_vars p in
  let limit = min (4 * n) (n * (n - 1) / 2) in
  let c = Copies.create p g in
  let screen = Screen.create p g in
  let pos = Hashtbl.create n in
  List.iteri (fun j i -> Hashtbl.replace pos i j) p.Problem.support;
  let refutes u v =
    Screen.conflict screen (Hashtbl.find pos u) (Hashtbl.find pos v)
  in
  let assumptions u v =
    List.concat_map
      (fun i ->
        (if i = u then [] else [ Copies.alpha_selector c i ])
        @ if i = v then [] else [ Copies.beta_selector c i ])
      p.Problem.support
  in
  let rec go tried refuted = function
    | [] -> (tried, refuted, false)
    | _ when tried >= limit -> (tried, refuted, false)
    | (u, v) :: rest -> (
        let r = refutes u v in
        match Copies.decide c (assumptions u v) with
        | Step_mus.Mus.Sat ->
            go (tried + 1) (if r then refuted + 1 else refuted) rest
        | Step_mus.Mus.Unsat _ ->
            if r then Alcotest.fail "a conflicting pair's seed answers Unsat";
            (tried + 1, refuted, true)
        | Step_mus.Mus.Unknown -> Alcotest.fail "reference scan: Unknown")
  in
  go 0 0 (Mg.seeds p)

let test_mg_screened_scan () =
  let indecomposable = ref 0 in
  List.iter
    (fun g ->
      List.iteri
        (fun k p ->
          let label what =
            Printf.sprintf "%s cone %d (n=%d): %s" (Gate.to_string g) k
              (Problem.n_vars p) what
          in
          let tried, refuted, found = reference_scan p g in
          let r = Mg.find p g in
          Alcotest.(check int) (label "seeds_tried") tried r.Mg.seeds_tried;
          Alcotest.(check bool) (label "found") found (r.Mg.partition <> None);
          Alcotest.(check int) (label "sat_calls") (tried - refuted)
            r.Mg.sat_calls;
          if not found then begin
            incr indecomposable;
            if r.Mg.sat_calls >= r.Mg.seeds_tried then
              Alcotest.fail (label "no seed screened")
          end)
        (scan_cones ()))
    Gate.all;
  Alcotest.(check bool) "some cones are indecomposable" true
    (!indecomposable > 0)

(* On a wide cone where no seed within MG's 4n limit decomposes, the
   scan learns the pairs its SAT counterexamples refute: it tries the
   reference's seeds and finds what the reference finds, with fewer SAT
   calls than the sampled pair graph alone leaves. *)
let test_mg_learns_pairs () =
  let p = Problem.of_output (Step_circuits.Suite.by_name "C7552") 4 in
  Alcotest.(check int) "support" 32 (Problem.n_vars p);
  List.iter
    (fun g ->
      let label what = Gate.to_string g ^ ": " ^ what in
      let tried, refuted, found = reference_scan p g in
      let r = Mg.find p g in
      Alcotest.(check int) (label "seeds_tried") tried r.Mg.seeds_tried;
      Alcotest.(check bool) (label "found") found (r.Mg.partition <> None);
      if r.Mg.sat_calls >= tried - refuted then
        Alcotest.fail
          (label
             (Printf.sprintf "%d sat calls, the sampled graph leaves %d"
                r.Mg.sat_calls (tried - refuted))))
    Gate.all

(* ---------- screened MG MUS ---------- *)

(* Whether the Copies scaffold has a counterexample when support position
   j is on [side.(j)]: 0 frees x' there, 1 frees x'', 2 frees nothing and
   3 frees every copy (for XOR also the fourth point), by enumerating the
   truth table. The base point's bits on side-3 inputs are as free as the
   copies', so each point is judged by the values f takes over every
   completion of those bits. *)
let scaffold_witness (p : Problem.t) g side =
  let n = Array.length side in
  let pos = Array.make (Aig.n_inputs p.Problem.aig) 0 in
  List.iteri (fun j i -> pos.(i) <- j) p.Problem.support;
  let tt =
    Array.init (1 lsl n) (fun m ->
        Aig.eval p.Problem.aig
          (fun i -> (m lsr pos.(i)) land 1 = 1)
          p.Problem.f)
  in
  let masks = List.init (1 lsl n) Fun.id in
  let mask s =
    let m = ref 0 in
    Array.iteri (fun j sj -> if sj = s then m := !m lor (1 lsl j)) side;
    !m
  in
  let subsets m = List.filter (fun s -> s land m = s) masks in
  let ma = mask 0 and mb = mask 1 and md = mask 3 in
  let completions = subsets md in
  let can v m = List.exists (fun d -> tt.(m lor d) = v) completions in
  let violates x a b =
    let x1 = x land lnot ma lor a and x2 = x land lnot mb lor b in
    let x3 = x land lnot (ma lor mb) lor a lor b in
    match g with
    | Gate.Or_gate -> can true x && can false x1 && can false x2
    | Gate.And_gate -> can false x && can true x1 && can true x2
    | Gate.Xor_gate ->
        let points = [ x; x1; x2; x3 ] in
        List.exists (fun m -> can true m && can false m) points
        || List.fold_left (fun acc m -> acc <> can true m) false points
  in
  List.exists
    (fun x ->
      x land md = 0
      && List.exists
           (fun a -> List.exists (violates x a) (subsets mb))
           (subsets ma))
    masks

(* The pairs an MG scan learns: every pair visible at the base point of
   each seed's SAT counterexample, harvested as Mg.find does, but from
   every seed and with no sampled pair skipped. *)
let learned_pairs c (p : Problem.t) =
  let n = Problem.n_vars p in
  let screen = Copies.screen c in
  let learned = Array.make_matrix n n false in
  let seed u v =
    Partition.make ~xa:[ u ] ~xb:[ v ]
      ~xc:(List.filter (fun i -> i <> u && i <> v) p.Problem.support)
  in
  List.iter
    (fun (u, v) ->
      if Copies.check c (seed u v) = Step_sat.Solver.Sat then begin
        let x, x1, x2 = Copies.model_points c in
        if not (Screen.load screen ~x ~x1 ~x2) then
          Alcotest.fail "a seed's counterexample does not violate";
        Screen.harvest screen ~known:(fun _ _ -> false) (fun () ->
            let i = ref (-1) and j = ref (-1) in
            Screen.iter_diff screen ~xa:(fun k -> i := k) ~xb:(fun l -> j := l);
            learned.(!i).(!j) <- true;
            learned.(!j).(!i) <- true)
      end)
    (Mg.seeds p);
  learned

(* Every true answer of MG's MUS hook, on random selector sets of the
   first seeds, has an exhaustive witness under the scaffold's semantics
   and a Sat answer from Copies.decide; some answers free an input on
   both copies. The hook reads the screen's sampled pairs, then, on its
   own, the pairs an MG scan learns from SAT counterexamples. *)
let test_mg_mus_hook () =
  let st = Random.State.make [| 23 |] in
  List.iter
    (fun g ->
      let refuted = ref 0 and doubly = ref 0 and learned = ref 0 in
      List.iteri
        (fun k (p, _) ->
          let c = Copies.create p g in
          let alpha = Copies.alpha_selector c
          and beta = Copies.beta_selector c in
          let seeds = List.filteri (fun s _ -> s < 3) (Mg.seeds p) in
          let pairs = learned_pairs c p in
          Array.iter (Array.iter (fun e -> if e then incr learned)) pairs;
          let knowns =
            [
              ("sampled", Screen.conflict (Copies.screen c));
              ("learned", fun i j -> pairs.(i).(j));
            ]
          in
          List.iter
            (fun ((u, v), (known_name, known)) ->
              let hook = Mg.mus_hook c p ~known ~u ~v in
              let label what =
                Printf.sprintf "%s cone %d seed (%d, %d), %s pairs: %s"
                  (Gate.to_string g) k u v known_name what
              in
              for _ = 1 to 25 do
                (* each selector of the other inputs kept with
                   probability 0, 1/4, 1/2 or 3/4 *)
                let keep = Random.State.int st 4 in
                let kept _ = Random.State.int st 4 < keep in
                (* per input, in support order: α kept, β kept *)
                let picks =
                  List.map
                    (fun i ->
                      if i = u then (i, false, true)
                      else if i = v then (i, true, false)
                      else (i, kept (), kept ()))
                    p.Problem.support
                in
                let sels =
                  List.concat_map
                    (fun (i, a, b) ->
                      if i = u || i = v then []
                      else
                        (if a then [ alpha i ] else [])
                        @ if b then [ beta i ] else [])
                    picks
                in
                if hook sels then begin
                  incr refuted;
                  let side =
                    Array.of_list
                      (List.map
                         (fun (_, a, b) ->
                           match (a, b) with
                           | false, true -> 0
                           | true, false -> 1
                           | true, true -> 2
                           | false, false -> 3)
                         picks)
                  in
                  if Array.mem 3 side then incr doubly;
                  if not (scaffold_witness p g side) then
                    Alcotest.fail (label "refutes a set with no witness");
                  let hard = [ beta u; alpha v ] in
                  match Copies.decide c (hard @ sels) with
                  | Step_mus.Mus.Sat -> ()
                  | Step_mus.Mus.Unsat _ | Step_mus.Mus.Unknown ->
                      Alcotest.fail (label "refutes an unsat set")
                end
              done)
            (List.concat_map
               (fun seed -> List.map (fun kn -> (seed, kn)) knowns)
               seeds))
        (List.filter (fun (p, _) -> Problem.n_vars p <= 8) (pair_cones ()));
      let check what n =
        Alcotest.(check bool) (Gate.to_string g ^ ": " ^ what) true (n > 0)
      in
      check "some sets refuted" !refuted;
      check "some with side 3" !doubly;
      check "some pairs learned" !learned)
    Gate.all

(* A side-3 refutation whose copies differ on one input is rejected by
   shrink and never banked: a screen that tried to shrink it answers
   every later candidate exactly as one that did not. *)
let test_side3_not_banked () =
  let rejected = ref 0 in
  let st = Random.State.make [| 31 |] in
  List.iter
    (fun (p, _) ->
      let n = Problem.n_vars p in
      List.iter
        (fun g ->
          let s1 = Screen.create p g and s2 = Screen.create p g in
          let side = Array.init n (fun _ -> Random.State.int st 4) in
          let r = Screen.refute s1 side in
          Alcotest.(check bool) "same answer" r (Screen.refute s2 side);
          let x, x1, x2 = Screen.tuple s1 in
          let both = ref false in
          Array.iteri
            (fun j xj -> if x1.(j) <> xj && x2.(j) <> xj then both := true)
            x;
          if r && !both then begin
            incr rejected;
            match Screen.shrink s1 with
            | exception Invalid_argument _ -> ()
            | _ -> Alcotest.fail "shrink accepted a side-3 tuple"
          end;
          for _ = 1 to 10 do
            let part = Array.init n (fun _ -> Random.State.int st 3) in
            let r1 = Screen.refute s1 part in
            if r1 <> Screen.refute s2 part then
              Alcotest.fail "a rejected tuple changed a later answer";
            if r1 && Screen.tuple s1 <> Screen.tuple s2 then
              Alcotest.fail "a rejected tuple changed a later tuple"
          done)
        Gate.all)
    (pair_cones ());
  Alcotest.(check bool) "some side-3 tuples rejected" true (!rejected > 0)

(* ---------- XOR disjointness as a vertex separator ---------- *)

(* The least |XC| of a separator by enumerating all 3^n side arrays
   with both sides non-empty, or None for a complete graph. *)
let brute_separator n adj =
  let side = Array.make n 0 in
  let best = ref None in
  let rec go j =
    if j = n then begin
      let has s = Array.exists (( = ) s) side in
      let crosses = ref false in
      for a = 0 to n - 1 do
        for b = 0 to n - 1 do
          if side.(a) = 0 && side.(b) = 1 && adj.(a).(b) then crosses := true
        done
      done;
      if has 0 && has 1 && not !crosses then begin
        let c = Array.fold_left (fun k s -> if s = 2 then k + 1 else k) 0 side in
        match !best with Some b when b <= c -> () | _ -> best := Some c
      end
    end
    else
      for s = 0 to 2 do
        side.(j) <- s;
        go (j + 1)
      done
  in
  go 0;
  !best

let random_graph st n density =
  let adj = Array.make_matrix n n false in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      if Random.State.float st 1.0 < density then begin
        adj.(i).(j) <- true;
        adj.(j).(i) <- true
      end
    done
  done;
  adj

(* On random graphs of up to 9 vertices, Even's search finds a separator
   of the brute-force minimum size, with no edge across and both sides
   non-empty; it finds none for a complete graph or under a cap the
   minimum does not beat. *)
let test_separator_vs_brute_force () =
  let st = Random.State.make [| 41 |] in
  for _ = 1 to 300 do
    let n = 1 + Random.State.int st 9 in
    let adj = random_graph st n (Random.State.float st 1.0) in
    let adjacent i j = adj.(i).(j) in
    let brute = brute_separator n adj in
    match (Separator.minimum n adjacent ~below:n, brute) with
    | None, None -> ()
    | None, Some b -> Alcotest.failf "n=%d: no separator, brute force %d" n b
    | Some _, None -> Alcotest.failf "n=%d: a separator where none exists" n
    | Some side, Some b ->
        let count s = Array.fold_left (fun k x -> if x = s then k + 1 else k) 0 side in
        Alcotest.(check int) "minimum size" b (count 2);
        Alcotest.(check bool) "XA non-empty" true (count 0 > 0);
        Alcotest.(check bool) "XB non-empty" true (count 1 > 0);
        Array.iteri
          (fun a sa ->
            Array.iteri
              (fun c sc ->
                if sa = 0 && sc = 1 && adj.(a).(c) then
                  Alcotest.failf "edge (%d, %d) joins XA to XB" a c)
              side)
          side;
        Alcotest.(check bool) "nothing beats the minimum" true
          (Separator.minimum n adjacent ~below:b = None)
  done;
  let complete = Array.init 6 (fun i -> Array.init 6 (fun j -> i <> j)) in
  Alcotest.(check bool) "complete graph" true
    (Separator.minimum 6 (fun i j -> complete.(i).(j)) ~below:6 = None)

(* Cones of up to 8 inputs: unstructured; a product of all inputs
   combined with an unstructured cone, whose pairs have few witness
   points, so the screen's sample can miss them; and planted as
   g(XA, XC) op h(XB, XC) for [gate]. *)
let gen_cone gate =
  let open QCheck2.Gen in
  let module G = Step_circuits.Generators in
  oneof
    [
      (let* n = int_range 2 8 in
       let+ e = gen_expr n in
       (pp_expr e, problem_of_expr n e));
      (let* n = int_range 5 8 in
       let* signs = list_size (pure n) bool in
       let* e = gen_expr n in
       let+ op = oneofl [ (fun a b -> And (a, b)); (fun a b -> Or (a, b));
                          (fun a b -> Xor (a, b)) ] in
       let lit i s = if s then Var i else Not (Var i) in
       let product =
         List.fold_left
           (fun acc (i, s) -> And (acc, lit i s))
           (lit 0 (List.hd signs))
           (List.tl (List.mapi (fun i s -> (i, s)) signs))
       in
       let e = op product e in
       (pp_expr e, problem_of_expr n e));
      (let* seed = int_range 0 1_000_000 in
       let* na = int_range 1 3 and* nb = int_range 1 3 in
       let+ nc = int_range 0 (8 - na - nb) in
       let pl = G.planted_cone ~seed ~na ~nb ~nc gate in
       ( Printf.sprintf "planted seed=%d %d/%d/%d" seed na nb nc,
         Problem.of_output pl.G.circuit 0 ));
    ]

(* STEP-QD on XOR, plain and bootstrapped from MG on a shared scaffold,
   reaches the enumerated optimum with a proof, and any partition it
   returns decomposes. *)
let prop_xor_separator_optimum =
  QCheck2.Test.make ~count:150 ~name:"XOR QD separator optimum is exact"
    ~print:fst (gen_cone Gate.Xor_gate) (fun (_, p) ->
      if Problem.n_vars p < 2 then true
      else begin
        let g = Gate.Xor_gate in
        let expected =
          Option.map Partition.disjointness_k (Exhaustive.best p g)
        in
        let exact (o : Qbf_model.outcome) =
          o.Qbf_model.optimal
          && Option.map Partition.disjointness_k o.Qbf_model.partition
             = expected
          &&
          match o.Qbf_model.partition with
          | Some q -> Check.decomposable_semantic p g q
          | None -> true
        in
        let copies = Copies.create p g in
        let bootstrap = (Mg.find ~copies p g).Mg.partition in
        exact (Qbf_model.optimize p g Qbf_model.Disjointness)
        && exact
             (Qbf_model.optimize ~copies ?bootstrap p g Qbf_model.Disjointness)
      end)

(* (z, z ⊕ e_i, z ⊕ e_j) violates under plain AIG evaluation, z over
   support positions: for XOR, D_i D_j f(z) = 1 *)
let visible (p : Problem.t) g z i j =
  let flip k = Array.mapi (fun m b -> b <> (m = k)) z in
  tuple_violates p g (z, flip i, flip j)

(* Every pair a search learns from a counterexample has a witness. A
   counterexample of a random partition has a base point z; on XOR it
   first walks down to a pair (i, j) across the partition that is
   visible at its own base point, D_i D_j f(z) = 1 under Aig.eval. The
   harvest at z reports exactly the pairs visible there, each with z as
   its witness, and leaves the tuple as it was. *)
let prop_learned_pairs_witnessed =
  QCheck2.Test.make ~count:150 ~name:"learned pairs are witnessed"
    ~print:(fun (((what, _), g), _) -> Gate.to_string g ^ " " ^ what)
    QCheck2.Gen.(
      pair
        (gen_gate >>= fun g -> map (fun c -> (c, g)) (gen_cone g))
        (int_range 0 1_000_000))
    (fun (((_, p), g), seed) ->
      let n = Problem.n_vars p in
      if n < 2 then true
      else begin
        let st = Random.State.make [| seed |] in
        let copies = Copies.create p g in
        let screen = Copies.screen copies in
        let ok = ref true in
        let expect b = if not b then ok := false in
        for _ = 1 to 8 do
          let part =
            QCheck2.Gen.generate1 ~rand:st (gen_partition_of p.Problem.support)
          in
          if Copies.check copies part = Step_sat.Solver.Sat then begin
            let x, x1, x2 = Copies.model_points copies in
            expect (Screen.load screen ~x ~x1 ~x2);
            if g = Gate.Xor_gate then begin
              let flips = ref 0 in
              Array.iteri
                (fun k xk ->
                  if x1.(k) <> xk then incr flips;
                  if x2.(k) <> xk then incr flips)
                x;
              expect (Screen.walk screen = !flips - 2);
              let z, z1, z2 = Screen.tuple screen in
              let pos = Array.of_list p.Problem.support in
              let i = ref (-1) and j = ref (-1) in
              Array.iteri
                (fun k zk ->
                  if z1.(k) <> zk then i := k;
                  if z2.(k) <> zk then j := k)
                z;
              expect (List.mem pos.(!i) part.Partition.xa);
              expect (List.mem pos.(!j) part.Partition.xb);
              expect (visible p g z !i !j)
            end;
            let before = Screen.tuple screen in
            let z, _, _ = before in
            let reported = ref [] in
            Screen.harvest screen ~known:(fun _ _ -> false) (fun () ->
                let w, w1, w2 = Screen.tuple screen in
                expect (w = z);
                let k = ref (-1) and l = ref (-1) in
                Screen.iter_diff screen
                  ~xa:(fun a -> k := a)
                  ~xb:(fun b -> l := b);
                expect (w1.(!k) <> z.(!k) && w2.(!l) <> z.(!l));
                reported := (!k, !l) :: !reported);
            expect (Screen.tuple screen = before);
            for k = 0 to n - 2 do
              for l = k + 1 to n - 1 do
                expect (List.mem (k, l) !reported = visible p g z k l)
              done
            done
          end
        done;
        !ok
      end)

(* LJH's seed scan and greedy growth, each candidate decided on f's
   truth table: the seed pairs in lexicographic order of the support,
   then each other variable into XA if possible, else into XB, else XC,
   with the variables not yet placed shared. *)
let ljh_reference (p : Problem.t) g =
  let decomposable = Check.decomposable_semantic p g in
  let calls = ref 0 in
  let decomposes xa xb =
    incr calls;
    let xc =
      List.filter
        (fun i -> not (List.mem i xa || List.mem i xb))
        p.Problem.support
    in
    decomposable (Partition.make ~xa ~xb ~xc)
  in
  let rec scan = function
    | [] -> None
    | u :: rest -> (
        match List.find_opt (fun v -> decomposes [ u ] [ v ]) rest with
        | Some v -> Some (u, v)
        | None -> scan rest)
  in
  let partition =
    Option.map
      (fun (u, v) ->
        let xa, xb, xc =
          List.fold_left
            (fun (xa, xb, xc) i ->
              if i = u || i = v then (xa, xb, xc)
              else if decomposes (i :: xa) xb then (i :: xa, xb, xc)
              else if decomposes xa (i :: xb) then (xa, i :: xb, xc)
              else (xa, xb, i :: xc))
            ([ u ], [ v ], []) p.Problem.support
        in
        Partition.make ~xa ~xb ~xc)
      (scan p.Problem.support)
  in
  (partition, !calls)

(* LJH decides every candidate on one scaffold under assumptions; its
   answer and its number of checks are those of the table-driven scan. *)
let prop_ljh_matches_reference =
  QCheck2.Test.make ~count:150 ~name:"LJH = table-driven LJH"
    ~print:(fun (g, (what, _)) -> Gate.to_string g ^ " " ^ what)
    QCheck2.Gen.(gen_gate >>= fun g -> map (fun c -> (g, c)) (gen_cone g))
    (fun (g, (_, p)) ->
      let r = Ljh.find p g in
      let partition, sat_calls = ljh_reference p g in
      let lists =
        Option.map (fun (q : Partition.t) ->
            (q.Partition.xa, q.Partition.xb, q.Partition.xc))
      in
      lists r.Ljh.partition = lists partition && r.Ljh.sat_calls = sat_calls)

(* LJH builds one scaffold per output, so the output's manager grows by
   one scaffold, not by one per candidate. *)
let test_ljh_manager_bounded () =
  List.iter
    (fun name ->
      let c = Step_circuits.Suite.by_name name in
      let p = Problem.of_output (Circuit.cone c 0) 0 in
      let before = Aig.n_nodes p.Problem.aig in
      let r = Ljh.find p Gate.Or_gate in
      let after = Aig.n_nodes p.Problem.aig in
      if r.Ljh.sat_calls < 100 then
        Alcotest.failf "%s: only %d checks" name r.Ljh.sat_calls;
      if after > 4 * before then
        Alcotest.failf "%s: manager grew from %d to %d nodes over %d checks"
          name before after r.Ljh.sat_calls)
    [ "C7552"; "s15850.1" ]

(* XOR QD runs no abstraction solve: each query is one separator and at
   most one sat.verify check, and the refinements it counts are edges. *)
let test_xor_qd_no_abstraction () =
  let module G = Step_circuits.Generators in
  let pl = G.planted_cone ~seed:5 ~na:4 ~nb:4 ~nc:3 Gate.Xor_gate in
  let p = Problem.of_output pl.G.circuit 0 in
  let spans = Hashtbl.create 8 in
  let sink =
    Step_obs.Obs.callback_sink (fun r ->
        let name = r.Step_obs.Obs.r_name in
        Hashtbl.replace spans name
          (1 + Option.value ~default:0 (Hashtbl.find_opt spans name)))
  in
  let o =
    Step_obs.Obs.with_sink sink (fun () ->
        Qbf_model.optimize p Gate.Xor_gate Qbf_model.Disjointness)
  in
  let count name = Option.value ~default:0 (Hashtbl.find_opt spans name) in
  Alcotest.(check bool) "optimal" true o.Qbf_model.optimal;
  Alcotest.(check int) "no abstraction solve" 0 (count "sat.abstraction");
  Alcotest.(check int) "queries counted" o.Qbf_model.qbf_queries
    (count "qbf.query");
  Alcotest.(check bool) "at most one check per query" true
    (count "sat.verify" <= count "qbf.query");
  Alcotest.(check int) "every check but the last refines"
    o.Qbf_model.refinements
    (count "sat.verify" - if o.Qbf_model.partition = None then 0 else 1)

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let () =
  Alcotest.run "step_core"
    [
      ( "partition",
        [
          Alcotest.test_case "metrics" `Quick test_partition_metrics;
          Alcotest.test_case "overlap rejected" `Quick
            test_partition_overlap_rejected;
        ] );
      ( "check",
        [
          Alcotest.test_case "planted decomposable" `Quick
            test_or_decomposable_planted;
          Alcotest.test_case "parity xor" `Quick
            test_xor_parity_fully_decomposable;
          Alcotest.test_case "exhaustive keeps equal-size swaps" `Quick
            test_exhaustive_equal_size_swaps;
          Alcotest.test_case "semantic check rejects 21 inputs" `Quick
            test_semantic_input_limit;
        ] );
      ( "methods",
        [
          Alcotest.test_case "mg planted" `Quick test_mg_finds_planted;
          Alcotest.test_case "ljh planted" `Quick test_ljh_finds_planted;
          Alcotest.test_case "qbf optimum = exhaustive" `Slow
            test_qbf_optimum_matches_exhaustive;
          Alcotest.test_case "qbf balancedness optimum" `Quick
            test_qbf_balancedness_optimum;
          Alcotest.test_case "qbf combined optimum" `Quick
            test_qbf_combined_optimum;
          Alcotest.test_case "strategies agree" `Quick test_strategies_agree;
          Alcotest.test_case "copies mismatch rejected" `Quick
            test_qbf_copies_mismatch_rejected;
          Alcotest.test_case "mg screened scan = unscreened" `Quick
            test_mg_screened_scan;
          Alcotest.test_case "mg learns refuted pairs" `Quick
            test_mg_learns_pairs;
          Alcotest.test_case "screen pairs" `Quick test_screen_pairs;
          Alcotest.test_case "qbf pairs seeded lazily" `Quick
            test_qbf_pairs_seeded;
          Alcotest.test_case "mg copies mismatch rejected" `Quick
            test_mg_copies_mismatch_rejected;
          Alcotest.test_case "bootstrap never worse" `Quick
            test_qbf_bootstrap_never_worse;
          Alcotest.test_case "qbf one abstraction solve per query" `Quick
            test_qbf_one_solve_per_query;
          Alcotest.test_case "mg and qbf share one screen" `Quick
            test_mg_qbf_share_screen;
          Alcotest.test_case "mg budget bounds the mus" `Quick
            test_mg_budget_bounds_mus;
          Alcotest.test_case "ljh budget bounds the checks" `Quick
            test_ljh_budget_bounds_checks;
          Alcotest.test_case "ljh budget bounds the extraction" `Quick
            test_ljh_budget_bounds_extraction;
          Alcotest.test_case "ljh manager stays bounded" `Quick
            test_ljh_manager_bounded;
          Alcotest.test_case "mg mus hook has witnesses" `Quick
            test_mg_mus_hook;
          Alcotest.test_case "side-3 tuple never banked" `Quick
            test_side3_not_banked;
          Alcotest.test_case "separator = brute force" `Quick
            test_separator_vs_brute_force;
          Alcotest.test_case "xor qd has no abstraction solve" `Quick
            test_xor_qd_no_abstraction;
        ] );
      ( "extract",
        [
          Alcotest.test_case "both engines on planted" `Quick
            test_extract_engines_planted;
          Alcotest.test_case "verify rejects wrong" `Quick
            test_verify_rejects_wrong;
          Alcotest.test_case "certified equivalence" `Quick
            test_certified_equivalence;
        ] );
      ( "pipeline",
        [
          Alcotest.test_case "small circuit" `Slow test_pipeline_small_circuit;
          Alcotest.test_case "recursive decomposition" `Quick
            test_recursive_decomposition;
          Alcotest.test_case "qbf export roundtrip" `Quick
            test_qbf_export_roundtrip;
        ] );
      ( "dispatch",
        [
          Alcotest.test_case "recursive step qb/qdb = exhaustive" `Quick
            test_dispatch_recursive_step;
        ] );
      qsuite "properties"
        [
          prop_sat_check_matches_semantic;
          prop_extract_verifies;
          prop_mg_partitions_valid;
          prop_qbf_optimal_vs_exhaustive;
          prop_sim_matches_eval;
          prop_screen_clauses_backed;
          prop_xor_miter_matches_table;
          prop_xor_separator_optimum;
          prop_learned_pairs_witnessed;
          prop_ljh_matches_reference;
          prop_recursive_rebuild_equivalent;
        ];
    ]
