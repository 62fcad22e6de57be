(* BDD package tests: semantics vs interpreter, canonicity, and the
   BDD-based bi-decomposition baseline vs the SAT-based paths. *)

module Aig = Step_aig.Aig
module Bdd = Step_bdd.Bdd
module Bidec = Step_bdd.Bidec
module Gate = Step_core.Gate
module Partition = Step_core.Partition
module Problem = Step_core.Problem
module Check = Step_core.Check
module Verify = Step_core.Verify

type expr =
  | Var of int
  | Not of expr
  | And of expr * expr
  | Or of expr * expr
  | Xor of expr * expr

let rec eval_expr env = function
  | Var i -> env i
  | Not e -> not (eval_expr env e)
  | And (a, b) -> eval_expr env a && eval_expr env b
  | Or (a, b) -> eval_expr env a || eval_expr env b
  | Xor (a, b) -> eval_expr env a <> eval_expr env b

let rec build_bdd man = function
  | Var i -> Bdd.var man i
  | Not e -> Bdd.not_ man (build_bdd man e)
  | And (a, b) -> Bdd.and_ man (build_bdd man a) (build_bdd man b)
  | Or (a, b) -> Bdd.or_ man (build_bdd man a) (build_bdd man b)
  | Xor (a, b) -> Bdd.xor_ man (build_bdd man a) (build_bdd man b)

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

let n_vars = 5

let gen_expr =
  let open QCheck2.Gen in
  sized_size (int_range 1 20) @@ fix (fun self n ->
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

let env_of_mask mask i = (mask lsr i) land 1 = 1

let all_masks = List.init (1 lsl n_vars) Fun.id

(* ---------- unit tests ---------- *)

let test_terminals () =
  let man = Bdd.create 2 in
  let x = Bdd.var man 0 in
  Alcotest.(check int) "x & !x" Bdd.zero (Bdd.and_ man x (Bdd.not_ man x));
  Alcotest.(check int) "x | !x" Bdd.one (Bdd.or_ man x (Bdd.not_ man x));
  Alcotest.(check int) "x ^ x" Bdd.zero (Bdd.xor_ man x x);
  Alcotest.(check int) "double negation" x (Bdd.not_ man (Bdd.not_ man x))

let test_canonicity () =
  let man = Bdd.create 3 in
  let x = Bdd.var man 0 and y = Bdd.var man 1 and z = Bdd.var man 2 in
  (* distributivity: x&(y|z) = (x&y)|(x&z) as handles *)
  let lhs = Bdd.and_ man x (Bdd.or_ man y z) in
  let rhs = Bdd.or_ man (Bdd.and_ man x y) (Bdd.and_ man x z) in
  Alcotest.(check int) "distributivity" lhs rhs;
  (* de morgan *)
  Alcotest.(check int) "de morgan"
    (Bdd.not_ man (Bdd.and_ man x y))
    (Bdd.or_ man (Bdd.not_ man x) (Bdd.not_ man y))

let test_quantification () =
  let man = Bdd.create 2 in
  let x = Bdd.var man 0 and y = Bdd.var man 1 in
  let f = Bdd.and_ man x y in
  Alcotest.(check int) "exists x (x&y) = y" y (Bdd.exists man [ 0 ] f);
  Alcotest.(check int) "forall x (x&y) = 0" Bdd.zero (Bdd.forall man [ 0 ] f);
  Alcotest.(check int) "exists all = 1" Bdd.one (Bdd.exists man [ 0; 1 ] f)

let test_support_and_count () =
  let man = Bdd.create 4 in
  let x = Bdd.var man 0 and z = Bdd.var man 2 in
  let f = Bdd.xor_ man x z in
  Alcotest.(check (list int)) "support" [ 0; 2 ] (Bdd.support man f);
  Alcotest.(check int) "node count" 3 (Bdd.node_count man f)

let test_blowup () =
  let man = Bdd.create ~max_nodes:8 6 in
  match
    List.fold_left
      (fun acc v -> Bdd.xor_ man acc (Bdd.var man v))
      Bdd.zero [ 0; 1; 2; 3; 4; 5 ]
  with
  | exception Bdd.Blowup -> ()
  | _ -> Alcotest.fail "expected Blowup"

let planted seed gate =
  let st = Random.State.make [| seed |] in
  let m = Aig.create () in
  let xs = Array.init 6 (fun _ -> Aig.fresh_input m) in
  let tree vars =
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
  let g = tree [ xs.(0); xs.(1); xs.(4) ] and h = tree [ xs.(2); xs.(3); xs.(5) ] in
  let f = Gate.edge m gate g h in
  ( Problem.of_edge m f,
    Partition.make ~xa:[ 0; 1 ] ~xb:[ 2; 3 ] ~xc:[ 4; 5 ] )

let test_bidec_decomposable () =
  List.iter
    (fun gate ->
      let p, part = planted 7 gate in
      Alcotest.(check (option bool))
        (Gate.to_string gate ^ " planted")
        (Some true)
        (Bidec.decomposable p gate part))
    Gate.all

let test_bidec_extract_verified () =
  List.iter
    (fun gate ->
      let p, part = planted 11 gate in
      match Bidec.extract p gate part with
      | None -> Alcotest.fail (Gate.to_string gate ^ ": extract failed")
      | Some (fa, fb) ->
          Alcotest.(check bool)
            (Gate.to_string gate ^ " verified")
            true
            (Verify.decomposition p gate part ~fa ~fb))
    Gate.all

(* ---------- property tests ---------- *)

let prop_bdd_matches_interp =
  QCheck2.Test.make ~count:300 ~name:"bdd eval matches interpreter"
    ~print:pp_expr gen_expr (fun e ->
      let man = Bdd.create n_vars in
      let f = build_bdd man e in
      List.for_all
        (fun mask ->
          Bdd.eval man (env_of_mask mask) f = eval_expr (env_of_mask mask) e)
        all_masks)

let prop_of_aig_matches =
  QCheck2.Test.make ~count:200 ~name:"of_aig matches aig eval" ~print:pp_expr
    gen_expr (fun e ->
      let m = Aig.create () in
      let inputs = Array.init n_vars (fun _ -> Aig.fresh_input m) in
      let edge = build_aig m inputs e in
      let man = Bdd.create n_vars in
      let f = Bdd.of_aig man m edge in
      List.for_all
        (fun mask ->
          Bdd.eval man (env_of_mask mask) f
          = Aig.eval m (env_of_mask mask) edge)
        all_masks)

let prop_canonical_equality =
  QCheck2.Test.make ~count:200
    ~name:"semantically equal functions share handles"
    ~print:(fun (a, b) -> pp_expr a ^ " vs " ^ pp_expr b)
    QCheck2.Gen.(pair gen_expr gen_expr)
    (fun (e1, e2) ->
      let man = Bdd.create n_vars in
      let f1 = build_bdd man e1 and f2 = build_bdd man e2 in
      let equal_sem =
        List.for_all
          (fun mask ->
            eval_expr (env_of_mask mask) e1 = eval_expr (env_of_mask mask) e2)
          all_masks
      in
      (f1 = f2) = equal_sem)

let prop_bidec_matches_sat_check =
  let gen =
    let open QCheck2.Gen in
    let* e = gen_expr in
    let* g = oneofl Gate.all in
    let+ sorts = list_size (pure n_vars) (int_range 0 2) in
    (e, g, sorts)
  in
  QCheck2.Test.make ~count:150 ~name:"bdd check matches sat check"
    ~print:(fun (e, g, _) -> pp_expr e ^ " " ^ Gate.to_string g)
    gen
    (fun (e, g, sorts) ->
      let m = Aig.create () in
      let inputs = Array.init n_vars (fun _ -> Aig.fresh_input m) in
      let edge = build_aig m inputs e in
      let p = Problem.of_edge m edge in
      if List.length p.Problem.support < 2 then true
      else begin
        let cells = List.mapi (fun i s -> (i, s)) sorts in
        let members k =
          List.filter_map
            (fun (i, s) ->
              if s = k && List.mem i p.Problem.support then Some i else None)
            cells
        in
        let xa = members 0 and xb = members 1 in
        let xc =
          List.filter
            (fun i -> not (List.mem i xa || List.mem i xb))
            p.Problem.support
        in
        if xa = [] || xb = [] then true
        else begin
          let part = Partition.make ~xa ~xb ~xc in
          Bidec.decomposable p g part = Some (Check.decomposable p g part)
        end
      end)

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let () =
  Alcotest.run "step_bdd"
    [
      ( "bdd",
        [
          Alcotest.test_case "terminals" `Quick test_terminals;
          Alcotest.test_case "canonicity" `Quick test_canonicity;
          Alcotest.test_case "quantification" `Quick test_quantification;
          Alcotest.test_case "support/count" `Quick test_support_and_count;
          Alcotest.test_case "blowup" `Quick test_blowup;
        ] );
      ( "bidec",
        [
          Alcotest.test_case "planted decomposable" `Quick
            test_bidec_decomposable;
          Alcotest.test_case "extract verified" `Quick
            test_bidec_extract_verified;
        ] );
      qsuite "properties"
        [
          prop_bdd_matches_interp;
          prop_of_aig_matches;
          prop_canonical_equality;
          prop_bidec_matches_sat_check;
        ];
    ]
