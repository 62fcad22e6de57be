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
    let c = Cardinality.totalizer s (Array.of_list lits) in
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
  let c = Cardinality.totalizer s (Array.of_list lits) in
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
      let c = Cardinality.totalizer s (Array.of_list lits) in
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
      let c = Cardinality.totalizer s (Array.of_list lits) in
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
      let left = Cardinality.totalizer s (Array.of_list ls) in
      let right = Cardinality.totalizer s (Array.of_list rs) in
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

(* ---------- the clause stream, against the reference encoders ---------- *)

(* The Tseitin encoder as it was written over a [Hashtbl] node map and
   list clauses. The encoder under test must allocate the same variables
   in the same order and add the same clauses in the same order, so that
   searches, cores and MG partitions over its CNF stay as they were. *)
module Ref_tseitin = struct
  type t = {
    solver : Solver.t;
    aig : Aig.t;
    node_var : (int, int) Hashtbl.t;
    mutable true_var : int;
  }

  let create solver aig =
    { solver; aig; node_var = Hashtbl.create 256; true_var = -1 }

  let add_clause enc lits = ignore (Solver.add_clause enc.solver lits)

  let true_lit enc =
    if enc.true_var < 0 then begin
      let v = Solver.new_var enc.solver in
      enc.true_var <- v;
      add_clause enc [ Lit.pos v ]
    end;
    Lit.pos enc.true_var

  let var_of_node enc id =
    match Hashtbl.find_opt enc.node_var id with
    | Some v -> v
    | None ->
        let v = Solver.new_var enc.solver in
        Hashtbl.replace enc.node_var id v;
        v

  let lit_of_input enc i =
    Lit.pos (var_of_node enc (Aig.node_of (Aig.input enc.aig i)))

  let bind_input enc i lit =
    Hashtbl.replace enc.node_var (Aig.node_of (Aig.input enc.aig i))
      (Lit.var lit)

  let encode_cone enc top =
    let aig = enc.aig in
    let is_done id =
      id = 0 || Aig.is_input_edge aig (2 * id) || Hashtbl.mem enc.node_var id
    in
    let sat_edge e =
      let n = Aig.node_of e in
      let base =
        if n = 0 then Lit.negate (true_lit enc)
        else Lit.pos (var_of_node enc n)
      in
      if Aig.is_complement e then Lit.negate base else base
    in
    let stack = ref [ top ] in
    while !stack <> [] do
      let id = List.hd !stack in
      if is_done id then stack := List.tl !stack
      else begin
        let f0, f1 = Aig.fanins aig id in
        let n0 = Aig.node_of f0 and n1 = Aig.node_of f1 in
        if is_done n0 && is_done n1 then begin
          stack := List.tl !stack;
          let a = sat_edge f0 in
          let b = sat_edge f1 in
          let v = Solver.new_var enc.solver in
          Hashtbl.replace enc.node_var id v;
          let n = Lit.pos v in
          add_clause enc [ Lit.negate n; a ];
          add_clause enc [ Lit.negate n; b ];
          add_clause enc [ n; Lit.negate a; Lit.negate b ]
        end
        else begin
          if not (is_done n0) then stack := n0 :: !stack;
          if not (is_done n1) then stack := n1 :: !stack
        end
      end
    done

  let lit_of enc e =
    let id = Aig.node_of e in
    let base =
      if id = 0 then Lit.negate (true_lit enc)
      else if Aig.is_input_edge enc.aig (2 * id) then
        Lit.pos (var_of_node enc id)
      else begin
        encode_cone enc id;
        Lit.pos (Hashtbl.find enc.node_var id)
      end
    in
    if Aig.is_complement e then Lit.negate base else base
end

(* The totalizer as it was written over lists. *)
let rec ref_totalizer solver lits =
  match lits with
  | [] -> [||]
  | [ l ] -> [| l |]
  | _ ->
      let n = List.length lits in
      let left = List.filteri (fun i _ -> i < n / 2) lits in
      let right = List.filteri (fun i _ -> i >= n / 2) lits in
      let a = ref_totalizer solver left in
      let b = ref_totalizer solver right in
      let p = Array.length a and q = Array.length b in
      let r = Array.init (p + q) (fun _ -> Lit.pos (Solver.new_var solver)) in
      for i = 0 to p do
        for j = 0 to q do
          let s = i + j in
          if s >= 1 then begin
            let c1 = ref [ r.(s - 1) ] in
            if i >= 1 then c1 := Lit.negate a.(i - 1) :: !c1;
            if j >= 1 then c1 := Lit.negate b.(j - 1) :: !c1;
            ignore (Solver.add_clause solver !c1)
          end;
          if s < p + q then begin
            let c2 = ref [ Lit.negate r.(s) ] in
            if i < p then c2 := a.(i) :: !c2;
            if j < q then c2 := b.(j) :: !c2;
            ignore (Solver.add_clause solver !c2)
          end
        done
      done;
      r

(* Same variable count and the same clauses, id by id. *)
let same_cnf s1 s2 =
  Solver.n_vars s1 = Solver.n_vars s2
  && Solver.n_clause_records s1 = Solver.n_clause_records s2
  && List.for_all
       (fun id -> Solver.clause_lits s1 id = Solver.clause_lits s2 id)
       (List.init (Solver.n_clause_records s1) Fun.id)

(* A random AIG as a list of steps over the edges made so far: new
   inputs (one, or a block of up to 300 so that node ids spread far
   apart), ANDs of earlier edges (complemented or not, constants among
   them, so strashing shares subgraphs), and requests to encode an edge,
   an input or to pin an unencoded input to a fresh variable. Every step
   goes to both encoders, so the manager grows between requests. *)
type aig_step =
  | New_input
  | New_inputs of int
  | New_and of int * bool * int * bool
  | Encode of int * bool
  | Encode_input of int
  | Bind of int

let gen_aig_steps =
  let open QCheck2.Gen in
  list_size (int_range 1 60)
    (frequency
       [
         (2, pure New_input);
         (1, map (fun k -> New_inputs k) (int_range 1 300));
         ( 6,
           map
             (fun (a, ca, b, cb) -> New_and (a, ca, b, cb))
             (quad nat bool nat bool) );
         (3, map2 (fun e c -> Encode (e, c)) nat bool);
         (1, map (fun i -> Encode_input i) nat);
         (1, map (fun i -> Bind i) nat);
       ])

let print_aig_step = function
  | New_input -> "in"
  | New_inputs k -> Printf.sprintf "in*%d" k
  | New_and (a, ca, b, cb) -> Printf.sprintf "and(%d%s,%d%s)" a
      (if ca then "'" else "") b (if cb then "'" else "")
  | Encode (e, c) -> Printf.sprintf "enc(%d%s)" e (if c then "'" else "")
  | Encode_input i -> Printf.sprintf "input(%d)" i
  | Bind i -> Printf.sprintf "bind(%d)" i

let prop_tseitin_stream =
  QCheck2.Test.make ~count:500 ~name:"Tseitin clause stream = reference"
    ~print:(fun steps -> String.concat " " (List.map print_aig_step steps))
    gen_aig_steps (fun steps ->
      let m = Aig.create () in
      let x0 = Aig.fresh_input m in
      (* the edges made so far; constants and the first input to start *)
      let edges = ref [| Aig.f; Aig.t_; x0 |] in
      let push e = edges := Array.append !edges [| e |] in
      let edge k c =
        let e = !edges.(k mod Array.length !edges) in
        if c then Aig.not_ e else e
      in
      let s1 = Solver.create () and s2 = Solver.create () in
      let enc = Tseitin.create ~solver:s1 m in
      let ref_enc = Ref_tseitin.create s2 m in
      let bound = Hashtbl.create 8 in
      List.for_all
        (fun step ->
          (match step with
          | New_input -> push (Aig.fresh_input m)
          | New_inputs k ->
              for _ = 1 to k do
                push (Aig.fresh_input m)
              done
          | New_and (a, ca, b, cb) -> push (Aig.and_ m (edge a ca) (edge b cb))
          | Encode _ | Encode_input _ | Bind _ -> ());
          let ok =
            match step with
            | New_input | New_inputs _ | New_and _ -> true
            | Encode (k, c) ->
                Tseitin.lit_of enc (edge k c)
                = Ref_tseitin.lit_of ref_enc (edge k c)
            | Encode_input i ->
                let i = i mod Aig.n_inputs m in
                Tseitin.lit_of_input enc i = Ref_tseitin.lit_of_input ref_enc i
            | Bind i ->
                (* only an input neither encoder has seen may be bound *)
                let i = i mod Aig.n_inputs m in
                let probe = Aig.node_of (Aig.input m i) in
                if Hashtbl.mem bound i || Hashtbl.mem ref_enc.node_var probe
                then true
                else begin
                  Hashtbl.replace bound i ();
                  let v1 = Lit.pos (Solver.new_var s1) in
                  let v2 = Lit.pos (Solver.new_var s2) in
                  Tseitin.bind_input enc i v1;
                  Ref_tseitin.bind_input ref_enc i v2;
                  v1 = v2
                end
          in
          ok && same_cnf s1 s2)
        steps)

let prop_totalizer_stream =
  let gen =
    let open QCheck2.Gen in
    let* n_vars = int_range 1 12 in
    let+ lits = list_size (int_range 0 24) (map2 Lit.of_var bool (int_range 0 (n_vars - 1))) in
    (n_vars, lits)
  in
  QCheck2.Test.make ~count:300 ~name:"totalizer clause stream = reference"
    ~print:(fun (n, lits) ->
      Printf.sprintf "vars=%d [%s]" n
        (String.concat " " (List.map Lit.to_string lits)))
    gen (fun (n_vars, lits) ->
      let s1 = Solver.create () and s2 = Solver.create () in
      Solver.ensure_var s1 (n_vars - 1);
      Solver.ensure_var s2 (n_vars - 1);
      let c = Cardinality.totalizer s1 (Array.of_list lits) in
      let r = ref_totalizer s2 lits in
      c.Cardinality.outputs = r && same_cnf s1 s2)

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
      qsuite "properties"
        [
          prop_tseitin_equisat;
          prop_totalizer_bounds;
          prop_tseitin_stream;
          prop_totalizer_stream;
        ];
    ]
