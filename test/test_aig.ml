(* AIG tests: hand cases plus property tests comparing AIG semantics with a
   direct Boolean-expression interpreter, and format round-trips. *)

module Aig = Step_aig.Aig
module Circuit = Step_aig.Circuit
module Blif = Step_aig.Blif
module Aag = Step_aig.Aag

(* ---------- random Boolean expressions ---------- *)

type expr =
  | Var of int
  | Const of bool
  | Not of expr
  | And of expr * expr
  | Or of expr * expr
  | Xor of expr * expr
  | Ite of expr * expr * expr

let rec eval_expr env = function
  | Var i -> env i
  | Const b -> b
  | Not e -> not (eval_expr env e)
  | And (a, b) -> eval_expr env a && eval_expr env b
  | Or (a, b) -> eval_expr env a || eval_expr env b
  | Xor (a, b) -> eval_expr env a <> eval_expr env b
  | Ite (c, a, b) -> if eval_expr env c then eval_expr env a else eval_expr env b

let rec build_aig m inputs = function
  | Var i -> inputs.(i)
  | Const b -> if b then Aig.t_ else Aig.f
  | Not e -> Aig.not_ (build_aig m inputs e)
  | And (a, b) -> Aig.and_ m (build_aig m inputs a) (build_aig m inputs b)
  | Or (a, b) -> Aig.or_ m (build_aig m inputs a) (build_aig m inputs b)
  | Xor (a, b) -> Aig.xor_ m (build_aig m inputs a) (build_aig m inputs b)
  | Ite (c, a, b) ->
      Aig.ite m (build_aig m inputs c) (build_aig m inputs a)
        (build_aig m inputs b)

let rec pp_expr = function
  | Var i -> Printf.sprintf "x%d" i
  | Const b -> string_of_bool b
  | Not e -> Printf.sprintf "!(%s)" (pp_expr e)
  | And (a, b) -> Printf.sprintf "(%s & %s)" (pp_expr a) (pp_expr b)
  | Or (a, b) -> Printf.sprintf "(%s | %s)" (pp_expr a) (pp_expr b)
  | Xor (a, b) -> Printf.sprintf "(%s ^ %s)" (pp_expr a) (pp_expr b)
  | Ite (c, a, b) ->
      Printf.sprintf "ite(%s,%s,%s)" (pp_expr c) (pp_expr a) (pp_expr b)

let gen_expr n_vars =
  let open QCheck2.Gen in
  sized_size (int_range 0 24) @@ fix (fun self n ->
      if n = 0 then
        oneof [ map (fun i -> Var i) (int_range 0 (n_vars - 1));
                map (fun b -> Const b) bool ]
      else
        oneof
          [
            map (fun i -> Var i) (int_range 0 (n_vars - 1));
            map (fun e -> Not e) (self (n - 1));
            map2 (fun a b -> And (a, b)) (self (n / 2)) (self (n / 2));
            map2 (fun a b -> Or (a, b)) (self (n / 2)) (self (n / 2));
            map2 (fun a b -> Xor (a, b)) (self (n / 2)) (self (n / 2));
            map3 (fun c a b -> Ite (c, a, b)) (self (n / 3)) (self (n / 3))
              (self (n / 3));
          ])

let n_test_vars = 5

let with_expr_aig e =
  let m = Aig.create () in
  let inputs = Array.init n_test_vars (fun _ -> Aig.fresh_input m) in
  let edge = build_aig m inputs e in
  (m, edge)

let env_of_mask mask i = (mask lsr i) land 1 = 1

let all_masks = List.init (1 lsl n_test_vars) Fun.id

(* ---------- unit tests ---------- *)

let test_constants () =
  let m = Aig.create () in
  let x = Aig.fresh_input m in
  Alcotest.(check int) "and false" Aig.f (Aig.and_ m x Aig.f);
  Alcotest.(check int) "and true" x (Aig.and_ m x Aig.t_);
  Alcotest.(check int) "x and x" x (Aig.and_ m x x);
  Alcotest.(check int) "x and !x" Aig.f (Aig.and_ m x (Aig.not_ x));
  Alcotest.(check int) "xor self" Aig.f (Aig.xor_ m x x);
  Alcotest.(check int) "xor not self" Aig.t_ (Aig.xor_ m x (Aig.not_ x))

let test_strashing () =
  let m = Aig.create () in
  let x = Aig.fresh_input m and y = Aig.fresh_input m in
  let a = Aig.and_ m x y in
  let b = Aig.and_ m y x in
  Alcotest.(check int) "commuted ands share" a b;
  let n = Aig.n_ands m in
  let _ = Aig.and_ m x y in
  Alcotest.(check int) "no duplicate" n (Aig.n_ands m)

let test_support () =
  let m = Aig.create () in
  let x = Aig.fresh_input m and y = Aig.fresh_input m in
  let z = Aig.fresh_input m in
  ignore z;
  let g = Aig.or_ m x (Aig.not_ y) in
  Alcotest.(check (list int)) "support" [ 0; 1 ] (Aig.support m g);
  Alcotest.(check (list int)) "const support" [] (Aig.support m Aig.t_)

let test_cofactor () =
  let m = Aig.create () in
  let x = Aig.fresh_input m and y = Aig.fresh_input m in
  let g = Aig.and_ m x y in
  Alcotest.(check int) "g|x=1 = y" y (Aig.cofactor m 0 true g);
  Alcotest.(check int) "g|x=0 = 0" Aig.f (Aig.cofactor m 0 false g)

let test_quantify () =
  let m = Aig.create () in
  let x = Aig.fresh_input m and y = Aig.fresh_input m in
  let g = Aig.and_ m x y in
  Alcotest.(check int) "exists x (x&y) = y" y (Aig.exists m [ 0 ] g);
  Alcotest.(check int) "forall x (x&y) = 0" Aig.f (Aig.forall m [ 0 ] g);
  let h = Aig.or_ m x y in
  Alcotest.(check int) "forall x (x|y) = y" y (Aig.forall m [ 0 ] h);
  Alcotest.(check int) "exists xy (x|y) = 1" Aig.t_ (Aig.exists m [ 0; 1 ] h)

let test_blowup_guard () =
  let m = Aig.create () in
  let xs = Array.init 8 (fun _ -> Aig.fresh_input m) in
  let g = Aig.xor_list m (Array.to_list xs) in
  match Aig.exists ~max_nodes:(Aig.n_nodes m + 2) m [ 0; 1; 2 ] g with
  | exception Aig.Blowup -> ()
  | _ -> Alcotest.fail "expected Blowup"

let test_import () =
  let src = Aig.create () in
  let x = Aig.fresh_input src and y = Aig.fresh_input src in
  let g = Aig.xor_ src x y in
  let dst = Aig.create () in
  let a = Aig.fresh_input dst and b = Aig.fresh_input dst in
  let g' = Aig.import dst ~src ~map_input:(fun i -> if i = 0 then a else b) g in
  (* behavioural check over all 4 assignments *)
  List.iter
    (fun mask ->
      let env = env_of_mask mask in
      Alcotest.(check bool)
        (Printf.sprintf "mask %d" mask)
        (Aig.eval src env g) (Aig.eval dst env g'))
    [ 0; 1; 2; 3 ]

let test_blif_roundtrip () =
  let text =
    ".model test\n.inputs a b c\n.outputs f g\n"
    ^ ".names a b t1\n11 1\n" ^ ".names t1 c f\n1- 1\n-1 1\n"
    ^ ".names a g\n0 1\n.end\n"
  in
  let c = Blif.parse_string text in
  Alcotest.(check int) "inputs" 3 (Circuit.n_inputs c);
  Alcotest.(check int) "outputs" 2 (Circuit.n_outputs c);
  (* f = (a&b) | c ; g = !a *)
  let aig = c.Circuit.aig in
  let f = Circuit.find_output c "f" in
  let g = Circuit.find_output c "g" in
  for mask = 0 to 7 do
    let env = env_of_mask mask in
    Alcotest.(check bool)
      (Printf.sprintf "f mask %d" mask)
      ((env 0 && env 1) || env 2)
      (Aig.eval aig env f);
    Alcotest.(check bool)
      (Printf.sprintf "g mask %d" mask)
      (not (env 0)) (Aig.eval aig env g)
  done;
  (* write and re-read *)
  let c2 = Blif.parse_string (Blif.to_string c) in
  let f2 = Circuit.find_output c2 "f" in
  for mask = 0 to 7 do
    let env = env_of_mask mask in
    Alcotest.(check bool)
      (Printf.sprintf "rt mask %d" mask)
      (Aig.eval aig env f)
      (Aig.eval c2.Circuit.aig env f2)
  done

let test_blif_latch_comb () =
  let text =
    ".model seq\n.inputs a\n.outputs o\n.latch d q 0\n"
    ^ ".names a q d\n11 1\n.names q o\n1 1\n.end\n"
  in
  let c = Blif.parse_string text in
  (* comb conversion: q becomes an input, d becomes output q$in *)
  Alcotest.(check int) "inputs" 2 (Circuit.n_inputs c);
  Alcotest.(check int) "outputs" 2 (Circuit.n_outputs c);
  let d = Circuit.find_output c "q$in" in
  let env mask i = env_of_mask mask i in
  for mask = 0 to 3 do
    Alcotest.(check bool)
      (Printf.sprintf "d mask %d" mask)
      (env mask 0 && env mask 1)
      (Aig.eval c.Circuit.aig (env mask) d)
  done

let test_blif_loop_detection () =
  let text = ".model bad\n.inputs a\n.outputs f\n.names f a f\n11 1\n.end\n" in
  match Blif.parse_string text with
  | exception Failure msg ->
      Alcotest.(check bool) "mentions loop" true
        (String.length msg > 0)
  | _ -> Alcotest.fail "expected failure on combinational loop"

let test_blif_constants () =
  let text = ".model k\n.inputs a\n.outputs one zero\n.names one\n1\n.names zero\n.end\n" in
  let c = Blif.parse_string text in
  Alcotest.(check int) "one" Aig.t_ (Circuit.find_output c "one");
  Alcotest.(check int) "zero" Aig.f (Circuit.find_output c "zero")

module Aig_bin = Step_aig.Aig_bin

let test_aig_bin_roundtrip () =
  let m = Aig.create () in
  let a = Aig.fresh_input ~name:"a" m and b = Aig.fresh_input ~name:"b" m in
  let c0 = Aig.fresh_input ~name:"c" m in
  let g = Aig.xor_ m (Aig.and_ m a b) (Aig.or_ m b c0) in
  let h = Aig.not_ (Aig.and_ m a c0) in
  let c = Circuit.make ~name:"t" m [ ("g", g); ("h", h) ] in
  let c2 = Aig_bin.parse_bytes (Aig_bin.to_bytes c) in
  Alcotest.(check int) "inputs" 3 (Circuit.n_inputs c2);
  Alcotest.(check string) "name preserved" "a"
    (Aig.input_name c2.Circuit.aig 0);
  let g2 = Circuit.find_output c2 "g" and h2 = Circuit.find_output c2 "h" in
  for mask = 0 to 7 do
    let env = env_of_mask mask in
    Alcotest.(check bool) "g" (Aig.eval m env g) (Aig.eval c2.Circuit.aig env g2);
    Alcotest.(check bool) "h" (Aig.eval m env h) (Aig.eval c2.Circuit.aig env h2)
  done

let prop_aig_bin_matches_aag =
  QCheck2.Test.make ~count:100 ~name:"binary and ascii AIGER agree"
    ~print:pp_expr (gen_expr n_test_vars) (fun e ->
      let m, edge = with_expr_aig e in
      let c = Circuit.make m [ ("f", edge) ] in
      let via_bin = Aig_bin.parse_bytes (Aig_bin.to_bytes c) in
      let via_aag = Aag.parse_string (Aag.to_string c) in
      let f1 = Circuit.find_output via_bin "f" in
      let f2 = Circuit.find_output via_aag "f" in
      List.for_all
        (fun mask ->
          let env = env_of_mask mask in
          Aig.eval via_bin.Circuit.aig env f1
          = Aig.eval via_aag.Circuit.aig env f2
          && Aig.eval via_bin.Circuit.aig env f1 = Aig.eval m env edge)
        all_masks)

let test_circuit_compact () =
  let m = Aig.create () in
  let a = Aig.fresh_input ~name:"a" m and b = Aig.fresh_input ~name:"b" m in
  let keep = Aig.xor_ m a b in
  (* garbage not in the output cone *)
  let _junk1 = Aig.fresh_input m in
  let junk2 = Aig.and_ m keep (Aig.fresh_input m) in
  let c = Circuit.make ~name:"t" m [ ("f", keep) ] in
  let c2 = Circuit.compact c in
  Alcotest.(check int) "only used inputs kept via names" 4 (Circuit.n_inputs c);
  Alcotest.(check bool) "fewer nodes" true
    (Aig.n_nodes c2.Circuit.aig < Aig.n_nodes c.Circuit.aig);
  Alcotest.(check string) "input name preserved" "a"
    (Aig.input_name c2.Circuit.aig 0);
  let f2 = Circuit.find_output c2 "f" in
  for mask = 0 to 3 do
    let env = env_of_mask mask in
    Alcotest.(check bool)
      (Printf.sprintf "mask %d" mask)
      (Aig.eval m env keep)
      (Aig.eval c2.Circuit.aig env f2)
  done;
  (* one output's cone alone: every input kept, no other output's node *)
  let both = Circuit.make ~name:"t" m [ ("g", junk2); ("f", keep) ] in
  let cone = Circuit.cone both 1 in
  Alcotest.(check int) "one output" 1 (Circuit.n_outputs cone);
  Alcotest.(check string) "its name" "f" (Circuit.output_name cone 0);
  Alcotest.(check int) "every input" 4 (Circuit.n_inputs cone);
  Alcotest.(check string) "input names kept" "b"
    (Aig.input_name cone.Circuit.aig 1);
  Alcotest.(check int) "the cone's nodes only" (Aig.n_ands c2.Circuit.aig)
    (Aig.n_ands cone.Circuit.aig);
  for mask = 0 to 3 do
    let env = env_of_mask mask in
    Alcotest.(check bool)
      (Printf.sprintf "cone mask %d" mask)
      (Aig.eval m env keep)
      (Aig.eval cone.Circuit.aig env (Circuit.output cone 0))
  done

let test_aag_roundtrip () =
  let m = Aig.create () in
  let a = Aig.fresh_input ~name:"a" m and b = Aig.fresh_input ~name:"b" m in
  let g = Aig.xor_ m a b and h = Aig.and_ m a (Aig.not_ b) in
  let c = Circuit.make ~name:"t" m [ ("g", g); ("h", h) ] in
  let c2 = Aag.parse_string (Aag.to_string c) in
  Alcotest.(check int) "inputs" 2 (Circuit.n_inputs c2);
  let g2 = Circuit.find_output c2 "g" and h2 = Circuit.find_output c2 "h" in
  for mask = 0 to 3 do
    let env = env_of_mask mask in
    Alcotest.(check bool) "g" (Aig.eval m env g) (Aig.eval c2.Circuit.aig env g2);
    Alcotest.(check bool) "h" (Aig.eval m env h) (Aig.eval c2.Circuit.aig env h2)
  done

(* ---------- truth tables ---------- *)

module Truth = Step_aig.Truth

let test_truth_basic () =
  let m = Aig.create () in
  let x = Aig.fresh_input m and y = Aig.fresh_input m in
  let t = Truth.of_edge m (Aig.and_ m x y) in
  Alcotest.(check int) "vars" 2 (Truth.n_vars t);
  Alcotest.(check string) "and = 8" "8" (Truth.to_hex t);
  Alcotest.(check int) "ones" 1 (Truth.count_ones t);
  let o = Truth.of_edge m (Aig.or_ m x y) in
  Alcotest.(check string) "or = e" "e" (Truth.to_hex o);
  Alcotest.(check bool) "not constant" true (Truth.is_constant t = None);
  let c = Truth.of_edge_on m ~vars:[ 0 ] Aig.t_ in
  Alcotest.(check bool) "constant true" true (Truth.is_constant c = Some true)

let test_truth_cofactor_depends () =
  let m = Aig.create () in
  let x = Aig.fresh_input m and y = Aig.fresh_input m in
  let t = Truth.of_edge m (Aig.xor_ m x y) in
  Alcotest.(check bool) "depends x" true (Truth.depends_on t 0);
  let t1 = Truth.cofactor t 0 true in
  Alcotest.(check bool) "cofactor kills dependence" false
    (Truth.depends_on t1 0);
  (* (x^y)|x=1 = !y : value at y=0 is 1 *)
  Alcotest.(check bool) "value" true (Truth.get t1 0)

let prop_truth_matches_eval =
  QCheck2.Test.make ~count:200 ~name:"truth table matches eval"
    ~print:pp_expr (gen_expr n_test_vars) (fun e ->
      let m, edge = with_expr_aig e in
      let support = Aig.support m edge in
      if support = [] then true
      else begin
        let t = Truth.of_edge m edge in
        let bit_of_mask mask =
          (* project the global mask onto the support positions *)
          List.fold_left
            (fun (acc, p) v ->
              ((if env_of_mask mask v then acc lor (1 lsl p) else acc), p + 1))
            (0, 0) support
          |> fst
        in
        List.for_all
          (fun mask ->
            Truth.get t (bit_of_mask mask) = Aig.eval m (env_of_mask mask) edge)
          all_masks
      end)

let prop_truth_seven_vars =
  (* exercise the multi-word path with a function of 7+ variables *)
  QCheck2.Test.make ~count:50 ~name:"multi-word truth tables"
    ~print:string_of_int
    QCheck2.Gen.(int_range 0 1000)
    (fun seed ->
      let st = Random.State.make [| seed |] in
      let m = Aig.create () in
      let xs = Array.init 8 (fun _ -> Aig.fresh_input m) in
      let leaf v = if Random.State.bool st then v else Aig.not_ v in
      let f =
        Array.fold_left
          (fun acc v ->
            match Random.State.int st 3 with
            | 0 -> Aig.and_ m acc (leaf v)
            | 1 -> Aig.or_ m acc (leaf v)
            | _ -> Aig.xor_ m acc (leaf v))
          (leaf xs.(0)) (Array.sub xs 1 7)
      in
      let t = Truth.of_edge_on m ~vars:(List.init 8 Fun.id) f in
      List.for_all
        (fun j ->
          Truth.get t j = Aig.eval m (fun i -> (j lsr i) land 1 = 1) f)
        (List.init 256 Fun.id))

(* ---------- property tests ---------- *)

let prop_eval_matches_interp =
  QCheck2.Test.make ~count:300 ~name:"aig eval matches interpreter"
    ~print:pp_expr (gen_expr n_test_vars) (fun e ->
      let m, edge = with_expr_aig e in
      List.for_all
        (fun mask ->
          let env = env_of_mask mask in
          Aig.eval m env edge = eval_expr env e)
        all_masks)

let prop_sim64_matches_eval =
  QCheck2.Test.make ~count:200 ~name:"sim64 matches eval" ~print:pp_expr
    (gen_expr n_test_vars) (fun e ->
      let m, edge = with_expr_aig e in
      (* pattern i carries masks 64k..64k+63; here a single word where bit j
         encodes assignment j *)
      let pat i =
        let w = ref 0L in
        for mask = 0 to 63 do
          if env_of_mask mask i then
            w := Int64.logor !w (Int64.shift_left 1L mask)
        done;
        !w
      in
      let v = Aig.sim64 m pat edge in
      List.for_all
        (fun mask ->
          mask >= 64
          || Int64.logand (Int64.shift_right_logical v mask) 1L
             = (if Aig.eval m (env_of_mask mask) edge then 1L else 0L))
        all_masks)

(* Differential test of the flat structural-hash table against a
   reference [Hashtbl] strash. Each op ANDs one of the last 8 edges with
   any earlier edge (inputs and results so far, either polarity), so the
   ops both hit the table and keep adding nodes. *)
module Ref_strash = struct
  type t = {
    keys : (int * int, int) Hashtbl.t;
    fanins : (int, int * int) Hashtbl.t;
    mutable next : int; (* the next node id *)
  }

  let create n_inputs =
    { keys = Hashtbl.create 16; fanins = Hashtbl.create 16; next = n_inputs + 1 }

  let and_ r a b =
    let a, b = if a <= b then (a, b) else (b, a) in
    if a = Aig.f then Aig.f
    else if a = Aig.t_ then b
    else if a = b then a
    else if a = Aig.not_ b then Aig.f
    else
      match Hashtbl.find_opt r.keys (a, b) with
      | Some id -> 2 * id
      | None ->
          let id = r.next in
          r.next <- id + 1;
          Hashtbl.replace r.keys (a, b) id;
          Hashtbl.replace r.fanins id (a, b);
          2 * id
end

let gen_and_ops =
  QCheck2.Gen.(
    list_size (int_range 300 700)
      (quad (int_bound 1_000_000) bool (int_bound 1_000_000) bool))

let prop_flat_strash_matches_hashtbl =
  QCheck2.Test.make ~count:60 ~name:"flat strash matches a Hashtbl strash"
    gen_and_ops (fun ops ->
      let n_inputs = 4 in
      let m = Aig.create () in
      let r = Ref_strash.create n_inputs in
      let pool = Array.make (n_inputs + List.length ops) 0 in
      for i = 0 to n_inputs - 1 do
        pool.(i) <- Aig.fresh_input m
      done;
      let pool_n = ref n_inputs in
      let push e =
        pool.(!pool_n) <- e;
        incr pool_n
      in
      let pick i c = (if c then Aig.not_ else Fun.id) pool.(i) in
      let ok = ref true in
      List.iter
        (fun (i, ci, j, cj) ->
          (* a recent edge against any edge: the cone keeps deepening *)
          let a = pick (!pool_n - 1 - (i mod min 8 !pool_n)) ci in
          let b = pick (j mod !pool_n) cj in
          let e = Aig.and_ m a b in
          if e <> Aig.and_ m b a || e <> Ref_strash.and_ r a b then ok := false;
          if not (Aig.is_const e) then push e)
        ops;
      (* every node the reference created exists with the same fanins *)
      Hashtbl.iter
        (fun id fanins -> if Aig.fanins m id <> fanins then ok := false)
        r.Ref_strash.fanins;
      (* a second pass over every recorded node only hits the table *)
      let before = Aig.n_nodes m in
      Hashtbl.iter
        (fun id (a, b) -> if Aig.and_ m b a <> 2 * id then ok := false)
        r.Ref_strash.fanins;
      (* more than 64 ANDs: the 16-slot table has doubled at least 4 times *)
      !ok
      && Aig.n_nodes m = r.Ref_strash.next
      && Aig.n_nodes m = before
      && Aig.n_ands m > 64)

let prop_cofactor_semantics =
  QCheck2.Test.make ~count:200 ~name:"cofactor fixes a variable"
    ~print:pp_expr (gen_expr n_test_vars) (fun e ->
      let m, edge = with_expr_aig e in
      let c1 = Aig.cofactor m 0 true edge in
      let c0 = Aig.cofactor m 0 false edge in
      List.for_all
        (fun mask ->
          let env = env_of_mask mask in
          let forced b i = if i = 0 then b else env i in
          Aig.eval m env c1 = Aig.eval m (forced true) edge
          && Aig.eval m env c0 = Aig.eval m (forced false) edge)
        all_masks)

let prop_quantify_semantics =
  QCheck2.Test.make ~count:150 ~name:"exists/forall semantics" ~print:pp_expr
    (gen_expr n_test_vars) (fun e ->
      let m, edge = with_expr_aig e in
      let ex = Aig.exists m [ 0; 2 ] edge in
      let fa = Aig.forall m [ 0; 2 ] edge in
      List.for_all
        (fun mask ->
          let env = env_of_mask mask in
          let variants =
            List.map
              (fun (b0, b2) ->
                Aig.eval m
                  (fun i -> if i = 0 then b0 else if i = 2 then b2 else env i)
                  edge)
              [ (false, false); (false, true); (true, false); (true, true) ]
          in
          Aig.eval m env ex = List.exists Fun.id variants
          && Aig.eval m env fa = List.for_all Fun.id variants)
        all_masks)

let prop_blif_roundtrip =
  QCheck2.Test.make ~count:100 ~name:"blif write/parse preserves semantics"
    ~print:pp_expr (gen_expr n_test_vars) (fun e ->
      let m, edge = with_expr_aig e in
      let c = Circuit.make m [ ("f", edge) ] in
      let c2 = Blif.parse_string (Blif.to_string c) in
      (* input order may map by name x0..x4 *)
      let f2 = Circuit.find_output c2 "f" in
      List.for_all
        (fun mask ->
          let env = env_of_mask mask in
          let env2 i =
            let name = Step_aig.Aig.input_name c2.Circuit.aig i in
            let orig = int_of_string (String.sub name 1 (String.length name - 1)) in
            env orig
          in
          Aig.eval m env edge = Aig.eval c2.Circuit.aig env2 f2)
        all_masks)

let prop_aag_roundtrip =
  QCheck2.Test.make ~count:100 ~name:"aag write/parse preserves semantics"
    ~print:pp_expr (gen_expr n_test_vars) (fun e ->
      let m, edge = with_expr_aig e in
      let c = Circuit.make m [ ("f", edge) ] in
      let c2 = Aag.parse_string (Aag.to_string c) in
      let f2 = Circuit.find_output c2 "f" in
      Circuit.n_inputs c2 = n_test_vars
      && List.for_all
           (fun mask ->
             let env = env_of_mask mask in
             Aig.eval m env edge = Aig.eval c2.Circuit.aig env f2)
           all_masks)

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

(* ---------- BLIF ---------- *)

let blif_ok =
  ".model m\n.inputs a b\n.outputs y\n.names a b y\n11 1\n.end\n"

let test_blif_clean () = check_clean "blif" (Blif.check blif_ok)

let test_blf001_undriven () =
  let d =
    Blif.check ".model m\n.inputs a\n.outputs y\n.names a b y\n11 1\n.end\n"
  in
  check_has "BLF001" d

let test_blf002_multiply_driven () =
  let d =
    Blif.check
      ".model m\n.inputs a b\n.outputs y\n.names a y\n1 1\n.names b y\n1 1\n.end\n"
  in
  check_has "BLF002" d

let test_blf003_duplicate_decl () =
  let d =
    Blif.check
      ".model m\n.inputs a a\n.outputs y\n.names a y\n1 1\n.end\n"
  in
  check_has "BLF003" d

let test_blif_continuation () =
  (* '\' line continuation must not hide drivers *)
  let d =
    Blif.check
      ".model m\n.inputs a \\\nb\n.outputs y\n.names a b y\n11 1\n.end\n"
  in
  check_clean "blif continuation" d

(* ---------- ASCII AIGER ---------- *)

let aag_ok = "aag 3 2 0 1 1\n2\n4\n6\n6 2 4\n"

let test_aag_clean () = check_clean "aag" (Aag.check aag_ok)

let test_aag001_bad_header () =
  check_has "AAG001" (Aag.check "aag x y\n")

let test_aag001_truncated () =
  check_has "AAG001" (Aag.check "aag 3 2 0 1 1\n2\n4\n")

let test_aag002_multiply_defined () =
  let d = Aag.check "aag 2 2 0 1 0\n2\n2\n2\n" in
  check_has "AAG002" d

let test_aag003_undefined_ref () =
  let d = Aag.check "aag 2 1 0 1 0\n2\n4\n" in
  check_has "AAG003" d

let test_aag003_out_of_range () =
  let d = Aag.check "aag 1 1 0 1 0\n2\n8\n" in
  check_has "AAG003" d

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let () =
  Alcotest.run "step_aig"
    [
      ( "aig",
        [
          Alcotest.test_case "constants" `Quick test_constants;
          Alcotest.test_case "strashing" `Quick test_strashing;
          Alcotest.test_case "support" `Quick test_support;
          Alcotest.test_case "cofactor" `Quick test_cofactor;
          Alcotest.test_case "quantify" `Quick test_quantify;
          Alcotest.test_case "blowup guard" `Quick test_blowup_guard;
          Alcotest.test_case "import" `Quick test_import;
        ] );
      ( "formats",
        [
          Alcotest.test_case "blif roundtrip" `Quick test_blif_roundtrip;
          Alcotest.test_case "blif latch comb" `Quick test_blif_latch_comb;
          Alcotest.test_case "blif loop detection" `Quick
            test_blif_loop_detection;
          Alcotest.test_case "blif constants" `Quick test_blif_constants;
          Alcotest.test_case "aag roundtrip" `Quick test_aag_roundtrip;
          Alcotest.test_case "binary aiger roundtrip" `Quick
            test_aig_bin_roundtrip;
          Alcotest.test_case "circuit compact" `Quick test_circuit_compact;
        ] );
      ( "blif",
        [
          Alcotest.test_case "clean" `Quick test_blif_clean;
          Alcotest.test_case "BLF001 undriven" `Quick test_blf001_undriven;
          Alcotest.test_case "BLF002 multiply driven" `Quick
            test_blf002_multiply_driven;
          Alcotest.test_case "BLF003 duplicate decl" `Quick
            test_blf003_duplicate_decl;
          Alcotest.test_case "continuation lines" `Quick test_blif_continuation;
        ] );
      ( "aag",
        [
          Alcotest.test_case "clean" `Quick test_aag_clean;
          Alcotest.test_case "AAG001 bad header" `Quick test_aag001_bad_header;
          Alcotest.test_case "AAG001 truncated" `Quick test_aag001_truncated;
          Alcotest.test_case "AAG002 multiply defined" `Quick
            test_aag002_multiply_defined;
          Alcotest.test_case "AAG003 undefined ref" `Quick
            test_aag003_undefined_ref;
          Alcotest.test_case "AAG003 out of range" `Quick
            test_aag003_out_of_range;
        ] );
      ( "truth",
        [
          Alcotest.test_case "basic" `Quick test_truth_basic;
          Alcotest.test_case "cofactor/depends" `Quick
            test_truth_cofactor_depends;
        ] );
      qsuite "properties"
        [
          prop_eval_matches_interp;
          prop_sim64_matches_eval;
          prop_flat_strash_matches_hashtbl;
          prop_cofactor_semantics;
          prop_quantify_semantics;
          prop_blif_roundtrip;
          prop_aag_roundtrip;
          prop_truth_matches_eval;
          prop_truth_seven_vars;
          prop_aig_bin_matches_aag;
        ];
    ]
