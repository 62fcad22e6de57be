module Aig = Step_aig.Aig
module Solver = Step_sat.Solver
module Lit = Step_sat.Lit
module Tseitin = Step_cnf.Tseitin

type t = {
  problem : Problem.t;
  gate : Gate.t;
  enc : Tseitin.t;
  orig_lit : (int, Lit.t) Hashtbl.t; (* input idx -> SAT lit of x_i *)
  copy1_lit : (int, Lit.t) Hashtbl.t; (* -> SAT lit of x'_i *)
  copy2_lit : (int, Lit.t) Hashtbl.t; (* -> SAT lit of x''_i *)
  sel_alpha : (int, Lit.t) Hashtbl.t;
  sel_beta : (int, Lit.t) Hashtbl.t;
  screen : Screen.t Lazy.t;
}

let solver c = Tseitin.solver c.enc

let screen c = Lazy.force c.screen

(* fresh copy of the support inputs; returns idx -> substitution edge *)
let fresh_copy aig support tag =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun i ->
      let name = Printf.sprintf "%s_%d" tag i in
      Hashtbl.replace tbl i (Aig.fresh_input ~name aig))
    support;
  tbl

let substitution tbl i = Hashtbl.find_opt tbl i

let create ?(proof = false) (p : Problem.t) gate_ =
  let aig = p.Problem.aig in
  let support = p.Problem.support in
  let c1 = fresh_copy aig support "cpyA" in
  let c2 = fresh_copy aig support "cpyB" in
  let f1 = Aig.compose aig (substitution c1) p.Problem.f in
  let f2 = Aig.compose aig (substitution c2) p.Problem.f in
  let c3, matrix =
    match gate_ with
    | Gate.Or_gate ->
        (None, Aig.and_list aig [ p.Problem.f; Aig.not_ f1; Aig.not_ f2 ])
    | Gate.And_gate ->
        (None, Aig.and_list aig [ Aig.not_ p.Problem.f; f1; f2 ])
    | Gate.Xor_gate ->
        let c3 = fresh_copy aig support "cpyC" in
        let f3 = Aig.compose aig (substitution c3) p.Problem.f in
        (Some c3, Aig.xor_list aig [ p.Problem.f; f1; f2; f3 ])
  in
  let enc =
    if proof then Tseitin.create ~solver:(Solver.create ~proof:true ()) aig
    else Tseitin.create aig
  in
  let solver = Tseitin.solver enc in
  ignore (Solver.add_clause solver [ Tseitin.lit_of enc matrix ]);
  let input_lit tbl i = Tseitin.lit_of enc (Hashtbl.find tbl i) in
  let orig_lit = Hashtbl.create 16 in
  let copy1_lit = Hashtbl.create 16 in
  let copy2_lit = Hashtbl.create 16 in
  let copy3_lit = Hashtbl.create 16 in
  List.iter
    (fun i ->
      Hashtbl.replace orig_lit i (Tseitin.lit_of_input enc i);
      Hashtbl.replace copy1_lit i (input_lit c1 i);
      Hashtbl.replace copy2_lit i (input_lit c2 i);
      match c3 with
      | Some c3 -> Hashtbl.replace copy3_lit i (input_lit c3 i)
      | None -> ())
    support;
  (* sel → (a ≡ b) for each equality pair carried by the selector *)
  let equal_under sel a b =
    ignore (Solver.add_clause solver [ Lit.negate sel; Lit.negate a; b ]);
    ignore (Solver.add_clause solver [ Lit.negate sel; a; Lit.negate b ])
  in
  let mk_selectors pairs_of =
    let tbl = Hashtbl.create 16 in
    List.iter
      (fun i ->
        let s = Tseitin.fresh enc in
        List.iter (fun (a, b) -> equal_under s a b) (pairs_of i);
        Hashtbl.replace tbl i s)
      support;
    tbl
  in
  let x i = Hashtbl.find orig_lit i in
  let x1 i = Hashtbl.find copy1_lit i in
  let x2 i = Hashtbl.find copy2_lit i in
  let x3 i = Hashtbl.find copy3_lit i in
  let sel_alpha, sel_beta =
    match gate_ with
    | Gate.Or_gate | Gate.And_gate ->
        ( mk_selectors (fun i -> [ (x i, x1 i) ]),
          mk_selectors (fun i -> [ (x i, x2 i) ]) )
    | Gate.Xor_gate ->
        (* the fourth point reuses the primed values: pinning i outside XA
           forces x ≡ x' and x''' ≡ x''; outside XB forces x ≡ x'' and
           x''' ≡ x'; both together collapse all four points *)
        ( mk_selectors (fun i -> [ (x i, x1 i); (x3 i, x2 i) ]),
          mk_selectors (fun i -> [ (x i, x2 i); (x3 i, x1 i) ]) )
  in
  {
    problem = p;
    gate = gate_;
    enc;
    orig_lit;
    copy1_lit;
    copy2_lit;
    sel_alpha;
    sel_beta;
    screen = lazy (Screen.create p gate_);
  }

(* An assert would vanish under -noassert and let a mismatched scaffold
   check the wrong formula, so a mismatch is an Invalid_argument. *)
let resolve ~caller copies (p : Problem.t) g =
  match copies with
  | None -> create p g
  | Some c ->
      if c.problem != p then
        invalid_arg (caller ^ ": copies built for a different problem");
      if c.gate <> g then
        invalid_arg
          (Printf.sprintf "%s: copies built for gate %s, not %s" caller
             (Gate.to_string c.gate) (Gate.to_string g));
      c

let alpha_selector c i = Hashtbl.find c.sel_alpha i

let beta_selector c i = Hashtbl.find c.sel_beta i

let assumptions c (p : Partition.t) =
  let support = c.problem.Problem.support in
  let covered =
    List.sort_uniq compare (p.Partition.xa @ p.Partition.xb @ p.Partition.xc)
  in
  if covered <> support then
    invalid_arg "Copies.assumptions: partition does not match support";
  (* hash sets instead of List.mem per support variable: [assumptions]
     sits on the hot path of every Copies.check *)
  let set_of l =
    let s = Hashtbl.create (2 * List.length l + 1) in
    List.iter (fun i -> Hashtbl.replace s i ()) l;
    s
  in
  let in_xa = set_of p.Partition.xa and in_xb = set_of p.Partition.xb in
  let asm = ref [] in
  List.iter
    (fun i ->
      if not (Hashtbl.mem in_xa i) then
        asm := alpha_selector c i :: !asm;
      if not (Hashtbl.mem in_xb i) then
        asm := beta_selector c i :: !asm)
    support;
  !asm

let check ?deadline c p =
  Solver.solve ~assumptions:(assumptions c p) ?deadline (solver c)

let model_points c =
  let s = solver c in
  let read tbl =
    Array.of_list
      (List.map
         (fun i -> Solver.model_value s (Hashtbl.find tbl i))
         c.problem.Problem.support)
  in
  (read c.orig_lit, read c.copy1_lit, read c.copy2_lit)
