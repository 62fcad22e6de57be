module Aig = Step_aig.Aig
module Solver = Step_sat.Solver
module Lit = Step_sat.Lit
module Tseitin = Step_cnf.Tseitin
module Mus = Step_mus.Mus

(* The selector scaffold: the copies encoded once on the problem's AIG,
   their input literals by support position. *)
type scaffold = {
  enc : Tseitin.t;
  orig_lit : Lit.t array;
  copy1_lit : Lit.t array;
  copy2_lit : Lit.t array;
}

(* XOR's four-point miter: f's cone on a manager of its own, whose input
   j is support position j, imported four times per check. *)
type miter = {
  cone : Aig.t;
  root : Aig.lit;
  mutable last_unsat : int array; (* side array of the last Unsat *)
  mutable points : bool array * bool array * bool array; (* last Sat *)
}

(* OR and AND are decided on the scaffold, XOR on the miter *)
type form = Scaffold of scaffold | Miter of miter

type t = {
  problem : Problem.t;
  gate : Gate.t;
  sel_alpha : (int, Lit.t) Hashtbl.t;
  sel_beta : (int, Lit.t) Hashtbl.t;
  code : (Lit.t, int) Hashtbl.t; (* selector -> 2 * position + (0 α | 1 β) *)
  form : form;
  screen : Screen.t Lazy.t;
}

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

(* The selector encoding of OR and AND: both copies on the problem's AIG,
   one solver, and per input the two selectors with the equality each
   carries. The matrix is [phase f ∧ ¬phase f' ∧ ¬phase f''], with
   [phase] the identity for OR and negation for AND. *)
let build_scaffold enc (p : Problem.t) phase =
  let aig = p.Problem.aig in
  let support = p.Problem.support in
  let c1 = fresh_copy aig support "cpyA" in
  let c2 = fresh_copy aig support "cpyB" in
  let f1 = Aig.compose aig (substitution c1) p.Problem.f in
  let f2 = Aig.compose aig (substitution c2) p.Problem.f in
  let matrix =
    Aig.and_list aig
      [ phase p.Problem.f; Aig.not_ (phase f1); Aig.not_ (phase f2) ]
  in
  let solver = Tseitin.solver enc in
  ignore (Solver.add_clause solver [ Tseitin.lit_of enc matrix ]);
  let input_lit tbl i = Tseitin.lit_of enc (Hashtbl.find tbl i) in
  let n = List.length support in
  let orig_lit = Array.make n 0 in
  let copy1_lit = Array.make n 0 in
  let copy2_lit = Array.make n 0 in
  List.iteri
    (fun j i ->
      orig_lit.(j) <- Tseitin.lit_of_input enc i;
      copy1_lit.(j) <- input_lit c1 i;
      copy2_lit.(j) <- input_lit c2 i)
    support;
  (* sel → (x ≡ copy) *)
  let buf = Array.make 3 0 in
  let selectors copy_lit =
    Array.init n (fun j ->
        let sel = Tseitin.fresh enc in
        let a = orig_lit.(j) and b = copy_lit.(j) in
        buf.(0) <- Lit.negate sel;
        buf.(1) <- Lit.negate a;
        buf.(2) <- b;
        ignore (Solver.add_clause_array solver buf 3);
        buf.(0) <- Lit.negate sel;
        buf.(1) <- a;
        buf.(2) <- Lit.negate b;
        ignore (Solver.add_clause_array solver buf 3);
        sel)
  in
  (* β's selectors take the lower variables; the solver's decisions
     depend on the order *)
  let beta = selectors copy2_lit in
  let alpha = selectors copy1_lit in
  ({ enc; orig_lit; copy1_lit; copy2_lit }, alpha, beta)

(* f's cone alone, input j standing for support position j *)
let build_miter (p : Problem.t) =
  let cone = Aig.create () in
  let edge = Hashtbl.create 16 in
  List.iter
    (fun i -> Hashtbl.replace edge i (Aig.fresh_input cone))
    p.Problem.support;
  let root =
    Aig.import cone ~src:p.Problem.aig ~map_input:(Hashtbl.find edge)
      p.Problem.f
  in
  { cone; root; last_unsat = [||]; points = ([||], [||], [||]) }

(* A [t] whose OR/AND scaffold is encoded into [solver] (default a fresh
   plain one). XOR builds none: its selectors only name sides, so any
   distinct literals do. *)
let make ?solver (p : Problem.t) gate_ =
  let n = Problem.n_vars p in
  let scaffold phase =
    let enc = Tseitin.create ?solver p.Problem.aig in
    let s, alpha, beta = build_scaffold enc p phase in
    (Scaffold s, alpha, beta)
  in
  let form, alpha, beta =
    match gate_ with
    | Gate.Or_gate -> scaffold Fun.id
    | Gate.And_gate -> scaffold Aig.not_
    | Gate.Xor_gate ->
        ( Miter (build_miter p),
          Array.init n (fun j -> Lit.pos (2 * j)),
          Array.init n (fun j -> Lit.pos ((2 * j) + 1)) )
  in
  let sel_alpha = Hashtbl.create 16 and sel_beta = Hashtbl.create 16 in
  let code = Hashtbl.create (4 * n) in
  List.iteri
    (fun j i ->
      Hashtbl.replace sel_alpha i alpha.(j);
      Hashtbl.replace sel_beta i beta.(j);
      Hashtbl.replace code alpha.(j) (2 * j);
      Hashtbl.replace code beta.(j) ((2 * j) + 1))
    p.Problem.support;
  {
    problem = p;
    gate = gate_;
    sel_alpha;
    sel_beta;
    code;
    form;
    screen = lazy (Screen.create p gate_);
  }

let create p gate_ = make p gate_

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

let fill_sides c sels side =
  Array.fill side 0 (Array.length side) 3;
  List.iter
    (fun l ->
      let k = Hashtbl.find c.code l in
      let j = k / 2 in
      (* α pins copy 1: 3 -> 1, 0 -> 2; β pins copy 2: 3 -> 0, 1 -> 2 *)
      side.(j) <-
        (match (side.(j), k land 1) with
        | 3, 0 -> 1
        | 3, _ -> 0
        | 0, 0 | 1, 1 -> 2
        | s, _ -> s))
    sels

let sides c sels =
  let side = Array.make (Problem.n_vars c.problem) 3 in
  fill_sides c sels side;
  side

(* The four points by substitution: per support position, the inputs of
   a new manager that x, x', x'' and x''' read, and f's four copies on
   them. A pinned input is one input of all four, so the structural hash
   merges every node outside the fanout of the free ones. *)
let four_points m side =
  let aig = Aig.create () in
  let n = Array.length side in
  let pts = Array.make_matrix 4 n Aig.f in
  let set j a b c d =
    pts.(0).(j) <- a;
    pts.(1).(j) <- b;
    pts.(2).(j) <- c;
    pts.(3).(j) <- d
  in
  let fresh () = Aig.fresh_input aig in
  for j = 0 to n - 1 do
    let a = fresh () in
    match side.(j) with
    | 0 ->
        let a' = fresh () in
        set j a a' a a'
    | 1 ->
        let a'' = fresh () in
        set j a a a'' a''
    | 2 -> set j a a a a
    | _ ->
        let b = fresh () in
        let c = fresh () in
        set j a b c (fresh ())
  done;
  let point k =
    Aig.import aig ~src:m.cone ~map_input:(fun j -> pts.(k).(j)) m.root
  in
  (aig, pts, List.map point [ 0; 1; 2; 3 ])

let miter_check ?deadline m side =
  let aig, pts, points = four_points m side in
  let miter = Aig.xor_list aig points in
  if miter = Aig.f then Solver.Unsat
  else begin
    let enc = Tseitin.create aig in
    let s = Tseitin.solver enc in
    ignore (Solver.add_clause s [ Tseitin.lit_of enc miter ]);
    let r = Solver.solve ?deadline s in
    if r = Solver.Sat then begin
      (* an input outside the miter's cone reads false *)
      let read k =
        Array.map
          (fun e ->
            Solver.model_value s
              (Tseitin.lit_of_input enc (Aig.input_index aig e)))
          pts.(k)
      in
      m.points <- (read 0, read 1, read 2)
    end;
    r
  end

let decide ?deadline c sels =
  match c.form with
  | Miter m ->
      let side = sides c sels in
      if side = m.last_unsat then Mus.Unsat sels
      else begin
        match miter_check ?deadline m side with
        | Solver.Unsat ->
            m.last_unsat <- side;
            Mus.Unsat sels
        | Solver.Sat -> Mus.Sat
        | Solver.Unknown -> Mus.Unknown
      end
  | Scaffold sc -> Mus.solver_oracle ?deadline (Tseitin.solver sc.enc) sels

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
  match decide ?deadline c (assumptions c p) with
  | Mus.Sat -> Solver.Sat
  | Mus.Unsat _ -> Solver.Unsat
  | Mus.Unknown -> Solver.Unknown

let model_points c =
  match c.form with
  | Miter m -> m.points
  | Scaffold sc ->
      let s = Tseitin.solver sc.enc in
      let read lits = Array.map (Solver.model_value s) lits in
      (read sc.orig_lit, read sc.copy1_lit, read sc.copy2_lit)

(* OR/AND: a proof-logging scaffold with the partition's selectors as
   unit clauses. XOR: the four points of the partition's sides, their
   parity asserted as the eight clauses that each exclude one even
   assignment of the four point literals, so a miter that the structural
   hash folds to constant false still ships a CNF and its refutation. *)
let certificate (p : Problem.t) gate_ part =
  let solver = Solver.create ~proof:true () in
  let c = make ~solver p gate_ in
  let sels = assumptions c part in
  (match c.form with
  | Scaffold _ ->
      List.iter (fun l -> ignore (Solver.add_clause solver [ l ])) sels
  | Miter m ->
      let aig, _, points = four_points m (sides c sels) in
      let enc = Tseitin.create ~solver aig in
      let lits = Array.of_list (List.map (Tseitin.lit_of enc) points) in
      let buf = Array.make 4 0 in
      for v = 0 to 15 do
        let ones = ref 0 in
        for k = 0 to 3 do
          let bit = (v lsr k) land 1 = 1 in
          if bit then incr ones;
          buf.(k) <- (if bit then Lit.negate lits.(k) else lits.(k))
        done;
        if !ones land 1 = 0 then ignore (Solver.add_clause_array solver buf 4)
      done);
  solver
