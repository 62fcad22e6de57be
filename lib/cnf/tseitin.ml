module Aig = Step_aig.Aig
module Solver = Step_sat.Solver
module Lit = Step_sat.Lit

type t = {
  solver : Solver.t;
  aig : Aig.t;
  mutable pages : int array array;
      (* AIG node id -> SAT var, -1 for none; an unwritten page is [||] *)
  mutable true_var : int; (* SAT var constrained to true, or -1 *)
  mutable sink : (int -> unit) option;
  buf : Lit.t array; (* one gate clause at a time *)
}

let create ?solver aig =
  let solver = match solver with Some s -> s | None -> Solver.create () in
  {
    solver;
    aig;
    pages = [||];
    true_var = -1;
    sink = None;
    buf = Array.make 3 0;
  }

let solver enc = enc.solver

let aig enc = enc.aig

let set_sink enc sink = enc.sink <- sink

let report enc id =
  match enc.sink with
  | Some f -> if id >= 0 then f id
  | None -> ()

let add_clause enc lits = report enc (Solver.add_clause enc.solver lits)

(* Adds the clause [enc.buf.(0 .. n-1)]. *)
let add_buf enc n = report enc (Solver.add_clause_array enc.solver enc.buf n)

let fresh enc = Lit.pos (Solver.new_var enc.solver)

let true_lit enc =
  if enc.true_var < 0 then begin
    let v = Solver.new_var enc.solver in
    enc.true_var <- v;
    enc.buf.(0) <- Lit.pos v;
    add_buf enc 1
  end;
  Lit.pos enc.true_var

(* The node map is an int array indexed by node id, in pages of [page]
   entries, each made on the first write to it. A flat array would cost
   one word per node of the manager, and a manager can be larger than
   the cone encoded in it: Problem.of_output on a whole circuit, as
   decompose --recursive and the tests use it, encodes one output's cone
   in the manager of every output (C7552's holds 351 AND nodes, its
   output 0's cone 59). Pages hold 128 entries so that they stay in the
   minor heap. *)
let page_bits = 7

let page = 1 lsl page_bits

let node_var enc id =
  let k = id lsr page_bits in
  if k >= Array.length enc.pages then -1
  else
    let p = Array.unsafe_get enc.pages k in
    if Array.length p = 0 then -1 else Array.unsafe_get p (id land (page - 1))

let set_node_var enc id v =
  let k = id lsr page_bits in
  let len = Array.length enc.pages in
  if k >= len then begin
    let pages = Array.make (max (2 * len) (k + 1)) [||] in
    Array.blit enc.pages 0 pages 0 len;
    enc.pages <- pages
  end;
  if Array.length enc.pages.(k) = 0 then enc.pages.(k) <- Array.make page (-1);
  enc.pages.(k).(id land (page - 1)) <- v

let var_of_node enc id =
  match node_var enc id with
  | -1 ->
      let v = Solver.new_var enc.solver in
      set_node_var enc id v;
      v
  | v -> v

let lit_of_input enc i =
  let id = Aig.node_of (Aig.input enc.aig i) in
  Lit.pos (var_of_node enc id)

let bind_input enc i lit =
  let id = Aig.node_of (Aig.input enc.aig i) in
  if node_var enc id >= 0 then
    invalid_arg "Tseitin.bind_input: input already encoded";
  if not (Lit.is_pos lit) then
    invalid_arg "Tseitin.bind_input: literal must be positive";
  set_node_var enc id (Lit.var lit)

(* Encodes every AND node in the cone of node [top] that has no SAT
   variable yet. Invariant: AND nodes receive their variable only here,
   together with their three gate clauses, so a variable in [node_var]
   means "fully encoded" for AND nodes. Inputs may have been pre-bound by
   [bind_input] and need no clauses. Iterative post-order: a node is
   popped once both fanins are done. *)
let encode_cone enc top =
  let aig = enc.aig in
  let is_done id =
    id = 0 || node_var enc id >= 0 || Aig.is_input_edge aig (2 * id)
  in
  let sat_edge e =
    let n = Aig.node_of e in
    let base =
      if n = 0 then Lit.negate (true_lit enc)
      else Lit.pos (var_of_node enc n)
    in
    if Aig.is_complement e then Lit.negate base else base
  in
  let stack = Step_util.Veci.create () in
  Step_util.Veci.push stack top;
  while Step_util.Veci.length stack > 0 do
    let id = Step_util.Veci.last stack in
    if is_done id then ignore (Step_util.Veci.pop stack)
    else begin
      let f0 = Aig.fanin0 aig id and f1 = Aig.fanin1 aig id in
      let n0 = Aig.node_of f0 and n1 = Aig.node_of f1 in
      if is_done n0 && is_done n1 then begin
        ignore (Step_util.Veci.pop stack);
        let a = sat_edge f0 in
        let b = sat_edge f1 in
        let v = Solver.new_var enc.solver in
        set_node_var enc id v;
        let n = Lit.pos v in
        let buf = enc.buf in
        buf.(0) <- Lit.negate n;
        buf.(1) <- a;
        add_buf enc 2;
        buf.(0) <- Lit.negate n;
        buf.(1) <- b;
        add_buf enc 2;
        buf.(0) <- n;
        buf.(1) <- Lit.negate a;
        buf.(2) <- Lit.negate b;
        add_buf enc 3
      end
      else begin
        if not (is_done n0) then Step_util.Veci.push stack n0;
        if not (is_done n1) then Step_util.Veci.push stack n1
      end
    end
  done

let lit_of enc e =
  let id = Aig.node_of e in
  let base =
    if id = 0 then Lit.negate (true_lit enc) (* node 0 is the false constant *)
    else if Aig.is_input_edge enc.aig (2 * id) then Lit.pos (var_of_node enc id)
    else begin
      encode_cone enc id;
      Lit.pos (node_var enc id)
    end
  in
  if Aig.is_complement e then Lit.negate base else base
