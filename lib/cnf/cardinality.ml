module Solver = Step_sat.Solver
module Lit = Step_sat.Lit

type counter = { outputs : Lit.t array }

(* Totalizer tree over [lits.(lo .. lo+n-1)], left half the first n/2:
   merge two sorted unary numbers [a] and [b] into [r] (|r| = |a| + |b|),
   with both implication directions:
     a_i ∧ b_j → r_{i+j}          ("at least" propagates up)
     ¬a_{i+1} ∧ ¬b_{j+1} → ¬r_{i+j+1}  ("at most" propagates up)
   Index convention: a_0 / b_0 / r_0 are implicit constants (true), and
   a_{p+1} / b_{q+1} are implicit false. Clauses are filled into [buf]. *)
let rec build solver buf lits lo n =
  if n = 0 then [||]
  else if n = 1 then [| lits.(lo) |]
  else begin
    let a = build solver buf lits lo (n / 2) in
    let b = build solver buf lits (lo + (n / 2)) (n - (n / 2)) in
    let p = Array.length a and q = Array.length b in
    let r = Array.init (p + q) (fun _ -> Lit.pos (Solver.new_var solver)) in
    let add k = ignore (Solver.add_clause_array solver buf k) in
    for i = 0 to p do
      for j = 0 to q do
        let s = i + j in
        if s >= 1 then begin
          (* a_i ∧ b_j → r_s *)
          buf.(0) <- r.(s - 1);
          let k = ref 1 in
          if i >= 1 then begin
            buf.(!k) <- Lit.negate a.(i - 1);
            incr k
          end;
          if j >= 1 then begin
            buf.(!k) <- Lit.negate b.(j - 1);
            incr k
          end;
          add !k
        end;
        if s < p + q then begin
          (* ¬a_{i+1} ∧ ¬b_{j+1} → ¬r_{s+1} *)
          buf.(0) <- Lit.negate r.(s);
          let k = ref 1 in
          if i < p then begin
            buf.(!k) <- a.(i);
            incr k
          end;
          if j < q then begin
            buf.(!k) <- b.(j);
            incr k
          end;
          add !k
        end
      done
    done;
    r
  end

let totalizer solver lits =
  { outputs = build solver (Array.make 3 0) lits 0 (Array.length lits) }

let size c = Array.length c.outputs

let at_most c k =
  if k < 0 then invalid_arg "Cardinality.at_most";
  if k >= size c then None else Some (Lit.negate c.outputs.(k))

let at_least c k =
  if k > size c then invalid_arg "Cardinality.at_least";
  if k <= 0 then None else Some c.outputs.(k - 1)

let add_at_least_one solver lits = ignore (Solver.add_clause solver lits)

let add_bound_difference solver ~left ~right ~k ~activator =
  if k < 0 then invalid_arg "Cardinality.add_bound_difference";
  let nl = size left and nr = size right in
  for j = 1 to min (nl - k) nr do
    match (at_least left (k + j), at_least right j) with
    | Some ol, Some or_ ->
        ignore
          (Solver.add_clause solver
             [ Lit.negate activator; Lit.negate ol; or_ ])
    | _, _ -> ()
  done;
  (* left counts beyond right's range plus k are outright forbidden *)
  if nl > nr + k then
    match at_least left (nr + k + 1) with
    | Some ol ->
        ignore
          (Solver.add_clause solver [ Lit.negate activator; Lit.negate ol ])
    | None -> ()
