module Solver = Step_sat.Solver
module Lit = Step_sat.Lit

type counter = { outputs : Lit.t array }

(* Totalizer tree: merge two sorted unary numbers [a] and [b] into [r]
   (|r| = |a| + |b|), with both implication directions:
     a_i ∧ b_j → r_{i+j}          ("at least" propagates up)
     ¬a_{i+1} ∧ ¬b_{j+1} → ¬r_{i+j+1}  ("at most" propagates up)
   Index convention: a_0 / b_0 / r_0 are implicit constants (true), and
   a_{p+1} / b_{q+1} are implicit false. *)
let rec build solver lits =
  match lits with
  | [] -> [||]
  | [ l ] -> [| l |]
  | _ ->
      let n = List.length lits in
      let rec split i acc = function
        | [] -> (List.rev acc, [])
        | x :: rest when i > 0 -> split (i - 1) (x :: acc) rest
        | rest -> (List.rev acc, rest)
      in
      let left, right = split (n / 2) [] lits in
      let a = build solver left in
      let b = build solver right in
      let p = Array.length a and q = Array.length b in
      let r = Array.init (p + q) (fun _ -> Lit.pos (Solver.new_var solver)) in
      for i = 0 to p do
        for j = 0 to q do
          let s = i + j in
          if s >= 1 then begin
            (* a_i ∧ b_j → r_s *)
            let c1 = ref [ r.(s - 1) ] in
            if i >= 1 then c1 := Lit.negate a.(i - 1) :: !c1;
            if j >= 1 then c1 := Lit.negate b.(j - 1) :: !c1;
            ignore (Solver.add_clause solver !c1)
          end;
          if s < p + q then begin
            (* ¬a_{i+1} ∧ ¬b_{j+1} → ¬r_{s+1} *)
            let c2 = ref [ Lit.negate r.(s) ] in
            if i < p then c2 := a.(i) :: !c2;
            if j < q then c2 := b.(j) :: !c2;
            ignore (Solver.add_clause solver !c2)
          end
        done
      done;
      r

let totalizer solver lits = { outputs = build solver lits }

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
