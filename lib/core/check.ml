module Aig = Step_aig.Aig

let decomposable p g partition =
  Copies.check (Copies.create p g) partition = Step_sat.Solver.Unsat

(* Truth-table reference. Bit j of an assignment index is the value of
   the j-th support variable, so a block is a bit mask. Returns the
   input -> support position table and f's truth table. *)
let table ~caller (p : Problem.t) =
  let support = Array.of_list p.Problem.support in
  let n = Array.length support in
  if n > 20 then
    invalid_arg (Printf.sprintf "Check.%s: %d inputs, at most 20" caller n);
  let pos = Hashtbl.create 16 in
  Array.iteri (fun j i -> Hashtbl.replace pos i j) support;
  let f =
    Array.init (1 lsl n) (fun x ->
        Aig.eval p.Problem.aig
          (fun i ->
            match Hashtbl.find_opt pos i with
            | Some j -> (x lsr j) land 1 = 1
            | None -> false)
          p.Problem.f)
  in
  (pos, f)

let pair_graph p g =
  let _, f = table ~caller:"pair_graph" p in
  let n = Problem.n_vars p in
  let graph = Array.make_matrix n n false in
  (* (x, x ⊕ e_i, x ⊕ e_j) violates the gate condition *)
  let violates x ei ej =
    let fx = f.(x) and fi = f.(x lxor ei) and fj = f.(x lxor ej) in
    match g with
    | Gate.Or_gate -> fx && (not fi) && not fj
    | Gate.And_gate -> (not fx) && fi && fj
    | Gate.Xor_gate -> fx <> fi <> fj <> f.(x lxor ei lxor ej)
  in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      let ei = 1 lsl i and ej = 1 lsl j in
      let rec edge x =
        x < Array.length f && (violates x ei ej || edge (x + 1))
      in
      if edge 0 then begin
        graph.(i).(j) <- true;
        graph.(j).(i) <- true
      end
    done
  done;
  graph

let decomposable_semantic p g =
  (* the truth table, once for every partition asked *)
  let pos, f = table ~caller:"decomposable_semantic" p in
  let size = Array.length f in
  (* f quantified over the inputs of a mask, ∀ for OR and ∃ for AND: the
     table of the mask less its lowest bit, quantified over that bit *)
  let quantified = Hashtbl.create 64 in
  Hashtbl.replace quantified 0 f;
  let join = if g = Gate.And_gate then ( || ) else ( && ) in
  let rec quantify mask =
    match Hashtbl.find_opt quantified mask with
    | Some t -> t
    | None ->
        let bit = mask land (-mask) in
        let t = quantify (mask lxor bit) in
        let q =
          Array.init size (fun x -> join t.(x land lnot bit) t.(x lor bit))
        in
        Hashtbl.replace quantified mask q;
        q
  in
  let mask_of =
    List.fold_left (fun m i -> m lor (1 lsl Hashtbl.find pos i)) 0
  in
  fun (partition : Partition.t) ->
    let a = mask_of partition.Partition.xa
    and b = mask_of partition.Partition.xb in
    let holds =
      match g with
      | Gate.Or_gate | Gate.And_gate ->
          (* OR: f = ∀XB.f ∨ ∀XA.f; AND: f = ∃XB.f ∧ ∃XA.f *)
          let fa = quantify b and fb = quantify a in
          fun x -> f.(x) = Gate.apply g fa.(x) fb.(x)
      | Gate.Xor_gate ->
          (* the four-point condition, with XA and XB cleared *)
          fun x ->
            f.(x) = (f.(x land lnot b) <> f.(x land lnot a)
                     <> f.(x land lnot (a lor b)))
    in
    let rec all x = x >= size || (holds x && all (x + 1)) in
    all 0
