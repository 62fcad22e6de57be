module Aig = Step_aig.Aig

let decomposable p g partition =
  Copies.check (Copies.create p g) partition = Step_sat.Solver.Unsat

(* Truth-table reference. Assignments are bit masks over the support list
   (bit j = value of the j-th support variable). *)
let decomposable_semantic (p : Problem.t) g =
  let support = Array.of_list p.Problem.support in
  let n = Array.length support in
  assert (n <= 20);
  let pos = Hashtbl.create 16 in
  Array.iteri (fun j i -> Hashtbl.replace pos i j) support;
  let value mask i =
    match Hashtbl.find_opt pos i with
    | Some j -> (mask lsr j) land 1 = 1
    | None -> false
  in
  (* the truth table, once for every partition asked *)
  let table =
    Array.init (1 lsl n) (fun mask ->
        Aig.eval p.Problem.aig (value mask) p.Problem.f)
  in
  let eval mask = table.(mask) in
  fun (partition : Partition.t) ->
    let bits_of vars = List.map (fun i -> Hashtbl.find pos i) vars in
    let a_bits = bits_of partition.Partition.xa in
    let b_bits = bits_of partition.Partition.xb in
    (* enumerate sub-assignments of a set of bit positions applied to mask *)
    let sub_assignments bits mask =
      let base =
        List.fold_left (fun m j -> m land lnot (1 lsl j)) mask bits
      in
      let k = List.length bits in
      List.init (1 lsl k) (fun sel ->
          List.fold_left
            (fun (m, idx) j ->
              ( (if (sel lsr idx) land 1 = 1 then m lor (1 lsl j) else m),
                idx + 1 ))
            (base, 0) bits
          |> fst)
    in
    let clear bits mask =
      List.fold_left (fun m j -> m land lnot (1 lsl j)) mask bits
    in
    let fa, fb =
      match g with
      | Gate.Or_gate ->
          ( (fun mask -> List.for_all eval (sub_assignments b_bits mask)),
            fun mask -> List.for_all eval (sub_assignments a_bits mask) )
      | Gate.And_gate ->
          ( (fun mask -> List.exists eval (sub_assignments b_bits mask)),
            fun mask -> List.exists eval (sub_assignments a_bits mask) )
      | Gate.Xor_gate ->
          ( (fun mask -> eval (clear b_bits mask)),
            fun mask ->
              eval (clear a_bits mask)
              <> eval (clear a_bits (clear b_bits mask)) )
    in
    let ok = ref true in
    for mask = 0 to (1 lsl n) - 1 do
      if eval mask <> Gate.apply g (fa mask) (fb mask) then ok := false
    done;
    !ok
