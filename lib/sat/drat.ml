exception No_proof of string

let export_string solver =
  if not (Solver.proof_logging solver) then
    raise (No_proof "proof logging is off (create the solver with ~proof:true)");
  if not (Solver.has_refutation solver) then
    raise
      (No_proof
         "no refutation recorded (last answer was not an assumption-free \
          Unsat)");
  let steps, _empty = Solver.proof_of_unsat solver in
  let buf = Buffer.create 1024 in
  let line prefix lits =
    Buffer.add_string buf prefix;
    Array.iter (fun l -> Buffer.add_string buf (Lit.to_string l ^ " ")) lits;
    Buffer.add_string buf "0\n"
  in
  (* Deletions are logged as (clause id, chain position): the clause was
     dropped after the first [position] learnt chains existed, so its [d]
     line must appear just before the chain at that index. *)
  let dels = ref (Solver.proof_deletions solver) in
  let flush_dels upto =
    let continue = ref true in
    while !continue do
      match !dels with
      | (id, pos) :: rest when pos <= upto ->
          line "d " (Solver.clause_lits solver id);
          dels := rest
      | _ -> continue := false
    done
  in
  Array.iteri
    (fun i (id, _step) ->
      flush_dels i;
      line "" (Solver.clause_lits solver id))
    steps;
  flush_dels max_int;
  line "" [||];
  Buffer.contents buf
