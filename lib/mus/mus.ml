module Solver = Step_sat.Solver
module Lit = Step_sat.Lit

let minimize ?(hard = []) ?(deadline = infinity) solver ~selectors =
  (* Some sat, or None once the deadline has passed *)
  let solve sels =
    if not (Solver.arm_deadline solver deadline) then None
    else
      match Solver.solve_limited ~assumptions:(hard @ sels) solver with
      | Solver.Sat -> Some true
      | Solver.Unsat -> Some false
      | Solver.Unknown -> None
  in
  (* [needed @ candidates] stays unsatisfiable throughout *)
  let rec shrink needed = function
    | [] -> List.rev needed
    | c :: rest as candidates -> (
        match solve (needed @ rest) with
        | Some true ->
            (* satisfiable without [c]: the group is necessary *)
            shrink (c :: needed) rest
        | Some false ->
            (* still unsatisfiable: drop [c]; shrink to the new core *)
            let core = Solver.unsat_core solver in
            shrink needed (List.filter (fun l -> List.mem l core) rest)
        | None -> List.rev_append needed candidates)
  in
  let result =
    match solve selectors with
    | Some true ->
        invalid_arg "Mus.minimize: initial selector set is satisfiable"
    | None -> selectors
    | Some false ->
        (* start from the first core *)
        let core = Solver.unsat_core solver in
        shrink [] (List.filter (fun l -> List.mem l selectors) core)
  in
  Solver.set_time_budget solver (-1.0);
  result

let is_minimal ?(hard = []) solver set =
  let solve sels = Solver.solve ~assumptions:(hard @ sels) solver in
  (not (solve set))
  && List.for_all
       (fun c -> solve (List.filter (fun l -> l <> c) set))
       set
