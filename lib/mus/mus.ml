module Solver = Step_sat.Solver
module Lit = Step_sat.Lit

type guess = Confirmed | Fallback | No_guess

type result = {
  mus : Lit.t list;
  sat_calls : int;
  screened : int;
  guess : guess;
}

let minimize ?(hard = []) ?(deadline = infinity) ?refute solver ~selectors =
  let sat_calls = ref 0 and screened = ref 0 in
  (* Some sat, or None once the deadline has passed *)
  let solve sels =
    incr sat_calls;
    match Solver.solve ~assumptions:(hard @ sels) ~deadline solver with
    | Solver.Sat -> Some true
    | Solver.Unsat -> Some false
    | Solver.Unknown -> None
  in
  (* true only if [hard @ sels] is satisfiable *)
  let refuted sels =
    match refute with
    | Some r when r sels ->
        incr screened;
        true
    | _ -> false
  in
  (* [needed @ candidates] stays unsatisfiable throughout *)
  let rec shrink needed = function
    | [] -> List.rev needed
    | c :: rest as candidates -> (
        let test = needed @ rest in
        match if refuted test then Some true else solve test with
        | Some true ->
            (* satisfiable without [c]: the group is necessary *)
            shrink (c :: needed) rest
        | Some false ->
            (* still unsatisfiable: drop [c]; shrink to the new core *)
            let core = Solver.unsat_core solver in
            shrink needed (List.filter (fun l -> List.mem l core) rest)
        | None -> List.rev_append needed candidates)
  in
  (* The optimistic pass keeps what the hook shows necessary and drops
     the rest untested; each kept [c] has a model of a superset of the
     final [needed] minus [c]. *)
  let rec optimistic needed = function
    | [] -> List.rev needed
    | c :: rest ->
        if refuted (needed @ rest) then optimistic (c :: needed) rest
        else optimistic needed rest
  in
  let mus, guess =
    match solve selectors with
    | Some true ->
        invalid_arg "Mus.minimize: initial selector set is satisfiable"
    | None -> (selectors, No_guess)
    | Some false -> (
        (* start from the first core *)
        let core = Solver.unsat_core solver in
        let core = List.filter (fun l -> List.mem l core) selectors in
        match refute with
        | None -> (shrink [] core, No_guess)
        | Some _ -> (
            let needed = optimistic [] core in
            if List.length needed = List.length core then (core, Confirmed)
            else
              match solve needed with
              | Some false -> (needed, Confirmed)
              | Some true ->
                  (* some drop was wrong, so the marks were tested with a
                     necessary selector free: start over from the core *)
                  (shrink [] core, Fallback)
              | None -> (core, No_guess)))
  in
  { mus; sat_calls = !sat_calls; screened = !screened; guess }

let is_minimal ?(hard = []) solver set =
  let solve sels =
    Solver.solve ~assumptions:(hard @ sels) solver = Solver.Sat
  in
  (not (solve set))
  && List.for_all
       (fun c -> solve (List.filter (fun l -> l <> c) set))
       set
