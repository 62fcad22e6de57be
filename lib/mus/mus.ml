module Solver = Step_sat.Solver
module Lit = Step_sat.Lit

type answer = Sat | Unsat of Lit.t list | Unknown

type guess = Confirmed | Fallback | No_guess

type result = {
  mus : Lit.t list;
  sat_calls : int;
  screened : int;
  guess : guess;
}

let solver_oracle ?(deadline = infinity) solver sels =
  match Solver.solve ~assumptions:sels ~deadline solver with
  | Solver.Sat -> Sat
  | Solver.Unsat -> Unsat (Solver.unsat_core solver)
  | Solver.Unknown -> Unknown

let minimize ?refute oracle ~selectors =
  let sat_calls = ref 0 and screened = ref 0 in
  let ask sels =
    incr sat_calls;
    oracle sels
  in
  (* true only if [sels] is satisfiable *)
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
        match if refuted test then Sat else ask test with
        | Sat ->
            (* satisfiable without [c]: the group is necessary *)
            shrink (c :: needed) rest
        | Unsat core ->
            (* still unsatisfiable: drop [c]; shrink to the new core *)
            shrink needed (List.filter (fun l -> List.mem l core) rest)
        | Unknown -> List.rev_append needed candidates)
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
    match ask selectors with
    | Sat -> invalid_arg "Mus.minimize: initial selector set is satisfiable"
    | Unknown -> (selectors, No_guess)
    | Unsat core -> (
        (* start from the first core *)
        let core = List.filter (fun l -> List.mem l core) selectors in
        match refute with
        | None -> (shrink [] core, No_guess)
        | Some _ -> (
            let needed = optimistic [] core in
            if List.length needed = List.length core then (core, Confirmed)
            else
              match ask needed with
              | Unsat _ -> (needed, Confirmed)
              | Sat ->
                  (* some drop was wrong, so the marks were tested with a
                     necessary selector free: start over from the core *)
                  (shrink [] core, Fallback)
              | Unknown -> (core, No_guess)))
  in
  { mus; sat_calls = !sat_calls; screened = !screened; guess }

let is_minimal oracle set =
  let unsat sels = match oracle sels with Unsat _ -> true | _ -> false in
  let sat sels = oracle sels = Sat in
  unsat set && List.for_all (fun c -> sat (List.filter (( <> ) c) set)) set
