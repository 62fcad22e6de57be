module Solver = Step_sat.Solver
module Mus = Step_mus.Mus
module Obs = Step_obs.Obs
module Clock = Step_obs.Clock
module Metrics = Step_obs.Metrics

let m_seeds = Metrics.counter "mg.seeds_tried"

let m_sat_calls = Metrics.counter "mg.sat_calls"

let m_screened = Metrics.counter "mg.screened"

let m_found = Metrics.counter "mg.decomposed"

type result = {
  partition : Partition.t option;
  seeds_tried : int;
  sat_calls : int;
  cpu : float;
}

(* Seed pairs in a spread-out order: successive index gaps first, so that
   structurally close (often decomposition-friendly) pairs come early. *)
let seeds (p : Problem.t) =
  let a = Array.of_list p.Problem.support in
  let n = Array.length a in
  let pairs = ref [] in
  for gap = n - 1 downto 1 do
    for i = 0 to n - 1 - gap do
      pairs := (a.(i), a.(i + gap)) :: !pairs
    done
  done;
  !pairs

let partition_of_selectors (p : Problem.t) ~u ~v ~mus ~alpha_sel ~beta_sel =
  let mus_set = Hashtbl.create (2 * List.length mus + 1) in
  List.iter (fun l -> Hashtbl.replace mus_set l ()) mus;
  let in_mus l = Hashtbl.mem mus_set l in
  let xa = ref [ u ] and xb = ref [ v ] and xc = ref [] in
  List.iter
    (fun i ->
      if i <> u && i <> v then begin
        let a_free = not (in_mus (alpha_sel i)) in
        let b_free = not (in_mus (beta_sel i)) in
        match (a_free, b_free) with
        | true, false -> xa := i :: !xa
        | false, true -> xb := i :: !xb
        | false, false -> xc := i :: !xc
        | true, true ->
            (* free on both sides: balance *)
            if List.length !xa <= List.length !xb then xa := i :: !xa
            else xb := i :: !xb
      end)
    p.Problem.support;
  Partition.make ~xa:!xa ~xb:!xb ~xc:!xc

let find ?copies ?time_budget (p : Problem.t) g =
  Obs.span
    ~attrs:[ ("n", Step_obs.Json.Int (Problem.n_vars p)) ]
    "mg.find"
  @@ fun () ->
  let t0 = Clock.now () in
  let n = Problem.n_vars p in
  let finish partition seeds_tried sat_calls =
    (* every seed tried either reached SAT or was a conflicting pair *)
    let screened = seeds_tried - sat_calls in
    Metrics.add m_seeds seeds_tried;
    Metrics.add m_sat_calls sat_calls;
    Metrics.add m_screened screened;
    if partition <> None then Metrics.inc m_found;
    Obs.add_attr "seeds_tried" (Step_obs.Json.Int seeds_tried);
    Obs.add_attr "sat_calls" (Step_obs.Json.Int sat_calls);
    Obs.add_attr "screened" (Step_obs.Json.Int screened);
    Obs.add_attr "decomposed" (Step_obs.Json.Bool (partition <> None));
    { partition; seeds_tried; sat_calls; cpu = Clock.elapsed_since t0 }
  in
  if n < 2 then finish None 0 0
  else begin
    let c = Copies.resolve ~caller:"Mg.find" copies p g in
    let solver = Copies.solver c in
    let deadline =
      match time_budget with Some b -> t0 +. b | None -> infinity
    in
    let limit = min (4 * n) (n * (n - 1) / 2) in
    let sat_calls = ref 0 in
    let alpha_sel i = Copies.alpha_selector c i in
    let beta_sel i = Copies.beta_selector c i in
    (* assumptions for the seed partition {u | v | rest}: all equalities
       except u on copy 1 and v on copy 2 *)
    let seed_assumptions u v =
      List.concat_map
        (fun i ->
          let a = if i = u then [] else [ alpha_sel i ] in
          let b = if i = v then [] else [ beta_sel i ] in
          a @ b)
        p.Problem.support
    in
    (* A seed {u | v | rest} fails exactly when (u, v) is a conflicting
       pair. A pair of the screen's graph has a genuine counterexample, so
       its seed would have answered Sat and is skipped without changing
       the scan. *)
    let screen = Copies.screen c in
    let pos = Hashtbl.create (2 * n) in
    List.iteri (fun j i -> Hashtbl.replace pos i j) p.Problem.support;
    let conflict u v =
      Screen.conflict screen (Hashtbl.find pos u) (Hashtbl.find pos v)
    in
    let rec scan pairs tried =
      (* arming the solver for the next seed call also checks the
         deadline *)
      if tried >= limit || not (Solver.arm_deadline solver deadline) then
        (None, tried)
      else
        match pairs with
        | [] -> (None, tried)
        | (u, v) :: rest when conflict u v -> scan rest (tried + 1)
        | (u, v) :: rest -> begin
            incr sat_calls;
            match
              Solver.solve_limited ~assumptions:(seed_assumptions u v) solver
            with
            | Solver.Sat -> scan rest (tried + 1)
            | Solver.Unknown -> (None, tried + 1)
            | Solver.Unsat ->
                (* decomposable under the seed: minimize the equality set,
                   which stays valid if the deadline cuts it short *)
                let hard = [ beta_sel u; alpha_sel v ] in
                let selectors =
                  List.concat_map
                    (fun i ->
                      if i = u || i = v then []
                      else [ alpha_sel i; beta_sel i ])
                    p.Problem.support
                in
                let mus =
                  Obs.span "mg.mus" (fun () ->
                      Mus.minimize ~hard ~deadline solver ~selectors)
                in
                ( Some
                    (partition_of_selectors p ~u ~v ~mus ~alpha_sel ~beta_sel),
                  tried + 1 )
          end
    in
    let partition, tried = scan (seeds p) 0 in
    (* a shared scaffold must not keep this search's budget *)
    Solver.set_time_budget solver (-1.0);
    finish partition tried !sat_calls
  end
