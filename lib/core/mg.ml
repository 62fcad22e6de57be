module Aig = Step_aig.Aig
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

type seed_order = Spread | Signature

(* Seed pairs in a spread-out order: successive index gaps first, so that
   structurally close (often decomposition-friendly) pairs come early. *)
let seed_pairs support =
  let a = Array.of_list support in
  let n = Array.length a in
  let pairs = ref [] in
  for gap = n - 1 downto 1 do
    for i = 0 to n - 1 - gap do
      pairs := (a.(i), a.(i + gap)) :: !pairs
    done
  done;
  !pairs

(* Simulation-guided ordering: pairs with the least overlapping
   sensitivity signatures first. *)
let signature_pairs (p : Problem.t) =
  let aig = p.Problem.aig in
  let support = p.Problem.support in
  let st = Random.State.make [| 0x51d5; Aig.n_nodes aig |] in
  let rounds = 4 in
  let patterns =
    Array.init rounds (fun _ ->
        let tbl = Hashtbl.create 16 in
        List.iter
          (fun v -> Hashtbl.replace tbl v (Random.State.int64 st Int64.max_int))
          support;
        tbl)
  in
  let sensitivity v =
    Array.map
      (fun pats ->
        let env u =
          let w = Hashtbl.find pats u in
          if u = v then Int64.lognot w else w
        in
        let base u = Hashtbl.find pats u in
        Int64.logxor
          (Aig.sim64 aig base p.Problem.f)
          (Aig.sim64 aig env p.Problem.f))
      patterns
  in
  let sigs = List.map (fun v -> (v, sensitivity v)) support in
  let popcount w =
    let rec go w acc =
      if w = 0L then acc
      else go (Int64.shift_right_logical w 1)
          (acc + Int64.to_int (Int64.logand w 1L))
    in
    go w 0
  in
  let overlap a b =
    Array.fold_left ( + ) 0
      (Array.mapi (fun i wa -> popcount (Int64.logand wa b.(i))) a)
  in
  let scored = ref [] in
  let rec go = function
    | [] -> ()
    | (u, su) :: rest ->
        List.iter (fun (v, sv) -> scored := (overlap su sv, (u, v)) :: !scored) rest;
        go rest
  in
  go sigs;
  List.sort compare !scored |> List.map snd

let seeds ?(seed_order = Spread) (p : Problem.t) =
  match seed_order with
  | Spread -> seed_pairs p.Problem.support
  | Signature -> signature_pairs p

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

let find ?copies ?seed_limit ?(seed_order = Spread) ?time_budget
    (p : Problem.t) g =
  Obs.span
    ~attrs:[ ("n", Step_obs.Json.Int (Problem.n_vars p)) ]
    "mg.find"
  @@ fun () ->
  let t0 = Clock.now () in
  let n = Problem.n_vars p in
  let finish partition seeds_tried sat_calls =
    (* every seed tried either reached SAT or was refuted by the screen *)
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
    let c =
      match copies with
      | Some c ->
          (* as in Qbf_model.optimize: an assert would vanish under
             -noassert and let a mismatched scaffold check the wrong
             formula *)
          if Copies.problem c != p then
            invalid_arg "Mg.find: copies built for a different problem";
          if Copies.gate c <> g then
            invalid_arg
              (Printf.sprintf "Mg.find: copies built for gate %s, not %s"
                 (Gate.to_string (Copies.gate c))
                 (Gate.to_string g));
          c
      | None -> Copies.create p g
    in
    let solver = Copies.solver c in
    let deadline =
      match time_budget with Some b -> t0 +. b | None -> infinity
    in
    let limit =
      match seed_limit with
      | Some l -> l
      | None -> min (4 * n) (n * (n - 1) / 2)
    in
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
    (* A seed {u | v | rest} is screened by simulation first: a violating
       tuple is a genuine counterexample, so a refuted seed would have
       answered Sat and is skipped without changing the scan. *)
    let screen = Screen.create p g in
    let pos = Hashtbl.create (2 * n) in
    List.iteri (fun j i -> Hashtbl.replace pos i j) p.Problem.support;
    let side = Array.make n 2 in
    let refuted u v =
      let pu = Hashtbl.find pos u and pv = Hashtbl.find pos v in
      side.(pu) <- 0;
      side.(pv) <- 1;
      let r = Screen.refute screen side in
      side.(pu) <- 2;
      side.(pv) <- 2;
      r
    in
    let rec scan pairs tried =
      if tried >= limit || Clock.now () > deadline then
        finish None tried !sat_calls
      else
        match pairs with
        | [] -> finish None tried !sat_calls
        | (u, v) :: rest when refuted u v -> scan rest (tried + 1)
        | (u, v) :: rest -> begin
            incr sat_calls;
            match
              Solver.solve_limited ~assumptions:(seed_assumptions u v) solver
            with
            | Solver.Sat -> scan rest (tried + 1)
            | Solver.Unknown -> finish None (tried + 1) !sat_calls
            | Solver.Unsat ->
                (* decomposable under the seed: minimize the equality set *)
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
                      Mus.minimize ~hard solver ~selectors)
                in
                let partition =
                  partition_of_selectors p ~u ~v ~mus ~alpha_sel ~beta_sel
                in
                finish (Some partition) (tried + 1) !sat_calls
          end
    in
    scan (seeds ~seed_order p) 0
  end
