module Mus = Step_mus.Mus
module Obs = Step_obs.Obs
module Clock = Step_obs.Clock
module Metrics = Step_obs.Metrics

let m_seeds = Metrics.counter "mg.seeds_tried"

let m_sat_calls = Metrics.counter "mg.sat_calls"

let m_screened = Metrics.counter "mg.screened"

let m_found = Metrics.counter "mg.decomposed"

let m_mus_sat_calls = Metrics.counter "mg.mus.sat_calls"

let m_mus_screened = Metrics.counter "mg.mus.screened"

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

(* A MUS state drops some of the selectors of the inputs other than u
   and v; {!Copies.fill_sides} reads it as a side array, into one buffer
   for every deletion test. Input j is free on copy 1 on sides 0 and 3,
   and on copy 2 on sides 1 and 3. *)
let mus_hook c (p : Problem.t) ~known ~u ~v =
  let screen = Copies.screen c in
  let n = Problem.n_vars p in
  let hard = [ Copies.beta_selector c u; Copies.alpha_selector c v ] in
  let side = Array.make n 3 in
  let exists_pos f =
    let rec go j = j < n && (f j || go (j + 1)) in
    go 0
  in
  fun sels ->
    Copies.fill_sides c (hard @ sels) side;
    (* an input f depends on, free on both copies *)
    exists_pos (fun j -> side.(j) = 3 && Screen.depends screen j)
    (* a conflicting pair, i free on copy 1 and j on copy 2 *)
    || exists_pos (fun i ->
           (side.(i) = 0 || side.(i) = 3)
           && exists_pos (fun j ->
                  j <> i
                  && (side.(j) = 1 || side.(j) = 3)
                  && known i j))
    || Screen.refute screen side

let guess_name = function
  | Mus.Confirmed -> "confirmed"
  | Mus.Fallback -> "fallback"
  | Mus.No_guess -> "none"

(* The group MUS over the equality selectors of every input but the seed
   (u, v), screened by [mus_hook]; still valid if the deadline cuts it
   short. *)
let seed_mus c (p : Problem.t) ~known ~u ~v ~deadline =
  Obs.span "mg.mus" @@ fun () ->
  let hard = [ Copies.beta_selector c u; Copies.alpha_selector c v ] in
  let selectors =
    List.concat_map
      (fun i ->
        if i = u || i = v then []
        else [ Copies.alpha_selector c i; Copies.beta_selector c i ])
      p.Problem.support
  in
  let r =
    Mus.minimize ~refute:(mus_hook c p ~known ~u ~v)
      (fun sels -> Copies.decide ~deadline c (hard @ sels))
      ~selectors
  in
  Metrics.add m_mus_sat_calls r.Mus.sat_calls;
  Metrics.add m_mus_screened r.Mus.screened;
  Obs.add_attr "sat_calls" (Step_obs.Json.Int r.Mus.sat_calls);
  Obs.add_attr "screened" (Step_obs.Json.Int r.Mus.screened);
  Obs.add_attr "guess" (Step_obs.Json.String (guess_name r.Mus.guess));
  r.Mus.mus

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
       pair. A pair the scan knows has a genuine counterexample, so its
       seed would have answered Sat and is skipped without changing the
       scan. It knows the pairs of the screen's graph and those it
       learns: each Sat seed's counterexample is loaded into the screen,
       and every pair visible at its base point is harvested. *)
    let screen = Copies.screen c in
    let pos = Hashtbl.create (2 * n) in
    List.iteri (fun j i -> Hashtbl.replace pos i j) p.Problem.support;
    let learned = Bytes.make (n * n) '\000' in
    let was_learned i j = Bytes.get learned ((i * n) + j) = '\001' in
    let known i j = was_learned i j || Screen.conflict screen i j in
    let known_seed u v = known (Hashtbl.find pos u) (Hashtbl.find pos v) in
    (* a harvested tuple flips one input per copy *)
    let learn_pair () =
      let i = ref (-1) and j = ref (-1) in
      Screen.iter_diff screen ~xa:(fun k -> i := k) ~xb:(fun l -> j := l);
      Bytes.set learned ((!i * n) + !j) '\001';
      Bytes.set learned ((!j * n) + !i) '\001'
    in
    let learn () =
      let x, x1, x2 = Copies.model_points c in
      if not (Screen.load screen ~x ~x1 ~x2) then
        failwith
          "Mg.find: SAT counterexample does not violate the gate condition \
           under simulation";
      Screen.harvest screen ~known:was_learned learn_pair
    in
    let rec scan pairs tried =
      if tried >= limit then (None, tried)
      else
        match pairs with
        | [] -> (None, tried)
        | (u, v) :: rest when known_seed u v -> scan rest (tried + 1)
        | (u, v) :: rest -> begin
            incr sat_calls;
            match Copies.decide ~deadline c (seed_assumptions u v) with
            | Mus.Sat ->
                learn ();
                scan rest (tried + 1)
            | Mus.Unknown -> (None, tried + 1)
            | Mus.Unsat _ ->
                (* decomposable under the seed: minimize the equality set *)
                let mus = seed_mus c p ~known ~u ~v ~deadline in
                ( Some
                    (partition_of_selectors p ~u ~v ~mus ~alpha_sel ~beta_sel),
                  tried + 1 )
          end
    in
    let partition, tried = scan (seeds p) 0 in
    finish partition tried !sat_calls
  end
