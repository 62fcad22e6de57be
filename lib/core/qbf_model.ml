module Solver = Step_sat.Solver
module Lit = Step_sat.Lit
module Cardinality = Step_cnf.Cardinality
module Obs = Step_obs.Obs
module Clock = Step_obs.Clock
module Metrics = Step_obs.Metrics

let m_refinements = Metrics.counter "qbf.refinements"

let m_screened = Metrics.counter "qbf.screened"

let m_shrunk_lits = Metrics.counter "qbf.shrunk_lits"

let m_pairs = Metrics.counter "qbf.pairs"

let m_queries = Metrics.counter "qbf.queries"

let m_optimize = Metrics.counter "qbf.optimize_calls"

let h_query = Metrics.histogram "qbf.query_s"

type target = Disjointness | Balancedness | Combined

type strategy = Mi | Md | Bin | Composite

type outcome = {
  partition : Partition.t option;
  optimal : bool;
  best_k : int option;
  refinements : int;
  qbf_queries : int;
  cpu : float;
}

let target_k target p =
  let p = Partition.canonical p in
  match target with
  | Disjointness -> Partition.disjointness_k p
  | Balancedness -> Partition.balancedness_k p
  | Combined -> Partition.combined_k p

let default_strategy = function
  | Disjointness | Combined -> Composite
  | Balancedness -> Mi

(* ---------- the abstraction over the control variables ---------- *)

type abstraction = {
  solver : Solver.t;
  support : int array;
  alpha : Lit.t array; (* per support position *)
  beta : Lit.t array;
  bound : int -> Lit.t list; (* assumptions encoding fT at bound k *)
}

let make_abstraction (p : Problem.t) ~symmetry_breaking target =
  let solver = Solver.create () in
  let support = Array.of_list p.Problem.support in
  let n = Array.length support in
  let fresh () = Lit.pos (Solver.new_var solver) in
  let alpha = Array.init n (fun _ -> fresh ()) in
  let beta = Array.init n (fun _ -> fresh ()) in
  let shared = Array.init n (fun _ -> fresh ()) in
  let buf = Array.make 3 0 in
  let add2 a b =
    buf.(0) <- a;
    buf.(1) <- b;
    ignore (Solver.add_clause_array solver buf 2)
  in
  for j = 0 to n - 1 do
    (* exclude (1,1): each variable sits in exactly one of XA/XB/XC *)
    add2 (Lit.negate alpha.(j)) (Lit.negate beta.(j));
    (* c_j <-> ~alpha_j /\ ~beta_j, for every target; only Disjointness
       counts them *)
    buf.(0) <- shared.(j);
    buf.(1) <- alpha.(j);
    buf.(2) <- beta.(j);
    ignore (Solver.add_clause_array solver buf 3);
    add2 (Lit.negate shared.(j)) (Lit.negate alpha.(j));
    add2 (Lit.negate shared.(j)) (Lit.negate beta.(j))
  done;
  (* fN: non-trivial partitions *)
  Cardinality.add_at_least_one solver (Array.to_list alpha);
  Cardinality.add_at_least_one solver (Array.to_list beta);
  (* the XA and XB counters with |XA| >= |XB|: required by the
     balancedness-style targets (their constraint (6)/(8) derivations
     assume it), an optional symmetry breaking for pure disjointness *)
  let ordered_counters () =
    let ca = Cardinality.totalizer solver alpha in
    let cb = Cardinality.totalizer solver beta in
    for j = 1 to n do
      match (Cardinality.at_least cb j, Cardinality.at_least ca j) with
      | Some ob, Some oa -> add2 (Lit.negate ob) oa
      | _, _ -> ()
    done;
    (ca, cb)
  in
  let bound =
    match target with
    | Disjointness ->
        if symmetry_breaking then ignore (ordered_counters ());
        let c = Cardinality.totalizer solver shared in
        fun k -> Option.to_list (Cardinality.at_most c k)
    | Balancedness ->
        (* |XA| - |XB| <= k, given |XA| >= |XB|: one activation literal
           per k, its clauses added on the first query at that k *)
        let ca, cb = ordered_counters () in
        let acts = Hashtbl.create 8 in
        (fun k ->
          match Hashtbl.find_opt acts k with
          | Some act -> [ act ]
          | None ->
              let act = fresh () in
              Cardinality.add_bound_difference solver ~left:ca ~right:cb ~k
                ~activator:act;
              Hashtbl.replace acts k act;
              [ act ])
    | Combined ->
        (* |XC| + |XA| - |XB| = n - 2|XB| <= k  <=>  |XB| >= ceil((n-k)/2),
           a bound of at most n for every k >= 0, so at_least never raises *)
        let _, cb = ordered_counters () in
        fun k -> Option.to_list (Cardinality.at_least cb ((n - k + 1) / 2))
  in
  { solver; support; alpha; beta; bound }

(* The candidate's block per support position: 0 XA, 1 XB, 2 XC. The
   abstraction excludes (1,1), so alpha and beta never both hold. *)
let read_side abs side =
  for j = 0 to Array.length side - 1 do
    side.(j) <-
      (if Solver.model_value abs.solver abs.alpha.(j) then 0
       else if Solver.model_value abs.solver abs.beta.(j) then 1
       else 2)
  done

(* ---------- what both searches share ---------- *)

let partition_of_side support side =
  let block b =
    List.filteri (fun j _ -> side.(j) = b) (Array.to_list support)
  in
  Partition.make ~xa:(block 0) ~xb:(block 1) ~xc:(block 2)

(* The one candidate check: a Copies.check of the partition. [Unsat]
   proves it decomposes; on [Sat] the counterexample is the screen's
   current tuple. A counterexample the simulation does not confirm would
   feed a wrong refinement, so it is an error. *)
let check_candidate copies screen ~deadline partition =
  let result =
    Obs.span "sat.verify" (fun () -> Copies.check ~deadline copies partition)
  in
  (if result = Solver.Sat then
     let x, x1, x2 = Copies.model_points copies in
     if not (Screen.load screen ~x ~x1 ~x2) then
       failwith
         "Qbf_model: SAT counterexample does not violate the gate condition \
          under simulation");
  result

(* The one query wrapper: a bound query at [k] runs in its qbf.query
   span, counted and timed. *)
let bound_query ~qbf_queries k run =
  incr qbf_queries;
  Metrics.inc m_queries;
  let t_query = Clock.now () in
  let answer =
    Obs.span ~attrs:[ ("k", Step_obs.Json.Int k) ] "qbf.query" run
  in
  Metrics.observe h_query (Clock.elapsed_since t_query);
  answer

(* ---------- CEGAR query for a fixed bound ---------- *)

type query_answer =
  | Q_valid of Partition.t
  | Q_invalid
  | Q_unknown

(* The one clause builder, for refinements and pairs alike: the clause
   that excludes every candidate admitting the screen's current tuple —
   each input where x' differs must be in XA, each input where x''
   differs must be in XB. An empty clause would make the abstraction
   Unsat and report a false "indecomposable", so it is an error, not an
   assertion that -noassert would drop. *)
let exclude_tuple abs screen =
  let clause = ref [] in
  Screen.iter_diff screen
    ~xa:(fun j -> clause := Lit.negate abs.alpha.(j) :: !clause)
    ~xb:(fun j -> clause := Lit.negate abs.beta.(j) :: !clause);
  if !clause = [] then
    failwith
      "Qbf_model: counterexample tuple with no differing input gives an \
       empty clause";
  !clause

(* One bound query is one abstraction solve. Its model hook screens each
   candidate, then verifies it on the copies; a counterexample, simulated
   or from SAT, is shrunk and its clause goes into the running search
   (the clause is false under the candidate, which the tuple admits). *)
let query abs copies screen side k ~deadline ~refinement_cap ~refinements
    ~qbf_queries =
  bound_query ~qbf_queries k @@ fun () ->
  let assumptions = abs.bound k in
  (* set with the hook's Accept, the only way the solve answers Sat *)
  let answer = ref Q_unknown in
  (* the single refinement path, for simulated and SAT counterexamples
     alike: shrink the screen's current tuple, then exclude it *)
  let refine () =
    Metrics.add m_shrunk_lits (Screen.shrink screen);
    incr refinements;
    Metrics.inc m_refinements;
    Solver.Refine (exclude_tuple abs screen)
  in
  let on_model () =
    if Clock.now () > deadline || !refinements >= refinement_cap then
      Solver.Stop
    else begin
      read_side abs side;
      if Screen.refute screen side then begin
        Metrics.inc m_screened;
        refine ()
      end
      else
        let partition = partition_of_side abs.support side in
        match check_candidate copies screen ~deadline partition with
        | Solver.Unsat ->
            answer := Q_valid partition;
            Solver.Accept
        | Solver.Unknown -> Solver.Stop
        | Solver.Sat -> refine ()
    end
  in
  match
    Obs.span "sat.abstraction" (fun () ->
        Solver.solve ~assumptions ~deadline ~on_model abs.solver)
  with
  | Solver.Sat -> !answer
  | Solver.Unsat -> Q_invalid
  | Solver.Unknown -> Q_unknown

(* ---------- XOR disjointness: a separator of the pair graph ---------- *)

(* f = fA(XA, XC) ⊕ fB(XB, XC) exactly when no edge of f's pair graph,
   a pair (i, j) with D_i D_j f ≢ 0, joins XA to XB; so the optimum XC is
   a minimum vertex separator of that graph. Every edge this search knows
   has a witness, so the least separator of the known graph is a lower
   bound, and it is optimal once one Copies.check shows it decomposes.
   Otherwise the check's counterexample walks down to an edge across the
   candidate (Screen.walk), and every edge visible at the walk's point
   joins the graph (Screen.harvest); each such step is one refinement.
   The graph starts from the screen's sampled pairs, read only when a
   query is due: a bootstrap with an empty XC needs none. *)
let separate (p : Problem.t) copies ~bootstrap ~deadline ~refinement_cap
    ~refinements ~qbf_queries ~pairs =
  let support = Array.of_list p.Problem.support in
  let n = Array.length support in
  (* the |XC| a candidate must beat; n - 1 admits every separator *)
  let bound = function
    | Some q -> Partition.disjointness_k q
    | None -> n - 1
  in
  if bound bootstrap <= 0 then (bootstrap, true)
  else begin
    let screen = Copies.screen copies in
    let adj = Array.make_matrix n n false in
    for i = 0 to n - 2 do
      for j = i + 1 to n - 1 do
        if Screen.conflict screen i j then begin
          adj.(i).(j) <- true;
          adj.(j).(i) <- true;
          incr pairs;
          Metrics.inc m_pairs
        end
      done
    done;
    let adjacent i j = adj.(i).(j) in
    (* the edge of the screen's current tuple, two single flips *)
    let connect () =
      let i = ref (-1) and j = ref (-1) in
      Screen.iter_diff screen ~xa:(fun k -> i := k) ~xb:(fun k -> j := k);
      adj.(!i).(!j) <- true;
      adj.(!j).(!i) <- true
    in
    let rec loop best =
      if Clock.now () > deadline || !refinements >= refinement_cap then
        (best, false)
      else begin
        let below = bound best in
        let answer =
          bound_query ~qbf_queries (below - 1) @@ fun () ->
          match Separator.minimum n adjacent ~below with
          | None -> `Optimal
          | Some side -> (
              let partition = partition_of_side support side in
              match check_candidate copies screen ~deadline partition with
              | Solver.Unsat -> `Found partition
              | Solver.Unknown -> `Unknown
              | Solver.Sat ->
                  Metrics.add m_shrunk_lits (Screen.walk screen);
                  connect ();
                  Screen.harvest screen ~known:adjacent connect;
                  incr refinements;
                  Metrics.inc m_refinements;
                  `Refined)
        in
        match answer with
        | `Optimal -> (best, true)
        | `Found partition -> (Some partition, true)
        | `Unknown -> (best, false)
        | `Refined -> loop best
      end
    in
    loop bootstrap
  end

(* ---------- optimum search on the SAT abstraction ---------- *)

let abstraction_search (p : Problem.t) copies target ~symmetry_breaking
    ~strategy ~bootstrap ~deadline ~max_refinements ~refinements
    ~qbf_queries ~pairs =
  let n = Problem.n_vars p in
  let strategy =
    match strategy with Some s -> s | None -> default_strategy target
  in
  let abs = make_abstraction p ~symmetry_breaking target in
  let screen = Copies.screen copies in
  let side = Array.make n 0 in
  let k_max = n - 2 in
  (* Seeds the abstraction with both clauses of every pair of the
     screen's graph (which an Mg.find on the same scaffold has already
     drawn) just before the first query, so an optimize that issues
     none (a bootstrap already at the floor) pays nothing. Pair tuples
     are already minimal, so they are not shrunk or banked, and they
     are not refinements. *)
  let seeded = ref false in
  let ask k =
    if not !seeded then begin
      seeded := true;
      Screen.pairs screen (fun () ->
          ignore (Solver.add_clause abs.solver (exclude_tuple abs screen));
          incr pairs;
          Metrics.inc m_pairs)
    end;
    query abs copies screen side k ~deadline
      ~refinement_cap:max_refinements ~refinements ~qbf_queries
  in
  (* best-so-far; queries with k < best are the only ones issued *)
  let best = ref bootstrap in
  let best_k () =
    match !best with Some p -> target_k target p | None -> k_max + 1
  in
  (* establish an upper bound when no bootstrap is available *)
  let feasible =
    match !best with
    | Some _ -> `Yes
    | None -> begin
        match ask k_max with
        | Q_valid part ->
            best := Some part;
            `Yes
        | Q_invalid -> `No (* proven not bi-decomposable *)
        | Q_unknown -> `Budget
      end
  in
  match feasible with
  | `No -> (None, true)
  | `Budget -> (None, false)
  | `Yes -> begin
    (* invariant: everything strictly below [floor] is known Invalid *)
    let floor = ref 0 in
    let unknown = ref false in
    let md_steps budget =
      (* monotonically decreasing: probe best-1 repeatedly *)
      let steps = ref 0 in
      let continue_ = ref true in
      while !continue_ && !steps < budget && best_k () > !floor do
        incr steps;
        match ask (best_k () - 1) with
        | Q_valid part -> best := Some part
        | Q_invalid ->
            floor := best_k ();
            continue_ := false
        | Q_unknown ->
            unknown := true;
            continue_ := false
      done
    in
    let mi_steps () =
      (* monotonically increasing from the known floor *)
      let continue_ = ref true in
      while !continue_ && !floor < best_k () do
        match ask !floor with
        | Q_valid part ->
            best := Some part;
            continue_ := false
        | Q_invalid -> incr floor
        | Q_unknown ->
            unknown := true;
            continue_ := false
      done
    in
    let bin_steps ~stop_width =
      let continue_ = ref true in
      while !continue_ && best_k () - !floor > stop_width do
        let mid = (!floor + best_k () - 1) / 2 in
        match ask mid with
        | Q_valid part -> best := Some part
        | Q_invalid -> floor := mid + 1
        | Q_unknown ->
            unknown := true;
            continue_ := false
      done
    in
    (match strategy with
    | Mi -> mi_steps ()
    | Md -> md_steps max_int
    | Bin -> bin_steps ~stop_width:0
    | Composite ->
        (* the paper's MD -> Bin -> MI with heuristic iteration counts *)
        md_steps 2;
        if (not !unknown) && best_k () > !floor then begin
          bin_steps ~stop_width:4;
          if (not !unknown) && best_k () > !floor then mi_steps ()
        end);
    let optimal = (not !unknown) && best_k () <= !floor in
    (!best, optimal)
  end

let target_name = function
  | Disjointness -> "disjointness"
  | Balancedness -> "balancedness"
  | Combined -> "combined"

let optimize ?copies ?(symmetry_breaking = true) ?strategy ?bootstrap
    ?(max_refinements = 100_000) ?time_budget (p : Problem.t) g target =
  Obs.span
    ~attrs:
      [
        ("target", Step_obs.Json.String (target_name target));
        ("n", Step_obs.Json.Int (Problem.n_vars p));
      ]
    "qbf.optimize"
  @@ fun () ->
  Metrics.inc m_optimize;
  let t0 = Clock.now () in
  let n = Problem.n_vars p in
  let refinements = ref 0 and qbf_queries = ref 0 and pairs = ref 0 in
  let finish partition optimal =
    Obs.add_attr "refinements" (Step_obs.Json.Int !refinements);
    Obs.add_attr "pairs" (Step_obs.Json.Int !pairs);
    Obs.add_attr "queries" (Step_obs.Json.Int !qbf_queries);
    Obs.add_attr "optimal" (Step_obs.Json.Bool optimal);
    {
      partition;
      optimal;
      best_k = Option.map (target_k target) partition;
      refinements = !refinements;
      qbf_queries = !qbf_queries;
      cpu = Clock.elapsed_since t0;
    }
  in
  if n < 2 then finish None true
  else begin
    let copies = Copies.resolve ~caller:"Qbf_model.optimize" copies p g in
    let deadline =
      match time_budget with Some b -> t0 +. b | None -> infinity
    in
    match (g, target) with
    | Gate.Xor_gate, Disjointness ->
        let partition, optimal =
          separate p copies ~bootstrap ~deadline
            ~refinement_cap:max_refinements ~refinements ~qbf_queries ~pairs
        in
        finish partition optimal
    | _ ->
        let partition, optimal =
          abstraction_search p copies target ~symmetry_breaking ~strategy
            ~bootstrap ~deadline ~max_refinements ~refinements ~qbf_queries
            ~pairs
        in
        finish partition optimal
  end
