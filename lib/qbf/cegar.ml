module Aig = Step_aig.Aig
module Solver = Step_sat.Solver
module Lit = Step_sat.Lit
module Tseitin = Step_cnf.Tseitin
module Obs = Step_obs.Obs
module Clock = Step_obs.Clock
module Metrics = Step_obs.Metrics

let m_iterations = Metrics.counter "cegar.iterations"

let m_solves = Metrics.counter "cegar.solves"

let g_abs_nodes = Metrics.gauge "cegar.abstraction_nodes"

(* Deep telemetry (Metrics.deep): per-iteration series. Each refinement
   records how long the iteration took and how much the abstraction AIG
   grew, and emits a [cegar.refine] trace event, so a profile or trace
   diff can show refinement convergence over time, not just the final
   iteration count. *)
let h_iter_s = Metrics.histogram "cegar.iteration_s"

let h_growth = Metrics.histogram "cegar.refinement_growth"

let h_iters_run = Metrics.histogram "cegar.iterations_per_run"

type outcome = Valid of (int -> bool) | Invalid | Unknown

type stats = { iterations : int; abstraction_nodes : int }

let solve ?(max_iterations = max_int) ?time_budget aig
    ~matrix ~exists_vars ~forall_vars =
  let support = Aig.support aig matrix in
  (* one hash set per block, not List.mem per support variable — the
     membership tests below are linear, not quadratic, on wide supports *)
  let set_of vars =
    let s = Hashtbl.create (2 * List.length vars + 1) in
    List.iter (fun v -> Hashtbl.replace s v ()) vars;
    s
  in
  let exists_set = set_of exists_vars in
  let forall_set = set_of forall_vars in
  let in_blocks v = Hashtbl.mem exists_set v || Hashtbl.mem forall_set v in
  if not (List.for_all in_blocks support) then
    invalid_arg "Cegar.solve: matrix support outside quantifier blocks";
  Metrics.inc m_solves;
  let deadline =
    match time_budget with
    | Some b -> Clock.now () +. b
    | None -> infinity
  in
  (* Abstraction: SAT solver over the existential inputs. Instantiations
     φ(X, y°) are built in the same AIG manager (strashing shares their
     structure) and Tseitin-encoded with the X inputs bound to fixed SAT
     variables. *)
  let abs = Tseitin.create aig in
  let abs_solver = Tseitin.solver abs in
  let x_lit = Hashtbl.create 16 in
  List.iter
    (fun v -> Hashtbl.replace x_lit v (Tseitin.lit_of_input abs v))
    exists_vars;
  (* Verification: ¬φ with X inputs assumable. *)
  let ver = Tseitin.create aig in
  let ver_solver = Tseitin.solver ver in
  ignore (Solver.add_clause ver_solver [ Tseitin.lit_of ver (Aig.not_ matrix) ]);
  let nodes0 = Aig.n_nodes aig in
  let finish iter outcome =
    let abstraction_nodes = Aig.n_nodes aig - nodes0 in
    Metrics.set g_abs_nodes (float_of_int abstraction_nodes);
    if Metrics.deep () then
      Metrics.observe h_iters_run (float_of_int iter);
    Obs.add_attr "iterations" (Step_obs.Json.Int iter);
    Obs.add_attr "abstraction_nodes" (Step_obs.Json.Int abstraction_nodes);
    (outcome, { iterations = iter; abstraction_nodes })
  in
  (* Every SAT call runs under the deadline, so a single hard solve
     cannot overshoot it: it comes back [Unknown] and so do we. *)
  let solve_bounded ?assumptions solver span =
    Obs.span span (fun () -> Solver.solve ?assumptions ~deadline solver)
  in
  let iter_t0 = ref (Clock.now ()) in
  let rec loop iter =
    Step_fault.Fault.hit "cegar.iter";
    if iter >= max_iterations || Clock.now () > deadline then
      finish iter Unknown
    else begin
      match solve_bounded abs_solver "sat.abstraction" with
      | Solver.Unknown -> finish iter Unknown
      | Solver.Unsat -> finish iter Invalid
      | Solver.Sat ->
          (* candidate x° *)
          let xval v = Solver.model_value abs_solver (Hashtbl.find x_lit v) in
          let candidate = List.map (fun v -> (v, xval v)) exists_vars in
          let assumptions =
            List.map
              (fun (v, b) ->
                let l = Tseitin.lit_of_input ver v in
                if b then l else Lit.negate l)
              candidate
          in
          match solve_bounded ~assumptions ver_solver "sat.verify" with
          | Solver.Unknown -> finish iter Unknown
          | Solver.Unsat ->
              (* no universal assignment falsifies φ(x°, Y): witness found *)
              let tbl = Hashtbl.create 16 in
              List.iter (fun (v, b) -> Hashtbl.replace tbl v b) candidate;
              let witness v =
                match Hashtbl.find_opt tbl v with
                | Some b -> b
                | None -> false
              in
              finish iter (Valid witness)
          | Solver.Sat ->
              (* counterexample y°: add φ(X, y°) to the abstraction *)
              Metrics.inc m_iterations;
              let yval v =
                Solver.model_value ver_solver (Tseitin.lit_of_input ver v)
              in
              let subst v =
                if Hashtbl.mem forall_set v then
                  Some (if yval v then Aig.t_ else Aig.f)
                else None
              in
              let nodes_before = Aig.n_nodes aig in
              let inst =
                Obs.span "cegar.instantiate" (fun () ->
                    Aig.compose aig subst matrix)
              in
              ignore (Solver.add_clause abs_solver [ Tseitin.lit_of abs inst ]);
              if Metrics.deep () then begin
                let now = Clock.now () in
                Metrics.observe h_iter_s (now -. !iter_t0);
                iter_t0 := now;
                let growth = Aig.n_nodes aig - nodes_before in
                Metrics.observe h_growth (float_of_int growth);
                Obs.event "cegar.refine"
                  ~attrs:
                    [
                      ("iter", Step_obs.Json.Int (iter + 1));
                      ( "abstraction_nodes",
                        Step_obs.Json.Int (Aig.n_nodes aig - nodes0) );
                      ("growth", Step_obs.Json.Int growth);
                    ]
              end;
              (* the deadline check after refinement is the loop head's *)
              loop (iter + 1)
    end
  in
  Obs.span "cegar.solve" (fun () -> loop 0)
