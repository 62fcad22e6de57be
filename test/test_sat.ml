(* Tests for the CDCL SAT solver: hand-written scenarios plus qcheck
   cross-validation against a brute-force model enumerator. *)

module Lit = Step_sat.Lit
module Solver = Step_sat.Solver
module Dimacs = Step_sat.Dimacs

(* The verdict of a solve with no deadline, which cannot be [Unknown]. *)
let sat ?assumptions s =
  match Solver.solve ?assumptions s with
  | Solver.Sat -> true
  | Solver.Unsat -> false
  | Solver.Unknown -> Alcotest.fail "Unknown from a solve with no deadline"

let pos = Lit.pos
let neg = Lit.neg_of_var

(* ---------- brute force reference ---------- *)

let eval_clause model clause =
  List.exists
    (fun l ->
      let v = Lit.var l in
      if Lit.is_pos l then (model lsr v) land 1 = 1
      else (model lsr v) land 1 = 0)
    clause

let brute_force_sat n_vars clauses =
  let rec go m =
    if m >= 1 lsl n_vars then None
    else if List.for_all (eval_clause m) clauses then Some m
    else go (m + 1)
  in
  go 0

let solver_of ?proof clauses =
  let s = Solver.create ?proof () in
  List.iter (fun c -> ignore (Solver.add_clause s c)) clauses;
  s

(* ---------- random CNF generator ---------- *)

let gen_cnf =
  let open QCheck2.Gen in
  let* n_vars = int_range 1 10 in
  let* n_clauses = int_range 1 42 in
  let gen_lit = map2 Lit.of_var bool (int_range 0 (n_vars - 1)) in
  let gen_clause = list_size (int_range 1 4) gen_lit in
  let+ clauses = list_size (pure n_clauses) gen_clause in
  (n_vars, clauses)

let print_cnf (n, clauses) =
  Printf.sprintf "vars=%d cnf=%s" n
    (String.concat " ; "
       (List.map
          (fun c -> String.concat " " (List.map Lit.to_string c))
          clauses))

(* ---------- unit tests ---------- *)

let test_empty_clause () =
  let s = Solver.create () in
  ignore (Solver.add_clause s []);
  Alcotest.(check bool) "unsat" false (sat s)

let test_trivial_sat () =
  let s = solver_of [ [ pos 0 ]; [ neg 1 ] ] in
  Alcotest.(check bool) "sat" true (sat s);
  Alcotest.(check bool) "x0" true (Solver.var_value s 0);
  Alcotest.(check bool) "x1" false (Solver.var_value s 1)

let test_contradictory_units () =
  let s = solver_of [ [ pos 0 ]; [ neg 0 ] ] in
  Alcotest.(check bool) "unsat" false (sat s)

let test_chain_propagation () =
  (* x0 and a chain of implications forcing x9 *)
  let clauses =
    [ pos 0 ]
    :: List.init 9 (fun i -> [ neg i; pos (i + 1) ])
  in
  let s = solver_of clauses in
  Alcotest.(check bool) "sat" true (sat s);
  Alcotest.(check bool) "x9 forced" true (Solver.var_value s 9)

let test_pigeonhole_3_2 () =
  (* 3 pigeons, 2 holes: p_{i,h} = var (2i + h) *)
  let v i h = (2 * i) + h in
  let at_least = List.init 3 (fun i -> [ pos (v i 0); pos (v i 1) ]) in
  let at_most =
    List.concat_map
      (fun h ->
        [
          [ neg (v 0 h); neg (v 1 h) ];
          [ neg (v 0 h); neg (v 2 h) ];
          [ neg (v 1 h); neg (v 2 h) ];
        ])
      [ 0; 1 ]
  in
  let s = solver_of (at_least @ at_most) in
  Alcotest.(check bool) "unsat" false (sat s)

let test_pigeonhole_proof_mode () =
  let v i h = (2 * i) + h in
  let at_least = List.init 3 (fun i -> [ pos (v i 0); pos (v i 1) ]) in
  let at_most =
    List.concat_map
      (fun h ->
        [
          [ neg (v 0 h); neg (v 1 h) ];
          [ neg (v 0 h); neg (v 2 h) ];
          [ neg (v 1 h); neg (v 2 h) ];
        ])
      [ 0; 1 ]
  in
  let s = solver_of ~proof:true (at_least @ at_most) in
  Alcotest.(check bool) "unsat" false (sat s);
  let steps, empty = Solver.proof_of_unsat s in
  Alcotest.(check bool)
    "empty chain has premises" true
    (Array.length empty.Solver.Proof.premises > 0);
  Alcotest.(check bool)
    "pivot count consistent" true
    (Array.for_all
       (fun (_, st) ->
         Array.length st.Solver.Proof.premises
         = Array.length st.Solver.Proof.pivots + 1)
       steps)

let test_assumptions_sat_unsat () =
  let s = solver_of [ [ pos 0; pos 1 ] ] in
  Alcotest.(check bool) "sat under a" true
    (sat ~assumptions:[ neg 0 ] s);
  Alcotest.(check bool) "x1 forced" true (Solver.var_value s 1);
  Alcotest.(check bool) "unsat under both" false
    (sat ~assumptions:[ neg 0; neg 1 ] s);
  let core = Solver.unsat_core s in
  Alcotest.(check bool) "core nonempty" true (core <> []);
  Alcotest.(check bool) "core subset of assumptions" true
    (List.for_all (fun l -> List.mem l [ neg 0; neg 1 ]) core);
  (* the core itself must suffice *)
  Alcotest.(check bool) "core unsat" false (sat ~assumptions:core s)

let test_assumption_of_fresh_var () =
  let s = solver_of [ [ pos 0 ] ] in
  Alcotest.(check bool) "sat" true (sat ~assumptions:[ pos 5 ] s);
  Alcotest.(check bool) "assumed value" true (Solver.var_value s 5)

let test_contradictory_assumptions () =
  let s = solver_of [ [ pos 0; pos 1 ] ] in
  Alcotest.(check bool) "p and not p" false
    (sat ~assumptions:[ pos 2; neg 2 ] s);
  let core = Solver.unsat_core s in
  Alcotest.(check bool) "core mentions var 2" true
    (List.for_all (fun l -> Lit.var l = 2) core && core <> [])

let test_incremental () =
  let s = solver_of [ [ pos 0; pos 1 ] ] in
  Alcotest.(check bool) "sat" true (sat s);
  ignore (Solver.add_clause s [ neg 0 ]);
  Alcotest.(check bool) "still sat" true (sat s);
  Alcotest.(check bool) "x1" true (Solver.var_value s 1);
  ignore (Solver.add_clause s [ neg 1 ]);
  Alcotest.(check bool) "now unsat" false (sat s);
  Alcotest.(check bool) "okay false" false (Solver.okay s)

let test_tautology_ignored () =
  let s = Solver.create () in
  let id = Solver.add_clause s [ pos 0; neg 0 ] in
  Alcotest.(check int) "discarded" (-1) id;
  Alcotest.(check bool) "sat" true (sat s)

let test_duplicate_literals () =
  let s = Solver.create () in
  ignore (Solver.add_clause s [ pos 0; pos 0; pos 0 ]);
  Alcotest.(check bool) "sat" true (sat s);
  Alcotest.(check bool) "forced" true (Solver.var_value s 0)

(* Pigeonhole [n_p] -> [n_h] over vars [i * n_h + h], every clause
   prefixed with [guard]. *)
let pigeonhole ?(guard = []) n_p n_h =
  let v i h = (i * n_h) + h in
  let clauses = ref [] in
  let add c = clauses := (guard @ c) :: !clauses in
  for i = 0 to n_p - 1 do
    add (List.init n_h (fun h -> pos (v i h)))
  done;
  for h = 0 to n_h - 1 do
    for i = 0 to n_p - 1 do
      for j = i + 1 to n_p - 1 do
        add [ neg (v i h); neg (v j h) ]
      done
    done
  done;
  List.rev !clauses

let test_deadline () =
  (* pigeonhole 9->8 guarded by [a]: refuting it under [a] takes seconds,
     far past the 50 ms deadline *)
  let a = 72 in
  let s = solver_of (pigeonhole ~guard:[ neg a ] 9 8) in
  let deadline = Step_obs.Clock.now () +. 0.05 in
  (match Solver.solve ~assumptions:[ pos a ] ~deadline s with
  | Solver.Unknown -> ()
  | Solver.Sat | Solver.Unsat -> Alcotest.fail "expected Unknown at deadline");
  (* no budget survives the call: a solve with no deadline (and no
     assumptions) runs to its answer. The unit [-a] keeps that answer
     quick: the saved phase of [a] is the assumption's, so a plain
     re-solve would first refute the pigeonhole under [a]. *)
  ignore (Solver.add_clause s [ neg a ]);
  match Solver.solve s with
  | Solver.Sat -> ()
  | Solver.Unsat | Solver.Unknown -> Alcotest.fail "expected Sat unbounded"

let test_dimacs_roundtrip () =
  let text = "c comment\np cnf 3 2\n1 -2 0\n2 3 0\n" in
  let cnf = Dimacs.parse_string text in
  Alcotest.(check int) "vars" 3 cnf.Dimacs.num_vars;
  Alcotest.(check int) "clauses" 2 (List.length cnf.Dimacs.clauses);
  let cnf2 = Dimacs.parse_string (Dimacs.to_string cnf) in
  Alcotest.(check bool) "roundtrip" true (cnf = cnf2)

let test_dimacs_multiline_clause () =
  let cnf = Dimacs.parse_string "1 2\n-3 0 3 0" in
  Alcotest.(check int) "clauses" 2 (List.length cnf.Dimacs.clauses)

let test_dimacs_tabs_crlf () =
  (* tabs and carriage returns count as whitespace *)
  let cnf, diags = Dimacs.parse_string_diags "p cnf 2 2\r\n1\t2 0\r\n-1\t-2 0\r\n" in
  Alcotest.(check int) "vars" 2 cnf.Dimacs.num_vars;
  Alcotest.(check int) "clauses" 2 (List.length cnf.Dimacs.clauses);
  Alcotest.(check int) "no diagnostics" 0 (List.length diags)

let test_dimacs_parse_diags () =
  let has code ds = List.exists (fun d -> d.Step_lint.Diag.code = code) ds in
  (* unterminated trailing clause: auto-closed, flagged CNF006 *)
  let cnf, diags = Dimacs.parse_string_diags "p cnf 2 1\n1 2\n" in
  Alcotest.(check int) "auto-closed clause" 1 (List.length cnf.Dimacs.clauses);
  Alcotest.(check bool) "CNF006" true (has "CNF006" diags);
  (* header clause-count mismatch: flagged CNF002 *)
  let _, diags = Dimacs.parse_string_diags "p cnf 2 3\n1 0\n2 0\n" in
  Alcotest.(check bool) "CNF002" true (has "CNF002" diags);
  (* clean input carries no diagnostics *)
  let _, diags = Dimacs.parse_string_diags "p cnf 1 1\n1 0\n" in
  Alcotest.(check int) "clean" 0 (List.length diags)

(* ---------- lint rules ({i docs/LINT.md}): one seeded defect per rule,
   each caught with the expected code, plus clean artifacts staying clean *)

let codes diags = List.map (fun d -> d.Step_lint.Diag.code) diags

let check_has code diags =
  Alcotest.(check bool)
    (Printf.sprintf "%s reported (got %s)" code
       (String.concat "," (codes diags)))
    true
    (List.mem code (codes diags))

let check_clean what diags =
  Alcotest.(check int)
    (Printf.sprintf "%s clean (got %s)" what (String.concat "," (codes diags)))
    0 (List.length diags)

let line_of code diags =
  match List.find_opt (fun d -> d.Step_lint.Diag.code = code) diags with
  | Some d -> d.Step_lint.Diag.location.Step_lint.Diag.line
  | None -> None

let check_dimacs text = (Dimacs.scan ~qdimacs:false text).Dimacs.diags

(* ---------- DIMACS ---------- *)

let test_cnf_clean () =
  check_clean "cnf" (check_dimacs "c ok\np cnf 2 2\n1 2 0\n-1 -2 0\n")

let test_cnf001_var_beyond_header () =
  let d = check_dimacs "p cnf 2 1\n3 0\n" in
  check_has "CNF001" d

let test_cnf002_clause_count () =
  let d = check_dimacs "p cnf 2 3\n1 0\n2 0\n" in
  check_has "CNF002" d;
  Alcotest.(check (option int)) "at header line" (Some 1) (line_of "CNF002" d)

let test_cnf003_duplicate_literal () =
  check_has "CNF003" (check_dimacs "p cnf 2 1\n1 1 2 0\n")

let test_cnf004_tautology () =
  check_has "CNF004" (check_dimacs "p cnf 1 1\n1 -1 0\n")

let test_cnf005_duplicate_clause () =
  let d = check_dimacs "p cnf 2 2\n1 2 0\n2 1 0\n" in
  check_has "CNF005" d

let test_cnf006_unterminated () =
  let d = check_dimacs "p cnf 2 1\n1 2\n" in
  check_has "CNF006" d

let test_cnf007_bad_token () =
  check_has "CNF007" (check_dimacs "p cnf 1 1\n1 x 0\n")

let test_cnf_tabs_crlf () =
  check_clean "tabs/crlf cnf"
    (check_dimacs "p cnf 2 2\r\n1\t2 0\r\n-1\t-2 0\r\n")

let test_sanitizer_solve () =
  (* a sanitized solve must reach the same verdicts and keep all audited
     invariants intact (audit raises via sanitize_checkpoint on violation) *)
  let n_p = 4 and n_h = 3 in
  let v i h = (i * n_h) + h in
  let s = Solver.create () in
  Solver.set_sanitize s true;
  Alcotest.(check bool) "enabled" true (Solver.sanitize_enabled s);
  for i = 0 to n_p - 1 do
    ignore (Solver.add_clause s (List.init n_h (fun h -> pos (v i h))))
  done;
  for h = 0 to n_h - 1 do
    for i = 0 to n_p - 1 do
      for j = i + 1 to n_p - 1 do
        ignore (Solver.add_clause s [ neg (v i h); neg (v j h) ])
      done
    done
  done;
  Alcotest.(check bool) "unsat under sanitizer" false (sat s);
  let s2 = solver_of [ [ pos 0; pos 1 ]; [ neg 0; pos 2 ]; [ neg 1; neg 2 ] ] in
  Solver.set_sanitize s2 true;
  Alcotest.(check bool) "sat under sanitizer" true (sat s2);
  Alcotest.(check int) "audit clean" 0 (List.length (Solver.audit s2))

let test_sanitizer_audit_fresh () =
  let s = Solver.create () in
  ignore (Solver.new_var s);
  ignore (Solver.new_var s);
  ignore (Solver.add_clause s [ pos 0; pos 1 ]);
  Alcotest.(check int) "fresh solver audits clean" 0
    (List.length (Solver.audit s))

let test_large_random_sat () =
  (* a satisfiable planted instance with 300 vars *)
  let n = 300 in
  let st = Random.State.make [| 42 |] in
  let planted v = (v * 7) mod 2 = 0 in
  let s = Solver.create () in
  for _ = 1 to 1200 do
    let vs = List.init 3 (fun _ -> Random.State.int st n) in
    (* make sure at least one literal agrees with the planted model *)
    let c =
      List.mapi
        (fun i v ->
          if i = 0 then Lit.of_var (planted v) v
          else Lit.of_var (Random.State.bool st) v)
        vs
    in
    ignore (Solver.add_clause s c)
  done;
  Alcotest.(check bool) "sat" true (sat s)

(* ---------- epoch scratch maps ---------- *)

module Epoch = Step_sat.Epoch

let test_epoch_basic () =
  let e = Epoch.create ~cap:2 () in
  Alcotest.(check bool) "fresh unset" false (Epoch.mem e 0);
  Epoch.set e 0 7;
  Epoch.set e 40 1;
  (* grows past cap *)
  Alcotest.(check bool) "set" true (Epoch.mem e 0 && Epoch.mem e 40);
  Alcotest.(check int) "value" 7 (Epoch.get e 0);
  Alcotest.(check int) "unset reads zero" 0 (Epoch.get e 1);
  Epoch.unset e 0;
  Alcotest.(check bool) "single unset" false (Epoch.mem e 0);
  Alcotest.(check bool) "others keep" true (Epoch.mem e 40);
  Epoch.reset e;
  Alcotest.(check bool) "reset clears all" false (Epoch.mem e 40);
  Epoch.set e 40 3;
  Alcotest.(check int) "rebind after reset" 3 (Epoch.get e 40)

(* ---------- arena compaction ---------- *)

let test_compact_preserves_ids () =
  (* pigeonhole 6->5 guarded by [a]: unsatisfiable under the assumption
     [a], so the solve learns clauses, satisfiable without it *)
  let a = 30 in
  let s = solver_of (pigeonhole ~guard:[ neg a ] 6 5) in
  Alcotest.(check bool) "unsat under a" false
    (sat ~assumptions:[ pos a ] s);
  let live0 = Solver.n_live_clauses s in
  (* the database reduction leaves dead learnt blocks for the gc to move *)
  Solver.reduce_learnts s;
  let live = Solver.n_live_clauses s in
  Alcotest.(check bool) "reduction killed clauses" true (live < live0);
  let n_ids = Solver.n_clause_records s in
  let before = Array.init n_ids (Solver.clause_lits s) in
  Solver.compact s;
  Alcotest.(check (list string)) "audit clean" []
    (List.map Step_lint.Diag.to_text (Solver.audit s));
  Alcotest.(check int) "live count kept" live (Solver.n_live_clauses s);
  (* every id resolves to the same literals after the move: dead ones
     stay empty, live ones keep theirs *)
  Array.iteri
    (fun id lits ->
      Alcotest.(check (list int))
        (Printf.sprintf "lits of id %d" id)
        (Array.to_list lits)
        (Array.to_list (Solver.clause_lits s id)))
    before;
  Alcotest.(check bool) "still sat" true (sat s)

(* ---------- the on_model hook ---------- *)

let conflicts () =
  Step_obs.Metrics.value (Step_obs.Metrics.counter "sat.conflicts")

(* The literal over [v] that the model under judgement makes false. *)
let false_lit s v = Lit.of_var (not (Solver.var_value s v)) v

let satisfied s clause = List.exists (Solver.model_value s) clause

(* A hook refining with [pick ()] until it answers [None], then
   accepting. Every model it sees must satisfy the clauses it gave
   before; [given] lists them, newest first. *)
let refining s pick =
  let given = ref [] in
  let hook () =
    if not (List.for_all (satisfied s) !given) then
      Alcotest.fail "a model falsifies an earlier refinement";
    match pick () with
    | None -> Solver.Accept
    | Some c ->
        given := c :: !given;
        Solver.Refine c
  in
  (hook, given)

let once clause =
  let fired = ref false in
  fun () ->
    if !fired then None
    else begin
      fired := true;
      Some (clause ())
    end

let check_audit s =
  Alcotest.(check (list string)) "audit clean" []
    (List.map Step_lint.Diag.to_text (Solver.audit s))

(* With no clauses every variable is a decision on its own level, so a
   clause over two of them has one literal on its highest level: it
   asserts that literal, and the search needs no conflict. *)
let test_hook_asserting () =
  let s = Solver.create () in
  Solver.set_sanitize s true;
  Solver.ensure_var s 3;
  let hook, given =
    refining s (once (fun () -> [ false_lit s 0; false_lit s 1 ]))
  in
  let c0 = conflicts () in
  Alcotest.(check bool) "sat" true (Solver.solve ~on_model:hook s = Solver.Sat);
  Alcotest.(check int) "one refinement" 1 (List.length !given);
  Alcotest.(check int) "asserted without a conflict" 0 (conflicts () - c0);
  Alcotest.(check int) "kept as a problem clause" 1 (Solver.n_clauses s);
  check_audit s

(* x0 <-> x1: whichever is decided first propagates the other on its
   level, so a clause over both has two literals on its highest level
   and is analysed as one conflict. *)
let test_hook_conflicting () =
  let s = solver_of [ [ neg 0; pos 1 ]; [ pos 0; neg 1 ] ] in
  Solver.set_sanitize s true;
  Solver.ensure_var s 3;
  let hook, given =
    refining s (once (fun () -> [ false_lit s 0; false_lit s 1 ]))
  in
  let c0 = conflicts () in
  Alcotest.(check bool) "sat" true (Solver.solve ~on_model:hook s = Solver.Sat);
  Alcotest.(check int) "one refinement" 1 (List.length !given);
  Alcotest.(check int) "analysed as one conflict" 1 (conflicts () - c0);
  Alcotest.(check bool) "final model satisfies it" true
    (List.for_all (satisfied s) !given);
  check_audit s

(* A clause false at level 0 refutes the clause set for good. *)
let test_hook_level_zero () =
  let s = solver_of [ [ pos 0 ]; [ neg 1 ] ] in
  Solver.set_sanitize s true;
  Solver.ensure_var s 3;
  let hook, _ = refining s (once (fun () -> [ neg 0; pos 1 ])) in
  Alcotest.(check bool) "unsat" true
    (Solver.solve ~on_model:hook s = Solver.Unsat);
  Alcotest.(check bool) "okay false" false (Solver.okay s);
  Alcotest.(check int) "no core" 0 (List.length (Solver.unsat_core s));
  Alcotest.(check bool) "stays unsat" false (sat s);
  check_audit s

(* A clause the model satisfies is refused, and leaves nothing behind. *)
let test_hook_not_false () =
  let s = solver_of [ [ pos 0; pos 1 ] ] in
  Solver.set_sanitize s true;
  let hook () =
    Solver.Refine [ Lit.negate (false_lit s 0); false_lit s 1 ]
  in
  (match Solver.solve ~on_model:hook s with
  | _ -> Alcotest.fail "a clause true under the model was accepted"
  | exception Invalid_argument _ -> ());
  Alcotest.(check int) "nothing added" 1 (Solver.n_clauses s);
  check_audit s;
  ignore (Solver.add_clause s [ neg 0 ]);
  Alcotest.(check bool) "usable at level 0" true (sat s);
  Alcotest.(check bool) "x1" true (Solver.var_value s 1)

let test_hook_stop () =
  let s = solver_of [ [ pos 0; pos 1 ]; [ neg 0; neg 1 ] ] in
  Solver.set_sanitize s true;
  let calls = ref 0 in
  let hook () =
    incr calls;
    if not (satisfied s [ pos 0; pos 1 ] && satisfied s [ neg 0; neg 1 ]) then
      Alcotest.fail "the hook reads a model that falsifies the clauses";
    Solver.Stop
  in
  Alcotest.(check bool) "unknown" true
    (Solver.solve ~on_model:hook s = Solver.Unknown);
  Alcotest.(check int) "one model judged" 1 !calls;
  Alcotest.(check bool) "okay" true (Solver.okay s);
  check_audit s;
  Alcotest.(check bool) "plain solve sat" true (sat s)

(* Under the assumptions x0 and x1 the hook excludes every value of
   (x2, x3) alongside x0, so the search learns ~x0: the answer is Unsat
   with the core {x0}, and the clause set itself stays satisfiable. *)
let test_hook_assumptions () =
  let s = Solver.create () in
  Solver.set_sanitize s true;
  Solver.ensure_var s 4;
  let assumptions = [ pos 0; pos 1 ] in
  let hook, given =
    refining s (fun () -> Some [ neg 0; false_lit s 2; false_lit s 3 ])
  in
  Alcotest.(check bool) "unsat under the assumptions" true
    (Solver.solve ~assumptions ~on_model:hook s = Solver.Unsat);
  Alcotest.(check int) "every (x2, x3) excluded" 4 (List.length !given);
  let core = Solver.unsat_core s in
  Alcotest.(check bool) "core within the assumptions" true
    (core <> [] && List.for_all (fun l -> List.mem l assumptions) core);
  Alcotest.(check bool) "okay" true (Solver.okay s);
  check_audit s;
  Alcotest.(check bool) "core suffices" false (sat ~assumptions:core s);
  Alcotest.(check bool) "sat without them" true (sat s);
  Alcotest.(check bool) "x0 false" false (Solver.var_value s 0)

(* Pigeonhole 3 -> 2 with its at-most-one clauses handed over by the
   hook: the refutation uses them as input clauses, and the LRAT
   certificate must check. *)
let test_hook_proof () =
  let module Cert = Step_cert.Cert in
  let module Lrat = Step_sat.Lrat in
  let clauses = pigeonhole 3 2 in
  let eager, hidden = List.partition (List.for_all Lit.is_pos) clauses in
  let s = solver_of ~proof:true eager in
  Solver.set_sanitize s true;
  Solver.ensure_var s 5;
  let hook, given =
    refining s (fun () ->
        List.find_opt (fun c -> not (satisfied s c)) hidden)
  in
  Alcotest.(check bool) "unsat" true
    (Solver.solve ~on_model:hook s = Solver.Unsat);
  Alcotest.(check bool) "refined" true (!given <> []);
  Alcotest.(check bool) "refutation" true (Solver.has_refutation s);
  check_audit s;
  let e = Lrat.export s in
  Alcotest.(check (list string)) "LRAT checks" []
    (List.map Step_lint.Diag.to_text
       (Cert.check_lrat ~item:"hook" ~n_vars:e.Lrat.n_vars
          ~cnf:(Cert.pack_cnf e.Lrat.cnf) ~proof:e.Lrat.proof ()))

(* ---------- property tests ---------- *)

let prop_matches_brute_force =
  QCheck2.Test.make ~count:400 ~name:"solver agrees with brute force"
    ~print:print_cnf gen_cnf (fun (n, clauses) ->
      let expected = brute_force_sat n clauses <> None in
      let s = solver_of clauses in
      let got = sat s in
      if got && expected then
        (* model must satisfy every clause *)
        List.for_all
          (List.exists (fun l -> Solver.model_value s l))
          clauses
      else got = expected)

let prop_proof_mode_agrees =
  QCheck2.Test.make ~count:200 ~name:"proof mode agrees with normal mode"
    ~print:print_cnf gen_cnf (fun (_, clauses) ->
      let s1 = solver_of clauses in
      let s2 = solver_of ~proof:true clauses in
      sat s1 = sat s2)

let prop_core_sufficient =
  QCheck2.Test.make ~count:200 ~name:"unsat cores are sufficient"
    ~print:print_cnf gen_cnf (fun (n, clauses) ->
      let s = solver_of clauses in
      let assumptions = List.init n (fun v -> Lit.of_var (v mod 2 = 0) v) in
      if sat ~assumptions s then true
      else begin
        let core = Solver.unsat_core s in
        List.for_all (fun l -> List.mem l assumptions) core
        && not (sat ~assumptions:core s)
      end)

let prop_model_complete =
  QCheck2.Test.make ~count:200 ~name:"models assign every variable coherently"
    ~print:print_cnf gen_cnf (fun (n, clauses) ->
      let s = solver_of clauses in
      Solver.ensure_var s (n - 1);
      if not (sat s) then true
      else
        List.init n (fun v ->
            Solver.model_value s (pos v) <> Solver.model_value s (neg v))
        |> List.for_all Fun.id)

(* The hook hands over the hidden half of a random CNF one falsified
   clause at a time: the verdict must match brute force on the whole
   CNF, with a model that satisfies all of it, and so must a solve
   under assumptions (checked against the CNF plus the assumptions). *)
let prop_hook_matches_brute_force =
  QCheck2.Test.make ~count:300 ~name:"hook refinement agrees with brute force"
    ~print:print_cnf gen_cnf (fun (n, clauses) ->
      let eager = List.filteri (fun i _ -> i mod 2 = 0) clauses
      and hidden = List.filteri (fun i _ -> i mod 2 = 1) clauses in
      let s = solver_of eager in
      Solver.ensure_var s (n - 1);
      let hook () =
        match List.find_opt (fun c -> not (satisfied s c)) hidden with
        | None -> Solver.Accept
        | Some c -> Solver.Refine c
      in
      let agrees assumptions =
        let units = List.map (fun l -> [ l ]) assumptions in
        let expected = brute_force_sat n (units @ clauses) <> None in
        match Solver.solve ~assumptions ~on_model:hook s with
        | Solver.Sat ->
            expected && List.for_all (satisfied s) (units @ clauses)
        | Solver.Unsat -> not expected
        | Solver.Unknown -> false
      in
      let assumptions = List.init (n / 2) (fun v -> Lit.of_var (v mod 3 = 0) v) in
      agrees assumptions && agrees [] && Solver.audit s = [])

(* Clause intake against a reference written here: the normal form
   (sorted, duplicates dropped, a complementary pair or, outside proof
   mode, a literal true at level 0 discarding the clause, a literal false
   at level 0 dropped), the two watched slots (the first non-false
   literal swapped to slot 0, the next to slot 1), the returned id and
   [okay]. The level-0 assignment is the unit-propagation fixpoint of the
   clauses stored so far, whatever order the solver reached it in.
   Every other clause goes through [add_clause_array] from a buffer with
   junk past its length, overwritten after the call. *)
type ref_solver = {
  proof : bool;
  value : int array; (* per var: 0 unassigned, 1 true, 2 false *)
  mutable stored : Lit.t array list; (* newest first *)
  mutable ok : bool;
  mutable n_vars : int;
}

let ref_value r l =
  match r.value.(Lit.var l) with
  | 0 -> 0
  | a -> if Lit.is_pos l then a else 3 - a

(* unit propagation over the stored clauses, to a fixpoint *)
let ref_propagate r =
  let changed = ref true in
  while r.ok && !changed do
    changed := false;
    List.iter
      (fun c ->
        if r.ok && not (Array.exists (fun l -> ref_value r l = 1) c) then
          match List.filter (fun l -> ref_value r l = 0) (Array.to_list c) with
          | [] -> r.ok <- false
          | [ l ] ->
              r.value.(Lit.var l) <- (if Lit.is_pos l then 1 else 2);
              changed := true
          | _ -> ())
      r.stored
  done

(* the expected return and, when a clause is stored, its literals *)
let ref_add r lits =
  List.iter (fun l -> r.n_vars <- max r.n_vars (Lit.var l + 1)) lits;
  if not r.ok then (-1, None)
  else begin
    let sorted = List.sort_uniq compare lits in
    let taut =
      List.exists (fun l -> List.mem (Lit.negate l) sorted) sorted
      || ((not r.proof) && List.exists (fun l -> ref_value r l = 1) sorted)
    in
    let kept =
      if r.proof then sorted else List.filter (fun l -> ref_value r l = 0) sorted
    in
    if taut then (-1, None)
    else if kept = [] && not r.proof then begin
      r.ok <- false;
      (-1, None)
    end
    else begin
      let c = Array.of_list kept in
      let pick from =
        let k = ref from in
        while !k < Array.length c && ref_value r c.(!k) = 2 do
          incr k
        done;
        if !k < Array.length c then begin
          let t = c.(from) in
          c.(from) <- c.(!k);
          c.(!k) <- t;
          true
        end
        else false
      in
      if Array.length c >= 2 && pick 0 then ignore (pick 1);
      let id = List.length r.stored in
      r.stored <- Array.copy c :: r.stored;
      if c = [||] then r.ok <- false else ref_propagate r;
      (id, Some c)
    end
  end

let gen_intake =
  let open QCheck2.Gen in
  let* proof = bool in
  let* n_vars = int_range 1 8 in
  let gen_lit = map2 Lit.of_var bool (int_range 0 (n_vars - 1)) in
  let* units = list_size (int_range 0 3) (map (fun l -> [ l ]) gen_lit) in
  let+ clauses = list_size (int_range 0 30) (list_size (int_range 0 6) gen_lit) in
  (proof, n_vars, units @ clauses)

let prop_clause_intake =
  QCheck2.Test.make ~count:500 ~name:"clause intake = reference normal form"
    ~print:(fun (proof, n, cs) ->
      Printf.sprintf "proof=%b %s" proof (print_cnf (n, cs)))
    gen_intake (fun (proof, n_vars, clauses) ->
      let s = Solver.create ~proof () in
      let r =
        { proof; value = Array.make n_vars 0; stored = []; ok = true; n_vars = 0 }
      in
      let buf = Array.make 8 0 in
      let step i lits =
        let got =
          if i mod 2 = 0 then Solver.add_clause s lits
          else begin
            let n = List.length lits in
            List.iteri (fun k l -> buf.(k) <- l) lits;
            (* junk past the clause: a literal over a var far out of range *)
            Array.fill buf n (Array.length buf - n) (Lit.pos 1000);
            let id = Solver.add_clause_array s buf n in
            Array.fill buf 0 (Array.length buf) (Lit.neg_of_var 999);
            id
          end
        in
        let expected, stored = ref_add r lits in
        got = expected
        && Solver.okay s = r.ok
        && Solver.n_vars s = r.n_vars
        && Solver.n_clause_records s = List.length r.stored
        && match stored with
           | Some c -> Solver.clause_lits s got = c
           | None -> true
      in
      List.for_all Fun.id (List.mapi step clauses)
      (* later level-0 propagation may move watched literals, not change
         the clause *)
      && List.for_all2
           (fun id c ->
             let sorted a = List.sort compare (Array.to_list a) in
             sorted (Solver.clause_lits s id) = sorted c)
           (List.init (List.length r.stored) Fun.id)
           (List.rev r.stored))

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let () =
  Alcotest.run "step_sat"
    [
      ( "solver",
        [
          Alcotest.test_case "empty clause" `Quick test_empty_clause;
          Alcotest.test_case "trivial sat" `Quick test_trivial_sat;
          Alcotest.test_case "contradictory units" `Quick
            test_contradictory_units;
          Alcotest.test_case "chain propagation" `Quick test_chain_propagation;
          Alcotest.test_case "pigeonhole 3-2" `Quick test_pigeonhole_3_2;
          Alcotest.test_case "pigeonhole proof mode" `Quick
            test_pigeonhole_proof_mode;
          Alcotest.test_case "assumptions" `Quick test_assumptions_sat_unsat;
          Alcotest.test_case "fresh assumption var" `Quick
            test_assumption_of_fresh_var;
          Alcotest.test_case "contradictory assumptions" `Quick
            test_contradictory_assumptions;
          Alcotest.test_case "incremental" `Quick test_incremental;
          Alcotest.test_case "tautology" `Quick test_tautology_ignored;
          Alcotest.test_case "duplicate literals" `Quick
            test_duplicate_literals;
          Alcotest.test_case "deadline" `Quick test_deadline;
          Alcotest.test_case "large planted instance" `Quick
            test_large_random_sat;
        ] );
      ( "cnf",
        [
          Alcotest.test_case "clean" `Quick test_cnf_clean;
          Alcotest.test_case "CNF001 var beyond header" `Quick
            test_cnf001_var_beyond_header;
          Alcotest.test_case "CNF002 clause count" `Quick test_cnf002_clause_count;
          Alcotest.test_case "CNF003 duplicate literal" `Quick
            test_cnf003_duplicate_literal;
          Alcotest.test_case "CNF004 tautology" `Quick test_cnf004_tautology;
          Alcotest.test_case "CNF005 duplicate clause" `Quick
            test_cnf005_duplicate_clause;
          Alcotest.test_case "CNF006 unterminated" `Quick test_cnf006_unterminated;
          Alcotest.test_case "CNF007 bad token" `Quick test_cnf007_bad_token;
          Alcotest.test_case "tabs and CRLF" `Quick test_cnf_tabs_crlf;
        ] );
      ( "dimacs",
        [
          Alcotest.test_case "roundtrip" `Quick test_dimacs_roundtrip;
          Alcotest.test_case "multiline clause" `Quick
            test_dimacs_multiline_clause;
          Alcotest.test_case "tabs and CRLF" `Quick test_dimacs_tabs_crlf;
          Alcotest.test_case "parse diagnostics" `Quick
            test_dimacs_parse_diags;
        ] );
      ( "sanitizer",
        [
          Alcotest.test_case "sanitized solve" `Quick test_sanitizer_solve;
          Alcotest.test_case "fresh audit clean" `Quick
            test_sanitizer_audit_fresh;
        ] );
      ( "epoch",
        [ Alcotest.test_case "basic" `Quick test_epoch_basic ] );
      ( "arena",
        [
          Alcotest.test_case "compact preserves ids" `Quick
            test_compact_preserves_ids;
        ] );
      ( "hook",
        [
          Alcotest.test_case "asserting clause" `Quick test_hook_asserting;
          Alcotest.test_case "conflicting clause" `Quick test_hook_conflicting;
          Alcotest.test_case "level-0 clause" `Quick test_hook_level_zero;
          Alcotest.test_case "clause not false" `Quick test_hook_not_false;
          Alcotest.test_case "stop" `Quick test_hook_stop;
          Alcotest.test_case "assumptions" `Quick test_hook_assumptions;
          Alcotest.test_case "proof mode" `Quick test_hook_proof;
        ] );
      qsuite "properties"
        [
          prop_matches_brute_force;
          prop_proof_mode_agrees;
          prop_core_sufficient;
          prop_model_complete;
          prop_hook_matches_brute_force;
          prop_clause_intake;
        ];
    ]
