(* step-fuzz — randomized differential testing across the whole stack.

   Each round draws a random function and partition, then cross-checks
   every implementation path against the others:

     - Prop.1 SAT check vs truth-table reference vs BDD baseline
     - STEP-MG / LJH partitions validity (and QBF optimum <= both)
     - both extraction engines, SAT-verified
     - the QDIMACS export solved back through the CEGAR engine

   With [--proofs] the rounds instead target the certification chain:
   random small CNFs go through a proof-logging solver, UNSAT answers
   must yield DRAT and LRAT refutations that the independent checker
   accepts (and rejects once corrupted), SAT answers must yield models
   that satisfy every input clause. Some rounds force a learned-clause
   database reduction mid-solve so deletion lines are exercised.

   With [--optimum] each round draws a random cone (support up to
   [--vars]) and runs STEP-QD, QB and QDB on all three gates, with and
   without an MG bootstrap on a shared scaffold as the engine does. The
   optimum k and the "indecomposable" verdicts must match an exhaustive
   enumeration of every partition (Step_core.Exhaustive), which decides
   each on f's truth table with no SAT call. Every pair the
   screen's pairwise sweep reports (Step_core.Screen.pairs) must have a
   witness point found by enumerating the cone's inputs. On f's exact
   pair graph for the gate (Check.pair_graph), the seeds {i | j | rest}
   the enumeration finds decomposable must be exactly the non-edges, the
   fact STEP-MG's seed skip rests on, and every pair Screen.harvest
   learns from a seed's SAT counterexample must be an edge. On XOR the
   enumeration's decomposable partitions must be exactly the non-trivial
   ones with no edge between XA and XB, the fact STEP-QD's separator
   search rests on. Every STEP-MG
   partition must decompose with an irredundant XC: moving any one XC
   input to XA or to XB must give a partition the enumeration rejects.

   With [--qbf] each round draws a random QDIMACS formula of at most
   min(V, 8) variables under the prefix ∃, ∀, ∃∀ or ∀∃ and compares
   Step_qbf.Qdimacs.solve with brute-force evaluation (Step_qbf.Naive).

   Exit code 0 when every round agrees; 1 with a reproducer seed printed
   otherwise. Usage:

     dune exec bin/fuzz.exe -- [--rounds N] [--seed S] [--vars V]
       [--proofs | --arena | --optimum | --qbf]
*)

module Aig = Step_aig.Aig
module Gate = Step_core.Gate
module Partition = Step_core.Partition
module Problem = Step_core.Problem
module Check = Step_core.Check
module Mg = Step_core.Mg
module Ljh = Step_core.Ljh
module Qbf_model = Step_core.Qbf_model
module Copies = Step_core.Copies
module Exhaustive = Step_core.Exhaustive
module Screen = Step_core.Screen
module Extract = Step_core.Extract
module Verify = Step_core.Verify
module Solver = Step_sat.Solver
module Lit = Step_sat.Lit
module Drat = Step_sat.Drat
module Lrat = Step_sat.Lrat
module Cert = Step_cert.Cert
module Diag = Step_lint.Diag
module Qdimacs = Step_qbf.Qdimacs
module Naive = Step_qbf.Naive

let rounds = ref 200
let seed = ref 1
let n_vars = ref 5
let proofs = ref false

let failures = ref 0

let fail round what =
  incr failures;
  Printf.printf "FAIL round=%d seed=%d: %s\n%!" round !seed what

(* random function over exactly [n] inputs *)
let random_problem st n =
  let m = Aig.create () in
  let inputs = Array.init n (fun _ -> Aig.fresh_input m) in
  let rec expr depth =
    if depth = 0 || Random.State.int st 4 = 0 then begin
      let v = inputs.(Random.State.int st n) in
      if Random.State.bool st then v else Aig.not_ v
    end
    else begin
      let a = expr (depth - 1) and b = expr (depth - 1) in
      match Random.State.int st 3 with
      | 0 -> Aig.and_ m a b
      | 1 -> Aig.or_ m a b
      | _ -> Aig.xor_ m a b
    end
  in
  Problem.of_edge m (expr (2 + Random.State.int st 3))

let random_partition st support =
  let xa = ref [] and xb = ref [] and xc = ref [] in
  List.iter
    (fun v ->
      match Random.State.int st 3 with
      | 0 -> xa := v :: !xa
      | 1 -> xb := v :: !xb
      | _ -> xc := v :: !xc)
    support;
  (* patch trivial assignments *)
  (match (!xa, !xb, !xc) with
  | [], _, c :: rest ->
      xa := [ c ];
      xc := rest
  | [], b :: rest, [] ->
      xa := [ b ];
      xb := rest
  | _ -> ());
  (match (!xb, !xc) with
  | [], c :: rest ->
      xb := [ c ];
      xc := rest
  | [], [] -> begin
      match !xa with
      | a :: rest when rest <> [] ->
          xb := [ a ];
          xa := rest
      | _ -> ()
    end
  | _ -> ());
  if !xa = [] || !xb = [] then None
  else Some (Partition.make ~xa:!xa ~xb:!xb ~xc:!xc)

let gate_of st =
  match Random.State.int st 3 with
  | 0 -> Gate.Or_gate
  | 1 -> Gate.And_gate
  | _ -> Gate.Xor_gate

let round_check round st =
  let p = random_problem st !n_vars in
  if List.length p.Problem.support >= 2 then begin
    let g = gate_of st in
    (* 1. three-way decomposability agreement on a random partition *)
    (match random_partition st p.Problem.support with
    | None -> ()
    | Some part ->
        let sat = Check.decomposable p g part in
        let sem = Check.decomposable_semantic p g part in
        if sat <> sem then
          fail round
            (Printf.sprintf "SAT=%b vs semantic=%b for %s %s" sat sem
               (Gate.to_string g) (Partition.to_string part));
        (match Step_bdd.Bidec.decomposable p g part with
        | Some b when b <> sat ->
            fail round "BDD check disagrees with SAT check"
        | Some _ | None -> ());
        (* 2. extraction engines on decomposable partitions *)
        if sat then
          List.iter
            (fun engine ->
              match Extract.run ~engine p g part with
              | e ->
                  if
                    not
                      (Verify.decomposition p g part ~fa:e.Extract.fa
                         ~fb:e.Extract.fb)
                  then fail round "extraction failed verification"
              | exception Aig.Blowup -> ())
            [ Extract.Quantify; Extract.Interpolate ]);
    (* 3. method consistency: QBF optimum <= MG; every answer valid *)
    let mg = (Mg.find p g).Mg.partition in
    let lj = (Ljh.find p g).Ljh.partition in
    let qd = Qbf_model.optimize p g Qbf_model.Disjointness in
    (match (mg, qd.Qbf_model.partition) with
    | Some m, Some q ->
        if Partition.disjointness_k q > Partition.disjointness_k m then
          fail round "QD worse than MG"
    | Some _, None -> fail round "MG decomposed but QD did not"
    | None, Some _ ->
        () (* possible: MG's seed heuristic can miss within its cap *)
    | None, None -> ());
    List.iter
      (fun (label, part) ->
        match part with
        | None -> ()
        | Some part ->
            if not (Check.decomposable p g part) then
              fail round (label ^ " returned an invalid partition"))
      [ ("MG", mg); ("LJH", lj); ("QD", qd.Qbf_model.partition) ]
  end

(* --optimum mode: the QBF optimum search against exhaustive enumeration.
   One enumeration per gate serves all three targets. *)

let optimum_targets =
  [ ("QD", Qbf_model.Disjointness); ("QB", Qbf_model.Balancedness);
    ("QDB", Qbf_model.Combined) ]

(* A random cone over exactly [n] inputs; half the time planted as
   g(XA, XC) op h(XB, XC) for a random split and gate, so decomposable
   verdicts are as common as indecomposable ones. *)
let optimum_problem st n =
  let m = Aig.create () in
  let inputs = List.init n (fun _ -> Aig.fresh_input m) in
  (* every given leaf used once, plus a few repeats *)
  let tree leaves =
    let leaves =
      leaves
      @ List.filter_map
          (fun l -> if Random.State.int st 3 = 0 then Some l else None)
          leaves
    in
    let leaf v = if Random.State.bool st then v else Aig.not_ v in
    match List.map leaf leaves with
    | [] -> Aig.f
    | first :: rest ->
        List.fold_left
          (fun acc l ->
            match Random.State.int st 3 with
            | 0 -> Aig.and_ m acc l
            | 1 -> Aig.or_ m acc l
            | _ -> Aig.xor_ m acc l)
          first rest
  in
  let f =
    if Random.State.bool st then tree inputs
    else begin
      let block = List.map (fun v -> (Random.State.int st 3, v)) inputs in
      let side k =
        List.filter_map (fun (b, v) -> if b = k then Some v else None) block
      in
      let g = tree (side 0 @ side 2) and h = tree (side 1 @ side 2) in
      Gate.edge m (gate_of st) g h
    end
  in
  Problem.of_edge m f

let pairs_checked = ref 0

(* Every ordered pair (i, j) in the screen's pair graph must be symmetric
   and have a point x, found by enumerating all of them, where the tuple
   (x, x ⊕ e_i, x ⊕ e_j) violates the gate condition; the sweep must
   report exactly the pairs of the graph, each as two flips. *)
let check_pairs round (p : Problem.t) g =
  let support = Array.of_list p.Problem.support in
  let n = Array.length support in
  let pos = Array.make (Aig.n_inputs p.Problem.aig) 0 in
  Array.iteri (fun k i -> pos.(i) <- k) support;
  let f mask flip =
    Aig.eval p.Problem.aig
      (fun i -> (mask lxor flip) lsr pos.(i) land 1 = 1)
      p.Problem.f
  in
  let violates mask i j =
    let ei = 1 lsl i and ej = 1 lsl j in
    let fx = f mask 0 and f1 = f mask ei and f2 = f mask ej in
    match g with
    | Gate.Or_gate -> fx && (not f1) && not f2
    | Gate.And_gate -> (not fx) && f1 && f2
    | Gate.Xor_gate -> fx <> f1 <> f2 <> f mask (ei lor ej)
  in
  let screen = Screen.create p g in
  let conflicts = ref 0 in
  let bad what i j =
    fail round
      (Printf.sprintf "%s: pair (%d, %d) %s" (Gate.to_string g) i j what)
  in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      if i <> j then begin
        incr pairs_checked;
        let c = Screen.conflict screen i j in
        if c <> Screen.conflict screen j i then bad "is not symmetric" i j;
        let witness mask = violates mask i j in
        if c then incr conflicts;
        if c && not (List.exists witness (List.init (1 lsl n) Fun.id)) then
          bad "has no witness" i j
      end
    done
  done;
  Screen.pairs screen (fun () ->
      decr conflicts;
      let xa = ref [] and xb = ref [] in
      Screen.iter_diff screen
        ~xa:(fun k -> xa := k :: !xa)
        ~xb:(fun k -> xb := k :: !xb);
      match (!xa, !xb) with
      | [ i ], [ j ] when i <> j ->
          if not (Screen.conflict screen i j) then bad "is not a conflict" i j
      | _ -> fail round (Gate.to_string g ^ ": pair tuple is not two flips"));
  if !conflicts <> 0 then
    fail round (Gate.to_string g ^ ": pairs reports other pairs than the graph")

let pair_graphs_checked = ref 0
let harvested_checked = ref 0

(* The facts behind STEP-MG's seed scan and the separator search, on f's
   exact pair graph (Check.pair_graph) for the gate:
   - the seeds {i | j | rest} that enumeration finds decomposable are
     exactly the non-edges, so f is indecomposable exactly when the
     graph is complete;
   - every pair Screen.harvest reports at the base point of a seed's SAT
     counterexample, as STEP-MG learns it, is an edge;
   - on XOR, the decomposable partitions are exactly the non-trivial ones
     with no edge between XA and XB. *)
let check_pair_graph round (p : Problem.t) g all =
  incr pair_graphs_checked;
  let graph = Check.pair_graph p g in
  let pos = Hashtbl.create 16 in
  List.iteri (fun j i -> Hashtbl.replace pos i j) p.Problem.support;
  let edge i j = graph.(Hashtbl.find pos i).(Hashtbl.find pos j) in
  let what = Gate.to_string g in
  let seed u v =
    Partition.make ~xa:[ u ] ~xb:[ v ]
      ~xc:(List.filter (fun i -> i <> u && i <> v) p.Problem.support)
  in
  let copies = Copies.create p g in
  let screen = Copies.screen copies in
  List.iter
    (fun (u, v) ->
      if List.mem (Partition.canonical (seed u v)) all = edge u v then
        fail round
          (Printf.sprintf "%s: seed {%d | %d | rest} %s, pair graph edge %b"
             what u v
             (if edge u v then "decomposes" else "does not decompose")
             (edge u v));
      if Copies.check copies (seed u v) = Solver.Sat then begin
        let x, x1, x2 = Copies.model_points copies in
        if not (Screen.load screen ~x ~x1 ~x2) then
          fail round (what ^ ": seed counterexample does not violate");
        Screen.harvest screen ~known:(fun _ _ -> false) (fun () ->
            incr harvested_checked;
            let i = ref (-1) and j = ref (-1) in
            Screen.iter_diff screen ~xa:(fun k -> i := k) ~xb:(fun k -> j := k);
            if not graph.(!i).(!j) then
              fail round
                (Printf.sprintf "%s: harvested pair (%d, %d) is no edge" what
                   !i !j))
      end)
    (Mg.seeds p);
  if g = Gate.Xor_gate then begin
    let separated (q : Partition.t) =
      List.for_all
        (fun i -> List.for_all (fun j -> not (edge i j)) q.Partition.xb)
        q.Partition.xa
    in
    let expected =
      Exhaustive.partitions p
      |> List.filter separated
      |> List.map Partition.canonical
      |> List.sort_uniq compare
    in
    if expected <> all then
      fail round
        (Printf.sprintf
           "XOR: %d partitions decompose, %d separate the pair graph"
           (List.length all) (List.length expected))
  end

let mg_checked = ref 0

(* STEP-MG's partition must decompose, and its XC must be irredundant:
   moving any one XC input to XA or to XB gives a partition that
   exhaustive enumeration finds not decomposable. That is the minimality
   of MG's group MUS: an input a complete MUS frees on both copies is one
   f does not depend on, so the counterexample that makes each XC
   selector necessary is one for the moved partition too. *)
let check_mg round (p : Problem.t) g all =
  match (Mg.find p g).Mg.partition with
  | None -> ()
  | Some q ->
      incr mg_checked;
      let what =
        Printf.sprintf "MG %s %s" (Gate.to_string g) (Partition.to_string q)
      in
      if not (Check.decomposable p g q) then
        fail round (what ^ ": returned an invalid partition");
      (* [all] holds canonical forms, and both orders of equal sizes *)
      let decomposes q = List.mem (Partition.canonical q) all in
      let open Partition in
      List.iter
        (fun i ->
          let xc = List.filter (( <> ) i) q.xc in
          if
            decomposes (make ~xa:(i :: q.xa) ~xb:q.xb ~xc)
            || decomposes (make ~xa:q.xa ~xb:(i :: q.xb) ~xc)
          then
            fail round (Printf.sprintf "%s: XC input %d is redundant" what i))
        q.xc

let optimum_round round st =
  let p = optimum_problem st (2 + Random.State.int st (!n_vars - 1)) in
  if List.length p.Problem.support >= 2 then
    List.iter
      (fun g ->
        check_pairs round p g;
        let all = Exhaustive.all_decomposable p g in
        check_pair_graph round p g all;
        check_mg round p g all;
        List.iter
          (fun (label, target) ->
            let k = Qbf_model.target_k target in
            let expected =
              List.fold_left
                (fun acc part ->
                  match acc with
                  | Some best when best <= k part -> acc
                  | _ -> Some (k part))
                None all
            in
            let check how (o : Qbf_model.outcome) =
              let what =
                Printf.sprintf "%s %s (%s)" label (Gate.to_string g) how
              in
              match (o.Qbf_model.partition, expected) with
              | _ when not o.Qbf_model.optimal ->
                  fail round (what ^ ": no optimality proof")
              | None, None -> ()
              | None, Some e ->
                  fail round
                    (Printf.sprintf "%s: claimed indecomposable, optimum is %d"
                       what e)
              | Some q, None ->
                  fail round
                    (Printf.sprintf "%s: returned %s, but nothing decomposes"
                       what (Partition.to_string q))
              | Some q, Some e ->
                  if k q <> e then
                    fail round
                      (Printf.sprintf "%s: optimum %d, enumeration says %d"
                         what (k q) e)
                  else if not (Check.decomposable p g q) then
                    fail round (what ^ ": returned an invalid partition")
            in
            check "plain" (Qbf_model.optimize p g target);
            let copies = Copies.create p g in
            let bootstrap = (Mg.find ~copies p g).Mg.partition in
            check "MG bootstrap"
              (Qbf_model.optimize ~copies ?bootstrap p g target))
          optimum_targets)
      Gate.all

(* --proofs mode: fuzz the proof-logging solver against the independent
   certificate checker. Clauses are plain DIMACS ints end to end. *)

let random_cnf st n =
  let n_clauses = 3 + Random.State.int st (4 * n) in
  List.init n_clauses (fun _ ->
      let len = 1 + Random.State.int st 3 in
      List.init len (fun _ ->
          let v = 1 + Random.State.int st n in
          if Random.State.bool st then v else -v))

(* Corrupt an LRAT/DRAT text so the checker must reject it: truncating
   loses the final empty clause at minimum. *)
let truncate_proof proof = String.sub proof 0 (String.length proof / 2)

let proof_round round st =
  let n = !n_vars in
  let cnf = random_cnf st n in
  let solver = Solver.create ~proof:true () in
  Solver.ensure_var solver (n - 1);
  List.iter
    (fun c -> ignore (Solver.add_clause solver (List.map Lit.of_dimacs c)))
    cnf;
  (* On a third of the rounds, solve under an assumption first and force
     a learned-clause DB reduction, so exported proofs carry deletion
     lines that the checkers must replay. *)
  if Random.State.int st 3 = 0 then begin
    let a = Lit.of_dimacs (1 + Random.State.int st n) in
    ignore (Solver.solve ~assumptions:[ a ] solver);
    Solver.reduce_learnts solver
  end;
  if Solver.solve solver = Solver.Sat then begin
    let model =
      (* solver var [i] is DIMACS var [i + 1] *)
      List.init n (fun i ->
          if Solver.var_value solver i then i + 1 else -(i + 1))
    in
    let live = Lrat.input_cnf solver in
    if
      Diag.has_errors
        (Cert.check_model ~item:"fuzz-sat" ~cnf:(Cert.pack_cnf live) ~model ())
    then fail round "SAT model fails the clause check"
  end
  else begin
    (* textual DRAT through the independent checker *)
    let live = Lrat.input_cnf solver in
    let drat_text = Drat.export_string solver in
    if
      Diag.has_errors
        (Cert.check_drat ~item:"fuzz-drat" ~n_vars:(Solver.n_vars solver)
           ~cnf:(Cert.pack_cnf live) ~proof:drat_text ())
    then fail round "textual DRAT rejected by the certificate checker";
    (* LRAT export through the hint-directed checker *)
    let e = Lrat.export solver in
    if
      Diag.has_errors
        (Cert.check_lrat ~item:"fuzz-lrat" ~n_vars:e.Lrat.n_vars
           ~cnf:(Cert.pack_cnf e.Lrat.cnf) ~proof:e.Lrat.proof ())
    then fail round "LRAT proof rejected by the certificate checker";
    (* and a corrupted proof must NOT be accepted *)
    if String.length e.Lrat.proof > 4 then begin
      let bad = truncate_proof e.Lrat.proof in
      if
        not
          (Diag.has_errors
             (Cert.check_lrat ~item:"fuzz-corrupt" ~n_vars:e.Lrat.n_vars
                ~cnf:(Cert.pack_cnf e.Lrat.cnf) ~proof:bad ()))
      then fail round "corrupted LRAT proof accepted"
    end
  end

(* --arena mode: differential fuzzing of the arena-based solver paths.
   Every round solves the same random CNF four ways — the plain solver
   (reference); with a guarded pigeonhole formula added, a solve under a
   random assumption and one under the guard (which learns clauses), then
   a forced DB reduction and compaction, then a re-solve without
   assumptions; proof-logged, the pigeonhole formula alone solved under
   the guard, reduced and compacted, then the CNF added and solved, then
   refuted with the guard asserted; and split into eager clauses and
   hidden ones that an [on_model] hook adds inside the search, with and
   without a random assumption set — and demands identical verdicts,
   satisfying models, cores within the assumptions, clean invariant
   audits, and LRAT/DRAT certificates that still check after the arena
   has moved every clause. *)

(* Pigeonhole [n_h + 1] -> [n_h] over DIMACS vars from [first], every
   clause prefixed with [-g]: unsatisfiable under the assumption [g],
   satisfied by [g] false. *)
let guarded_pigeonhole ~g ~first n_h =
  let n_p = n_h + 1 in
  let v i h = first + (i * n_h) + h in
  let clauses = ref [] in
  let add c = clauses := (-g :: c) :: !clauses in
  for i = 0 to n_p - 1 do
    add (List.init n_h (v i))
  done;
  for h = 0 to n_h - 1 do
    for i = 0 to n_p - 1 do
      for j = i + 1 to n_p - 1 do
        add [ -v i h; -v j h ]
      done
    done
  done;
  List.rev !clauses

let eval_dimacs cnf value =
  List.for_all
    (List.exists (fun l -> if l > 0 then value l else not (value (-l))))
    cnf

let arena_round round st =
  let n = !n_vars in
  let cnf = random_cnf st n in
  (* Past the CNF's variables, a random block of variables no clause
     uses, and more made between clause adds: their literals are never
     watched, so they keep the solver's shared empty watch list through
     solving, reduction and compaction. *)
  let mk ?proof cnf =
    let s = Solver.create ?proof () in
    let top = List.fold_left (List.fold_left (fun m l -> max m (abs l))) n cnf in
    Solver.ensure_var s (top - 1 + Random.State.int st 8);
    List.iter
      (fun c ->
        if Random.State.int st 4 = 0 then ignore (Solver.new_var s);
        ignore (Solver.add_clause s (List.map Lit.of_dimacs c)))
      cnf;
    s
  in
  let check_model ?(cnf = cnf) label s =
    if not (eval_dimacs cnf (fun v -> Solver.var_value s (v - 1))) then
      fail round (label ^ " model does not satisfy the input CNF")
  in
  let check_audit label s =
    match Solver.audit s with
    | [] -> ()
    | d :: _ -> fail round (label ^ " audit: " ^ Diag.to_text d)
  in
  (* reference: the plain solver *)
  let base = mk cnf in
  let r0 = Solver.solve base = Solver.Sat in
  if r0 then check_model "reference" base;
  check_audit "reference" base;
  (* learnts from solves under a random assumption and under the guard of
     a pigeonhole formula on fresh vars, then a forced reduction +
     compaction (surviving blocks move over the ones the reduction
     deleted), then a re-solve on the compacted arena *)
  let g = n + 1 in
  let n_h = 5 + Random.State.int st 2 in
  let php = guarded_pigeonhole ~g ~first:(n + 2) n_h in
  let cnf1 = cnf @ php in
  let s1 = mk cnf1 in
  let p = Lit.of_var (Random.State.bool st) (Random.State.int st n) in
  let ra = Solver.solve ~assumptions:[ p ] s1 = Solver.Sat in
  if ra && not r0 then
    fail round "satisfiable under an assumption but the reference is not";
  if ra then begin
    check_model ~cnf:cnf1 "assumed" s1;
    if not (Solver.model_value s1 p) then
      fail round "assumed model falsifies its assumption"
  end;
  if Solver.solve ~assumptions:[ Lit.of_dimacs g ] s1 = Solver.Sat then
    fail round "guarded pigeonhole satisfiable under its guard";
  (* the first reduction spares the learnts the last conflicts used and
     clears their marks; the second can delete those too *)
  let live = Solver.n_live_clauses s1 in
  Solver.reduce_learnts s1;
  Solver.reduce_learnts s1;
  if r0 && Solver.n_live_clauses s1 >= live then
    fail round "learnt-DB reduction deleted no clause";
  Solver.compact s1;
  check_audit "compacted" s1;
  let r1 = Solver.solve s1 = Solver.Sat in
  if r1 <> r0 then
    fail round
      (Printf.sprintf "compacted verdict %b disagrees with reference %b" r1 r0);
  if r1 then check_model ~cnf:cnf1 "compacted" s1;
  check_audit "compacted post-solve" s1;
  (* proof mode: the pigeonhole formula alone learns clauses under the
     guard (the random CNF, often refuted by its units, would stop it),
     loses some to two reductions and is compacted; the CNF is then
     added and solved against the reference, and asserting the guard
     gives a refutation whose certificates must check *)
  let s3 = mk ~proof:true php in
  if Solver.solve ~assumptions:[ Lit.of_dimacs g ] s3 = Solver.Sat then
    fail round "proof-mode guarded pigeonhole satisfiable under its guard";
  let n_live = Solver.n_live_clauses s3 in
  Solver.reduce_learnts s3;
  Solver.reduce_learnts s3;
  if Solver.n_live_clauses s3 >= n_live then
    fail round "proof-mode learnt-DB reduction deleted no clause";
  Solver.compact s3;
  check_audit "proof-mode compacted" s3;
  List.iter
    (fun c -> ignore (Solver.add_clause s3 (List.map Lit.of_dimacs c)))
    cnf;
  let r3 = Solver.solve s3 = Solver.Sat in
  if r3 <> r0 then
    fail round
      (Printf.sprintf "proof-mode verdict %b disagrees with reference %b" r3 r0);
  ignore (Solver.add_clause s3 [ Lit.of_dimacs g ]);
  if Solver.solve s3 = Solver.Sat then
    fail round "guarded pigeonhole satisfiable with its guard asserted";
  check_audit "proof-mode refuted" s3;
  let live = Lrat.input_cnf s3 in
  let drat_text = Drat.export_string s3 in
  if
    Diag.has_errors
      (Cert.check_drat ~item:"arena-drat" ~n_vars:(Solver.n_vars s3)
         ~cnf:(Cert.pack_cnf live) ~proof:drat_text ())
  then fail round "DRAT rejected after arena compaction";
  let e = Lrat.export s3 in
  if
    Diag.has_errors
      (Cert.check_lrat ~item:"arena-lrat" ~n_vars:e.Lrat.n_vars
         ~cnf:(Cert.pack_cnf e.Lrat.cnf) ~proof:e.Lrat.proof ())
  then fail round "LRAT rejected after arena compaction";
  (* hook leg, sanitized: the CNF split into eager clauses and hidden
     ones that the on_model hook hands over, the first one each model
     falsifies. The verdict must be the reference's, a model must satisfy
     the whole CNF, a refutation must leave the solver not okay, and a
     plain re-solve must agree. Then the same on a fresh split solver
     under a random assumption set, against the reference under those
     assumptions, with the core within them. *)
  let eager, hidden = List.partition (fun _ -> Random.State.bool st) cnf in
  let hooked s () =
    let value v = Solver.var_value s (v - 1) in
    match List.find_opt (fun c -> not (eval_dimacs [ c ] value)) hidden with
    | None -> Solver.Accept
    | Some c -> Solver.Refine (List.map Lit.of_dimacs c)
  in
  let sh = mk eager in
  Solver.set_sanitize sh true;
  let rh = Solver.solve ~on_model:(hooked sh) sh = Solver.Sat in
  if rh <> r0 then
    fail round
      (Printf.sprintf "hook verdict %b disagrees with reference %b" rh r0);
  if rh then check_model "hook" sh
  else if Solver.okay sh then fail round "hook refutation left the solver okay";
  check_audit "hook" sh;
  if (Solver.solve sh = Solver.Sat) <> rh then
    fail round "plain re-solve after the hook changed the verdict";
  let assumptions =
    List.init
      (1 + Random.State.int st 3)
      (fun _ -> Lit.of_var (Random.State.bool st) (Random.State.int st n))
  in
  let ra = Solver.solve ~assumptions base = Solver.Sat in
  let sa = mk eager in
  Solver.set_sanitize sa true;
  let rha = Solver.solve ~assumptions ~on_model:(hooked sa) sa = Solver.Sat in
  if rha <> ra then
    fail round
      (Printf.sprintf "assumed hook verdict %b disagrees with reference %b" rha
         ra);
  if rha then begin
    check_model "assumed hook" sa;
    if not (List.for_all (Solver.model_value sa) assumptions) then
      fail round "assumed hook model falsifies an assumption"
  end
  else if
    not (List.for_all (fun l -> List.mem l assumptions) (Solver.unsat_core sa))
  then fail round "assumed hook core is not within the assumptions";
  check_audit "assumed hook" sa

(* --qbf mode: the QDIMACS path against brute force. Each round draws a
   random CNF over at most 8 variables under one of the prefixes ∃, ∀,
   ∃∀ and ∀∃, prints it as QDIMACS, parses it back (which must give the
   same formula) and solves it with Qdimacs.solve: SAT for one level,
   the CEGAR engine for two. Step_qbf.Naive evaluates the same quantified
   matrix by enumeration, on an AIG built here. Variables the prefix
   leaves out are free, bound existentially outermost as QDIMACS
   prescribes; under ∀∃ every variable is bound, since a free one would
   make a third level. *)

let qbf_true = ref 0
let qbf_false = ref 0

let qbf_round round st =
  let n = 1 + Random.State.int st (min 8 !n_vars) in
  let kind = Random.State.int st 4 in
  let name = [| "E"; "A"; "EA"; "AE" |].(kind) in
  (* per variable: 0 free, 1 in the ∃ block, 2 in the ∀ block *)
  let block =
    Array.init n (fun _ ->
        match kind with
        | 0 -> Random.State.int st 2
        | 1 -> 2 * Random.State.int st 2
        | 2 -> Random.State.int st 3
        | _ -> 1 + Random.State.int st 2)
  in
  let vars b = List.filter (fun v -> block.(v) = b) (List.init n Fun.id) in
  let free = vars 0 and ex = vars 1 and fa = vars 2 in
  let prefix =
    (match kind with
     | 0 -> [ (Qdimacs.Exists, ex) ]
     | 1 -> [ (Qdimacs.Forall, fa) ]
     | 2 -> [ (Qdimacs.Exists, ex); (Qdimacs.Forall, fa) ]
     | _ -> [ (Qdimacs.Forall, fa); (Qdimacs.Exists, ex) ])
    |> List.filter (fun (_, vs) -> vs <> [])
  in
  let clauses =
    List.init
      (1 + Random.State.int st (2 * n))
      (fun _ ->
        List.init
          (1 + Random.State.int st 4)
          (fun _ ->
            let v = 1 + Random.State.int st n in
            if Random.State.bool st then v else -v))
  in
  let q = { Qdimacs.num_vars = n; prefix; clauses } in
  let what = Printf.sprintf "%s over %d variables" name n in
  let text = Qdimacs.to_string q in
  let parsed = Qdimacs.parse_string text in
  if parsed <> q then
    fail round (what ^ ": QDIMACS text does not parse back:\n" ^ text);
  let m = Aig.create () in
  let inputs = Array.init n (fun _ -> Aig.fresh_input m) in
  let matrix =
    Aig.and_list m
      (List.map
         (fun c ->
           Aig.or_list m
             (List.map
                (fun l ->
                  let e = inputs.(abs l - 1) in
                  if l > 0 then e else Aig.not_ e)
                c))
         clauses)
  in
  let expected =
    if kind = 3 then
      Naive.forall_exists m ~matrix ~forall_vars:fa ~exists_vars:ex
    else
      Naive.exists_forall m ~matrix ~exists_vars:(free @ ex) ~forall_vars:fa
  in
  incr (if expected then qbf_true else qbf_false);
  match Qdimacs.solve parsed with
  | Qdimacs.Unknown -> fail round (what ^ ": Qdimacs.solve gave up")
  | answer ->
      if (answer = Qdimacs.True) <> expected then
        fail round
          (Printf.sprintf "%s: Qdimacs.solve says %b, enumeration %b:\n%s"
             what (not expected) expected text)

let () =
  let arena = ref false and optimum = ref false and qbf = ref false in
  let rec parse = function
    | [] -> ()
    | "--rounds" :: v :: rest ->
        rounds := int_of_string v;
        parse rest
    | "--seed" :: v :: rest ->
        seed := int_of_string v;
        parse rest
    | "--vars" :: v :: rest ->
        n_vars := int_of_string v;
        parse rest
    | "--proofs" :: rest ->
        proofs := true;
        parse rest
    | "--arena" :: rest ->
        arena := true;
        parse rest
    | "--optimum" :: rest ->
        optimum := true;
        parse rest
    | "--qbf" :: rest ->
        qbf := true;
        parse rest
    | other :: _ ->
        Printf.eprintf "unknown argument %S\n" other;
        exit 2
  in
  parse (List.tl (Array.to_list Sys.argv));
  for round = 1 to !rounds do
    let st = Random.State.make [| !seed; round |] in
    if !arena then arena_round round st
    else if !optimum then optimum_round round st
    else if !qbf then qbf_round round st
    else if !proofs then proof_round round st
    else round_check round st
  done;
  Printf.printf "fuzz%s: %d rounds, %d failures%s\n"
    (if !arena then " (arena)"
     else if !optimum then " (optimum)"
     else if !qbf then " (qbf)"
     else if !proofs then " (proofs)"
     else "")
    !rounds !failures
    (if !optimum then
       Printf.sprintf
         ", %d pairs checked, %d pair graphs checked, %d harvested pairs \
          checked, %d MG partitions checked"
         !pairs_checked !pair_graphs_checked !harvested_checked !mg_checked
     else if !qbf then
       Printf.sprintf ", %d true, %d false" !qbf_true !qbf_false
     else "");
  exit (if !failures = 0 then 0 else 1)
