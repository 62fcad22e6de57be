module Veci = Step_util.Veci
module Clock = Step_obs.Clock
module Metrics = Step_obs.Metrics
module Diag = Step_lint.Diag

(* Per-call solver telemetry, aggregated process-wide. The handles are
   plain mutable cells, cheap enough to update on every solve. *)
let m_calls = Metrics.counter "sat.calls"

let m_sat = Metrics.counter "sat.result.sat"

let m_unsat = Metrics.counter "sat.result.unsat"

let m_unknown = Metrics.counter "sat.result.unknown"

let m_conflicts = Metrics.counter "sat.conflicts"

let m_decisions = Metrics.counter "sat.decisions"

let m_propagations = Metrics.counter "sat.propagations"

let h_solve = Metrics.histogram "sat.solve_s"

(* Deep solver telemetry (gated on [Metrics.deep]): learned-clause
   quality (LBD/"glue" and length distributions), restart dynamics and
   per-call phase timings. Restart, clause-DB-reduction and arena-gc
   counters are always on — all fire orders of magnitude less often than
   conflicts. *)
let m_restarts = Metrics.counter "sat.restarts"

let m_reduce_db = Metrics.counter "sat.reduce_db"

let m_arena_gc = Metrics.counter "sat.arena_gc"

let h_lbd = Metrics.histogram "sat.lbd"

let h_learnt_len = Metrics.histogram "sat.learnt_len"

let h_episode = Metrics.histogram "sat.restart_episode_s"

let h_reduce_s = Metrics.histogram "sat.reduce_db_s"

let h_conflicts_call = Metrics.histogram "sat.conflicts_per_call"

let h_decisions_call = Metrics.histogram "sat.decisions_per_call"

let h_props_call = Metrics.histogram "sat.propagations_per_call"

(* CDCL solver. Nomenclature follows MiniSat: [trail] is the assignment
   stack, [trail_lim] marks decision-level boundaries, [reason.(v)] is the
   clause that propagated variable [v] (-1 for decisions), watch list
   [watches.(l)] holds clauses in which literal [l] is watched (visited
   when [l] becomes false). Assignment codes: 0 = unassigned, 1 = true,
   2 = false, stored per variable with the sign applied on read.

   Clause storage is a flat {!Arena}: a clause is a block of ints inside
   one bank, addressed by an integer ref. Refs move when the arena is
   compacted ({!collect}), so the solver keeps two name spaces:

   - the *ref* (arena offset) is what every hot structure stores — watch
     lists, [reason], the learnt index — and is remapped on gc;
   - the *id* (dense allocation counter) is the stable external name used
     by the public API and the proof machinery ([chain_ids], [premises],
     [proof_dels]); [cmap] maps id -> ref (-1 once dead) and the arena
     header stores the id for the reverse lookup.

   Watch lists hold (ref, blocker) pairs (stride 2); the blocker is a
   literal of the clause checked before touching the block at all.
   Watched literals always sit in slots 0 and 1 of the block. A literal
   gets its own list on its first push ({!watch_list}); until then its
   slot holds the shared [no_watches], which nothing writes.

   See docs/SOLVER.md for the full tour. *)

module Proof = struct
  type step = { premises : int array; pivots : int array }
end

let dummy_step = { Proof.premises = [||]; pivots = [||] }

(* The watch list of every literal that has never been watched. It is
   shared by all solvers (and domains), so it is only ever read: a push
   goes through [watch_list], and the loops that shrink or clear lists
   skip it. *)
let no_watches = Veci.create ~cap:1 ()

type result = Sat | Unsat | Unknown

type verdict = Accept | Stop | Refine of Lit.t list

exception Sanitizer_violation of Diag.t list

type t = {
  arena : Arena.t;
  cmap : Veci.t; (* clause id -> arena ref; -1 once removed *)
  mutable cflags : Bytes.t; (* per id: 1 = learnt (survives removal) *)
  mutable n_problem : int;
  dead_lits : (int, int array) Hashtbl.t;
      (* proof mode: literals of removed clauses, for [d]-line export *)
  learnts : Veci.t; (* refs of live learned clauses *)
  mutable watches : Veci.t array; (* per literal, (ref, blocker) pairs *)
  mutable assign : Bytes.t; (* per var *)
  mutable level : int array;
  mutable reason : int array; (* arena ref or -1, per var *)
  mutable activity : float array;
  mutable polarity : Bytes.t; (* saved phase: 1 = true *)
  seen : Epoch.t; (* analysis marks: 1 = seen, 2 = level-0 proof mark *)
  lbd_seen : Epoch.t; (* per-level scratch for LBD computation *)
  trail : Veci.t;
  trail_lim : Veci.t;
  mutable qhead : int;
  mutable order : Idx_heap.t;
  mutable nvars : int;
  mutable var_inc : float;
  mutable ok : bool;
  mutable sanitize : bool;
  mutable model : Bytes.t;
  mutable core : int list;
  (* per-conflict scratch, reused to keep analysis allocation-free *)
  tmp_learnt : Veci.t;
  tmp_premises : Veci.t;
  tmp_pivots : Veci.t;
  (* statistics *)
  mutable conflicts : int;
  mutable decisions : int;
  mutable propagations : int;
  mutable max_learnts : float;
  (* proof logging *)
  proof_mode : bool;
  chain_ids : Veci.t; (* learned clause id per chain *)
  mutable chains : Proof.step array;
  mutable n_chains : int;
  mutable empty_chain : Proof.step option;
  proof_dels : Veci.t; (* flattened (clause id, n_chains at deletion) pairs *)
}

let create ?(proof = false) () =
  let s =
    {
      arena = Arena.create ~cap:4096 ();
      cmap = Veci.create ();
      cflags = Bytes.make 64 '\000';
      n_problem = 0;
      dead_lits = Hashtbl.create 16;
      learnts = Veci.create ();
      watches = Array.make 32 no_watches;
      assign = Bytes.make 16 '\000';
      level = Array.make 16 0;
      reason = Array.make 16 (-1);
      activity = Array.make 16 0.;
      polarity = Bytes.make 16 '\000';
      seen = Epoch.create ();
      lbd_seen = Epoch.create ();
      trail = Veci.create ();
      trail_lim = Veci.create ();
      qhead = 0;
      order = Idx_heap.create ~gt:(fun _ _ -> false);
      nvars = 0;
      var_inc = 1.0;
      ok = true;
      sanitize =
        (match Sys.getenv_opt "STEP_SANITIZE" with
        | Some ("1" | "true" | "yes" | "on") -> true
        | Some _ | None -> false);
      model = Bytes.make 0 '\000';
      core = [];
      tmp_learnt = Veci.create ();
      tmp_premises = Veci.create ();
      tmp_pivots = Veci.create ();
      conflicts = 0;
      decisions = 0;
      propagations = 0;
      max_learnts = 0.;
      proof_mode = proof;
      chain_ids = Veci.create ();
      chains = Array.make 16 dummy_step;
      n_chains = 0;
      empty_chain = None;
      proof_dels = Veci.create ();
    }
  in
  s.order <- Idx_heap.create ~gt:(fun a b -> s.activity.(a) > s.activity.(b));
  s

let proof_logging s = s.proof_mode

let n_vars s = s.nvars

let n_clauses s = s.n_problem

let okay s = s.ok

let decision_level s = Veci.length s.trail_lim

let n_clause_records s = Veci.length s.cmap

let n_live_clauses s =
  let n = ref 0 in
  Veci.iter (fun r -> if r >= 0 then incr n) s.cmap;
  !n

(* ---------- variable management ---------- *)

let grow_vars s n =
  let old = Array.length s.level in
  if n > old then begin
    let cap = max (2 * old) n in
    let level = Array.make cap 0 in
    Array.blit s.level 0 level 0 old;
    s.level <- level;
    let reason = Array.make cap (-1) in
    Array.blit s.reason 0 reason 0 old;
    s.reason <- reason;
    let activity = Array.make cap 0. in
    Array.blit s.activity 0 activity 0 old;
    s.activity <- activity;
    let ext b =
      let nb = Bytes.make cap '\000' in
      Bytes.blit b 0 nb 0 (Bytes.length b);
      nb
    in
    s.assign <- ext s.assign;
    s.polarity <- ext s.polarity;
    let watches = Array.make (2 * cap) no_watches in
    Array.blit s.watches 0 watches 0 (Array.length s.watches);
    s.watches <- watches;
    Epoch.ensure s.seen cap;
    Epoch.ensure s.lbd_seen cap
  end

let new_var s =
  let v = s.nvars in
  grow_vars s (v + 1);
  Bytes.set s.assign v '\000';
  s.level.(v) <- 0;
  s.reason.(v) <- -1;
  s.activity.(v) <- 0.;
  s.nvars <- v + 1;
  Idx_heap.insert s.order v;
  v

let ensure_var s v =
  while s.nvars <= v do
    ignore (new_var s)
  done

(* ---------- assignment access ---------- *)

(* 0 unassigned / 1 true / 2 false, for a literal *)
let value_lit s l =
  let a = Char.code (Bytes.unsafe_get s.assign (Lit.var l)) in
  if a = 0 then 0 else if Lit.is_pos l then a else 3 - a

let lit_true s l = value_lit s l = 1

let lit_false s l = value_lit s l = 2

let lit_unassigned s l = value_lit s l = 0

(* ---------- activities ---------- *)

let var_rescale s =
  for v = 0 to s.nvars - 1 do
    s.activity.(v) <- s.activity.(v) *. 1e-100
  done;
  s.var_inc <- s.var_inc *. 1e-100

let var_bump s v =
  s.activity.(v) <- s.activity.(v) +. s.var_inc;
  if s.activity.(v) > 1e100 then var_rescale s;
  Idx_heap.increased s.order v

let var_decay s = s.var_inc <- s.var_inc /. 0.95

(* ---------- clause store ---------- *)

(* Allocates a block and its stable id. [lits] is only read for its first
   [n] entries, so callers can pass a scratch buffer's backing array. *)
let alloc_clause s lits n learnt =
  let id = Veci.length s.cmap in
  let r = Arena.alloc s.arena ~id ~learnt lits n in
  Veci.push s.cmap r;
  if id >= Bytes.length s.cflags then begin
    let nb = Bytes.make (max 16 (2 * Bytes.length s.cflags)) '\000' in
    Bytes.blit s.cflags 0 nb 0 (Bytes.length s.cflags);
    s.cflags <- nb
  end;
  Bytes.set s.cflags id (if learnt then '\001' else '\000');
  (id, r)

(* The watch list of [l], to push to: its own, made on first use. *)
let watch_list s l =
  let w = s.watches.(l) in
  if w != no_watches then w
  else begin
    let w = Veci.create ~cap:4 () in
    s.watches.(l) <- w;
    w
  end

let attach s r =
  let a = s.arena in
  let l0 = Arena.lit a r 0 and l1 = Arena.lit a r 1 in
  let w0 = watch_list s l0 in
  Veci.push w0 r;
  Veci.push w0 l1;
  let w1 = watch_list s l1 in
  Veci.push w1 r;
  Veci.push w1 l0

let detach_watch s l r =
  let w = s.watches.(l) in
  let rec go i =
    if i < Veci.length w then
      if Veci.get w i = r then begin
        let m = Veci.length w in
        Veci.set w i (Veci.get w (m - 2));
        Veci.set w (i + 1) (Veci.get w (m - 1));
        Veci.shrink w (m - 2)
      end
      else go (i + 2)
  in
  go 0

let detach s r =
  detach_watch s (Arena.lit s.arena r 0) r;
  detach_watch s (Arena.lit s.arena r 1) r

(* Detach (if wide enough), record for proof export, flag dead. The block
   stays readable until the next gc; [cmap] is the source of truth. *)
let remove_clause s r =
  let a = s.arena in
  if Arena.size a r >= 2 then detach s r;
  let id = Arena.id a r in
  if s.proof_mode then begin
    (* exporters need the literals for [d] lines, and the deletion must be
       replayed at exactly this chain position *)
    Hashtbl.replace s.dead_lits id (Arena.lits a r);
    Veci.push s.proof_dels id;
    Veci.push s.proof_dels s.n_chains
  end;
  Arena.remove a r;
  Veci.set s.cmap id (-1)

(* ---------- trail ---------- *)

let enqueue s l reason =
  if s.sanitize then assert (lit_unassigned s l);
  let v = Lit.var l in
  Bytes.unsafe_set s.assign v (if Lit.is_pos l then '\001' else '\002');
  s.level.(v) <- decision_level s;
  s.reason.(v) <- reason;
  Veci.push s.trail l

let new_decision_level s = Veci.push s.trail_lim (Veci.length s.trail)

let cancel_until s lvl =
  if decision_level s > lvl then begin
    let bound = Veci.get s.trail_lim lvl in
    for i = Veci.length s.trail - 1 downto bound do
      let l = Veci.get s.trail i in
      let v = Lit.var l in
      Bytes.unsafe_set s.assign v '\000';
      Bytes.unsafe_set s.polarity v (if Lit.is_pos l then '\001' else '\000');
      s.reason.(v) <- -1;
      Idx_heap.insert s.order v
    done;
    Veci.shrink s.trail bound;
    Veci.shrink s.trail_lim lvl;
    s.qhead <- bound
  end

(* ---------- propagation ---------- *)

(* Returns the arena ref of a conflicting clause, or -1. The bank is read
   through one local binding: nothing in this loop allocates arena blocks,
   so the reference stays valid throughout. *)
let propagate s =
  let confl = ref (-1) in
  let bank = Arena.bank s.arena in
  while !confl < 0 && s.qhead < Veci.length s.trail do
    let p = Veci.get s.trail s.qhead in
    s.qhead <- s.qhead + 1;
    s.propagations <- s.propagations + 1;
    let false_lit = Lit.negate p in
    let w = s.watches.(false_lit) in
    (* compact in place: keep pairs that stay *)
    let i = ref 0 and j = ref 0 in
    let n = Veci.length w in
    while !i < n do
      let r = Veci.unsafe_get w !i in
      let blocker = Veci.unsafe_get w (!i + 1) in
      i := !i + 2;
      if lit_true s blocker then begin
        (* satisfied via the blocker: keep without touching the block *)
        Veci.unsafe_set w !j r;
        Veci.unsafe_set w (!j + 1) blocker;
        j := !j + 2
      end
      else begin
        (* make sure the false literal sits in slot 1 *)
        let l0 = Array.unsafe_get bank (r + 3) in
        let first =
          if l0 = false_lit then begin
            let l1 = Array.unsafe_get bank (r + 4) in
            Array.unsafe_set bank (r + 3) l1;
            Array.unsafe_set bank (r + 4) false_lit;
            l1
          end
          else l0
        in
        if s.sanitize then assert (Array.unsafe_get bank (r + 4) = false_lit);
        if first <> blocker && lit_true s first then begin
          Veci.unsafe_set w !j r;
          Veci.unsafe_set w (!j + 1) first;
          j := !j + 2
        end
        else begin
          (* search replacement watch *)
          let len = Array.unsafe_get bank (r + 1) in
          let k = ref 2 in
          while !k < len && lit_false s (Array.unsafe_get bank (r + 3 + !k)) do
            incr k
          done;
          if !k < len then begin
            let lk = Array.unsafe_get bank (r + 3 + !k) in
            Array.unsafe_set bank (r + 4) lk;
            Array.unsafe_set bank (r + 3 + !k) false_lit;
            let w' = watch_list s lk in
            Veci.push w' r;
            Veci.push w' first
          end
          else begin
            (* unit or conflict *)
            Veci.unsafe_set w !j r;
            Veci.unsafe_set w (!j + 1) first;
            j := !j + 2;
            if lit_false s first then begin
              confl := r;
              s.qhead <- Veci.length s.trail;
              (* copy remaining pairs *)
              while !i < n do
                Veci.unsafe_set w !j (Veci.unsafe_get w !i);
                incr i;
                incr j
              done
            end
            else enqueue s first r
          end
        end
      end
    done;
    (* an empty list may be [no_watches], which is never written *)
    if n > 0 then Veci.shrink w !j
  done;
  !confl

(* ---------- proof chains ---------- *)

let push_chain s id step =
  if s.n_chains = Array.length s.chains then begin
    let chains = Array.make (2 * s.n_chains) dummy_step in
    Array.blit s.chains 0 chains 0 s.n_chains;
    s.chains <- chains
  end;
  s.chains.(s.n_chains) <- step;
  s.n_chains <- s.n_chains + 1;
  Veci.push s.chain_ids id

(* Resolve away level-0 literals marked with seen-code 2, in reverse trail
   order, appending to [premises]/[pivots]. Consumes the marks. *)
let resolve_zero s premises pivots =
  let a = s.arena in
  let bound =
    if Veci.length s.trail_lim = 0 then Veci.length s.trail
    else Veci.get s.trail_lim 0
  in
  for i = bound - 1 downto 0 do
    let v = Lit.var (Veci.get s.trail i) in
    if Epoch.get s.seen v = 2 then begin
      let r = s.reason.(v) in
      assert (r >= 0);
      Veci.push premises (Arena.id a r);
      Veci.push pivots v;
      for j = 1 to Arena.size a r - 1 do
        let u = Lit.var (Arena.lit a r j) in
        if s.level.(u) = 0 && not (Epoch.mem s.seen u) then
          Epoch.set s.seen u 2
      done;
      Epoch.unset s.seen v
    end
  done

(* Conflict at level 0: derive the empty clause. *)
let record_empty_chain s confl_r =
  if s.proof_mode then begin
    let a = s.arena in
    Epoch.reset s.seen;
    let premises = Veci.create () and pivots = Veci.create () in
    Veci.push premises (Arena.id a confl_r);
    for j = 0 to Arena.size a confl_r - 1 do
      let v = Lit.var (Arena.lit a confl_r j) in
      if not (Epoch.mem s.seen v) then Epoch.set s.seen v 2
    done;
    resolve_zero s premises pivots;
    s.empty_chain <-
      Some
        {
          Proof.premises = Veci.to_array premises;
          pivots = Veci.to_array pivots;
        }
  end

(* ---------- clause addition ---------- *)

exception Done of result

(* Sorts [lits.(0 .. n-1)] ascending in place: insertion sort, since
   almost every clause is short; a long one (a DIMACS clause can have any
   length) goes through [Array.sort], to the same order. *)
let sort_prefix (lits : int array) n =
  if n > 32 then begin
    let a = Array.sub lits 0 n in
    Array.sort (fun (x : int) y -> compare x y) a;
    Array.blit a 0 lits 0 n
  end
  else
    for i = 1 to n - 1 do
      let l = Array.unsafe_get lits i in
      let j = ref (i - 1) in
      while !j >= 0 && Array.unsafe_get lits !j > l do
        Array.unsafe_set lits (!j + 1) (Array.unsafe_get lits !j);
        decr j
      done;
      Array.unsafe_set lits (!j + 1) l
    done

(* Normalises [lits.(0 .. n-1)] in place and returns the new length, or
   -1 for a clause to discard: sorted ascending, duplicates dropped, a
   complementary pair (adjacent once sorted) makes a tautology, and
   outside proof mode a literal true at level 0 discards the clause and
   one false at level 0 is dropped. *)
let normalise s lits n =
  sort_prefix lits n;
  (* [prev] starts at -1, which neither a literal nor its negation is *)
  let m = ref 0 and taut = ref false and prev = ref (-1) in
  for i = 0 to n - 1 do
    let l = lits.(i) in
    if l = !prev then ()
    else if l = Lit.negate !prev then taut := true
    else if s.proof_mode || lit_unassigned s l then begin
      lits.(!m) <- l;
      incr m
    end
    else if lit_true s l then taut := true;
    (* a literal false at level 0 is neither kept nor a tautology *)
    prev := l
  done;
  if !taut then -1 else !m

let add_clause_array s lits n =
  if n < 0 || n > Array.length lits then invalid_arg "Solver.add_clause_array";
  if n > 0 then begin
    let top = ref (Lit.var lits.(0)) in
    for i = 1 to n - 1 do
      top := max !top (Lit.var lits.(i))
    done;
    ensure_var s !top
  end;
  if not s.ok then -1
  else begin
    assert (decision_level s = 0);
    match normalise s lits n with
    | -1 -> -1
    | 0 when s.proof_mode ->
        (* the empty input clause is its own refutation *)
        let id, _ = alloc_clause s lits 0 false in
        s.n_problem <- s.n_problem + 1;
        s.empty_chain <- Some { Proof.premises = [| id |]; pivots = [||] };
        s.ok <- false;
        id
    | 0 ->
        s.ok <- false;
        -1
    | 1 ->
        let id, r = alloc_clause s lits 1 false in
        s.n_problem <- s.n_problem + 1;
        if lit_false s lits.(0) then begin
          (* conflicts with current level-0 assignment *)
          (if s.proof_mode then begin
             (* resolvent of this unit with the reason chain of its negation *)
             Epoch.reset s.seen;
             let premises = Veci.create () and pivots = Veci.create () in
             Veci.push premises id;
             Epoch.set s.seen (Lit.var lits.(0)) 2;
             resolve_zero s premises pivots;
             s.empty_chain <-
               Some
                 {
                   Proof.premises = Veci.to_array premises;
                   pivots = Veci.to_array pivots;
                 }
           end);
          s.ok <- false;
          id
        end
        else begin
          if lit_unassigned s lits.(0) then begin
            enqueue s lits.(0) r;
            match propagate s with
            | -1 -> ()
            | confl ->
                record_empty_chain s confl;
                s.ok <- false
          end;
          id
        end
    | len ->
        s.n_problem <- s.n_problem + 1;
        (* watch two literals that are not false at level 0 if possible;
           in proof mode input clauses may carry false literals *)
        let pick from =
          let k = ref from in
          while !k < len && lit_false s lits.(!k) do
            incr k
          done;
          if !k < len then begin
            let tmp = lits.(from) in
            lits.(from) <- lits.(!k);
            lits.(!k) <- tmp;
            true
          end
          else false
        in
        let ok0 = pick 0 in
        let ok1 = ok0 && pick 1 in
        let id, r = alloc_clause s lits len false in
        if not ok0 then begin
          (* all literals false at level 0 *)
          attach s r;
          record_empty_chain s r;
          s.ok <- false
        end
        else if not ok1 then begin
          (* clause is unit under level-0 assignment *)
          attach s r;
          if lit_unassigned s lits.(0) then begin
            enqueue s lits.(0) r;
            match propagate s with
            | -1 -> ()
            | confl ->
                record_empty_chain s confl;
                s.ok <- false
          end
        end
        else attach s r;
        id
  end

let add_clause s lits =
  let lits = Array.of_list lits in
  add_clause_array s lits (Array.length lits)

(* A clause from the [on_model] hook, false under the full assignment on
   the trail. It is stored as a problem clause and placed like a learnt
   one: slot 0 holds a highest-level literal, slot 1 the highest of the
   rest. False at level 0, it refutes the clause set. With one literal on
   the top level it asserts that literal after a backjump to the level of
   slot 1, and -1 is returned; with two or more the search backjumps to
   the top level and gets the clause back, to analyse as a conflict. *)
let add_refinement s clause =
  let lits = Array.of_list clause in
  Array.iter
    (fun l ->
      if l < 0 || Lit.var l >= s.nvars || not (lit_false s l) then
        invalid_arg "Solver.solve: on_model clause is not false under the model")
    lits;
  Array.sort (fun (a : int) b -> compare a b) lits;
  let n = ref 0 in
  Array.iter
    (fun l ->
      if !n = 0 || l <> lits.(!n - 1) then begin
        lits.(!n) <- l;
        incr n
      end)
    lits;
  let n = !n in
  let lvl i = s.level.(Lit.var lits.(i)) in
  let swap i j =
    let t = lits.(i) in
    lits.(i) <- lits.(j);
    lits.(j) <- t
  in
  for i = 1 to n - 1 do
    if lvl i > lvl 0 then swap 0 i
  done;
  for i = 2 to n - 1 do
    if lvl i > lvl 1 then swap 1 i
  done;
  let top = if n = 0 then 0 else lvl 0 in
  let id, r = alloc_clause s lits n false in
  s.n_problem <- s.n_problem + 1;
  if n >= 2 then attach s r;
  if top = 0 then begin
    if n > 0 then record_empty_chain s r
    else if s.proof_mode then
      s.empty_chain <- Some { Proof.premises = [| id |]; pivots = [||] };
    s.ok <- false;
    s.core <- [];
    raise (Done Unsat)
  end
  else if n >= 2 && lvl 1 = top then begin
    cancel_until s top;
    r
  end
  else begin
    cancel_until s (if n >= 2 then lvl 1 else 0);
    enqueue s lits.(0) r;
    -1
  end

(* ---------- conflict analysis ---------- *)

(* First-UIP learning. Fills [s.tmp_learnt] with the learnt clause (the
   asserting literal first) and returns (backtrack level, proof step).
   Scratch marks live in the [seen] epoch: code 1 = on the current
   resolvent, code 2 = level-0 literal awaiting proof resolution. *)
let analyze s confl_r =
  let a = s.arena in
  let learnt = s.tmp_learnt in
  Veci.clear learnt;
  Veci.push learnt 0;
  (* slot for the asserting literal *)
  let premises = s.tmp_premises and pivots = s.tmp_pivots in
  Veci.clear premises;
  Veci.clear pivots;
  Epoch.reset s.seen;
  if s.proof_mode then Veci.push premises (Arena.id a confl_r);
  let dl = decision_level s in
  let path = ref 0 in
  let p = ref (-1) in
  let idx = ref (Veci.length s.trail - 1) in
  let confl = ref confl_r in
  let stop = ref false in
  while not !stop do
    let r = !confl in
    if Arena.learnt a r then Arena.set_used a r;
    let len = Arena.size a r in
    let start = if !p = -1 then 0 else 1 in
    for j = start to len - 1 do
      let q = Arena.lit a r j in
      let v = Lit.var q in
      if not (Epoch.mem s.seen v) then
        if s.level.(v) > 0 then begin
          Epoch.set s.seen v 1;
          var_bump s v;
          if s.level.(v) >= dl then incr path else Veci.push learnt q
        end
        else if s.proof_mode then Epoch.set s.seen v 2
    done;
    (* pick the next current-level literal to expand *)
    while Epoch.get s.seen (Lit.var (Veci.get s.trail !idx)) <> 1 do
      decr idx
    done;
    p := Veci.get s.trail !idx;
    decr idx;
    let v = Lit.var !p in
    Epoch.unset s.seen v;
    decr path;
    if !path = 0 then stop := true
    else begin
      confl := s.reason.(v);
      assert (!confl >= 0);
      if s.proof_mode then begin
        Veci.push premises (Arena.id a !confl);
        Veci.push pivots v
      end
    end
  done;
  Veci.set learnt 0 (Lit.negate !p);
  (* conflict-clause minimization (disabled in proof mode) *)
  (if not s.proof_mode then begin
     let removable q =
       let r = s.reason.(Lit.var q) in
       r >= 0
       &&
       let len = Arena.size a r in
       let ok = ref true in
       for j = 1 to len - 1 do
         let u = Lit.var (Arena.lit a r j) in
         if s.level.(u) > 0 && Epoch.get s.seen u <> 1 then ok := false
       done;
       !ok
     in
     let j = ref 1 in
     for i = 1 to Veci.length learnt - 1 do
       let q = Veci.get learnt i in
       if not (removable q) then begin
         Veci.set learnt !j q;
         incr j
       end
     done;
     Veci.shrink learnt !j
   end);
  (* resolve away level-0 literals for the proof *)
  if s.proof_mode then resolve_zero s premises pivots;
  (* compute backtrack level; move max-level literal to slot 1 *)
  let bt =
    if Veci.length learnt = 1 then 0
    else begin
      let max_i = ref 1 in
      for i = 2 to Veci.length learnt - 1 do
        if
          s.level.(Lit.var (Veci.get learnt i))
          > s.level.(Lit.var (Veci.get learnt !max_i))
        then max_i := i
      done;
      let tmp = Veci.get learnt 1 in
      Veci.set learnt 1 (Veci.get learnt !max_i);
      Veci.set learnt !max_i tmp;
      s.level.(Lit.var (Veci.get learnt 1))
    end
  in
  let step =
    if s.proof_mode then
      {
        Proof.premises = Veci.to_array premises;
        pivots = Veci.to_array pivots;
      }
    else dummy_step
  in
  (bt, step)

(* Assumption-failure analysis: compute the subset of assumptions implying
   the falsification of assumption literal [p]. *)
let analyze_final s p =
  let core = ref [ p ] in
  if decision_level s > 0 then begin
    let a = s.arena in
    Epoch.reset s.seen;
    Epoch.set s.seen (Lit.var p) 1;
    let base = Veci.get s.trail_lim 0 in
    for i = Veci.length s.trail - 1 downto base do
      let l = Veci.get s.trail i in
      let v = Lit.var l in
      if Epoch.get s.seen v = 1 then begin
        (if s.reason.(v) < 0 then begin
           (* decision: an assumption *)
           if l <> p then core := l :: !core
         end
         else begin
           let r = s.reason.(v) in
           for j = 1 to Arena.size a r - 1 do
             let u = Lit.var (Arena.lit a r j) in
             if s.level.(u) > 0 && not (Epoch.mem s.seen u) then
               Epoch.set s.seen u 1
           done
         end);
        Epoch.unset s.seen v
      end
    done
  end;
  !core

(* LBD ("glue"): distinct decision levels among the learnt's literals.
   Must run before [cancel_until] invalidates the levels. *)
let lbd_of s lv =
  Epoch.reset s.lbd_seen;
  let n = ref 0 in
  for i = 0 to Veci.length lv - 1 do
    let lvl = s.level.(Lit.var (Veci.get lv i)) in
    if not (Epoch.mem s.lbd_seen lvl) then begin
      Epoch.set s.lbd_seen lvl 1;
      incr n
    end
  done;
  !n

let learn_clause s lbd =
  let lv = s.tmp_learnt in
  let n = Veci.length lv in
  let id, r = alloc_clause s (Veci.data lv) n true in
  Arena.set_lbd s.arena r lbd;
  if n >= 2 then attach s r;
  Veci.push s.learnts r;
  (id, r)

(* ---------- learned clause DB reduction ---------- *)

let locked s r =
  let a = s.arena in
  Arena.size a r > 0
  &&
  let v = Lit.var (Arena.lit a r 0) in
  s.reason.(v) = r && Char.code (Bytes.get s.assign v) <> 0

(* Delete the worst half of the learnt database, "worst" keyed on stored
   LBD (higher is worse) with size as tiebreak. Binary, low-glue, locked
   and recently-used clauses (used bit, set by conflict analysis) are
   always kept; the used bit is cleared so it means "used since the last
   reduction". *)
let reduce_db s =
  let a = s.arena in
  let refs = Veci.to_array s.learnts in
  Array.sort
    (fun r1 r2 ->
      let c = compare (Arena.lbd a r2 : int) (Arena.lbd a r1) in
      if c <> 0 then c else compare (Arena.size a r2 : int) (Arena.size a r1))
    refs;
  let n = Array.length refs in
  let limit = n / 2 in
  Veci.clear s.learnts;
  Array.iteri
    (fun i r ->
      let keep =
        i >= limit || Arena.size a r <= 2 || Arena.lbd a r <= 2
        || Arena.used a r || locked s r
      in
      if keep then begin
        if Arena.used a r then Arena.clear_used a r;
        Veci.push s.learnts r
      end
      else remove_clause s r)
    refs

(* Public forcing hook: tests and fuzzers use this to exercise the
   deletion-aware proof path without waiting for [max_learnts] (whose
   floor is far above small-instance learnt counts). Only meaningful
   between solves (decision level 0); locked clauses are still kept. *)
let reduce_learnts s =
  if decision_level s <> 0 then
    invalid_arg "Solver.reduce_learnts: only at decision level 0";
  reduce_db s

(* ---------- arena compaction ---------- *)

(* Compact the arena, dropping removed blocks. Refs are reseated through
   the stable ids: trail reasons are stashed as (var, id) pairs first,
   [cmap] is rewritten from the gc's ref relocation, and the watch lists
   and learnt index are rebuilt from the live blocks (watched literals
   always sit in slots 0/1, so attaching those slots reproduces the exact
   watch arrangement). Only called at decision level 0 boundaries. *)
let collect s =
  Metrics.inc m_arena_gc;
  let a = s.arena in
  let rvars = Veci.create () and rids = Veci.create () in
  Veci.iter
    (fun l ->
      let v = Lit.var l in
      let r = s.reason.(v) in
      if r >= 0 then begin
        Veci.push rvars v;
        Veci.push rids (Arena.id a r)
      end)
    s.trail;
  (* ids allocate refs monotonically and gc preserves order, so walking
     cmap in id order yields ascending live refs *)
  let n_ids = Veci.length s.cmap in
  let live = Veci.create ~cap:n_ids () in
  let ids = Veci.create ~cap:n_ids () in
  for id = 0 to n_ids - 1 do
    let r = Veci.get s.cmap id in
    if r >= 0 then begin
      Veci.push live r;
      Veci.push ids id
    end
  done;
  Arena.gc a live;
  for k = 0 to Veci.length ids - 1 do
    Veci.set s.cmap (Veci.get ids k) (Veci.get live k)
  done;
  for k = 0 to Veci.length rvars - 1 do
    s.reason.(Veci.get rvars k) <- Veci.get s.cmap (Veci.get rids k)
  done;
  for l = 0 to (2 * s.nvars) - 1 do
    let w = s.watches.(l) in
    if w != no_watches then Veci.clear w
  done;
  Veci.clear s.learnts;
  for k = 0 to Veci.length live - 1 do
    let r = Veci.get live k in
    if Arena.learnt a r then Veci.push s.learnts r;
    if Arena.size a r >= 2 then attach s r
  done

let maybe_collect s =
  if Arena.top s.arena >= 4096 && 4 * Arena.wasted s.arena > Arena.top s.arena
  then collect s

let compact s =
  if decision_level s <> 0 then
    invalid_arg "Solver.compact: only at decision level 0";
  collect s

(* ---------- runtime sanitizer ---------- *)

(* Opt-in invariant audits (STEP_SANITIZE=1 or [set_sanitize]), reporting
   through the shared Step_lint diagnostics type. The cheap trail audit
   runs at every decision; the full watch/clause audit is throttled to
   every 64th decision plus the solve boundaries. With [sanitize] off the
   hot path pays a single predictable branch per decision. *)

let set_sanitize s b = s.sanitize <- b

let sanitize_enabled s = s.sanitize

(* Trail/assignment consistency: every trail literal true under [assign],
   recorded at the decision level its position implies, with a
   well-formed reason clause; assigned-variable count matches the trail. *)
let audit_trail s add =
  let a = s.arena in
  let n = Veci.length s.trail in
  let n_lim = Veci.length s.trail_lim in
  if s.qhead > n then
    add "SAN002" (Printf.sprintf "qhead %d beyond trail length %d" s.qhead n);
  for k = 0 to n_lim - 1 do
    let b = Veci.get s.trail_lim k in
    if b > n || (k > 0 && b < Veci.get s.trail_lim (k - 1)) then
      add "SAN002"
        (Printf.sprintf "trail_lim.(%d)=%d is not a monotone trail offset" k b)
  done;
  let lvl = ref 0 in
  for i = 0 to n - 1 do
    while !lvl < n_lim && Veci.get s.trail_lim !lvl <= i do
      incr lvl
    done;
    let l = Veci.get s.trail i in
    let v = Lit.var l in
    if v < 0 || v >= s.nvars then
      add "SAN002" (Printf.sprintf "trail literal %d over unallocated var" l)
    else begin
      if not (lit_true s l) then
        add "SAN002"
          (Printf.sprintf "trail literal %d (position %d) not true in assign" l
             i);
      if s.level.(v) <> !lvl then
        add "SAN002"
          (Printf.sprintf
             "var %d recorded at level %d but sits in level-%d trail segment" v
             s.level.(v) !lvl);
      let r = s.reason.(v) in
      if r >= 0 then
        if r >= Arena.top a then
          add "SAN003"
            (Printf.sprintf "reason of var %d is out-of-arena ref %d" v r)
        else if Arena.removed a r then
          add "SAN003"
            (Printf.sprintf "reason of var %d is removed clause ref %d" v r)
        else if Veci.get s.cmap (Arena.id a r) <> r then
          add "SAN003"
            (Printf.sprintf
               "reason of var %d (ref %d) disagrees with the id directory" v r)
        else if Arena.size a r = 0 || Arena.lit a r 0 <> l then
          add "SAN003"
            (Printf.sprintf
               "reason clause %d of var %d does not assert its literal first" r
               v)
        else
          for j = 1 to Arena.size a r - 1 do
            if not (lit_false s (Arena.lit a r j)) then
              add "SAN003"
                (Printf.sprintf
                   "reason clause %d of var %d has non-false literal %d" r v
                   (Arena.lit a r j))
          done
    end
  done;
  let assigned = ref 0 in
  for v = 0 to s.nvars - 1 do
    if Bytes.get s.assign v <> '\000' then incr assigned
  done;
  if !assigned <> n then
    add "SAN002"
      (Printf.sprintf "%d vars assigned but trail holds %d literals" !assigned n)

(* Watch-list and clause-store integrity: the id directory and arena
   headers agree, every watch pair references a live block through one of
   its first two literals with an in-range blocker, every live clause of
   width >= 2 is watched exactly once per watched slot, and the learnt
   index only lists live learnt blocks. *)
let audit_clauses s add =
  let a = s.arena in
  let expected = Hashtbl.create 256 in
  for id = 0 to Veci.length s.cmap - 1 do
    let r = Veci.get s.cmap id in
    if r >= 0 then
      if r >= Arena.top a then
        add "SAN003"
          (Printf.sprintf "clause %d maps to out-of-arena ref %d" id r)
      else begin
        if Arena.id a r <> id then
          add "SAN003"
            (Printf.sprintf
               "clause %d maps to ref %d whose header claims id %d" id r
               (Arena.id a r));
        if Arena.removed a r then
          add "SAN003"
            (Printf.sprintf "clause %d maps to removed block at ref %d" id r);
        let n = Arena.size a r in
        for i = 0 to n - 1 do
          let l = Arena.lit a r i in
          if l < 0 || Lit.var l >= s.nvars then
            add "SAN003"
              (Printf.sprintf "clause %d holds out-of-range literal %d" id l)
        done;
        if n >= 2 then begin
          Hashtbl.replace expected (r, Arena.lit a r 0) 0;
          Hashtbl.replace expected (r, Arena.lit a r 1) 0
        end
      end
  done;
  for l = 0 to (2 * s.nvars) - 1 do
    let w = s.watches.(l) in
    if Veci.length w land 1 <> 0 then
      add "SAN001"
        (Printf.sprintf "watch list of literal %d has odd length %d" l
           (Veci.length w));
    let k = ref 0 in
    while !k + 1 < Veci.length w do
      let r = Veci.get w !k in
      let blocker = Veci.get w (!k + 1) in
      k := !k + 2;
      if r < 0 || r >= Arena.top a || Arena.removed a r then
        add "SAN001"
          (Printf.sprintf
             "watch list of literal %d references dead or out-of-range ref %d"
             l r)
      else begin
        if blocker < 0 || Lit.var blocker >= s.nvars then
          add "SAN001"
            (Printf.sprintf
               "watch of clause ref %d under literal %d has bad blocker %d" r l
               blocker);
        match Hashtbl.find_opt expected (r, l) with
        | Some c -> Hashtbl.replace expected (r, l) (c + 1)
        | None ->
            add "SAN001"
              (Printf.sprintf
                 "clause ref %d watched under literal %d, not one of its \
                  first two literals"
                 r l)
      end
    done
  done;
  Hashtbl.iter
    (fun (r, l) k ->
      if k = 0 then
        add "SAN001"
          (Printf.sprintf "clause ref %d missing from watch list of literal %d"
             r l)
      else if k > 1 then
        add "SAN001"
          (Printf.sprintf "clause ref %d watched %d times under literal %d" r k
             l))
    expected;
  Veci.iter
    (fun r ->
      if r < 0 || r >= Arena.top a || Arena.removed a r then
        add "SAN003" (Printf.sprintf "learnt index holds dead clause ref %d" r)
      else if not (Arena.learnt a r) then
        add "SAN003"
          (Printf.sprintf "learnt index references problem clause ref %d" r))
    s.learnts

let audit s =
  let diags = ref [] in
  let add code msg = diags := Diag.error ~item:"solver" ~code msg :: !diags in
  audit_trail s add;
  audit_clauses s add;
  List.rev !diags

let sanitize_fail diags = raise (Sanitizer_violation diags)

(* Decision-boundary hook: trail audit every time, full audit every 64
   decisions. *)
let sanitize_checkpoint s =
  let diags = ref [] in
  let add code msg = diags := Diag.error ~item:"solver" ~code msg :: !diags in
  audit_trail s add;
  if s.decisions land 63 = 0 then audit_clauses s add;
  if !diags <> [] then sanitize_fail (List.rev !diags)

let sanitize_boundary s =
  match audit s with [] -> () | diags -> sanitize_fail diags

(* ---------- search ---------- *)

let pick_branch s =
  let rec go () =
    if Idx_heap.is_empty s.order then -1
    else begin
      let v = Idx_heap.remove_max s.order in
      if Char.code (Bytes.get s.assign v) = 0 then v else go ()
    end
  in
  go ()

let luby y x =
  (* Luby restart sequence, as in MiniSat *)
  let rec size_seq sz seq x = if sz < x + 1 then size_seq ((2 * sz) + 1) (seq + 1) x else (sz, seq) in
  let rec descend sz seq x =
    if sz - 1 = x then (sz, seq)
    else begin
      let sz = (sz - 1) / 2 in
      let seq = seq - 1 in
      descend sz seq (x mod sz)
    end
  in
  let sz, seq = size_seq 1 0 x in
  let _, seq = descend sz seq x in
  y ** float_of_int seq

(* One restart-bounded search episode. *)
let search s assumptions deadline on_model nof_conflicts =
  let conflict_c = ref 0 in
  let n_assumps = Array.length assumptions in
  let rec loop () =
    let confl = propagate s in
    if confl >= 0 then conflict confl
    else begin
      if !conflict_c >= nof_conflicts then begin
        cancel_until s 0;
        () (* restart *)
      end
      else if float_of_int (Veci.length s.learnts) >= s.max_learnts then begin
        Metrics.inc m_reduce_db;
        if Metrics.deep () then begin
          let t0 = Clock.now () in
          reduce_db s;
          Metrics.observe h_reduce_s (Clock.elapsed_since t0)
        end
        else reduce_db s;
        loop ()
      end
      else if decision_level s < n_assumps then begin
        let p = assumptions.(decision_level s) in
        match value_lit s p with
        | 1 ->
            new_decision_level s;
            loop ()
        | 2 ->
            s.core <- analyze_final s p;
            raise (Done Unsat)
        | _ ->
            if s.sanitize then sanitize_checkpoint s;
            s.decisions <- s.decisions + 1;
            new_decision_level s;
            enqueue s p (-1);
            loop ()
      end
      else begin
        let v = pick_branch s in
        if v < 0 then begin
          (* model found: kept in a buffer reused across models *)
          if Bytes.length s.model <> s.nvars then
            s.model <- Bytes.create s.nvars;
          Bytes.blit s.assign 0 s.model 0 s.nvars;
          match on_model with
          | None -> raise (Done Sat)
          | Some hook -> (
              match hook () with
              | Accept -> raise (Done Sat)
              | Stop -> raise (Done Unknown)
              | Refine clause ->
                  let confl = add_refinement s clause in
                  if confl >= 0 then conflict confl else loop ())
        end
        else begin
          if s.sanitize then sanitize_checkpoint s;
          s.decisions <- s.decisions + 1;
          new_decision_level s;
          let phase = Bytes.get s.polarity v = '\001' in
          enqueue s (Lit.of_var phase v) (-1);
          loop ()
        end
      end
    end
  and conflict confl =
    s.conflicts <- s.conflicts + 1;
    incr conflict_c;
    if decision_level s = 0 then begin
      record_empty_chain s confl;
      s.ok <- false;
      s.core <- [];
      raise (Done Unsat)
    end;
    if s.conflicts land 1023 = 0 && Clock.now () > deadline then
      raise (Done Unknown);
    let bt, step = analyze s confl in
    let lbd = lbd_of s s.tmp_learnt in
    if Metrics.deep () then begin
      Metrics.observe h_lbd (float_of_int lbd);
      Metrics.observe h_learnt_len (float_of_int (Veci.length s.tmp_learnt))
    end;
    cancel_until s bt;
    let id, r = learn_clause s lbd in
    if s.proof_mode then push_chain s id step;
    enqueue s (Veci.get s.tmp_learnt 0) r;
    var_decay s;
    loop ()
  in
  loop ()

let solve_call s assumptions deadline on_model =
  Step_fault.Fault.hit "solver.solve";
  List.iter (fun l -> ensure_var s (Lit.var l)) assumptions;
  if not s.ok then begin
    s.core <- [];
    Metrics.inc m_calls;
    Metrics.inc m_unsat;
    Unsat
  end
  else begin
    cancel_until s 0;
    if s.sanitize then sanitize_boundary s;
    s.core <- [];
    s.max_learnts <-
      Float.max 4000. (float_of_int (max 1 s.n_problem) /. 3.);
    let t0 = Clock.now () in
    let conflicts0 = s.conflicts in
    let decisions0 = s.decisions in
    let propagations0 = s.propagations in
    let assumptions = Array.of_list assumptions in
    let result =
      try
        let restarts = ref 0 in
        while true do
          if Clock.now () > deadline then raise (Done Unknown);
          let bound = int_of_float (luby 2.0 !restarts *. 100.) in
          if Metrics.deep () then begin
            let e0 = Clock.now () in
            Fun.protect
              ~finally:(fun () ->
                Metrics.observe h_episode (Clock.elapsed_since e0))
              (fun () -> search s assumptions deadline on_model bound)
          end
          else search s assumptions deadline on_model bound;
          Metrics.inc m_restarts;
          incr restarts;
          s.max_learnts <- s.max_learnts *. 1.05;
          (* restart boundary (decision level 0): reclaim arena space if
             enough is buried *)
          maybe_collect s
        done;
        assert false
      with
      | Done r -> r
      | e ->
          (* a raising hook or sanitizer leaves the solver at level 0 *)
          cancel_until s 0;
          raise e
    in
    cancel_until s 0;
    if s.sanitize then sanitize_boundary s;
    Metrics.inc m_calls;
    Metrics.inc
      (match result with
      | Sat -> m_sat
      | Unsat -> m_unsat
      | Unknown -> m_unknown);
    Metrics.add m_conflicts (s.conflicts - conflicts0);
    Metrics.add m_decisions (s.decisions - decisions0);
    Metrics.add m_propagations (s.propagations - propagations0);
    Metrics.observe h_solve (Clock.elapsed_since t0);
    if Metrics.deep () then begin
      Metrics.observe h_conflicts_call (float_of_int (s.conflicts - conflicts0));
      Metrics.observe h_decisions_call (float_of_int (s.decisions - decisions0));
      Metrics.observe h_props_call
        (float_of_int (s.propagations - propagations0))
    end;
    result
  end

(* A deadline that has already passed answers before the fault site and
   the counters, so [sat.calls] counts only the calls that search. *)
let solve ?(assumptions = []) ?(deadline = infinity) ?on_model s =
  if deadline < infinity && Clock.now () >= deadline then Unknown
  else solve_call s assumptions deadline on_model

let model_value s l =
  let v = Lit.var l in
  if v >= Bytes.length s.model then false
  else begin
    let a = Char.code (Bytes.get s.model v) in
    if Lit.is_pos l then a = 1 else a = 2
  end

let var_value s v = model_value s (Lit.pos v)

let unsat_core s = s.core

let has_refutation s = s.proof_mode && s.empty_chain <> None

let proof_deletions s =
  let n = Veci.length s.proof_dels / 2 in
  List.init n (fun i ->
      (Veci.get s.proof_dels (2 * i), Veci.get s.proof_dels ((2 * i) + 1)))

let proof_of_unsat s =
  if not s.proof_mode then failwith "Solver.proof_of_unsat: proof logging off";
  match s.empty_chain with
  | None -> failwith "Solver.proof_of_unsat: no refutation recorded"
  | Some empty ->
      let steps =
        Array.init s.n_chains (fun i -> (Veci.get s.chain_ids i, s.chains.(i)))
      in
      (steps, empty)

let clause_lits s id =
  assert (id >= 0 && id < Veci.length s.cmap);
  let r = Veci.get s.cmap id in
  if r >= 0 then Arena.lits s.arena r
  else
    match Hashtbl.find_opt s.dead_lits id with
    | Some lits -> Array.copy lits
    | None -> [||]

let is_learnt_clause s id =
  assert (id >= 0 && id < Veci.length s.cmap);
  Bytes.get s.cflags id = '\001'
