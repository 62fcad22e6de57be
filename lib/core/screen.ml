(* Simulation screen for CEGAR candidates.

   Points are packed 63 to a native int word (one bit lane per tuple), so
   a word of the compiled cone simulator evaluates f on 63 points with no
   allocation. A tuple is three points over the support positions: the
   base point x, the copy x' (differing from x only on XA) and the copy
   x'' (differing only on XB). The XOR condition's fourth point is
   x''' = x ⊕ x' ⊕ x'', which is x' on XA, x'' on XB and x on XC —
   exactly what the Copies scaffold forces under a partition's selectors.

   Any violating lane is a genuine counterexample, wherever its bits came
   from, so lanes are never masked: an unfilled lane of the bank is an
   all-zero tuple, whose points coincide and which cannot violate, or,
   under random copies, just one more random tuple. *)

module Aig = Step_aig.Aig

(* ---------- compiled cone simulator ---------- *)

type sim = {
  n_in : int;
  fan0 : int array; (* per AND node: 2 * slot + complement bit *)
  fan1 : int array;
  vals : int array; (* slot 0: constant false; 1..n_in: inputs; then ANDs *)
  out : int; (* 2 * slot + complement bit *)
}

let compile aig f ~inputs =
  let n_in = Array.length inputs in
  let top = Aig.node_of f in
  let slot = Array.make (top + 1) (-1) in
  slot.(0) <- 0;
  Array.iteri
    (fun j i ->
      let id = Aig.node_of (Aig.input aig i) in
      if id <= top then slot.(id) <- j + 1)
    inputs;
  let marked = Bytes.make (top + 1) '\000' in
  let rec mark = function
    | [] -> ()
    | id :: rest ->
        if Bytes.get marked id = '\001' then mark rest
        else begin
          Bytes.set marked id '\001';
          match Aig.node_kind aig id with
          | `And (a, b) -> mark (Aig.node_of a :: Aig.node_of b :: rest)
          | `Const | `Input _ -> mark rest
        end
  in
  mark [ top ];
  let fan0 = ref [] and fan1 = ref [] and next = ref (n_in + 1) in
  let edge e =
    let s = slot.(Aig.node_of e) in
    if s < 0 then invalid_arg "Screen.compile: cone reads an input not listed";
    (2 * s) + if Aig.is_complement e then 1 else 0
  in
  for id = 1 to top do
    if Bytes.get marked id = '\001' then
      match Aig.node_kind aig id with
      | `And (a, b) ->
          fan0 := edge a :: !fan0;
          fan1 := edge b :: !fan1;
          slot.(id) <- !next;
          incr next
      | `Input _ ->
          if slot.(id) < 0 then
            invalid_arg "Screen.compile: cone reads an input not listed"
      | `Const -> ()
  done;
  let fan0 = Array.of_list (List.rev !fan0) in
  let fan1 = Array.of_list (List.rev !fan1) in
  {
    n_in;
    fan0;
    fan1;
    vals = Array.make (!next) 0;
    out = edge f;
  }

let run s words =
  if Array.length words < s.n_in then invalid_arg "Screen.run: too few words";
  let v = s.vals in
  Array.blit words 0 v 1 s.n_in;
  let base = s.n_in + 1 in
  (* fanin slots are below the node's own slot by construction *)
  for k = 0 to Array.length s.fan0 - 1 do
    let a = Array.unsafe_get s.fan0 k and b = Array.unsafe_get s.fan1 k in
    Array.unsafe_set v (base + k)
      (Array.unsafe_get v (a lsr 1)
       lxor (-(a land 1))
       land (Array.unsafe_get v (b lsr 1) lxor (-(b land 1))))
  done;
  v.(s.out lsr 1) lxor (-(s.out land 1))

(* ---------- the screen ---------- *)

let lanes = 63

let all_lanes = -1

(* bank capacity, in words of [lanes] tuples *)
let bank_words = 4

(* fresh random words tried per candidate after the bank *)
let random_words = 8

(* random base words of the pairwise sweep *)
let pair_words = 4

type t = {
  gate : Gate.t;
  sim : sim;
  n : int;
  (* the points fed to the simulator: x, x', x'', x''' *)
  wx : int array;
  w1 : int array;
  w2 : int array;
  w3 : int array;
  (* source words projected onto a candidate *)
  sx : int array;
  sy : int array;
  sz : int array;
  (* banked tuples, word-packed: [bx.(w).(j)] holds lane bits of x_j *)
  bx : int array array;
  by : int array array;
  bz : int array array;
  mutable banked : int; (* tuples ever banked; the ring's write cursor *)
  mutable rng : int;
  (* the current counterexample tuple *)
  tx : bool array;
  t1 : bool array;
  t2 : bool array;
  items : int array; (* shrink scratch: j for x'_j, n + j for x''_j *)
  (* the pair graph: [pair_words] random base words x, drawn on the first
     pair question, with f(x) and f(x ⊕ e_j) for every single flip.
     [first] caches, per pair i < j at [i * n + j], the first word with a
     violating tuple: 0 not yet computed, 1 none, 2 + w word w. *)
  mutable drawn : bool;
  base : int array array;
  fx : int array;
  flips : int array array;
  first : Bytes.t;
}

let create (p : Problem.t) gate =
  let inputs = Array.of_list p.Problem.support in
  let n = Array.length inputs in
  let words () = Array.make n 0 in
  (* seeded from the problem alone, so answers never depend on which
     domain or job order ran it *)
  let tag =
    match gate with
    | Gate.Or_gate -> 0x5c4ee
    | Gate.And_gate -> 0x5c4ef
    | Gate.Xor_gate -> 0x5c4f0
  in
  let st = Random.State.make [| tag; n |] in
  {
    gate;
    sim = compile p.Problem.aig p.Problem.f ~inputs;
    n;
    wx = words ();
    w1 = words ();
    w2 = words ();
    w3 = words ();
    sx = words ();
    sy = words ();
    sz = words ();
    bx = Array.init bank_words (fun _ -> words ());
    by = Array.init bank_words (fun _ -> words ());
    bz = Array.init bank_words (fun _ -> words ());
    banked = 0;
    rng = (Random.State.bits st lsl 30) lor Random.State.bits st;
    tx = Array.make n false;
    t1 = Array.make n false;
    t2 = Array.make n false;
    items = Array.make (2 * n) 0;
    drawn = false;
    base = Array.init pair_words (fun _ -> words ());
    fx = Array.make pair_words 0;
    flips = Array.init pair_words (fun _ -> words ());
    first = Bytes.make (n * n) '\000';
  }

(* splitmix-style generator over native ints: 63 random bits, no boxing *)
let random_word t =
  let s = t.rng + 0x1E3779B97F4A7C15 in
  t.rng <- s;
  let z = (s lxor (s lsr 30)) * 0x3F58476D1CE4E5B9 in
  let z = (z lxor (z lsr 27)) * 0x14D049BB133111EB in
  z lxor (z lsr 31)

(* Lanes of [wx]/[w1]/[w2] whose tuple violates the gate condition. Cheap
   exits skip the remaining copies once no lane can violate. *)
let violations t =
  let s = t.sim in
  match t.gate with
  | Gate.Or_gate ->
      (* f(x) ∧ ¬f(x') ∧ ¬f(x'') *)
      let v = run s t.wx in
      let v = if v = 0 then 0 else v land lnot (run s t.w1) in
      if v = 0 then 0 else v land lnot (run s t.w2)
  | Gate.And_gate ->
      (* ¬f(x) ∧ f(x') ∧ f(x'') *)
      let v = lnot (run s t.wx) in
      let v = if v = 0 then 0 else v land run s t.w1 in
      if v = 0 then 0 else v land run s t.w2
  | Gate.Xor_gate ->
      for j = 0 to t.n - 1 do
        t.w3.(j) <- t.wx.(j) lxor t.w1.(j) lxor t.w2.(j)
      done;
      run s t.wx lxor run s t.w1 lxor run s t.w2 lxor run s t.w3

(* Projects the source words onto a candidate: x' takes y on XA and x
   elsewhere, x'' takes z on XB and x elsewhere; an input free on both
   copies (side 3) takes y in x' and z in x''. *)
let project t (side : int array) sx sy sz =
  for j = 0 to t.n - 1 do
    let x = sx.(j) and s = side.(j) in
    t.wx.(j) <- x;
    t.w1.(j) <- (if s = 0 || s = 3 then sy.(j) else x);
    t.w2.(j) <- (if s = 1 || s = 3 then sz.(j) else x)
  done

let bit w lane = (w lsr lane) land 1 = 1

let load_lane t lane =
  for j = 0 to t.n - 1 do
    t.tx.(j) <- bit t.wx.(j) lane;
    t.t1.(j) <- bit t.w1.(j) lane;
    t.t2.(j) <- bit t.w2.(j) lane
  done

let lowest_lane v =
  let rec go l = if bit v l then l else go (l + 1) in
  go 0

(* First violating lane of the source words projected onto [side], or -1. *)
let try_words t side sx sy sz =
  project t side sx sy sz;
  let v = violations t in
  if v = 0 then -1 else lowest_lane v

let refute t side =
  if Array.length side <> t.n then invalid_arg "Screen.refute: side length";
  let filled = min bank_words ((t.banked + lanes - 1) / lanes) in
  let found = ref (-1) and w = ref 0 in
  while !found < 0 && !w < filled do
    found := try_words t side t.bx.(!w) t.by.(!w) t.bz.(!w);
    incr w
  done;
  (* banked base points under fresh random copies *)
  let w = ref 0 in
  while !found < 0 && !w < filled do
    for j = 0 to t.n - 1 do
      t.sy.(j) <- random_word t;
      t.sz.(j) <- random_word t
    done;
    found := try_words t side t.bx.(!w) t.sy t.sz;
    incr w
  done;
  let r = ref 0 in
  while !found < 0 && !r < random_words do
    for j = 0 to t.n - 1 do
      t.sx.(j) <- random_word t;
      t.sy.(j) <- random_word t;
      t.sz.(j) <- random_word t
    done;
    found := try_words t side t.sx t.sy t.sz;
    incr r
  done;
  if !found < 0 then false
  else begin
    load_lane t !found;
    true
  end

(* Loads the current tuple into every lane of the simulator words. *)
let broadcast t =
  let w b = if b then all_lanes else 0 in
  for j = 0 to t.n - 1 do
    t.wx.(j) <- w t.tx.(j);
    t.w1.(j) <- w t.t1.(j);
    t.w2.(j) <- w t.t2.(j)
  done

let load t ~x ~x1 ~x2 =
  if Array.length x <> t.n || Array.length x1 <> t.n || Array.length x2 <> t.n
  then invalid_arg "Screen.load: point length";
  for j = 0 to t.n - 1 do
    if x1.(j) <> x.(j) && x2.(j) <> x.(j) then
      invalid_arg "Screen.load: copies differ on the same input"
  done;
  Array.blit x 0 t.tx 0 t.n;
  Array.blit x1 0 t.t1 0 t.n;
  Array.blit x2 0 t.t2 0 t.n;
  broadcast t;
  violations t <> 0

let bank t =
  let w = t.banked / lanes mod bank_words and lane = t.banked mod lanes in
  let set words b =
    for j = 0 to t.n - 1 do
      let m = 1 lsl lane in
      words.(j) <-
        (if b.(j) then words.(j) lor m else words.(j) land lnot m)
    done
  in
  set t.bx.(w) t.tx;
  set t.by.(w) t.t1;
  set t.bz.(w) t.t2;
  t.banked <- t.banked + 1

let revert t it =
  if it < t.n then t.t1.(it) <- t.tx.(it)
  else t.t2.(it - t.n) <- t.tx.(it - t.n)

(* Greedy shrinking in prefix batches: lane l of a batch reverts the
   batch's first l + 1 differing inputs. The highest lane that still
   violates is taken whole; the input after it is kept, since reverting
   it too lost the violation. *)
let shrink t =
  let m = ref 0 in
  for j = 0 to t.n - 1 do
    if t.t1.(j) <> t.tx.(j) && t.t2.(j) <> t.tx.(j) then
      invalid_arg "Screen.shrink: copies differ on the same input";
    if t.t1.(j) <> t.tx.(j) then begin
      t.items.(!m) <- j;
      incr m
    end;
    if t.t2.(j) <> t.tx.(j) then begin
      t.items.(!m) <- t.n + j;
      incr m
    end
  done;
  let reverted = ref 0 in
  let start = ref 0 in
  while !start < !m do
    let cnt = min lanes (!m - !start) in
    broadcast t;
    for i = 0 to cnt - 1 do
      let it = t.items.(!start + i) in
      let ge = all_lanes lsl i in
      if it < t.n then
        t.w1.(it) <- t.w1.(it) land lnot ge lor (t.wx.(it) land ge)
      else
        let j = it - t.n in
        t.w2.(j) <- t.w2.(j) land lnot ge lor (t.wx.(j) land ge)
    done;
    let mask = if cnt = lanes then all_lanes else (1 lsl cnt) - 1 in
    let v = violations t land mask in
    if v = 0 then incr start
    else begin
      let l = ref (cnt - 1) in
      while not (bit v !l) do
        decr l
      done;
      for i = 0 to !l do
        revert t t.items.(!start + i)
      done;
      reverted := !reverted + !l + 1;
      start := !start + !l + if !l + 1 < cnt then 2 else 1
    end
  done;
  bank t;
  !reverted

(* ---------- the pair graph ---------- *)

(* Each base word x is simulated once, and once per single flip x ⊕ e_j;
   a pair's violation word then needs no simulation for OR and AND, and
   one more (x ⊕ e_i ⊕ e_j) for XOR. *)
let draw t =
  if not t.drawn then begin
    t.drawn <- true;
    Array.iteri
      (fun w x ->
        for j = 0 to t.n - 1 do
          x.(j) <- random_word t
        done;
        t.fx.(w) <- run t.sim x;
        Array.blit x 0 t.wx 0 t.n;
        for j = 0 to t.n - 1 do
          t.wx.(j) <- lnot x.(j);
          t.flips.(w).(j) <- run t.sim t.wx;
          t.wx.(j) <- x.(j)
        done)
      t.base
  end

(* Lanes of base word [w] where (x, x ⊕ e_i, x ⊕ e_j) violates. *)
let pair_violations t w i j =
  let fx = t.fx.(w) and fi = t.flips.(w).(i) and fj = t.flips.(w).(j) in
  match t.gate with
  | Gate.Or_gate -> fx land lnot fi land lnot fj
  | Gate.And_gate -> lnot fx land fi land fj
  | Gate.Xor_gate ->
      let x = t.base.(w) in
      Array.blit x 0 t.wx 0 t.n;
      t.wx.(i) <- lnot x.(i);
      t.wx.(j) <- lnot x.(j);
      fx lxor fi lxor fj lxor run t.sim t.wx

(* The first base word where pair i < j violates, or -1; cached. *)
let first_word t i j =
  let k = (i * t.n) + j in
  match Bytes.get t.first k with
  | '\000' ->
      draw t;
      let rec go w =
        if w = pair_words then -1
        else if pair_violations t w i j <> 0 then w
        else go (w + 1)
      in
      let w = go 0 in
      Bytes.set t.first k (Char.chr (w + 2));
      w
  | c -> Char.code c - 2

let depends t j =
  if j < 0 || j >= t.n then invalid_arg "Screen.depends: position";
  draw t;
  let rec go w =
    w < pair_words && (t.fx.(w) <> t.flips.(w).(j) || go (w + 1))
  in
  go 0

let conflict t i j =
  if i = j || i < 0 || j < 0 || i >= t.n || j >= t.n then
    invalid_arg "Screen.conflict: positions";
  first_word t (min i j) (max i j) >= 0

(* Reports word-major, in the order the sweep finds them: the pairs
   whose first violating word is w, for w = 0, 1, ... *)
let pairs t f =
  let n = t.n in
  for w = 0 to pair_words - 1 do
    for i = 0 to n - 2 do
      for j = i + 1 to n - 1 do
        if first_word t i j = w then begin
          let x = t.base.(w) in
          let lane = lowest_lane (pair_violations t w i j) in
          (* the condition is symmetric in the two flips: report both
             orders, (x, x ⊕ e_i, x ⊕ e_j) and (x, x ⊕ e_j, x ⊕ e_i) *)
          let report a b =
            for k = 0 to n - 1 do
              let b0 = bit x.(k) lane in
              t.tx.(k) <- b0;
              t.t1.(k) <- b0 <> (k = a);
              t.t2.(k) <- b0 <> (k = b)
            done;
            f ()
          in
          report i j;
          report j i
        end
      done
    done
  done

(* ---------- the edge walk (XOR) and the harvest ---------- *)

(* Lanes [l] and up, none when [l] is past the last lane. *)
let from l = if l >= lanes then 0 else all_lanes lsl l

(* Walks copy [c] of the current violating XOR tuple down to one flip.
   With u the copy's difference from x and v the other copy's, the tuple
   violates when D_u D_v f(x) = 1. For u = e_d1 ⊕ … ⊕ e_dm the
   derivative telescopes, D_u g(x) = ⊕_l D_{e_d(l+1)} g(x ⊕ e_d1 ⊕ … ⊕
   e_dl), so some term violates: the tuple on base x ⊕ e_d1 ⊕ … ⊕ e_dl
   whose copy [c] flips d(l+1) alone and whose other copy is the base
   ⊕ v. Lane l of a batch is term l. The copy's own point x ⊕ u is the
   same in every term, so a batch with no violating lane moves only x
   and the other copy on, by the batch's flips. Returns the flips the
   copy dropped. *)
let walk_copy t c =
  let tm, tother, wm, wother =
    if c = 1 then (t.t1, t.t2, t.w1, t.w2) else (t.t2, t.t1, t.w2, t.w1)
  in
  let m = ref 0 in
  for j = 0 to t.n - 1 do
    if tm.(j) <> t.tx.(j) then begin
      t.items.(!m) <- j;
      incr m
    end
  done;
  let m = !m in
  let start = ref 0 and found = ref false in
  while not !found do
    if !start >= m then
      invalid_arg "Screen.walk: the current tuple does not violate";
    let cnt = min lanes (m - !start) in
    broadcast t;
    for i = !start + cnt to m - 1 do
      let j = t.items.(i) in
      wm.(j) <- t.wx.(j)
    done;
    for i = 0 to cnt - 1 do
      let j = t.items.(!start + i) in
      let x = t.wx.(j) in
      (* the base has flipped j from lane i + 1 on, the copy from lane i *)
      t.wx.(j) <- x lxor from (i + 1);
      wother.(j) <- t.wx.(j);
      wm.(j) <- x lxor from i
    done;
    let v = violations t land lnot (from cnt) in
    if v = 0 then begin
      for i = !start to !start + cnt - 1 do
        let j = t.items.(i) in
        t.tx.(j) <- not t.tx.(j);
        tother.(j) <- not tother.(j)
      done;
      start := !start + cnt
    end
    else begin
      load_lane t (lowest_lane v);
      found := true
    end
  done;
  m - 1

let walk t =
  if t.gate <> Gate.Xor_gate then invalid_arg "Screen.walk: XOR only";
  for j = 0 to t.n - 1 do
    if t.t1.(j) <> t.tx.(j) && t.t2.(j) <> t.tx.(j) then
      invalid_arg "Screen.walk: copies differ on the same input"
  done;
  let d1 = walk_copy t 1 in
  d1 + walk_copy t 2

(* Every pair visible at the current base point z, the pairs (k, l) where
   (z, z ⊕ e_k, z ⊕ e_l) violates: f(z) and the n single flips, 63 flips
   to a simulated word, decide them for OR and AND; XOR also simulates
   the double flips of the pairs asked, one lane each. *)
let harvest t ~known f =
  let n = t.n in
  let z = Array.copy t.tx and t1 = Array.copy t.t1 and t2 = Array.copy t.t2 in
  let load_z () =
    for j = 0 to n - 1 do
      t.wx.(j) <- (if z.(j) then all_lanes else 0)
    done
  in
  load_z ();
  let fz = bit (run t.sim t.wx) 0 in
  let single = Array.make n false in
  let k0 = ref 0 in
  while !k0 < n do
    let cnt = min lanes (n - !k0) in
    load_z ();
    for l = 0 to cnt - 1 do
      let k = !k0 + l in
      t.wx.(k) <- t.wx.(k) lxor (1 lsl l)
    done;
    let r = run t.sim t.wx in
    for l = 0 to cnt - 1 do
      single.(!k0 + l) <- bit r l
    done;
    k0 := !k0 + cnt
  done;
  let ks = Array.make lanes 0 and ls = Array.make lanes 0 in
  let cnt = ref 0 in
  let report k l =
    Array.blit z 0 t.t1 0 n;
    Array.blit z 0 t.t2 0 n;
    t.t1.(k) <- not z.(k);
    t.t2.(l) <- not z.(l);
    f ()
  in
  let flush () =
    load_z ();
    for lane = 0 to !cnt - 1 do
      let m = 1 lsl lane in
      t.wx.(ks.(lane)) <- t.wx.(ks.(lane)) lxor m;
      t.wx.(ls.(lane)) <- t.wx.(ls.(lane)) lxor m
    done;
    let r = run t.sim t.wx in
    let batch = !cnt in
    cnt := 0;
    for lane = 0 to batch - 1 do
      let k = ks.(lane) and l = ls.(lane) in
      if fz <> single.(k) <> single.(l) <> bit r lane then report k l
    done
  in
  (match t.gate with
   | Gate.Or_gate | Gate.And_gate ->
       (* OR needs f(z) = 1, AND f(z) = 0, and both flips must leave it *)
       if fz = (t.gate = Gate.Or_gate) then
         for k = 0 to n - 2 do
           if single.(k) <> fz then
             for l = k + 1 to n - 1 do
               if single.(l) <> fz && not (known k l) then report k l
             done
         done
   | Gate.Xor_gate ->
       for k = 0 to n - 2 do
         for l = k + 1 to n - 1 do
           if not (known k l) then begin
             ks.(!cnt) <- k;
             ls.(!cnt) <- l;
             incr cnt;
             if !cnt = lanes then flush ()
           end
         done
       done;
       if !cnt > 0 then flush ());
  Array.blit t1 0 t.t1 0 n;
  Array.blit t2 0 t.t2 0 n

let iter_diff t ~xa ~xb =
  for j = 0 to t.n - 1 do
    if t.t1.(j) <> t.tx.(j) then xa j;
    if t.t2.(j) <> t.tx.(j) then xb j
  done

let tuple t = (Array.copy t.tx, Array.copy t.t1, Array.copy t.t2)
