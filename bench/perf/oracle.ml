(* Independent answer checker. It shares no code with the copies scaffold
   or the QBF model that produce the answers: up to 16 support variables
   it decides decomposability on explicit truth tables, up to 8 it also
   enumerates all 3^n partitions to check optimum values and
   "indecomposable" verdicts, and above 16 it extracts fA/fB by
   quantification and proves f = fA <op> fB with a miter. *)

module Aig = Step_aig.Aig
module Truth = Step_aig.Truth
module Circuit = Step_aig.Circuit
module Gate = Step_core.Gate
module Method = Step_core.Method
module Partition = Step_core.Partition
module Problem = Step_core.Problem
module Extract = Step_core.Extract
module Verify = Step_core.Verify

let max_table = 16

let max_exhaustive = 8

(* f over [n] variables; bit [p] of an assignment index is the value of
   [vars.(p)]. *)
type table = { n : int; vars : int array; f : bool array }

let table aig edge =
  let t = Truth.of_edge aig edge in
  let n = Truth.n_vars t in
  let f = Array.init (1 lsl n) (Truth.get t) in
  { n; vars = Array.of_list (Truth.vars t); f }

let mask t vars =
  List.fold_left
    (fun acc v ->
      let rec pos p =
        if p = t.n then invalid_arg "Oracle.mask: variable outside the support"
        else if t.vars.(p) = v then p
        else pos (p + 1)
      in
      acc lor (1 lsl pos 0))
    0 vars

(* ∀ (forall) or ∃ over the variables in [m]; the result keeps all [n]
   positions, vacuous in [m]. *)
let quantify ~forall t m =
  let g = Array.copy t.f in
  for p = 0 to t.n - 1 do
    let bit = 1 lsl p in
    if m land bit <> 0 then
      for j = 0 to Array.length g - 1 do
        if j land bit = 0 then begin
          let a = g.(j) and b = g.(j lor bit) in
          let v = if forall then a && b else a || b in
          g.(j) <- v;
          g.(j lor bit) <- v
        end
      done
  done;
  g

(* f = g(XA,XC) <op> h(XB,XC) for some g, h iff
   OR:  f = ∀XB f ∨ ∀XA f
   AND: f = ∃XB f ∧ ∃XA f
   XOR: f(a,b,c) ⊕ f(a,0,c) ⊕ f(0,b,c) ⊕ f(0,0,c) = 0 everywhere.
   [quant m] is the OR/AND quantification over mask [m]. *)
let decomposes_with ~quant t gate ~ma ~mb =
  let f = t.f in
  let all p =
    let ok = ref true and j = ref 0 in
    while !ok && !j < Array.length f do
      ok := p !j;
      incr j
    done;
    !ok
  in
  match gate with
  | Gate.Or_gate ->
      let ga = quant mb and gb = quant ma in
      all (fun j -> f.(j) = (ga.(j) || gb.(j)))
  | Gate.And_gate ->
      let ga = quant mb and gb = quant ma in
      all (fun j -> f.(j) = (ga.(j) && gb.(j)))
  | Gate.Xor_gate ->
      let nb = lnot mb and na = lnot ma and nab = lnot (ma lor mb) in
      all (fun j ->
          not (f.(j) <> f.(j land nb) <> f.(j land na) <> f.(j land nab)))

let quant_of gate t =
  match gate with
  | Gate.Or_gate -> quantify ~forall:true t
  | Gate.And_gate -> quantify ~forall:false t
  | Gate.Xor_gate -> fun _ -> t.f

let decomposes t gate ~ma ~mb =
  decomposes_with ~quant:(quant_of gate t) t gate ~ma ~mb

(* ---------- optimum by enumeration ---------- *)

(* Minimum of each method's target over all valid non-trivial partitions
   ([None] when there is none), read on the canonical |XA| >= |XB| form:
   QD |XC|, QB |XA|-|XB|, QDB |XC|+|XA|-|XB|. *)
type optimum = { qd : int; qb : int; qdb : int }

let popcount m =
  let rec go m acc = if m = 0 then acc else go (m land (m - 1)) (acc + 1) in
  go m 0

let exhaustive t gate =
  let n = t.n in
  let quant = Array.get (Array.init (1 lsl n) (quant_of gate t)) in
  let best = ref None in
  let rec assign p ma mb =
    if p = n then begin
      if ma <> 0 && mb <> 0 && decomposes_with ~quant t gate ~ma ~mb then begin
        let na = popcount ma and nb = popcount mb in
        let a = max na nb and b = min na nb in
        let c = n - na - nb in
        let o = { qd = c; qb = a - b; qdb = c + a - b } in
        best :=
          Some
            (match !best with
            | None -> o
            | Some x ->
                { qd = min x.qd o.qd; qb = min x.qb o.qb; qdb = min x.qdb o.qdb })
      end
    end
    else begin
      let bit = 1 lsl p in
      assign (p + 1) (ma lor bit) mb;
      assign (p + 1) ma (mb lor bit);
      assign (p + 1) ma mb
    end
  in
  assign 0 0 0;
  !best

(* The method's own target for a partition. *)
let target method_ p =
  let p = Partition.canonical p in
  match method_ with
  | Method.Qb -> Partition.balancedness_k p
  | Method.Qdb -> Partition.combined_k p
  | Method.Qd | Method.Mg | Method.Ljh -> Partition.disjointness_k p

(* An undecomposed output costs its whole support, so decomposing one
   more output can only lower a sum of costs. *)
let cost method_ ~support = function
  | None -> support
  | Some p -> target method_ p

let target_of_optimum method_ o =
  match method_ with
  | Method.Qb -> o.qb
  | Method.Qdb -> o.qdb
  | Method.Qd | Method.Mg | Method.Ljh -> o.qd

(* ---------- verdicts ---------- *)

type verdict =
  | Exhaustive  (** every claim checked, optimum included *)
  | Checked  (** validity checked; no optimum or "none exists" claim was
                 made, or none could be checked at this size *)
  | Unchecked of string
  | Wrong of string

let well_formed ~support (p : Partition.t) =
  p.Partition.xa <> [] && p.Partition.xb <> []
  && List.sort compare (p.Partition.xa @ p.Partition.xb @ p.Partition.xc)
     = support

(* Validity of one partition, on a private copy of the circuit for the
   miter path (extraction adds nodes to the manager it works in). *)
let valid circuit po gate part =
  let aig = circuit.Circuit.aig and edge = Circuit.output circuit po in
  let support = Aig.support aig edge in
  if not (well_formed ~support part) then
    Wrong "partition does not split the support"
  else if List.length support <= max_table then begin
    let t = table aig edge in
    let ma = mask t part.Partition.xa and mb = mask t part.Partition.xb in
    if decomposes t gate ~ma ~mb then Checked
    else Wrong "partition does not decompose f"
  end
  else begin
    let copy = Circuit.compact circuit in
    let p = Problem.of_output copy po in
    match
      Extract.run ~engine:Extract.Quantify ~max_nodes:2_000_000 p gate part
    with
    | { Extract.fa; fb } ->
        if Verify.decomposition p gate part ~fa ~fb then Checked
        else Wrong "extracted fA/fB do not compose to f"
    | exception Aig.Blowup -> Unchecked "extraction blew up"
    | exception Failure msg -> Wrong msg
  end

(* An exact answer: [validity] of its partition and, when it claims to be
   optimal on at most 8 variables, its target value [got] ([None]: "no
   partition exists") against the least target over all valid partitions,
   [optimum t] ([None]: there is none). *)
let check_claim circuit po ~validity ~proven_optimal ~got ~optimum =
  let aig = circuit.Circuit.aig and edge = Circuit.output circuit po in
  let n = List.length (Aig.support aig edge) in
  match validity with
  | Wrong _ | Unchecked _ -> validity
  | Exhaustive | Checked -> (
      if not proven_optimal then validity
      else if n > max_exhaustive then
        Unchecked (if got = None then "indecomposable" else "optimum")
      else
        let best = if n < 2 then None else optimum (table aig edge) in
        match (got, best) with
        | None, None -> Exhaustive
        | None, Some _ -> Wrong "claimed indecomposable, a partition exists"
        | Some _, None -> Wrong "oracle finds no partition"
        | Some g, Some b ->
            if g = b then Exhaustive
            else Wrong (Printf.sprintf "target %d, optimum %d" g b))

(* QD, QB or QDB on one gate. *)
let check_exact circuit po gate method_ ~partition ~proven_optimal =
  let validity =
    match partition with Some p -> valid circuit po gate p | None -> Checked
  in
  check_claim circuit po ~validity ~proven_optimal
    ~got:(Option.map (target method_) partition)
    ~optimum:(fun t -> Option.map (target_of_optimum method_) (exhaustive t gate))

(* Auto-gate QD: the chosen gate's partition is valid and its |XC| is the
   least over the three gates' optima; no gate means none decomposes. *)
let check_auto circuit po ~gate ~partition ~proven_optimal =
  let validity =
    match (gate, partition) with
    | Some g, Some p -> valid circuit po g p
    | None, None -> Checked
    | _ -> Wrong "gate and partition disagree"
  in
  let least t =
    match List.filter_map (exhaustive t) Gate.all with
    | [] -> None
    | os -> Some (List.fold_left (fun acc o -> min acc o.qd) max_int os)
  in
  check_claim circuit po ~validity ~proven_optimal
    ~got:(Option.map (target Method.Qd) partition)
    ~optimum:least

(* A QDIMACS verdict on the exported OR model at the loosest bound:
   [False] iff some non-trivial OR partition exists. *)
let check_qdimacs circuit po (answer : Step_qbf.Qdimacs.answer) =
  let aig = circuit.Circuit.aig and edge = Circuit.output circuit po in
  let t = table aig edge in
  if t.n > max_exhaustive then Unchecked "support above the enumeration limit"
  else
    let decomposable = exhaustive t Gate.Or_gate <> None in
    match answer with
    | Step_qbf.Qdimacs.Unknown -> Unchecked "unknown"
    | Step_qbf.Qdimacs.False when decomposable -> Exhaustive
    | Step_qbf.Qdimacs.True when not decomposable -> Exhaustive
    | Step_qbf.Qdimacs.False -> Wrong "False, but f is not OR-decomposable"
    | Step_qbf.Qdimacs.True -> Wrong "True, but f is OR-decomposable"
