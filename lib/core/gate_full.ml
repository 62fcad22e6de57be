module Aig = Step_aig.Aig

type t = Or | And | Xor | Nor | Nand | Xnor

let all = [ Or; And; Xor; Nor; Nand; Xnor ]

let to_string = function
  | Or -> "OR"
  | And -> "AND"
  | Xor -> "XOR"
  | Nor -> "NOR"
  | Nand -> "NAND"
  | Xnor -> "XNOR"

let of_string s =
  match String.lowercase_ascii s with
  | "or" -> Or
  | "and" -> And
  | "xor" -> Xor
  | "nor" -> Nor
  | "nand" -> Nand
  | "xnor" -> Xnor
  | other -> failwith (Printf.sprintf "Gate_full.of_string: %S" other)

let base = function
  | Or -> (Gate.Or_gate, false)
  | And -> (Gate.And_gate, false)
  | Xor -> (Gate.Xor_gate, false)
  | Nor -> (Gate.Or_gate, true) (* f = ¬(fA ∨ fB) ⟺ ¬f = fA ∨ fB *)
  | Nand -> (Gate.And_gate, true)
  | Xnor -> (Gate.Xor_gate, true)

let apply m g a b =
  match g with
  | Or -> Aig.or_ m a b
  | And -> Aig.and_ m a b
  | Xor -> Aig.xor_ m a b
  | Nor -> Aig.not_ (Aig.or_ m a b)
  | Nand -> Aig.not_ (Aig.and_ m a b)
  | Xnor -> Aig.iff_ m a b

let decompose ?(method_ = Method.Qd) ?time_budget (p : Problem.t) g =
  let gate, complement = base g in
  let p' = if complement then Problem.negate p else p in
  match Method.find_partition ?time_budget method_ p' gate with
  | None -> None
  | Some part ->
      let e = Extract.run p' gate part in
      (* f' = fA <base> fB with f' = ¬f when complemented; the derived
         gate absorbs the outer negation, so fA/fB carry over unchanged *)
      Some (part, e.Extract.fa, e.Extract.fb)
