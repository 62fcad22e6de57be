type t = Or_gate | And_gate | Xor_gate

let all = [ Or_gate; And_gate; Xor_gate ]

let to_string = function
  | Or_gate -> "OR"
  | And_gate -> "AND"
  | Xor_gate -> "XOR"

let of_string_opt s =
  match String.lowercase_ascii (String.trim s) with
  | "or" | "or_gate" | "or-gate" -> Some Or_gate
  | "and" | "and_gate" | "and-gate" -> Some And_gate
  | "xor" | "xor_gate" | "xor-gate" -> Some Xor_gate
  | _ -> None

let of_string s =
  match of_string_opt s with
  | Some g -> g
  | None -> failwith (Printf.sprintf "Gate.of_string: %S" s)

let pp fmt g = Format.pp_print_string fmt (to_string g)

let apply g a b =
  match g with
  | Or_gate -> a || b
  | And_gate -> a && b
  | Xor_gate -> a <> b

let edge aig g a b =
  match g with
  | Or_gate -> Step_aig.Aig.or_ aig a b
  | And_gate -> Step_aig.Aig.and_ aig a b
  | Xor_gate -> Step_aig.Aig.xor_ aig a b
