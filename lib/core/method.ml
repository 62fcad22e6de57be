type t = Ljh | Mg | Qd | Qb | Qdb

let all = [ Ljh; Mg; Qd; Qb; Qdb ]

let to_string = function
  | Ljh -> "LJH"
  | Mg -> "STEP-MG"
  | Qd -> "STEP-QD"
  | Qb -> "STEP-QB"
  | Qdb -> "STEP-QDB"

let of_string_opt s =
  match String.lowercase_ascii (String.trim s) with
  | "ljh" | "bi-dec" | "bidec" -> Some Ljh
  | "mg" | "step-mg" -> Some Mg
  | "qd" | "step-qd" -> Some Qd
  | "qb" | "step-qb" -> Some Qb
  | "qdb" | "step-qdb" -> Some Qdb
  | _ -> None

let of_string s =
  match of_string_opt s with
  | Some m -> m
  | None -> failwith (Printf.sprintf "Method.of_string: %S" s)

let pp fmt m = Format.pp_print_string fmt (to_string m)

let qbf_target = function
  | Qd -> Qbf_model.Disjointness
  | Qb -> Qbf_model.Balancedness
  | Qdb -> Qbf_model.Combined
  | (Ljh | Mg) as m -> invalid_arg ("Method.qbf_target: " ^ to_string m)

let find_partition ?time_budget m p gate =
  match m with
  | Ljh -> (Ljh.find ?time_budget p gate).Ljh.partition
  | Mg -> (Mg.find ?time_budget p gate).Mg.partition
  | Qd | Qb | Qdb ->
      (Qbf_model.optimize ?time_budget p gate (qbf_target m))
        .Qbf_model.partition
