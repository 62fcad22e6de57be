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

type outcome = {
  partition : Partition.t option;
  optimal : bool;
  timed_out : bool;
  counters : (string * int) list;
}

let run ~time_budget m p gate =
  let t0 = Step_obs.Clock.now () in
  match m with
  | Ljh ->
      let r = Ljh.find ~time_budget p gate in
      {
        partition = r.Ljh.partition;
        optimal = false;
        timed_out = r.Ljh.partition = None && r.Ljh.cpu >= time_budget;
        counters = [ ("sat_calls", r.Ljh.sat_calls) ];
      }
  | Mg ->
      let r = Mg.find ~time_budget p gate in
      {
        partition = r.Mg.partition;
        optimal = false;
        timed_out = r.Mg.partition = None && r.Mg.cpu >= time_budget;
        counters =
          [ ("seeds_tried", r.Mg.seeds_tried); ("sat_calls", r.Mg.sat_calls) ];
      }
  | Qd | Qb | Qdb -> (
      (* bootstrap with STEP-MG on a shared scaffold, as the paper does *)
      let copies = Copies.create p gate in
      let mg = Mg.find ~copies ~time_budget:(time_budget /. 4.0) p gate in
      let mg_counters =
        [
          ("mg_seeds_tried", mg.Mg.seeds_tried);
          ("mg_sat_calls", mg.Mg.sat_calls);
        ]
      in
      let remaining = time_budget -. Step_obs.Clock.elapsed_since t0 in
      if remaining <= 0.0 then
        {
          partition = mg.Mg.partition;
          optimal = false;
          timed_out = mg.Mg.partition = None;
          counters = mg_counters;
        }
      else
        (* without a bootstrap the QBF model decides feasibility *)
        let o =
          Qbf_model.optimize ~copies ?bootstrap:mg.Mg.partition
            ~time_budget:remaining p gate (qbf_target m)
        in
        {
          partition = o.Qbf_model.partition;
          optimal = o.Qbf_model.optimal;
          timed_out =
            mg.Mg.partition = None
            && (not o.Qbf_model.optimal)
            && o.Qbf_model.partition = None;
          counters =
            mg_counters
            @ [
                ("refinements", o.Qbf_model.refinements);
                ("qbf_queries", o.Qbf_model.qbf_queries);
              ];
        })
