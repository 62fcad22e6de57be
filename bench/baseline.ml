(* Bench regression gating against committed BENCH_N.json snapshots.

   The planted suite below is fully deterministic (seeded planted cones
   plus small structured blocks), so quality numbers (decomposed counts,
   failure counts) must reproduce exactly on any machine; wall-clock is
   gated with a relative tolerance plus an absolute slack so sub-100ms
   rows don't flap, and can be skipped entirely (--quality-only) when
   comparing across machines. *)

module Circuit = Step_aig.Circuit
module Gate = Step_core.Gate
module Generators = Step_circuits.Generators
module Method = Step_core.Method
module Config = Step_engine.Config
module Engine = Step_engine.Engine
module Clock = Step_obs.Clock
module Json = Step_obs.Json

let version = 1

(* Small enough that snapshot + clean re-run + handicapped run (the
   benchsmoke sequence) stays in CI-smoke territory, varied enough to
   exercise MG, the QBF models and all three gates. *)
let suite () =
  let planted ~seed ~na ~nb ~nc g =
    (Generators.planted_cone ~seed ~na ~nb ~nc g).Generators.circuit
  in
  [
    (planted ~seed:1 ~na:3 ~nb:3 ~nc:3 Gate.Or_gate, Gate.Or_gate);
    (planted ~seed:2 ~na:4 ~nb:4 ~nc:1 Gate.And_gate, Gate.And_gate);
    (planted ~seed:3 ~na:3 ~nb:3 ~nc:2 Gate.Xor_gate, Gate.Xor_gate);
    (Generators.ripple_adder 3, Gate.Xor_gate);
    (Generators.decoder 3, Gate.And_gate);
    (Generators.parity 5, Gate.Xor_gate);
  ]

let methods = [ Method.Mg; Method.Qd ]

let per_po_budget = 0.5

type row = {
  id : string;
  n_po : int;
  n_decomposed : int;
  n_failed : int;
  wall_s : float;
}

let row_id circuit gate method_ =
  Printf.sprintf "%s/%s/%s" circuit.Circuit.name
    (Method.to_string method_)
    (Gate.to_string gate)

(* [handicap] repeats the engine run inside the timed region — an honest
   N-fold slowdown used by benchsmoke to prove the gate actually fires. *)
let run_suite ?(handicap = 1) () =
  List.concat_map
    (fun (circuit, gate) ->
      List.map
        (fun method_ ->
          let config =
            {
              Config.default with
              Config.gate;
              method_;
              per_po_budget;
            }
          in
          let t0 = Clock.now () in
          let result = ref None in
          for _ = 1 to max 1 handicap do
            result := Some (Engine.run (Engine.create ~config circuit))
          done;
          let wall_s = Clock.elapsed_since t0 in
          let r = Option.get !result in
          let n_failed =
            Array.fold_left
              (fun acc (po : Engine.po_result) ->
                if po.Engine.failure <> None && not po.Engine.degraded then
                  acc + 1
                else acc)
              0 r.Engine.per_po
          in
          {
            id = row_id circuit gate method_;
            n_po = Array.length r.Engine.per_po;
            n_decomposed = r.Engine.n_decomposed;
            n_failed;
            wall_s;
          })
        methods)
    (suite ())

(* ---------- snapshot I/O ---------- *)

let to_json rows =
  Json.Obj
    [
      ("version", Json.Int version);
      ("kind", Json.String "bench-baseline");
      ("suite", Json.String "planted");
      ("per_po_budget_s", Json.Float per_po_budget);
      ( "rows",
        Json.List
          (List.map
             (fun r ->
               Json.Obj
                 [
                   ("id", Json.String r.id);
                   ("n_po", Json.Int r.n_po);
                   ("n_decomposed", Json.Int r.n_decomposed);
                   ("n_failed", Json.Int r.n_failed);
                   ("wall_s", Json.Float r.wall_s);
                 ])
             rows) );
    ]

let save path rows =
  let dir = Filename.dirname path in
  let tmp = Filename.temp_file ~temp_dir:dir "bench-" ".tmp" in
  let oc = open_out tmp in
  (try
     output_string oc (Json.to_string (to_json rows));
     output_char oc '\n';
     close_out oc
   with e ->
     close_out_noerr oc;
     (try Sys.remove tmp with Sys_error _ -> ());
     raise e);
  Sys.rename tmp path;
  Printf.printf "wrote %s (%d rows)\n%!" path (List.length rows)

let load path =
  let ic = open_in path in
  let text =
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  let j = Json.of_string text in
  if Json.to_string_opt (Json.member "kind" j) <> Some "bench-baseline" then
    failwith (path ^ ": not a bench-baseline snapshot");
  if Json.to_int_opt (Json.member "version" j) <> Some version then
    failwith (path ^ ": snapshot from another format version");
  match Json.member "rows" j with
  | Json.List rows ->
      List.map
        (fun r ->
          let str k =
            match Json.to_string_opt (Json.member k r) with
            | Some s -> s
            | None -> failwith (path ^ ": row missing " ^ k)
          in
          let int k =
            match Json.to_int_opt (Json.member k r) with
            | Some i -> i
            | None -> failwith (path ^ ": row missing " ^ k)
          in
          let flt k =
            match Json.to_float_opt (Json.member k r) with
            | Some f -> f
            | None -> failwith (path ^ ": row missing " ^ k)
          in
          {
            id = str "id";
            n_po = int "n_po";
            n_decomposed = int "n_decomposed";
            n_failed = int "n_failed";
            wall_s = flt "wall_s";
          })
        rows
  | _ -> failwith (path ^ ": rows must be a list")

(* ---------- comparison ---------- *)

(* Sub-second rows are dominated by constant overheads, so the wall gate
   is [base * (1 + tolerance) + slack]. Quality gates are exact. *)
let wall_slack_s = 0.25

let compare_rows ~tolerance ~quality_only base cur =
  let cur_by_id = Hashtbl.create 32 in
  List.iter (fun r -> Hashtbl.replace cur_by_id r.id r) cur;
  let violations = ref 0 in
  let violation fmt =
    incr violations;
    Printf.ksprintf (fun s -> Printf.printf "FAIL %s\n" s) fmt
  in
  List.iter
    (fun b ->
      match Hashtbl.find_opt cur_by_id b.id with
      | None -> violation "%s: row missing from current run" b.id
      | Some c ->
          let before = !violations in
          if c.n_po <> b.n_po then
            violation "%s: n_po %d, baseline %d (suite drifted?)" b.id c.n_po
              b.n_po;
          if c.n_decomposed < b.n_decomposed then
            violation "%s: decomposed %d/%d, baseline %d/%d" b.id
              c.n_decomposed c.n_po b.n_decomposed b.n_po;
          if c.n_failed > b.n_failed then
            violation "%s: %d failed outputs, baseline %d" b.id c.n_failed
              b.n_failed;
          let limit = (b.wall_s *. (1.0 +. tolerance)) +. wall_slack_s in
          if (not quality_only) && c.wall_s > limit then
            violation "%s: wall %.3fs > limit %.3fs (baseline %.3fs +%.0f%%)"
              b.id c.wall_s limit b.wall_s (100.0 *. tolerance);
          if !violations = before then
            Printf.printf "ok   %-28s dec=%d/%d wall %.3fs (baseline %.3fs)\n"
              b.id c.n_decomposed c.n_po c.wall_s b.wall_s)
    base;
  let total rows = List.fold_left (fun acc r -> acc +. r.wall_s) 0.0 rows in
  let base_total = total base and cur_total = total cur in
  let total_limit = (base_total *. (1.0 +. tolerance)) +. wall_slack_s in
  if (not quality_only) && cur_total > total_limit then
    violation "total wall %.3fs > limit %.3fs (baseline %.3fs)" cur_total
      total_limit base_total
  else
    Printf.printf "total wall %.3fs (baseline %.3fs, limit %.3fs%s)\n"
      cur_total base_total total_limit
      (if quality_only then ", not gated" else "");
  !violations

let check ~baseline_path ~tolerance ~quality_only ~handicap =
  let base = load baseline_path in
  let cur = run_suite ~handicap () in
  let n = compare_rows ~tolerance ~quality_only base cur in
  if n = 0 then begin
    Printf.printf "baseline %s: PASS (%d rows)\n" baseline_path
      (List.length base);
    0
  end
  else begin
    Printf.printf "baseline %s: FAIL (%d violations)\n" baseline_path n;
    1
  end
