type aggregate = {
  n_outputs : int;
  n_decomposed : int;
  n_optimal : int;
  n_timed_out : int;
  n_failed : int;
  n_degraded : int;
  mean_disjointness : float;
  mean_balancedness : float;
  total_cpu : float;
}

let aggregate_of (r : Engine.circuit_result) =
  let n_outputs = Array.length r.Engine.per_po in
  let decomposed =
    Array.to_list r.Engine.per_po
    |> List.filter_map (fun po -> po.Engine.partition)
  in
  let n_decomposed = List.length decomposed in
  let mean f =
    if decomposed = [] then nan
    else
      List.fold_left (fun acc p -> acc +. f p) 0.0 decomposed
      /. float_of_int n_decomposed
  in
  {
    n_outputs;
    n_decomposed;
    n_optimal =
      Array.fold_left
        (fun acc po -> if po.Engine.proven_optimal then acc + 1 else acc)
        0 r.Engine.per_po;
    n_timed_out =
      Array.fold_left
        (fun acc po -> if po.Engine.timed_out then acc + 1 else acc)
        0 r.Engine.per_po;
    n_failed =
      Array.fold_left
        (fun acc po -> if Engine.po_status po = "failed" then acc + 1 else acc)
        0 r.Engine.per_po;
    n_degraded =
      Array.fold_left
        (fun acc po -> if po.Engine.degraded then acc + 1 else acc)
        0 r.Engine.per_po;
    mean_disjointness = mean Step_core.Partition.disjointness;
    mean_balancedness = mean Step_core.Partition.balancedness;
    total_cpu = r.Engine.total_cpu;
  }

(* Per-circuit sum of the per-PO engine counters, key-wise. *)
let counters_of (r : Engine.circuit_result) =
  let tbl = Hashtbl.create 8 in
  let order = ref [] in
  Array.iter
    (fun (po : Engine.po_result) ->
      List.iter
        (fun (k, v) ->
          match Hashtbl.find_opt tbl k with
          | Some acc -> Hashtbl.replace tbl k (acc + v)
          | None ->
              Hashtbl.replace tbl k v;
              order := k :: !order)
        po.Engine.counters)
    r.Engine.per_po;
  List.rev_map (fun k -> (k, Hashtbl.find tbl k)) !order

let counters_cell counters =
  String.concat ";"
    (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) counters)

(* Cache columns render empty for runs without a cache, so cache-less
   output is unchanged. *)
let cache_cell (po : Engine.po_result) =
  match po.Engine.cache_hit with
  | None -> ""
  | Some true -> "hit"
  | Some false -> "miss"

let cache_counts (r : Engine.circuit_result) =
  Array.fold_left
    (fun (hits, misses) (po : Engine.po_result) ->
      match po.Engine.cache_hit with
      | Some true -> (hits + 1, misses)
      | Some false -> (hits, misses + 1)
      | None -> (hits, misses))
    (0, 0) r.Engine.per_po

(* Certificate columns follow the cache-column convention: empty for
   runs without --certify, so certless output is byte-identical. *)
let cert_cell (po : Engine.po_result) =
  match po.Engine.certificate with
  | None -> ""
  | Some c -> if c.Step_core.Certify.ok then "ok" else "FAIL"

let cert_counts (r : Engine.circuit_result) =
  Array.fold_left
    (fun (checked, failed) (po : Engine.po_result) ->
      match po.Engine.certificate with
      | None -> (checked, failed)
      | Some c ->
          (checked + 1, if c.Step_core.Certify.ok then failed else failed + 1))
    (0, 0) r.Engine.per_po

let cert_totals (r : Engine.circuit_result) =
  Array.fold_left
    (fun (bytes, secs) (po : Engine.po_result) ->
      match po.Engine.certificate with
      | None -> (bytes, secs)
      | Some c ->
          ( bytes + c.Step_core.Certify.proof_bytes,
            secs +. c.Step_core.Certify.gen_s +. c.Step_core.Certify.check_s ))
    (0, 0.0) r.Engine.per_po

let po_fields (po : Engine.po_result) =
  match po.Engine.partition with
  | None -> (0, 0, 0, nan, nan)
  | Some p ->
      ( List.length p.Step_core.Partition.xa,
        List.length p.Step_core.Partition.xb,
        List.length p.Step_core.Partition.xc,
        Step_core.Partition.disjointness p,
        Step_core.Partition.balancedness p )

let summary_line (r : Engine.circuit_result) =
  let a = aggregate_of r in
  Printf.sprintf
    "%s %s %s: #Dec=%d/%d optimal=%d timeouts=%d mean(eD)=%.3f mean(eB)=%.3f \
     CPU=%.2fs"
    r.Engine.circuit_name
    (Step_core.Method.to_string r.Engine.method_used)
    (Step_core.Gate.to_string r.Engine.gate_used)
    a.n_decomposed a.n_outputs a.n_optimal a.n_timed_out a.mean_disjointness
    a.mean_balancedness a.total_cpu
  ^ (if a.n_failed > 0 then Printf.sprintf " failed=%d" a.n_failed else "")
  ^ (if a.n_degraded > 0 then Printf.sprintf " degraded=%d" a.n_degraded
     else "")
  ^ (match cache_counts r with
    | 0, 0 -> ""
    | hits, misses -> Printf.sprintf " cache=%d/%d" hits (hits + misses))
  ^
  match cert_counts r with
  | 0, 0 -> ""
  | checked, failed -> Printf.sprintf " cert=%d/%d" (checked - failed) checked

let to_text r =
  let buf = Buffer.create 1024 in
  Array.iter
    (fun (po : Engine.po_result) ->
      let xa, xb, xc, ed, eb = po_fields po in
      let status = Engine.po_status po in
      let cache_suffix =
        match po.Engine.cache_hit with
        | None -> ""
        | Some _ -> " cache=" ^ cache_cell po
      in
      let cert_suffix =
        match po.Engine.certificate with
        | None -> ""
        | Some _ -> " cert=" ^ cert_cell po
      in
      Buffer.add_string buf
        (Printf.sprintf
           "%-16s n=%-3d %-14s |XA|=%-2d |XB|=%-2d |XC|=%-2d eD=%-5.3f \
            eB=%-5.3f %6.3fs%s%s\n"
           po.Engine.po_name po.Engine.support_size status xa xb xc ed eb
           po.Engine.cpu cache_suffix cert_suffix))
    r.Engine.per_po;
  Buffer.add_string buf (summary_line r);
  Buffer.add_char buf '\n';
  Buffer.contents buf

let to_csv r =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    "po,support,decomposed,optimal,timed_out,status,attempts,xa,xb,xc,eD,eB,cpu,cache,cert,counters\n";
  Array.iter
    (fun (po : Engine.po_result) ->
      let xa, xb, xc, ed, eb = po_fields po in
      Buffer.add_string buf
        (Printf.sprintf "%s,%d,%b,%b,%b,%s,%d,%d,%d,%d,%f,%f,%f,%s,%s,%s\n"
           po.Engine.po_name po.Engine.support_size
           (po.Engine.partition <> None)
           po.Engine.proven_optimal po.Engine.timed_out
           (Engine.po_status po) po.Engine.attempts xa xb xc ed eb
           po.Engine.cpu (cache_cell po) (cert_cell po)
           (counters_cell po.Engine.counters)))
    r.Engine.per_po;
  Buffer.contents buf

let to_markdown r =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "### %s — %s, %s\n\n" r.Engine.circuit_name
       (Step_core.Method.to_string r.Engine.method_used)
       (Step_core.Gate.to_string r.Engine.gate_used));
  Buffer.add_string buf
    "| PO | support | status | XA | XB | XC | eD | eB | cpu (s) | cache | \
     cert | counters |\n";
  Buffer.add_string buf "|---|---|---|---|---|---|---|---|---|---|---|---|\n";
  Array.iter
    (fun (po : Engine.po_result) ->
      let xa, xb, xc, ed, eb = po_fields po in
      let status =
        match Engine.po_status po with "indecomposable" -> "—" | s -> s
      in
      Buffer.add_string buf
        (Printf.sprintf
           "| %s | %d | %s | %d | %d | %d | %.3f | %.3f | %.3f | %s | %s | \
            %s |\n"
           po.Engine.po_name po.Engine.support_size status xa xb xc ed eb
           po.Engine.cpu (cache_cell po) (cert_cell po)
           (counters_cell po.Engine.counters)))
    r.Engine.per_po;
  Buffer.add_string buf (Printf.sprintf "\n%s\n" (summary_line r));
  Buffer.contents buf

let compare_table ~baseline ~challenger ~metric =
  let buf = Buffer.create 512 in
  let better = ref 0 and equal = ref 0 and total = ref 0 in
  Array.iteri
    (fun i (c : Engine.po_result) ->
      let b = baseline.Engine.per_po.(i) in
      match (c.Engine.partition, b.Engine.partition) with
      | Some cp, Some bp ->
          incr total;
          let mc = metric cp and mb = metric bp in
          let tag =
            if mc < mb -. 1e-9 then begin
              incr better;
              "better"
            end
            else if Float.abs (mc -. mb) <= 1e-9 then begin
              incr equal;
              "equal"
            end
            else "worse"
          in
          Buffer.add_string buf
            (Printf.sprintf "%-16s %-24s %.3f vs %.3f (%s)\n" c.Engine.po_name
               (Step_core.Method.to_string challenger.Engine.method_used
               ^ " vs "
               ^ Step_core.Method.to_string baseline.Engine.method_used)
               mc mb tag)
      | _, _ -> ())
    challenger.Engine.per_po;
  let pct a = if !total = 0 then 0.0 else 100.0 *. float_of_int a /. float_of_int !total in
  Buffer.add_string buf
    (Printf.sprintf "better %.1f%%  equal %.1f%%  (over %d POs)\n"
       (pct !better) (pct !equal) !total);
  Buffer.contents buf
