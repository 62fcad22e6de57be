module Solver = Step_sat.Solver
module Obs = Step_obs.Obs
module Clock = Step_obs.Clock
module Metrics = Step_obs.Metrics

let m_sat_calls = Metrics.counter "ljh.sat_calls"

let m_found = Metrics.counter "ljh.decomposed"

type result = {
  partition : Partition.t option;
  sat_calls : int;
  cpu : float;
}

let find ?time_budget (p : Problem.t) g =
  Obs.span
    ~attrs:[ ("n", Step_obs.Json.Int (Problem.n_vars p)) ]
    "ljh.find"
  @@ fun () ->
  let t0 = Clock.now () in
  let n = Problem.n_vars p in
  let finish partition sat_calls =
    Metrics.add m_sat_calls sat_calls;
    if partition <> None then Metrics.inc m_found;
    Obs.add_attr "sat_calls" (Step_obs.Json.Int sat_calls);
    Obs.add_attr "decomposed" (Step_obs.Json.Bool (partition <> None));
    { partition; sat_calls; cpu = Clock.elapsed_since t0 }
  in
  if n < 2 then finish None 0
  else begin
    let deadline =
      match time_budget with Some b -> t0 +. b | None -> infinity
    in
    let sat_calls = ref 0 in
    (* One scaffold per output, candidates as assumptions: formula (2)'s
       control variables let one instance decide every partition, with
       learnt clauses carried from one candidate to the next. It is built
       on the first check, so a find that checks nothing builds nothing. *)
    let copies = lazy (Copies.create p g) in
    let check part =
      incr sat_calls;
      Copies.check ~deadline (Lazy.force copies) part
    in
    let support = Array.of_list p.Problem.support in
    (* lexicographic seed pairs *)
    let pairs = ref [] in
    for i = n - 1 downto 0 do
      for j = n - 1 downto i + 1 do
        pairs := (support.(i), support.(j)) :: !pairs
      done
    done;
    let seed_partition u v =
      Partition.make ~xa:[ u ] ~xb:[ v ]
        ~xc:(List.filter (fun i -> i <> u && i <> v) p.Problem.support)
    in
    let rec scan = function
      | _ when Clock.now () > deadline -> None
      | [] -> None
      | (u, v) :: rest -> begin
          match check (seed_partition u v) with
          | Solver.Unsat -> Some (u, v)
          | Solver.Sat -> scan rest
          | Solver.Unknown -> None
        end
    in
    match scan !pairs with
    | None -> finish None !sat_calls
    | Some (u, v) ->
        (* greedy growth: move each shared variable into XA if possible,
           else into XB, else keep it shared *)
        let xa = ref [ u ] and xb = ref [ v ] and xc = ref [] in
        (* mirror of xa/xb/xc membership, so the [unplaced] filter below
           is a hash probe per variable instead of three list scans *)
        let placed = Hashtbl.create 16 in
        Hashtbl.replace placed u ();
        Hashtbl.replace placed v ();
        let rest = List.filter (fun i -> i <> u && i <> v) p.Problem.support in
        (* once the deadline has passed, every variable left goes to XC
           with no further clock read or check *)
        let expired = ref false in
        let shared i = xc := i :: !xc in
        let expire i =
          expired := true;
          shared i
        in
        let try_move i =
          Hashtbl.replace placed i ();
          if !expired || Clock.now () > deadline then expire i
          else begin
            (* variables not yet decided stay shared for this probe *)
            let unplaced =
              List.filter (fun j -> not (Hashtbl.mem placed j)) rest
            in
            let part_with xa' xb' =
              Partition.make ~xa:xa' ~xb:xb' ~xc:(unplaced @ !xc)
            in
            match check (part_with (i :: !xa) !xb) with
            | Solver.Unsat -> xa := i :: !xa
            | Solver.Unknown -> expire i
            | Solver.Sat -> begin
                match check (part_with !xa (i :: !xb)) with
                | Solver.Unsat -> xb := i :: !xb
                | Solver.Unknown -> expire i
                | Solver.Sat -> shared i
              end
          end
        in
        List.iter try_move rest;
        let partition = Partition.make ~xa:!xa ~xb:!xb ~xc:!xc in
        (* Bi-dec is a complete decomposition tool: it derives the
           functions fA/fB by interpolation as part of every run, so the
           extraction cost belongs to LJH's measured time. It runs under
           the same deadline; the partition stands either way. *)
        (try
           ignore
             (Extract.run ~engine:Extract.Interpolate ~deadline p g partition)
         with Failure _ | Step_aig.Aig.Blowup | Extract.Timeout -> ());
        finish (Some partition) !sat_calls
  end
