(** LJH: SAT-based bi-decomposition with heuristic partition enumeration
    (Lee, Jiang & Hung, DAC'08 — the paper's [Bi-dec] baseline).

    The reimplementation follows the published algorithm's structure:
    enumerate candidate variable pairs in lexicographic order over
    formula (2)'s control variables, and once a decomposable seed
    partition is found, grow [XA] (preferentially) and [XB] one variable
    at a time with one SAT check per move. No MUS minimization and no
    optimality guarantee — matching the tool's role in the paper's
    comparison: approximate partitions, often unbalanced, with noticeably
    more SAT calls than STEP-MG. *)

type result = {
  partition : Partition.t option;
  sat_calls : int;
  cpu : float;
}

val find : ?time_budget:float -> Problem.t -> Gate.t -> result
(** Scans every seed pair until one is decomposable. Builds one private
    scaffold per output, candidates as assumptions: every seed and
    growth candidate is decided on it under its selectors, and its
    construction is part of the measured cost. A find that checks no
    candidate ([n < 2], or a budget already spent) builds none.

    [time_budget] sets one deadline for the scan and every SAT check. A
    seed check it cuts short ends the scan with no partition; a growth
    check it cuts short leaves its variable (and every later one) in
    [XC], so the partition is still valid. The closing fA/fB
    interpolation runs under the same deadline; when it is cut short the
    partition is returned without it. *)
