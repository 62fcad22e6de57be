(** Per-name view of a {!Profile.t}: the engine behind
    [step trace FILE.jsonl]. Same-name call paths fold into one row, so
    wall time, span counts and orphan handling are exactly the
    profile's. *)

type row = {
  name : string;
  count : int;
  total_s : float;  (** Sum of span durations. *)
  self_s : float;  (** Sum of span self times — the hot-path signal. *)
  max_s : float;  (** Longest single span. *)
}

type t = {
  rows : row list;  (** Per span name, self-time descending. *)
  wall_s : float;
      (** Sum of root-span durations, orphans included ({!Profile.t}). *)
  n_spans : int;
  contexts : (string * string * float) list;
      (** [(ancestor, name, total_s)] for leaf-level [sat.*] spans grouped
          by their nearest engine ancestor ([qbf.*], [cegar.*], [mg.*],
          [ljh.*], [pipeline.*]) on their call path, or ["(root)"] when
          there is none — answers "verification SAT vs abstraction SAT,
          per engine". *)
}

val of_profile : Profile.t -> t

val of_file : string -> t
(** [of_profile (Profile.of_file path)].
    @raise Failure on unreadable files or malformed lines. *)

val render : t -> string
(** Aligned-text breakdown. *)

val diff : ?threshold:float -> t -> t -> string * int
(** [diff base cur] compares two runs span-name by span-name: count,
    total and self-time deltas, with rows whose self time moved by more
    than [threshold] (relative, default [0.10]) — or that appear in only
    one run — marked with [!]. Returns the report and the number of
    significant deltas; diffing a run against itself returns [(_, 0)]. *)
