module Diag = Step_lint.Diag
module Json = Step_obs.Json
module Metrics = Step_obs.Metrics
module Obs = Step_obs.Obs
module Partition = Step_core.Partition
module Certify = Step_core.Certify
module Cert = Step_cert.Cert

(* process-wide counters, merged across every cache and worker domain *)
let m_hits = Metrics.counter "cache.hits"
let m_misses = Metrics.counter "cache.misses"
let m_cert_rejected = Metrics.counter "cache.cert_rejected"
let g_entries = Metrics.gauge "cache.entries"

let version = 1

type entry = {
  partition : Partition.t option;
  proven_optimal : bool;
  timed_out : bool;
  counters : (string * int) list;
  cert : (Cert.t * Certify.t) option;
}

type slot = Ready of entry | Pending

type t = {
  mu : Mutex.t;
  changed : Condition.t;
  tbl : (string, slot) Hashtbl.t;
  certifying : (string, unit) Hashtbl.t;
      (* keys whose certificate is being made: {!certify} callers wait *)
  dir : string option;
  mutable hits : int;
  mutable misses : int;
  mutable entries : int;
  mutable rev_diags : Diag.t list;
  by_cone : (string, int ref * int ref) Hashtbl.t;
      (* key -> (hits, misses): which cones actually pay for themselves *)
}

type stats = { hits : int; misses : int; entries : int }

type cone_stats = { cone_key : string; cone_hits : int; cone_misses : int }

let rec mkdir_p d =
  if d = "" || d = "." || d = "/" || Sys.file_exists d then ()
  else begin
    mkdir_p (Filename.dirname d);
    try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let create ?dir () : t =
  Option.iter mkdir_p dir;
  {
    mu = Mutex.create ();
    changed = Condition.create ();
    tbl = Hashtbl.create 64;
    certifying = Hashtbl.create 8;
    dir;
    hits = 0;
    misses = 0;
    entries = 0;
    rev_diags = [];
    by_cone = Hashtbl.create 64;
  }

let dir t = t.dir

let stats t : stats =
  Mutex.protect t.mu (fun () ->
      { hits = t.hits; misses = t.misses; entries = t.entries })

let diags t = Mutex.protect t.mu (fun () -> List.rev t.rev_diags)

(* Called with [t.mu] held. *)
let cone_account t key ~hit =
  let h, m =
    match Hashtbl.find_opt t.by_cone key with
    | Some cell -> cell
    | None ->
        let cell = (ref 0, ref 0) in
        Hashtbl.replace t.by_cone key cell;
        cell
  in
  incr (if hit then h else m)

let attribution ?top t =
  let rows =
    Mutex.protect t.mu (fun () ->
        Hashtbl.fold
          (fun key (h, m) acc ->
            { cone_key = key; cone_hits = !h; cone_misses = !m } :: acc)
          t.by_cone [])
    |> List.sort (fun a b ->
           compare (b.cone_hits, a.cone_key) (a.cone_hits, b.cone_key))
  in
  match top with
  | None -> rows
  | Some n -> List.filteri (fun i _ -> i < n) rows

let entry_file dir key =
  Filename.concat dir (Digest.to_hex (Digest.string key) ^ ".json")

(* ---------- disk entries ---------- *)

let entry_to_json ~key e =
  let ints l = Json.List (List.map (fun i -> Json.Int i) l) in
  let partition =
    match e.partition with
    | None -> Json.Null
    | Some p ->
        Json.Obj
          [
            ("xa", ints p.Partition.xa);
            ("xb", ints p.Partition.xb);
            ("xc", ints p.Partition.xc);
          ]
  in
  Json.Obj
    [
      ("version", Json.Int version);
      ("key", Json.String key);
      ("partition", partition);
      ("optimal", Json.Bool e.proven_optimal);
      ("counters", Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) e.counters));
      ( "cert",
        match e.cert with None -> Json.Null | Some (c, _) -> Cert.to_json c );
    ]

let decode_ints j =
  let rec go acc = function
    | [] -> Some (List.rev acc)
    | v :: rest -> (
        match Json.to_int_opt v with
        | Some i -> go (i :: acc) rest
        | None -> None)
  in
  match j with Json.List l -> go [] l | _ -> None

(* A partition read back from disk is untrusted input: beyond parsing it
   must be a genuine partition of the cone's canonical inputs
   [0 .. n_inputs-1], or downstream rehydration would index out of the
   cone's input mapping. *)
let decode_partition ~n_inputs j =
  match j with
  | Json.Null -> Ok None
  | _ -> (
      match
        ( decode_ints (Json.member "xa" j),
          decode_ints (Json.member "xb" j),
          decode_ints (Json.member "xc" j) )
      with
      | Some xa, Some xb, Some xc -> (
          match Partition.make ~xa ~xb ~xc with
          | exception Invalid_argument msg -> Error msg
          | p ->
              let all = List.sort_uniq compare (xa @ xb @ xc) in
              if all <> List.init n_inputs (fun i -> i) then
                Error
                  (Printf.sprintf
                     "partition does not cover inputs 0..%d exactly"
                     (n_inputs - 1))
              else Ok (Some p))
      | _ -> Error "xa/xb/xc must be integer lists")

let decode_counters j =
  match j with
  | Json.Obj kvs ->
      List.filter_map
        (fun (k, v) -> Option.map (fun i -> (k, i)) (Json.to_int_opt v))
        kvs
  | _ -> []

(* Called with [t.mu] held (appends diagnostics). *)
let load_disk t ~key ~n_inputs =
  match t.dir with
  | None -> None
  | Some dir ->
      Step_fault.Fault.hit "cache.read";
      let file = entry_file dir key in
      if not (Sys.file_exists file) then None
      else begin
        let skip ?(severity = Diag.warning) code msg =
          t.rev_diags <- severity ~file ~code msg :: t.rev_diags;
          None
        in
        let read () =
          let ic = open_in_bin file in
          Fun.protect
            ~finally:(fun () -> close_in_noerr ic)
            (fun () -> really_input_string ic (in_channel_length ic))
        in
        match read () with
        | exception Sys_error msg -> skip "CSH001" ("unreadable cache entry skipped: " ^ msg)
        | text -> (
            match Json.of_string text with
            | exception Failure msg ->
                skip "CSH001" ("corrupt cache entry skipped: " ^ msg)
            | j ->
                if Json.to_int_opt (Json.member "version" j) <> Some version
                then
                  skip ~severity:Diag.info "CSH002"
                    "cache entry from another format version skipped"
                else if Json.to_string_opt (Json.member "key" j) <> Some key
                then
                  skip "CSH003"
                    "cache entry key mismatch (hash collision or stale file) \
                     skipped"
                else
                  match decode_partition ~n_inputs (Json.member "partition" j) with
                  | Error msg ->
                      skip "CSH004" ("invalid cached partition skipped: " ^ msg)
                  | Ok partition -> (
                      (* Rehydrating a certificate means re-trusting the
                         answer it vouches for: run the independent
                         checker on every load, and cross-check the
                         certified partition against the entry's own, so
                         a tampered entry is rejected (and recomputed)
                         rather than served. The checked summary stays
                         with the entry, so no hit checks it again. *)
                      let reject msg =
                        Metrics.inc m_cert_rejected;
                        skip "CSH006"
                          ("cached certificate rejected, entry skipped: " ^ msg)
                      in
                      let entry cert =
                        Some
                          {
                            partition;
                            proven_optimal =
                              Json.member "optimal" j = Json.Bool true;
                            timed_out = false;
                            counters =
                              decode_counters (Json.member "counters" j);
                            cert;
                          }
                      in
                      match Json.member "cert" j with
                      | Json.Null -> entry None
                      | cj -> (
                          match Cert.of_json cj with
                          | Error msg -> reject msg
                          | Ok c ->
                              let triple =
                                Option.map
                                  (fun p ->
                                    ( p.Partition.xa,
                                      p.Partition.xb,
                                      p.Partition.xc ))
                                  partition
                              in
                              if c.Cert.partition <> triple then
                                reject
                                  "certified partition differs from the \
                                   entry's partition"
                              else
                                let summary =
                                  Obs.span "cert.check" (fun () ->
                                      Certify.of_cert ~file c)
                                in
                                if not summary.Certify.ok then
                                  reject
                                    (match summary.Certify.diags with
                                    | d :: _ -> d.Diag.message
                                    | [] -> "proof check failed")
                                else entry (Some (c, summary)))))
      end

(* Atomic publish: write to a temp file in the same directory, rename
   over the target. An existing file (e.g. one that failed validation)
   is replaced by the fresh result. Failures degrade to a diagnostic. *)
let store_disk t ~key e =
  match t.dir with
  | None -> ()
  | Some dir -> (
      Step_fault.Fault.hit "cache.write";
      let file = entry_file dir key in
      let publish () =
        let tmp =
          Filename.temp_file ~temp_dir:dir "cache-" ".tmp"
        in
        let oc = open_out_bin tmp in
        (try
           output_string oc (Json.to_string (entry_to_json ~key e));
           output_char oc '\n';
           close_out oc
         with ex ->
           close_out_noerr oc;
           (try Sys.remove tmp with Sys_error _ -> ());
           raise ex);
        Sys.rename tmp file
      in
      try publish ()
      with Sys_error msg | Unix.Unix_error (_, _, msg) ->
        Mutex.protect t.mu (fun () ->
            t.rev_diags <-
              Diag.warning ~file ~code:"CSH005"
                ("cache entry not persisted: " ^ msg)
              :: t.rev_diags))

(* ---------- lookup ---------- *)

let find_or_compute t ~key ~n_inputs compute =
  let decision =
    Mutex.protect t.mu (fun () ->
        let rec go () =
          match Hashtbl.find_opt t.tbl key with
          | Some (Ready e) ->
              t.hits <- t.hits + 1;
              cone_account t key ~hit:true;
              `Hit e
          | Some Pending ->
              Condition.wait t.changed t.mu;
              go ()
          | None -> (
              match load_disk t ~key ~n_inputs with
              | Some e ->
                  Hashtbl.replace t.tbl key (Ready e);
                  t.entries <- t.entries + 1;
                  t.hits <- t.hits + 1;
                  cone_account t key ~hit:true;
                  `Hit e
              | None ->
                  Hashtbl.replace t.tbl key Pending;
                  t.misses <- t.misses + 1;
                  cone_account t key ~hit:false;
                  `Compute)
        in
        go ())
  in
  match decision with
  | `Hit e ->
      Metrics.inc m_hits;
      (e, true)
  | `Compute ->
      Metrics.inc m_misses;
      let drop_pending () =
        Mutex.protect t.mu (fun () ->
            Hashtbl.remove t.tbl key;
            Condition.broadcast t.changed)
      in
      let e =
        try compute ()
        with ex ->
          drop_pending ();
          raise ex
      in
      if e.timed_out then begin
        (* budget-dependent, not cone-dependent: waiters get a fresh try *)
        drop_pending ();
        (e, false)
      end
      else begin
        Mutex.protect t.mu (fun () ->
            Hashtbl.replace t.tbl key (Ready e);
            t.entries <- t.entries + 1;
            Condition.broadcast t.changed);
        Metrics.set g_entries (float_of_int (stats t).entries);
        store_disk t ~key e;
        (e, false)
      end

let certify t ~key make =
  let decision =
    Mutex.protect t.mu (fun () ->
        let rec go () =
          match Hashtbl.find_opt t.tbl key with
          | Some (Ready { cert = Some c; _ }) -> `Have c
          | _ when Hashtbl.mem t.certifying key ->
              Condition.wait t.changed t.mu;
              go ()
          | _ ->
              Hashtbl.replace t.certifying key ();
              `Make
        in
        go ())
  in
  match decision with
  | `Have c -> Some c
  | `Make ->
      let settle cert =
        Mutex.protect t.mu (fun () ->
            Hashtbl.remove t.certifying key;
            Condition.broadcast t.changed;
            match (cert, Hashtbl.find_opt t.tbl key) with
            | Some c, Some (Ready e) ->
                let e = { e with cert = Some c } in
                Hashtbl.replace t.tbl key (Ready e);
                Some e
            | _ -> None)
      in
      let cert =
        try make ()
        with ex ->
          ignore (settle None);
          raise ex
      in
      Option.iter (store_disk t ~key) (settle cert);
      cert
