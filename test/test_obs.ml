(* Contract tests for the observability layer: JSON emitter/parser,
   metrics registry (histogram bucketing and quantiles), span nesting and
   self-time accounting, and the trace-file round trip. *)

module Json = Step_obs.Json
module Metrics = Step_obs.Metrics
module Obs = Step_obs.Obs
module Clock = Step_obs.Clock
module Trace_summary = Step_obs.Trace_summary
module Profile = Step_obs.Profile

let feq = Alcotest.float 1e-9

(* Every test that mocks the clock or installs a sink must restore both;
   run bodies under this wrapper so a failing assertion cannot leak a
   frozen clock into later tests. *)
let with_clean_obs f =
  Fun.protect
    ~finally:(fun () ->
      Obs.clear_sink ();
      Clock.use_wall_clock ())
    f

(* ---------- Json ---------- *)

let test_json_escape () =
  let s v = Json.to_string (Json.String v) in
  Alcotest.(check string) "plain" {|"abc"|} (s "abc");
  Alcotest.(check string) "quote" {|"a\"b"|} (s "a\"b");
  Alcotest.(check string) "backslash" {|"a\\b"|} (s "a\\b");
  Alcotest.(check string) "newline/tab" {|"a\nb\tc"|} (s "a\nb\tc");
  Alcotest.(check string) "control" {|"\u0001"|} (s "\x01");
  (* UTF-8 passes through untouched *)
  Alcotest.(check string) "utf8" "\"\xc3\xa9\"" (s "\xc3\xa9")

let test_json_special_floats () =
  Alcotest.(check string) "nan" "null" (Json.to_string (Json.Float nan));
  Alcotest.(check string) "inf" "null" (Json.to_string (Json.Float infinity));
  Alcotest.(check string) "half" "0.5" (Json.to_string (Json.Float 0.5))

let test_json_roundtrip () =
  let v =
    Json.Obj
      [
        ("name", Json.String "sat.solve\n\"quoted\"");
        ("count", Json.Int 42);
        ("ratio", Json.Float 0.5);
        ("ok", Json.Bool true);
        ("none", Json.Null);
        ("xs", Json.List [ Json.Int 1; Json.Int (-2); Json.String "" ]);
      ]
  in
  Alcotest.(check bool)
    "roundtrip" true
    (Json.of_string (Json.to_string v) = v)

let test_json_parse () =
  Alcotest.(check bool)
    "unicode escape" true
    (Json.of_string {|"Aé"|} = Json.String "A\xc3\xa9");
  Alcotest.(check bool)
    "nested" true
    (Json.of_string {| { "a" : [ 1 , 2.5 , null , true ] } |}
    = Json.Obj
        [ ("a", Json.List [ Json.Int 1; Json.Float 2.5; Json.Null; Json.Bool true ]) ]);
  (match Json.of_string "{bad" with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "expected Failure on malformed input");
  let j = Json.of_string {|{"x": {"y": 7}}|} in
  Alcotest.(check (option int))
    "member chain" (Some 7)
    Json.(to_int_opt (member "y" (member "x" j)));
  Alcotest.(check (option int))
    "absent member" None
    Json.(to_int_opt (member "z" j));
  Alcotest.(check (option int))
    "integral float" (Some 3)
    (Json.to_int_opt (Json.Float 3.0))

(* ---------- Metrics ---------- *)

let test_counter_gauge () =
  let c = Metrics.counter "test.counter" in
  Alcotest.(check int) "zero" 0 (Metrics.value c);
  Metrics.inc c;
  Metrics.add c 10;
  Alcotest.(check int) "inc+add" 11 (Metrics.value c);
  (* same name, same cell *)
  Metrics.inc (Metrics.counter "test.counter");
  Alcotest.(check int) "aliased" 12 (Metrics.value c);
  let g = Metrics.gauge "test.gauge" in
  Metrics.set g 3.5;
  Alcotest.(check feq) "gauge" 3.5 (Metrics.gauge_value g);
  Alcotest.(check bool)
    "listed" true
    (List.mem_assoc "test.counter" (Metrics.counters ()))

let test_histogram_point_mass () =
  let h = Metrics.histogram "test.hist.point" in
  for _ = 1 to 10 do
    Metrics.observe h 0.001
  done;
  let s = Metrics.stats h in
  Alcotest.(check int) "count" 10 s.Metrics.count;
  Alcotest.(check feq) "sum" 0.01 s.Metrics.sum;
  Alcotest.(check feq) "min" 0.001 s.Metrics.min;
  Alcotest.(check feq) "max" 0.001 s.Metrics.max;
  (* all mass in one bucket: every quantile is clamped to [min,max] *)
  Alcotest.(check feq) "p50" 0.001 s.Metrics.p50;
  Alcotest.(check feq) "p99" 0.001 s.Metrics.p99

let test_histogram_quantile_order () =
  let h = Metrics.histogram "test.hist.order" in
  (* 90 fast observations, 10 slow ones: p50 must sit with the fast
     cluster and p99 with the slow one, two decades apart *)
  for _ = 1 to 90 do
    Metrics.observe h 1e-4
  done;
  for _ = 1 to 10 do
    Metrics.observe h 1e-2
  done;
  let s = Metrics.stats h in
  Alcotest.(check bool)
    "p50 in fast bucket" true
    (s.Metrics.p50 > 5e-5 && s.Metrics.p50 < 2e-4);
  Alcotest.(check bool)
    "p99 in slow bucket" true
    (s.Metrics.p99 > 5e-3 && s.Metrics.p99 <= 1e-2);
  Alcotest.(check bool)
    "monotone" true
    (s.Metrics.p50 <= s.Metrics.p90 && s.Metrics.p90 <= s.Metrics.p99);
  Alcotest.(check feq) "q=1 is max" 1e-2 (Metrics.quantile h 1.0)

let test_histogram_out_of_range () =
  let h = Metrics.histogram "test.hist.range" in
  Metrics.observe h 1e-9;
  (* underflow bucket *)
  Metrics.observe h 1e5;
  (* overflow bucket *)
  let s = Metrics.stats h in
  Alcotest.(check feq) "min exact" 1e-9 s.Metrics.min;
  Alcotest.(check feq) "max exact" 1e5 s.Metrics.max;
  (* quantiles stay finite and within [min,max] even for the open-ended
     buckets *)
  Alcotest.(check bool)
    "clamped" true
    (s.Metrics.p50 >= 1e-9 && s.Metrics.p99 <= 1e5)

let test_histogram_empty_and_reset () =
  let h = Metrics.histogram "test.hist.empty" in
  let s = Metrics.stats h in
  Alcotest.(check int) "empty count" 0 s.Metrics.count;
  Alcotest.(check bool) "empty p50 is nan" true (Float.is_nan s.Metrics.p50);
  let c = Metrics.counter "test.reset.counter" in
  Metrics.add c 5;
  Metrics.observe h 1.0;
  Metrics.reset ();
  Alcotest.(check int) "counter zeroed" 0 (Metrics.value c);
  Alcotest.(check int) "histogram zeroed" 0 (Metrics.stats h).Metrics.count;
  (* handles survive a reset *)
  Metrics.inc c;
  Alcotest.(check int) "handle valid" 1 (Metrics.value c)

(* The registry snapshot must be one atomic view: a metric registered
   after an earlier report was rendered still shows up in the next one
   (the old per-section walks could miss late registrations). *)
let test_snapshot_atomic_complete () =
  ignore (Metrics.render ());
  ignore (Metrics.to_json ());
  let c = Metrics.counter "obs_test.late_counter" in
  Metrics.add c 7;
  let h = Metrics.histogram "obs_test.late_hist" in
  Metrics.observe h 0.5;
  let snap = Metrics.snapshot () in
  Alcotest.(check (option int))
    "late counter in snapshot" (Some 7)
    (List.assoc_opt "obs_test.late_counter" snap.Metrics.snap_counters);
  Alcotest.(check bool)
    "late histogram in snapshot" true
    (List.mem_assoc "obs_test.late_hist" snap.Metrics.snap_histograms);
  (match Metrics.to_json () with
  | Json.Obj sections ->
      let member name =
        match List.assoc_opt name sections with
        | Some (Json.Obj kvs) -> kvs
        | _ -> Alcotest.failf "section %s missing" name
      in
      Alcotest.(check bool)
        "late counter in json" true
        (List.assoc_opt "obs_test.late_counter" (member "counters")
        = Some (Json.Int 7));
      Alcotest.(check bool)
        "late histogram in json" true
        (List.mem_assoc "obs_test.late_hist" (member "histograms"))
  | _ -> Alcotest.fail "to_json shape");
  Alcotest.(check bool)
    "render carries it too" true
    (String.length (Metrics.render ()) > 0)

let test_histogram_bucket_boundaries () =
  (* non-positive observations land in the underflow bucket *)
  Alcotest.(check int) "zero underflows" 0 (Metrics.bucket_index 0.0);
  Alcotest.(check int) "negative underflows" 0 (Metrics.bucket_index (-1.0));
  Alcotest.(check int)
    "below low edge underflows" 0
    (Metrics.bucket_index 9.9e-8);
  (* the low edge itself is the first core bucket *)
  Alcotest.(check int) "low edge" 1 (Metrics.bucket_index 1e-7);
  (* the high edge falls off the last core bucket into overflow *)
  Alcotest.(check int)
    "high edge overflows" (Metrics.n_buckets - 1)
    (Metrics.bucket_index 1e3);
  Alcotest.(check int)
    "beyond high edge overflows" (Metrics.n_buckets - 1)
    (Metrics.bucket_index 1e9);
  (* decade boundaries: 1.0 opens a bucket, and a value one bucket-width
     up (10^0.1 ~ 1.259) lands in the next one *)
  Alcotest.(check int) "unit boundary" 71 (Metrics.bucket_index 1.0);
  Alcotest.(check int) "next bucket" 72 (Metrics.bucket_index 1.3);
  (* within one bucket: same index *)
  Alcotest.(check int)
    "same bucket" (Metrics.bucket_index 1.0)
    (Metrics.bucket_index 1.05)

let test_histogram_snapshot_merge () =
  let fast = Metrics.histogram "obs_test.merge_fast" in
  let slow = Metrics.histogram "obs_test.merge_slow" in
  let all = Metrics.histogram "obs_test.merge_all" in
  for _ = 1 to 90 do
    Metrics.observe fast 1e-4;
    Metrics.observe all 1e-4
  done;
  for _ = 1 to 10 do
    Metrics.observe slow 1e-2;
    Metrics.observe all 1e-2
  done;
  let merged = Metrics.merge (Metrics.export fast) (Metrics.export slow) in
  (* merging per-domain snapshots must equal having observed everything
     in one histogram — bucket counts, exact stats and quantiles *)
  Alcotest.(check bool)
    "buckets equal" true
    (merged.Metrics.s_buckets = (Metrics.export all).Metrics.s_buckets);
  let ms = Metrics.snapshot_stats merged in
  let als = Metrics.stats all in
  Alcotest.(check int) "count" als.Metrics.count ms.Metrics.count;
  Alcotest.(check feq) "sum" als.Metrics.sum ms.Metrics.sum;
  Alcotest.(check feq) "min" als.Metrics.min ms.Metrics.min;
  Alcotest.(check feq) "max" als.Metrics.max ms.Metrics.max;
  Alcotest.(check feq) "p50" als.Metrics.p50 ms.Metrics.p50;
  Alcotest.(check feq) "p90" als.Metrics.p90 ms.Metrics.p90;
  Alcotest.(check feq) "p99" als.Metrics.p99 ms.Metrics.p99;
  (* empty snapshot is a merge identity *)
  let id = Metrics.merge merged (Metrics.empty_snapshot ()) in
  Alcotest.(check bool) "identity" true (id = merged);
  (* quantiles respect clamping across merged extremes *)
  Alcotest.(check bool)
    "quantiles within [min,max]" true
    (ms.Metrics.p50 >= 1e-4 && ms.Metrics.p99 <= 1e-2)

let test_expose_prometheus () =
  let c = Metrics.counter "obs_test.expose.calls" in
  Metrics.add c 3;
  let g = Metrics.gauge "obs_test.expose.depth" in
  Metrics.set g 2.5;
  let h = Metrics.histogram "obs_test.expose.lat" in
  Metrics.observe h 0.125;
  let text = Metrics.expose () in
  let has needle =
    let n = String.length needle and m = String.length text in
    let rec go i = i + n <= m && (String.sub text i n = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool)
    "counter family" true
    (has "# TYPE step_obs_test_expose_calls counter");
  Alcotest.(check bool) "counter value" true (has "step_obs_test_expose_calls 3");
  Alcotest.(check bool) "gauge value" true (has "step_obs_test_expose_depth 2.5");
  Alcotest.(check bool)
    "summary family" true
    (has "# TYPE step_obs_test_expose_lat summary");
  Alcotest.(check bool)
    "quantile series" true
    (has "step_obs_test_expose_lat{quantile=\"0.5\"}");
  Alcotest.(check bool) "sum series" true (has "step_obs_test_expose_lat_sum");
  Alcotest.(check bool)
    "count series" true
    (has "step_obs_test_expose_lat_count 1")

(* ---------- Clock ---------- *)

let test_clock_monotone_and_mock () =
  with_clean_obs @@ fun () ->
  let t = ref 100.0 in
  Clock.set_source (fun () -> !t);
  Alcotest.(check feq) "mocked" 100.0 (Clock.now ());
  t := 50.0;
  (* a backwards step must not be visible *)
  Alcotest.(check feq) "monotone floor" 100.0 (Clock.now ());
  Alcotest.(check feq) "elapsed clamped" 0.0 (Clock.elapsed_since 150.0);
  t := 103.5;
  Alcotest.(check feq) "resumes" 103.5 (Clock.now ());
  Alcotest.(check feq) "elapsed" 3.5 (Clock.elapsed_since 100.0)

(* ---------- Obs spans ---------- *)

let collect_records f =
  let records = ref [] in
  Obs.set_sink (Obs.callback_sink (fun r -> records := r :: !records));
  f ();
  Obs.clear_sink ();
  List.rev !records

let test_span_nesting_self_time () =
  with_clean_obs @@ fun () ->
  let t = ref 0.0 in
  Clock.set_source (fun () -> !t);
  let records =
    collect_records (fun () ->
        Obs.span "outer" (fun () ->
            t := !t +. 1.0;
            Obs.span "inner" (fun () -> t := !t +. 2.0);
            t := !t +. 0.5))
  in
  (* children close before parents *)
  let names = List.map (fun r -> r.Obs.r_name) records in
  Alcotest.(check (list string)) "close order" [ "inner"; "outer" ] names;
  let inner = List.nth records 0 and outer = List.nth records 1 in
  Alcotest.(check feq) "inner dur" 2.0 inner.Obs.r_dur;
  Alcotest.(check feq) "inner self" 2.0 inner.Obs.r_self;
  Alcotest.(check int) "inner depth" 1 inner.Obs.r_depth;
  Alcotest.(check feq) "outer dur" 3.5 outer.Obs.r_dur;
  (* outer self time excludes the 2 s spent in inner *)
  Alcotest.(check feq) "outer self" 1.5 outer.Obs.r_self;
  Alcotest.(check int) "outer depth" 0 outer.Obs.r_depth;
  Alcotest.(check bool) "outer is root" true (outer.Obs.r_parent = None);
  Alcotest.(check bool)
    "inner parent" true
    (inner.Obs.r_parent = Some outer.Obs.r_id)

let test_span_attrs_and_events () =
  with_clean_obs @@ fun () ->
  let records =
    collect_records (fun () ->
        Obs.span ~attrs:[ ("k", Json.Int 3) ] "work" (fun () ->
            Obs.add_attr "status" (Json.String "ok");
            Obs.event ~attrs:[ ("what", Json.String "tick") ] "beat"))
  in
  let event = List.nth records 0 and span = List.nth records 1 in
  Alcotest.(check bool) "event kind" true (event.Obs.r_kind = `Event);
  Alcotest.(check feq) "event dur" 0.0 event.Obs.r_dur;
  Alcotest.(check bool)
    "event parent" true
    (event.Obs.r_parent = Some span.Obs.r_id);
  Alcotest.(check bool) "span kind" true (span.Obs.r_kind = `Span);
  Alcotest.(check bool)
    "open attr" true
    (List.assoc_opt "k" span.Obs.r_attrs = Some (Json.Int 3));
  Alcotest.(check bool)
    "added attr" true
    (List.assoc_opt "status" span.Obs.r_attrs = Some (Json.String "ok"))

let test_span_exception_safety () =
  with_clean_obs @@ fun () ->
  let records =
    ref []
  in
  Obs.set_sink (Obs.callback_sink (fun r -> records := r :: !records));
  (match Obs.span "boom" (fun () -> failwith "inner failure") with
  | exception Failure m -> Alcotest.(check string) "propagates" "inner failure" m
  | () -> Alcotest.fail "expected Failure");
  Obs.clear_sink ();
  Alcotest.(check int) "span still recorded" 1 (List.length !records);
  Alcotest.(check string)
    "named" "boom"
    (List.hd !records).Obs.r_name;
  (* the stack unwound: a fresh root span has depth 0 again *)
  let again = collect_records (fun () -> Obs.span "after" ignore) in
  Alcotest.(check int) "stack unwound" 0 (List.hd again).Obs.r_depth

(* worker-domain hygiene: a span that raises inside a spawned domain must
   unwind that domain's DLS stack (next span roots at depth 0 again) and
   leave the main domain's nesting untouched — the situation a failing
   pool job puts the engine in *)
let test_span_exception_in_domain () =
  with_clean_obs @@ fun () ->
  let records = ref [] in
  let mu = Mutex.create () in
  Obs.set_sink
    (Obs.callback_sink (fun r ->
         Mutex.protect mu (fun () -> records := r :: !records)));
  Obs.span "main.outer" (fun () ->
      let d =
        Domain.spawn (fun () ->
            (try Obs.span "worker.boom" (fun () -> failwith "job died")
             with Failure _ -> ());
            Obs.span "worker.after" ignore)
      in
      Domain.join d;
      Obs.add_attr "joined" (Json.Bool true));
  Obs.clear_sink ();
  let depth_of name =
    match List.find_opt (fun r -> r.Obs.r_name = name) !records with
    | Some r -> r.Obs.r_depth
    | None -> Alcotest.failf "span %s not delivered" name
  in
  Alcotest.(check int) "worker span recorded at root" 0 (depth_of "worker.boom");
  Alcotest.(check int) "worker stack unwound" 0 (depth_of "worker.after");
  Alcotest.(check int) "main stack unaffected" 0 (depth_of "main.outer")

let test_null_sink_noop () =
  with_clean_obs @@ fun () ->
  Obs.clear_sink ();
  Alcotest.(check bool) "disabled" false (Obs.tracing ());
  (* spans still run their body and return its value *)
  Alcotest.(check int) "passthrough" 7 (Obs.span "ghost" (fun () -> 7));
  Obs.add_attr "ignored" Json.Null;
  Obs.event "ignored";
  (* enabling later must not see ghosts of disabled spans *)
  let records = collect_records (fun () -> Obs.span "real" ignore) in
  Alcotest.(check int) "only real span" 1 (List.length records);
  Alcotest.(check int) "root depth" 0 (List.hd records).Obs.r_depth

(* ---------- trace file round trip ---------- *)

let test_trace_file_roundtrip () =
  with_clean_obs @@ fun () ->
  let t = ref 0.0 in
  Clock.set_source (fun () -> !t);
  let path = Filename.temp_file "step_obs_test" ".jsonl" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  Obs.with_trace_file path (fun () ->
      Obs.span "pipeline.run" (fun () ->
          Obs.span "qbf.query" (fun () ->
              Obs.span "sat.verify" (fun () -> t := !t +. 0.25);
              Obs.span "sat.verify" (fun () -> t := !t +. 0.75));
          t := !t +. 1.0));
  Alcotest.(check bool) "sink restored" false (Obs.tracing ());
  let summary = Trace_summary.of_file path in
  Alcotest.(check int) "spans" 4 summary.Trace_summary.n_spans;
  Alcotest.(check feq) "wall is root dur" 2.0 summary.Trace_summary.wall_s;
  let row name =
    List.find (fun r -> r.Trace_summary.name = name) summary.Trace_summary.rows
  in
  Alcotest.(check int) "verify count" 2 (row "sat.verify").Trace_summary.count;
  Alcotest.(check feq)
    "verify total" 1.0
    (row "sat.verify").Trace_summary.total_s;
  Alcotest.(check feq) "verify max" 0.75 (row "sat.verify").Trace_summary.max_s;
  Alcotest.(check feq)
    "query self excludes sat" 0.0
    (row "qbf.query").Trace_summary.self_s;
  (* the SAT time lands in the qbf.query engine context *)
  Alcotest.(check bool)
    "context attribution" true
    (List.exists
       (fun (ctx, name, total) ->
         ctx = "qbf.query" && name = "sat.verify" && Float.abs (total -. 1.0) < 1e-9)
       summary.Trace_summary.contexts);
  (* render is total: just make sure it produces the table *)
  Alcotest.(check bool)
    "renders" true
    (String.length (Trace_summary.render summary) > 0)

(* A truncated trace: the second sat.verify's parent never reached the
   sink, and an event line sits among the spans. [step trace] reads the
   trace through the profile, so it grafts the orphan in as a root exactly
   as [step profile] does: its time counts toward wall, its SAT time has
   no engine ancestor, and no span's self time is lost. *)
let test_trace_orphan () =
  let path = Filename.temp_file "step_obs_orphan" ".jsonl" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  let oc = open_out path in
  List.iter
    (fun (kind, id, parent, name, dur, self) ->
      Printf.fprintf oc
        "{\"type\":%S,\"id\":%d,%s\"name\":%S,\"dur_s\":%g,\"self_s\":%g}\n"
        kind id
        (match parent with
        | Some p -> Printf.sprintf "\"parent\":%d," p
        | None -> "")
        name dur self)
    [
      ("span", 3, Some 2, "sat.verify", 0.75, 0.75);
      ("event", 4, Some 2, "cegar.refine", 0.0, 0.0);
      ("span", 2, Some 1, "qbf.query", 1.0, 0.25);
      ("span", 1, None, "pipeline.run", 1.5, 0.5);
      ("span", 7, Some 99, "sat.verify", 0.5, 0.5);
    ];
  close_out oc;
  let p = Profile.of_file path in
  let s = Trace_summary.of_profile p in
  Alcotest.(check int) "orphan seen" 1 p.Profile.n_orphans;
  Alcotest.(check int) "events are not spans" 4 s.Trace_summary.n_spans;
  Alcotest.(check feq) "wall follows the profile" p.Profile.wall_s
    s.Trace_summary.wall_s;
  Alcotest.(check feq) "orphan counts toward wall" 2.0 s.Trace_summary.wall_s;
  Alcotest.(check feq)
    "rows sum to attributed" p.Profile.attributed_s
    (List.fold_left
       (fun acc r -> acc +. r.Trace_summary.self_s)
       0.0 s.Trace_summary.rows);
  Alcotest.(check (list (triple string string feq)))
    "orphan SAT time has no engine ancestor"
    [ ("(root)", "sat.verify", 0.5); ("qbf.query", "sat.verify", 0.75) ]
    s.Trace_summary.contexts;
  Alcotest.(check feq) "of_file is the same view" s.Trace_summary.wall_s
    (Trace_summary.of_file path).Trace_summary.wall_s

(* ---------- profiles ---------- *)

let mk_record ?parent ?(depth = 0) ?(kind = `Span) ~id ~name ~start ~dur ~self
    () =
  {
    Obs.r_id = id;
    r_parent = parent;
    r_depth = depth;
    r_name = name;
    r_start = start;
    r_dur = dur;
    r_self = self;
    r_attrs = [];
    r_kind = kind;
  }

(* A two-domain trace: two roots with the same name, interleaved emission
   order, children emitted before their parents (as the runtime does).
   Same-name frames from different domains must aggregate into one path
   with no orphaned or double-counted frames. *)
let test_profile_interleaved_domains () =
  let records =
    [
      (* domain A's child, then domain B's child, then the roots *)
      mk_record ~id:2 ~parent:1 ~depth:1 ~name:"sat.solve" ~start:0.5 ~dur:1.5
        ~self:1.5 ();
      mk_record ~id:4 ~parent:3 ~depth:1 ~name:"sat.solve" ~start:1.1 ~dur:2.0
        ~self:2.0 ();
      mk_record ~id:5 ~parent:1 ~depth:1 ~kind:`Event ~name:"cegar.refine"
        ~start:0.6 ~dur:0.0 ~self:0.0 ();
      mk_record ~id:1 ~name:"engine.po" ~start:0.0 ~dur:2.0 ~self:0.5 ();
      mk_record ~id:3 ~name:"engine.po" ~start:0.1 ~dur:3.0 ~self:1.0 ();
    ]
  in
  let p = Profile.of_records records in
  Alcotest.(check int) "events ignored" 4 p.Profile.n_spans;
  Alcotest.(check int) "no orphans" 0 p.Profile.n_orphans;
  Alcotest.(check feq) "wall sums both roots" 5.0 p.Profile.wall_s;
  Alcotest.(check feq) "fully attributed" 5.0 p.Profile.attributed_s;
  Alcotest.(check feq) "coverage" 1.0 (Profile.coverage p);
  (match p.Profile.roots with
  | [ root ] ->
      Alcotest.(check string) "one merged root" "engine.po" root.Profile.pn_name;
      Alcotest.(check int) "root count" 2 root.Profile.pn_count;
      Alcotest.(check feq) "root total" 5.0 root.Profile.pn_total_s;
      Alcotest.(check feq) "root self" 1.5 root.Profile.pn_self_s;
      Alcotest.(check feq) "root max" 3.0 root.Profile.pn_max_s;
      let child = Hashtbl.find root.Profile.pn_children "sat.solve" in
      Alcotest.(check int) "child count" 2 child.Profile.pn_count;
      Alcotest.(check feq) "child total" 3.5 child.Profile.pn_total_s;
      Alcotest.(check feq) "child self" 3.5 child.Profile.pn_self_s
  | roots -> Alcotest.failf "expected 1 root, got %d" (List.length roots));
  (* hottest path by self time is the shared sat.solve leaf *)
  (match Profile.hot_rows p with
  | (path, count, total, self) :: _ ->
      Alcotest.(check string) "hottest path" "engine.po;sat.solve" path;
      Alcotest.(check int) "hottest count" 2 count;
      Alcotest.(check feq) "hottest total" 3.5 total;
      Alcotest.(check feq) "hottest self" 3.5 self
  | [] -> Alcotest.fail "no hot rows");
  let folded = Profile.to_folded p in
  Alcotest.(check bool)
    "folded stack line" true
    (List.mem "engine.po;sat.solve 3500000"
       (String.split_on_char '\n' folded));
  Alcotest.(check bool)
    "header shows full attribution" true
    (let h = Profile.header p in
     String.length h >= 15 && String.sub h 0 8 = "profile:")

(* A span whose parent never reached the sink (truncated trace) is
   grafted in as a root and reported, not dropped or crashed on. *)
let test_profile_orphan () =
  let records =
    [
      mk_record ~id:1 ~name:"engine.po" ~start:0.0 ~dur:1.0 ~self:1.0 ();
      mk_record ~id:7 ~parent:99 ~depth:3 ~name:"sat.solve" ~start:0.2
        ~dur:0.5 ~self:0.5 ();
    ]
  in
  let p = Profile.of_records records in
  Alcotest.(check int) "orphan counted" 1 p.Profile.n_orphans;
  Alcotest.(check int) "both spans kept" 2 p.Profile.n_spans;
  Alcotest.(check int) "orphan grafted as root" 2 (List.length p.Profile.roots);
  Alcotest.(check feq) "orphan counts toward wall" 1.5 p.Profile.wall_s;
  Alcotest.(check feq) "coverage still 1" 1.0 (Profile.coverage p);
  Alcotest.(check bool)
    "header flags orphans" true
    (let h = Profile.header p in
     let n = String.length h in
     n > 10 && String.sub h (n - 10) 10 = " orphaned)")

(* Live profiling: a collector teed with a callback sink sees the same
   spans the other sink does, and folds them into the same tree a
   post-hoc file pass would produce. *)
let test_profile_collector_tee () =
  with_clean_obs @@ fun () ->
  let t = ref 0.0 in
  Clock.set_source (fun () -> !t);
  let prof_sink, get = Profile.collector () in
  let other = ref 0 in
  let tee = Obs.tee_sink (Obs.callback_sink (fun _ -> incr other)) prof_sink in
  Obs.with_sink tee (fun () ->
      Obs.span "pipeline.run" (fun () ->
          Obs.span "sat.solve" (fun () -> t := !t +. 0.25);
          t := !t +. 0.75));
  let p = get () in
  Alcotest.(check int) "tee fed both sinks" 2 !other;
  Alcotest.(check int) "collector saw both spans" 2 p.Profile.n_spans;
  Alcotest.(check feq) "wall" 1.0 p.Profile.wall_s;
  Alcotest.(check feq) "coverage" 1.0 (Profile.coverage p);
  match p.Profile.roots with
  | [ root ] ->
      Alcotest.(check feq) "root self" 0.75 root.Profile.pn_self_s;
      Alcotest.(check feq)
        "child self" 0.25
        (Hashtbl.find root.Profile.pn_children "sat.solve").Profile.pn_self_s
  | roots -> Alcotest.failf "expected 1 root, got %d" (List.length roots)

(* End to end across real domains: trace a parallel run to a file, then
   profile the file. Every worker span must attach under its own root —
   nothing orphaned, nothing double counted, wall fully attributed. *)
let test_profile_multidomain_file () =
  with_clean_obs @@ fun () ->
  let path = Filename.temp_file "step_obs_prof" ".jsonl" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  Obs.with_trace_file path (fun () ->
      let domains =
        Array.init 3 (fun _ ->
            Domain.spawn (fun () ->
                Obs.span "worker.po" (fun () ->
                    Obs.span "sat.solve" ignore;
                    Obs.span "sat.solve" ignore)))
      in
      Array.iter Domain.join domains);
  let p = Profile.of_file path in
  Alcotest.(check int) "9 spans" 9 p.Profile.n_spans;
  Alcotest.(check int) "no orphans" 0 p.Profile.n_orphans;
  (match p.Profile.roots with
  | [ root ] ->
      Alcotest.(check string) "merged root" "worker.po" root.Profile.pn_name;
      Alcotest.(check int) "3 worker roots" 3 root.Profile.pn_count;
      Alcotest.(check int)
        "6 leaves under it" 6
        (Hashtbl.find root.Profile.pn_children "sat.solve").Profile.pn_count
  | roots -> Alcotest.failf "expected 1 root, got %d" (List.length roots));
  (* real clock, but self times are exact complements by construction *)
  Alcotest.(check bool)
    "fully attributed" true
    (Float.abs (Profile.coverage p -. 1.0) < 1e-6);
  Alcotest.(check bool)
    "render produces the tree" true
    (String.length (Profile.render p) > 0)

(* ---------- trace diff ---------- *)

let test_trace_diff () =
  with_clean_obs @@ fun () ->
  let t = ref 0.0 in
  Clock.set_source (fun () -> !t);
  let path = Filename.temp_file "step_obs_diff" ".jsonl" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  Obs.with_trace_file path (fun () ->
      Obs.span "pipeline.run" (fun () ->
          Obs.span "sat.solve" (fun () -> t := !t +. 0.4);
          t := !t +. 0.6));
  let base = Trace_summary.of_file path in
  (* self-diff: zero significant deltas *)
  let _, n_self = Trace_summary.diff base base in
  Alcotest.(check int) "self diff clean" 0 n_self;
  (* a >threshold self-time regression on one span is flagged *)
  let slowed =
    {
      base with
      Trace_summary.rows =
        List.map
          (fun r ->
            if r.Trace_summary.name = "sat.solve" then
              { r with Trace_summary.self_s = r.Trace_summary.self_s *. 2.0 }
            else r)
          base.Trace_summary.rows;
    }
  in
  let report, n_slow = Trace_summary.diff base slowed in
  Alcotest.(check int) "regression flagged" 1 n_slow;
  Alcotest.(check bool)
    "regressed span marked" true
    (List.exists
       (fun line ->
         String.length line > 0 && line.[0] = '!'
         && String.length line > 2
         &&
         let rest = String.sub line 1 (String.length line - 1) in
         String.trim rest <> ""
         && String.length (String.trim rest) >= 9
         && String.sub (String.trim rest) 0 9 = "sat.solve")
       (String.split_on_char '\n' report));
  (* below threshold: not significant *)
  let barely =
    {
      base with
      Trace_summary.rows =
        List.map
          (fun r ->
            { r with Trace_summary.self_s = r.Trace_summary.self_s *. 1.05 })
          base.Trace_summary.rows;
    }
  in
  let _, n_ok = Trace_summary.diff ~threshold:0.10 base barely in
  Alcotest.(check int) "5% drift under 10% threshold" 0 n_ok

(* ---------- domain safety ---------- *)

let test_metrics_parallel_increments () =
  Metrics.reset ();
  Fun.protect ~finally:Metrics.reset @@ fun () ->
  let domains =
    Array.init 4 (fun _ ->
        Domain.spawn (fun () ->
            (* find-or-create raced on purpose: every domain must get the
               same underlying cell *)
            let c = Metrics.counter "obs_test.par_counter" in
            let h = Metrics.histogram "obs_test.par_hist" in
            for _ = 1 to 1000 do
              Metrics.inc c
            done;
            for _ = 1 to 100 do
              Metrics.observe h 1.0
            done))
  in
  Array.iter Domain.join domains;
  Alcotest.(check int)
    "4x1000 increments survive" 4000
    (Metrics.value (Metrics.counter "obs_test.par_counter"));
  let stats = Metrics.stats (Metrics.histogram "obs_test.par_hist") in
  Alcotest.(check int) "4x100 observations survive" 400 stats.Metrics.count

let test_spans_parallel_delivery () =
  with_clean_obs @@ fun () ->
  let mu = Mutex.create () in
  let records = ref [] in
  Obs.set_sink
    (Obs.callback_sink (fun r ->
         Mutex.protect mu (fun () -> records := r :: !records)));
  let domains =
    Array.init 4 (fun d ->
        Domain.spawn (fun () ->
            for i = 1 to 25 do
              Obs.span (Printf.sprintf "par.%d.%d" d i) (fun () -> ())
            done))
  in
  Array.iter Domain.join domains;
  Alcotest.(check int) "all spans delivered" 100 (List.length !records);
  let ids = List.map (fun r -> r.Obs.r_id) !records in
  Alcotest.(check int)
    "span ids unique" 100
    (List.length (List.sort_uniq compare ids));
  (* each domain has its own stack: spans from different domains never
     nest into each other *)
  List.iter
    (fun r -> Alcotest.(check int) (r.Obs.r_name ^ " is a root") 0 r.Obs.r_depth)
    !records

let () =
  Alcotest.run "obs"
    [
      ( "json",
        [
          Alcotest.test_case "escape" `Quick test_json_escape;
          Alcotest.test_case "special floats" `Quick test_json_special_floats;
          Alcotest.test_case "roundtrip" `Quick test_json_roundtrip;
          Alcotest.test_case "parse" `Quick test_json_parse;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "counter/gauge" `Quick test_counter_gauge;
          Alcotest.test_case "histogram point mass" `Quick
            test_histogram_point_mass;
          Alcotest.test_case "histogram quantile order" `Quick
            test_histogram_quantile_order;
          Alcotest.test_case "histogram out of range" `Quick
            test_histogram_out_of_range;
          Alcotest.test_case "empty + reset" `Quick
            test_histogram_empty_and_reset;
          Alcotest.test_case "atomic registry snapshot" `Quick
            test_snapshot_atomic_complete;
          Alcotest.test_case "bucket boundaries" `Quick
            test_histogram_bucket_boundaries;
          Alcotest.test_case "snapshot merge" `Quick
            test_histogram_snapshot_merge;
          Alcotest.test_case "prometheus exposition" `Quick
            test_expose_prometheus;
        ] );
      ("clock", [ Alcotest.test_case "monotone + mock" `Quick test_clock_monotone_and_mock ]);
      ( "spans",
        [
          Alcotest.test_case "nesting/self-time" `Quick
            test_span_nesting_self_time;
          Alcotest.test_case "attrs + events" `Quick test_span_attrs_and_events;
          Alcotest.test_case "exception safety" `Quick
            test_span_exception_safety;
          Alcotest.test_case "exception safety in worker domain" `Quick
            test_span_exception_in_domain;
          Alcotest.test_case "null sink no-op" `Quick test_null_sink_noop;
        ] );
      ( "trace",
        [
          Alcotest.test_case "file roundtrip" `Quick test_trace_file_roundtrip;
          Alcotest.test_case "diff" `Quick test_trace_diff;
          Alcotest.test_case "orphaned span" `Quick test_trace_orphan;
        ] );
      ( "profile",
        [
          Alcotest.test_case "interleaved domains" `Quick
            test_profile_interleaved_domains;
          Alcotest.test_case "orphaned frames" `Quick test_profile_orphan;
          Alcotest.test_case "live collector + tee" `Quick
            test_profile_collector_tee;
          Alcotest.test_case "multi-domain trace file" `Quick
            test_profile_multidomain_file;
        ] );
      ( "domains",
        [
          Alcotest.test_case "parallel metrics" `Quick
            test_metrics_parallel_increments;
          Alcotest.test_case "parallel spans" `Quick
            test_spans_parallel_delivery;
        ] );
    ]
