(* Command line of the benchmark.

     main.exe --workload W --seed N --seconds S --trace 0|1
       one run of one workload; prints "workload metric value unit" lines
       and, last, the JSON result
     main.exe run [--seed N] [--seconds S] [--out DIR]
       every workload, untraced then traced, each run in a child process
     main.exe compare DIR_A DIR_B [--spec BENCHMARK.json]
       medians of two sets of [run] records, metric by metric *)

module W = Step_perf.Workload
module Run = Step_perf.Run
module Report = Step_perf.Report

let usage () =
  prerr_endline
    "usage: main.exe --workload W --seed N --seconds S --trace 0|1\n\
    \       main.exe run [--seed N] [--seconds S] [--out DIR]\n\
    \       main.exe compare DIR_A DIR_B [--spec FILE]";
  exit 2

let parse argv specs anon =
  try Arg.parse_argv ~current:(ref 0) argv specs anon ""
  with Arg.Bad msg | Arg.Help msg ->
    prerr_string msg;
    usage ()

let workload_of name =
  match W.find name with
  | Some w -> w
  | None ->
      Printf.eprintf "unknown workload %S (one of: %s)\n" name
        (String.concat ", " (List.map (fun w -> w.W.name) W.all));
      exit 2

let single argv =
  let workload = ref "" and seed = ref 1 and seconds = ref 20.0 and trace = ref 0 in
  parse argv
    [
      ("--workload", Arg.Set_string workload, "NAME");
      ("--seed", Arg.Set_int seed, "N");
      ("--seconds", Arg.Set_float seconds, "S");
      ("--trace", Arg.Set_int trace, "0|1");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)));
  if !workload = "" || (!trace <> 0 && !trace <> 1) || !seconds <= 0.0 then
    usage ();
  let w = workload_of !workload in
  let trace = !trace = 1 in
  let r = Run.run w ~seed:!seed ~seconds:!seconds ~trace in
  Report.print_lines w.W.name r;
  print_endline (Step_obs.Json.to_string (Run.to_json ~trace r));
  exit (if r.Run.correct then 0 else 1)

let run_all argv =
  let seed = ref 1 and seconds = ref 20.0 and out = ref "bench_perf_out" in
  parse argv
    [
      ("--seed", Arg.Set_int seed, "N");
      ("--seconds", Arg.Set_float seconds, "S");
      ("--out", Arg.Set_string out, "DIR");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)));
  exit (Report.run_all ~seed:!seed ~seconds:!seconds ~out:!out)

let compare argv =
  let spec = ref "BENCHMARK.json" and dirs = ref [] in
  parse argv
    [ ("--spec", Arg.Set_string spec, "FILE") ]
    (fun d -> dirs := !dirs @ [ d ]);
  match !dirs with
  | [ a; b ] -> exit (Report.compare ~spec:!spec a b)
  | _ -> usage ()

let () =
  let argv = Sys.argv in
  let rest () = Array.sub argv 1 (Array.length argv - 1) in
  match Array.to_list argv with
  | _ :: "run" :: _ -> run_all (rest ())
  | _ :: "compare" :: _ -> compare (rest ())
  | _ :: _ :: _ -> single argv
  | _ -> usage ()
