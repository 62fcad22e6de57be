(* Printing results, running every workload in child processes, and
   comparing two sets of recorded runs. *)

module Json = Step_obs.Json
module W = Workload

let print_lines workload (r : Run.result) =
  List.iter
    (fun (name, value, unit) ->
      Printf.printf "%s %s %.6g %s\n" workload name value unit)
    r.Run.metrics;
  List.iter (fun m -> Printf.eprintf "%s WRONG %s\n" workload m) r.Run.wrong;
  flush stdout

(* ---------- run: every workload, each pass kind in its own process ---------- *)

(* Runs [exe] with [args], echoes its output except the last line, and
   returns that line (the JSON result) with the exit status. *)
let child exe args =
  let ic = Unix.open_process_args_in exe (Array.of_list (exe :: args)) in
  let rec read last =
    match input_line ic with
    | line ->
        Option.iter print_endline last;
        read (Some line)
    | exception End_of_file -> last
  in
  let last = read None in
  flush stdout;
  let status = Unix.close_process_in ic in
  (last, status = Unix.WEXITED 0)

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

let run_all ~seed ~seconds ~out =
  let exe = Sys.executable_name in
  let ok = ref true in
  let records =
    List.map
      (fun (w : W.t) ->
        let pass trace =
          let last, exited_ok =
            child exe
              [
                "--workload"; w.W.name;
                "--seed"; string_of_int seed;
                "--seconds"; Printf.sprintf "%g" seconds;
                "--trace"; (if trace then "1" else "0");
              ]
          in
          let result =
            match Option.map Json.of_string last with
            | Some j -> j
            | None | (exception Failure _) -> Json.Null
          in
          if (not exited_ok) || Json.member "correct" result <> Json.Bool true
          then begin
            Printf.eprintf "%s (trace %b): wrong answers or no result\n%!"
              w.W.name trace;
            ok := false
          end;
          result
        in
        let untraced = pass false in
        let traced = pass true in
        (w.W.name, Json.Obj [ ("untraced", untraced); ("traced", traced) ]))
      W.all
  in
  mkdir_p out;
  let path =
    Filename.concat out
      (Printf.sprintf "run-seed%d-%.0f.json" seed (Unix.gettimeofday ()))
  in
  let oc = open_out path in
  output_string oc
    (Json.to_string
       (Json.Obj
          [
            ("seed", Json.Int seed);
            ("seconds", Json.Float seconds);
            ("workloads", Json.Obj records);
          ]));
  output_char oc '\n';
  close_out oc;
  Printf.printf "wrote %s\n" path;
  if !ok then 0 else 1

(* ---------- compare ---------- *)

(* Quartiles as Python's statistics.quantiles(xs, n=4) gives them (the
   default, exclusive method), so spreads read the same as elsewhere. *)
let quartiles xs =
  let d = Array.of_list xs in
  Array.sort compare d;
  let ld = Array.length d in
  if ld < 2 then (d.(0), d.(0), d.(0))
  else
    let m = ld + 1 in
    let q i =
      let j = i * m / 4 in
      let j = if j < 1 then 1 else if j > ld - 1 then ld - 1 else j in
      let delta = (i * m) - (j * 4) in
      ((d.(j - 1) *. float_of_int (4 - delta)) +. (d.(j) *. float_of_int delta))
      /. 4.0
    in
    (q 1, q 2, q 3)

type spec = { name : string; lower_better : bool; bound : float }

let read_file path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let load_spec path =
  Json.to_list (Json.member "end_to_end" (Json.of_string (read_file path)))
  |> List.map (fun m ->
         let field k = Json.member k m in
         let str k = Option.value ~default:"" (Json.to_string_opt (field k)) in
         {
           name = str "name";
           lower_better = str "better" = "lower";
           bound = Option.value ~default:0.0 (Json.to_float_opt (field "bound"));
         })

(* (workload, metric) -> values over the records in [dir], and whether
   every recorded run was correct *)
let load_runs dir =
  let values = Hashtbl.create 64 and correct = ref true in
  Sys.readdir dir |> Array.to_list |> List.sort compare
  |> List.filter (fun f -> Filename.check_suffix f ".json")
  |> List.iter (fun f ->
         let j = Json.of_string (read_file (Filename.concat dir f)) in
         match Json.member "workloads" j with
         | Json.Obj ws ->
             List.iter
               (fun (w, r) ->
                 let untraced = Json.member "untraced" r in
                 if Json.member "correct" untraced <> Json.Bool true then
                   correct := false;
                 match Json.member "metrics" untraced with
                 | Json.Obj ms ->
                     List.iter
                       (fun (name, m) ->
                         match Json.to_float_opt (Json.member "value" m) with
                         | Some v ->
                             let k = (w, name) in
                             let seen = Hashtbl.find_opt values k in
                             Hashtbl.replace values k
                               (v :: Option.value ~default:[] seen)
                         | None -> ())
                       ms
                 | _ -> ())
               ws
         | _ -> ());
  (values, !correct)

(* ok: B's median is within the bound of A's; worse: beyond it;
   unresolved: the run-to-run spread of either side is wider than the
   bound and B's runs do not all beat A's. *)
let judge s a b =
  let _, ma, _ = quartiles a and _, mb, _ = quartiles b in
  let spread xs =
    let q1, m, q3 = quartiles xs in
    if m = 0.0 then 0.0 else (q3 -. q1) /. Float.abs m
  in
  let worse_by =
    if ma = 0.0 then 0.0
    else
      let d = (mb -. ma) /. Float.abs ma in
      if s.lower_better then d else -.d
  in
  let beats x y = if s.lower_better then x < y else x > y in
  let all_better =
    List.for_all (fun y -> List.for_all (fun x -> beats y x) a) b
  in
  let mark =
    if Float.max (spread a) (spread b) > s.bound && not all_better then
      "unresolved"
    else if worse_by > s.bound then "worse"
    else "ok"
  in
  (ma, mb, worse_by, mark)

let compare ~spec dir_a dir_b =
  let specs = load_spec spec in
  let a, a_ok = load_runs dir_a and b, b_ok = load_runs dir_b in
  let worse = ref 0 in
  Printf.printf "%-14s %-13s %14s %14s %9s %7s  %s\n" "workload" "metric"
    "median_a" "median_b" "worse_by" "bound" "mark";
  List.iter
    (fun (w : W.t) ->
      List.iter
        (fun s ->
          let key = (w.W.name, s.name) in
          match (Hashtbl.find_opt a key, Hashtbl.find_opt b key) with
          | Some va, Some vb ->
              let ma, mb, d, mark = judge s va vb in
              if mark = "worse" then incr worse;
              Printf.printf "%-14s %-13s %14.6g %14.6g %+8.2f%% %6.1f%%  %s\n"
                w.W.name s.name ma mb (100.0 *. d) (100.0 *. s.bound) mark
          | _ -> Printf.printf "%-14s %-13s missing\n" w.W.name s.name)
        specs)
    W.all;
  if not (a_ok && b_ok) then print_endline "wrong answers recorded";
  if !worse = 0 && a_ok && b_ok then 0 else 1
