module Json = Step_obs.Json

type severity = Error | Warning | Info

type location = { file : string option; line : int option; item : string option }

type t = {
  code : string;
  severity : severity;
  location : location;
  message : string;
}

let no_location = { file = None; line = None; item = None }

let make ?file ?line ?item ~code ~severity message =
  { code; severity; location = { file; line; item }; message }

let error ?file ?line ?item ~code message =
  make ?file ?line ?item ~code ~severity:Error message

let warning ?file ?line ?item ~code message =
  make ?file ?line ?item ~code ~severity:Warning message

let info ?file ?line ?item ~code message =
  make ?file ?line ?item ~code ~severity:Info message

let with_file file d = { d with location = { d.location with file = Some file } }

let sort_by_line ds =
  let line d = Option.value d.location.line ~default:max_int in
  List.stable_sort (fun a b -> compare (line a) (line b)) ds

let severity_to_string = function
  | Error -> "error"
  | Warning -> "warning"
  | Info -> "info"

let severity_rank = function Error -> 0 | Warning -> 1 | Info -> 2

let compare_severity a b = compare (severity_rank a) (severity_rank b)

let count_severity sev ds =
  List.length (List.filter (fun d -> d.severity = sev) ds)

let count_errors ds = count_severity Error ds

let count_warnings ds = count_severity Warning ds

let has_errors ds = List.exists (fun d -> d.severity = Error) ds

let to_text d =
  let buf = Buffer.create 64 in
  (match d.location.file with
  | Some f ->
      Buffer.add_string buf f;
      (match d.location.line with
      | Some l -> Buffer.add_string buf (Printf.sprintf ":%d" l)
      | None -> ());
      Buffer.add_string buf ": "
  | None -> (
      match d.location.line with
      | Some l -> Buffer.add_string buf (Printf.sprintf "line %d: " l)
      | None -> ()));
  Buffer.add_string buf (severity_to_string d.severity);
  Buffer.add_string buf (Printf.sprintf " %s: %s" d.code d.message);
  (match d.location.item with
  | Some item -> Buffer.add_string buf (Printf.sprintf " [%s]" item)
  | None -> ());
  Buffer.contents buf

let render ds = String.concat "" (List.map (fun d -> to_text d ^ "\n") ds)

let summary ds =
  if ds = [] then "clean"
  else begin
    let plural n what =
      Printf.sprintf "%d %s%s" n what (if n = 1 then "" else "s")
    in
    let parts =
      List.filter_map
        (fun (sev, what) ->
          match count_severity sev ds with
          | 0 -> None
          | n -> Some (plural n what))
        [ (Error, "error"); (Warning, "warning"); (Info, "info") ]
    in
    String.concat ", " parts
  end

let to_json d =
  let base =
    [
      ("code", Json.String d.code);
      ("severity", Json.String (severity_to_string d.severity));
      ("message", Json.String d.message);
    ]
  in
  let opt key f = function Some v -> [ (key, f v) ] | None -> [] in
  Json.Obj
    (base
    @ opt "file" (fun s -> Json.String s) d.location.file
    @ opt "line" (fun l -> Json.Int l) d.location.line
    @ opt "item" (fun s -> Json.String s) d.location.item)

let list_to_json ds = Json.List (List.map to_json ds)
