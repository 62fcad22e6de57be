let split line =
  String.split_on_char ' ' (String.trim line)
  |> List.concat_map (String.split_on_char '\t')
  |> List.concat_map (String.split_on_char '\r')
  |> List.filter (fun s -> s <> "")
