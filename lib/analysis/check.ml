module D = Diagnostic

type kind = Case | Belief

let kind_to_string = function Case -> "case" | Belief -> "belief"

let kind_of_path path =
  match Filename.extension path with
  | ".case" -> Some Case
  | ".belief" -> Some Belief
  | _ -> None

(* A case document's first meaningful line starts with a node kind; anything
   else is taken for a belief (whose checker will complain precisely). *)
let sniff text =
  let first_meaningful =
    String.split_on_char '\n' text
    |> List.find_map (fun raw ->
           let t = String.trim raw in
           if t = "" || t.[0] = '#' then None else Some t)
  in
  match first_meaningful with
  | Some t
    when List.exists
           (fun prefix ->
             String.length t >= String.length prefix
             && String.sub t 0 (String.length prefix) = prefix)
           [ "goal "; "evidence "; "assume " ] ->
    Case
  | _ -> Belief

let with_file ?file diags =
  match file with Some f -> D.with_file f diags | None -> diags

let check_string ?file kind text =
  with_file ?file
    (match kind with
    | Case -> Case_rules.check text
    | Belief -> Belief_rules.check text)

(* Sys_error names the path when open fails but not when a read does (a
   directory), so the path is stripped and put back. *)
let read_file path =
  match In_channel.with_open_bin path In_channel.input_all with
  | text -> Ok text
  | exception Sys_error msg ->
    let prefix = path ^ ": " in
    if String.starts_with ~prefix msg then Error msg
    else Error (prefix ^ msg)

let check_file path =
  match read_file path with
  | Error msg ->
    [ D.make ~file:path ~code:"F000" ~severity:D.Error ~line:0 msg ]
  | Ok text ->
    let kind = match kind_of_path path with Some k -> k | None -> sniff text in
    check_string ~file:path kind text

let codes_table () =
  let render (code, severity, description) =
    Printf.sprintf "  %-5s %-8s %s" code (D.severity_to_string severity)
      description
  in
  String.concat "\n"
    (("Case rules:" :: List.map render Case_rules.codes)
    @ ("" :: "Belief rules:" :: List.map render Belief_rules.codes)
    @ ("" :: "Audit rules (confcase audit):" :: List.map render Audit.codes))
  ^ "\n"
