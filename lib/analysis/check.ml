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

let check_file path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error msg ->
    [ D.make ~file:path ~code:"F000" ~severity:D.Error ~line:0 msg ]
  | text ->
    let kind = match kind_of_path path with Some k -> k | None -> sniff text in
    check_string ~file:path kind text

(* --- parse + check in one call -------------------------------------------- *)

type 'a checked = { value : 'a option; diagnostics : D.t list }

let case ?file text =
  let rows, diagnostics = Case_rules.scan text in
  let value =
    match Option.map Casekit.Case_format.load rows with
    | Some (g, _) -> Some (Casekit.Graph.to_node g)
    | None | (exception Casekit.Case_format.Parse_error _) -> None
  in
  { value; diagnostics = with_file ?file diagnostics }

let belief ?file text =
  let diagnostics = check_string ?file Belief text in
  let value =
    match Elicit.Belief_format.parse text with
    | b -> Some b
    | exception Elicit.Belief_format.Parse_error _ -> None
    | exception Invalid_argument _ -> None
  in
  { value; diagnostics }

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
