(* Argument lookup and the one-line JSON the tools print. *)

let arg name args =
  let rec go = function
    | k :: v :: _ when k = name -> v
    | _ :: rest -> go rest
    | [] -> failwith ("missing " ^ name)
  in
  go args

let num x = if Float.is_finite x then Printf.sprintf "%.17g" x else "null"

let int = string_of_int

(* Strings here are ASCII ids and codes, where OCaml and JSON escapes agree. *)
let str s = Printf.sprintf "%S" s

let list f xs = "[" ^ String.concat "," (List.map f xs) ^ "]"

let obj fields = "{" ^ String.concat "," (List.map (fun (k, v) -> str k ^ ":" ^ v) fields) ^ "}"

(* The first few wrong responses go to stderr. *)
let complaints = ref 0

let complain (r : Mix.request) resp =
  if !complaints < 5 then begin
    incr complaints;
    let clip s = if String.length s > 300 then String.sub s 0 300 ^ "..." else s in
    Printf.eprintf "wrong response to %s\n  response: %s\n%!" (clip r.line) (clip resp)
  end
