(* Shared assertions for the test suites. *)

let check_close ?(eps = 1e-9) name expected actual =
  let scale = max 1.0 (abs_float expected) in
  if abs_float (expected -. actual) > eps *. scale then
    Alcotest.failf "%s: expected %.12g, got %.12g (eps %g)" name expected
      actual eps

let check_in_range name ~lo ~hi actual =
  if actual < lo || actual > hi then
    Alcotest.failf "%s: %.12g outside [%.12g, %.12g]" name actual lo hi

let check_true name cond = Alcotest.(check bool) name true cond

let check_raises_invalid name f =
  match f () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.failf "%s: expected Invalid_argument" name

let contains_substring haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  n = 0 || go 0

let case name f = Alcotest.test_case name `Quick f

let qcheck ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count ~name gen prop)

let rng_of_seed seed = Numerics.Rng.create seed

(* The shipped fixtures live at the repo root; dune may run the suite
   from the test directory or the sandbox root. *)
let fixture path =
  if Sys.file_exists path then path
  else
    let up = Filename.concat ".." path in
    if Sys.file_exists up then up else path
