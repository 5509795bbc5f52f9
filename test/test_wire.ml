(* The serve wire, byte for byte: the number printer against the
   [%.{15,16,17}g] oracle, the trajectory writer against the value tree
   it replaced, the line reader against a plain splitter, and a recorded
   stream session. *)

open Helpers
module P = Serve.Protocol
module E = Serve.Engine
module S = Experience.Stream

let check_print x =
  let got = P.print (P.Num x) and want = Protocol_oracle.print_num x in
  if got <> want then
    Alcotest.failf "print %h (bits %016Lx): %S, oracle %S" x
      (Int64.bits_of_float x) got want

(* ------------------------------------------------------------------ *)
(* The number printer.                                                *)

let test_printer_edges () =
  let edges =
    [ 0.0; -0.0; 5e-324; 2.225073858507201e-308 (* largest subnormal *);
      2.2250738585072014e-308 (* smallest normal *); max_float;
      999999999999999.0; 1e15; 1e15 +. 2.0; 9007199254740992.0; 1e21;
      1e-5; 1e-4; 0.1; 1.0 /. 3.0; infinity; neg_infinity; nan;
      (* 17 significant digits ending in 5 with an ulp of 1/8: the two
         16-digit neighbours are equally close and both round-trip. *)
      600000000000000.25; 999999999999999.75; 562949953421312.5;
      123.456; 1e23; 5e-310; 4.35e-321; 1e16; 1e17 +. 16.0; 0.3;
      2.0 /. 3.0; 1e-7; 123456789012345.6; 0.000123456789012345678 ]
  in
  List.iter (fun x -> check_print x; check_print (-.x)) edges;
  for e = -1074 to 1023 do
    check_print (Float.ldexp 1.0 e);
    check_print (-.Float.ldexp 1.0 e);
    (* the neighbours of each power of two *)
    check_print (Float.succ (Float.ldexp 1.0 e));
    check_print (Float.pred (Float.ldexp 1.0 e))
  done;
  for e = -323 to 308 do
    check_print (float_of_string (Printf.sprintf "1e%d" e))
  done

let test_printer_random_bits =
  qcheck ~count:1_000_000 "printer = %.{15,16,17}g oracle on random bits"
    QCheck2.Gen.int64 (fun b ->
      let x = Int64.float_of_bits b in
      P.print (P.Num x) = Protocol_oracle.print_num x)

(* Doubles nearest to short decimals, where the shortest form has few
   digits and several longer decimals round-trip too. *)
let decimal_gen =
  QCheck2.Gen.(
    map
      (fun (digits, e) -> float_of_string (Printf.sprintf "%se%d" digits e))
      (pair
         (string_size ~gen:numeral (int_range 1 17))
         (int_range (-330) 310)))

let test_printer_decimals =
  qcheck ~count:100_000 "printer = oracle near short decimals" decimal_gen
    (fun x -> P.print (P.Num x) = Protocol_oracle.print_num x)

let test_hex_writer =
  qcheck ~count:10_000 "bits writer = %016Lx" QCheck2.Gen.int64 (fun b ->
      let buf = Buffer.create 18 in
      P.add_bits buf b;
      let want = Printf.sprintf "0x%016Lx" b in
      P.hex_of_bits b = want && Buffer.contents buf = want)

(* Integer literals skip float_of_string; the value must not move. *)
let test_parse_integer_literals =
  qcheck ~count:20_000 "integer literals parse as float_of_string does"
    QCheck2.Gen.(
      pair bool (string_size ~gen:numeral (int_range 1 19)))
    (fun (neg, digits) ->
      let s = (if neg then "-" else "") ^ digits in
      match P.parse s with
      | P.Num x ->
        Int64.equal (Int64.bits_of_float x)
          (Int64.bits_of_float (float_of_string s))
      | _ -> false)

(* ------------------------------------------------------------------ *)
(* The trajectory writer against the value tree it replaced.          *)

exception Err of string

(* The trajectory response as the engine built it with one value per
   point: the error of the first failing extra, or the points. *)
let tree_trajectory acc ~stream ~bound ~extras =
  let point_of extra =
    let posterior =
      match S.mode acc with
      | S.Demand ->
        let n = int_of_float extra in
        if float_of_int n <> extra || n < 0 then
          raise (Err "demand-mode \"extras\" must be non-negative integers");
        S.posterior_after_demands acc ~extra:n
      | S.Continuous -> S.posterior_after_hours acc ~extra
    in
    let c = Dist.Mixture.prob_le posterior bound in
    P.Obj
      [ ("extra", P.Num extra);
        ("mean", P.Num (Dist.Mixture.mean posterior));
        ("confidence", P.Num c);
        ("confidence_bits", P.Str (P.hex_of_bits (Int64.bits_of_float c))) ]
  in
  let fail msg = P.Obj [ ("ok", P.Bool false); ("error", P.Str msg) ] in
  P.print
    (match List.map point_of extras with
    | points ->
      P.Obj
        [ ("ok", P.Bool true); ("op", P.Str "trajectory");
          ("stream", P.Str stream); ("bound", P.Num bound);
          ("points", P.Arr points) ]
    | exception Err msg -> fail msg
    | exception Invalid_argument msg -> fail msg)

let trajectory_line ~stream ~bound ~extras =
  P.print
    (P.Obj
       [ ("op", P.Str "trajectory"); ("stream", P.Str stream);
         ("bound", P.Num bound);
         ("extras", P.Arr (List.map (fun x -> P.Num x) extras)) ])

let check_trajectory eng acc ~stream ~bound extras =
  let got = E.handle eng (trajectory_line ~stream ~bound ~extras) in
  let want = tree_trajectory acc ~stream ~bound ~extras in
  if got <> want then
    Alcotest.failf "trajectory %s bound %h:\n got  %s\n want %s" stream bound
      got want

let wire_extras_gen ~demand =
  QCheck2.Gen.(
    list_size (int_range 0 8)
      (if demand then
         oneof
           [ map float_of_int (int_range 0 1000);
             map float_of_int (int_range 0 1_000_000_000_000);
             (* negative and fractional extras, rejected *)
             map float_of_int (int_range (-5) (-1));
             pure 2.5 ]
       else
         oneof
           [ float_range 0.0 100.0; float_range 0.0 1e12; pure 0.0;
             pure (-0.0); map float_of_int (int_range (-5) (-1)) ]))

let test_trajectory_writer =
  qcheck ~count:300 "trajectory response = value-tree rendering"
    QCheck2.Gen.(
      tup4 bool (int_range 0 100_000) (float_range 0.0 0.05)
        (pair
           (wire_extras_gen ~demand:true)
           (wire_extras_gen ~demand:false)))
    (fun (beta, evidence, bound, (dextras, hextras)) ->
      let eng = E.create () in
      let stream, extras, ops =
        if beta then
          ( "b", dextras,
            [ "{\"op\":\"stream\",\"stream\":\"b\",\"beta_a\":0.5,\"beta_b\":3}";
              Printf.sprintf
                "{\"op\":\"ingest\",\"stream\":\"b\",\"demands\":%d,\"failures\":1}"
                (evidence + 1) ] )
        else
          ( "g", hextras,
            [ "{\"op\":\"stream\",\"stream\":\"g\",\"gamma_shape\":1.5,\
               \"gamma_rate\":200}";
              Printf.sprintf
                "{\"op\":\"ingest\",\"stream\":\"g\",\"hours\":%d.25,\"failures\":2}"
                evidence ] )
      in
      List.iter (fun l -> ignore (E.handle eng l)) ops;
      (* A twin accumulator for the value-tree oracle. *)
      let acc =
        if beta then begin
          let a = S.demand_beta ~a:0.5 ~b:3.0 in
          S.observe_demands a ~demands:(evidence + 1) ~failures:1;
          a
        end
        else begin
          let a = S.rate_gamma ~shape:1.5 ~rate:200.0 in
          S.observe_hours a
            ~hours:(float_of_string (Printf.sprintf "%d.25" evidence))
            ~failures:2;
          a
        end
      in
      List.iter
        (fun bound -> check_trajectory eng acc ~stream ~bound extras)
        [ bound; 0.0; -0.0; 1.0; -1.0; 2.0; 1e-300; 0.999999 ];
      true)

let test_trajectory_errors () =
  let eng = E.create () in
  ignore
    (E.handle eng "{\"op\":\"stream\",\"stream\":\"b\",\"beta_a\":1,\"beta_b\":1}");
  ignore
    (E.handle eng
       "{\"op\":\"stream\",\"stream\":\"g\",\"gamma_shape\":1,\"gamma_rate\":1}");
  let expect line want =
    Alcotest.(check string) line want (E.handle eng line)
  in
  let demand_err =
    "{\"ok\":false,\"error\":\"demand-mode \\\"extras\\\" must be \
     non-negative integers\"}"
  and hours_err =
    "{\"ok\":false,\"error\":\"Stream.posterior_after_hours: extra < 0\"}"
  in
  expect "{\"op\":\"trajectory\",\"stream\":\"b\",\"bound\":0.1,\"extras\":[-1]}"
    demand_err;
  expect
    "{\"op\":\"trajectory\",\"stream\":\"b\",\"bound\":0.1,\"extras\":[1,2,0.5]}"
    demand_err;
  expect
    "{\"op\":\"trajectory\",\"stream\":\"b\",\"bound\":0.1,\"extras\":[0,3,-2,7]}"
    demand_err;
  expect
    "{\"op\":\"trajectory\",\"stream\":\"g\",\"bound\":0.1,\"extras\":[1,-0.5]}"
    hours_err;
  (* An overflowing hypothetical total raises before a later bad extra. *)
  ignore
    (E.handle eng
       "{\"op\":\"ingest\",\"stream\":\"b\",\"demands\":9007199254740992}");
  expect
    "{\"op\":\"trajectory\",\"stream\":\"b\",\"bound\":0.1,\
     \"extras\":[1,4611686018427387000,-1]}"
    "{\"ok\":false,\"error\":\"Bayes.beta_posterior: bad counts\"}";
  expect
    "{\"id\":[1,{\"k\":-0}],\"op\":\"trajectory\",\"stream\":\"b\",\
     \"bound\":0.1,\"extras\":[]}"
    "{\"id\":[1,{\"k\":-0}],\"ok\":true,\"op\":\"trajectory\",\
     \"stream\":\"b\",\"bound\":0.1,\"points\":[]}"

(* ------------------------------------------------------------------ *)
(* The line reader.                                                   *)

let with_temp_files f =
  let input = Filename.temp_file "confcase_wire" ".in"
  and output = Filename.temp_file "confcase_wire" ".out" in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun p -> try Sys.remove p with Sys_error _ -> ()) [ input; output ])
    (fun () -> f input output)

(* Run [text] through the pipe server, reading from and writing to
   files so that no line length can fill a pipe and stall the test. *)
let serve_text text =
  with_temp_files (fun input output ->
      Out_channel.with_open_bin input (fun oc -> output_string oc text);
      let ifd = Unix.openfile input [ Unix.O_RDONLY ] 0 in
      let ofd = Unix.openfile output [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
      Fun.protect
        ~finally:(fun () -> Unix.close ifd; Unix.close ofd)
        (fun () ->
          Serve.Server.run_pipe (Serve.Server.config ()) (E.create ())
            ~input:ifd ~output:ofd);
      In_channel.with_open_bin output In_channel.input_all)

(* The framing oracle: split on '\n' only; a final unterminated line
   counts when it is not empty. *)
let oracle_lines text =
  match List.rev (String.split_on_char '\n' text) with
  | "" :: rest -> List.rev rest
  | all -> List.rev all

(* A request whose response echoes it: an unknown op with an [id]
   padded so the whole line is [len] bytes. *)
let echo_line len =
  let head = "{\"op\":\"x\",\"id\":\"" and tail = "\"}" in
  head ^ String.make (len - String.length head - String.length tail) 'a' ^ tail

let test_line_reader () =
  let lines =
    [ echo_line 65535; echo_line 65536; echo_line 65537; ""; "";
      echo_line 100; echo_line (3 * 1024 * 1024); "   ";
      echo_line 65536 ^ "\r"; echo_line 30 ]
  in
  let check name text =
    let eng = E.create () in
    let want =
      String.concat ""
        (List.map (fun l -> E.handle eng l ^ "\n") (oracle_lines text))
    in
    let got = serve_text text in
    if got <> want then
      Alcotest.failf "%s: %d response bytes, oracle %d" name
        (String.length got) (String.length want)
  in
  let text = String.concat "\n" lines in
  check "terminated" (text ^ "\n");
  check "final line unterminated" text;
  check "newline at the chunk boundary"
    (echo_line 65535 ^ "\n" ^ echo_line 65535 ^ "\n\n" ^ echo_line 20);
  check "one-byte final line" "{}\nx";
  check "empty input" "";
  check "only newlines" "\n\n\n"

(* ------------------------------------------------------------------ *)
(* A recorded stream session: Beta, Gamma and belief-mixture streams,
   ingests, posteriors, trajectories at edge bounds and error rows.  The
   expected bytes were recorded before the trajectory kernel, the
   direct writer and the shortest-digit printer existed. *)

let test_stream_golden () =
  let requests =
    In_channel.with_open_bin (fixture "test/golden/serve_stream.ndjson")
      In_channel.input_all
  and expected =
    In_channel.with_open_bin (fixture "test/golden/serve_stream.expected")
      In_channel.input_all
  in
  (* The session loads the belief by its path from the repository root. *)
  let requests =
    let path = "\"examples/sis.belief\"" in
    let n = String.length path in
    let rec find k =
      if String.sub requests k n = path then k else find (k + 1)
    in
    let i = find 0 in
    String.sub requests 0 i
    ^ P.print (P.Str (fixture "examples/sis.belief"))
    ^ String.sub requests (i + n) (String.length requests - i - n)
  in
  let got = serve_text requests in
  if got <> expected then begin
    let g = String.split_on_char '\n' got
    and e = String.split_on_char '\n' expected in
    List.iteri
      (fun k (a, b) ->
        if a <> b then Alcotest.failf "line %d:\n got  %s\n want %s" (k + 1) a b)
      (List.combine
         (List.filteri (fun k _ -> k < List.length e) g)
         (List.filteri (fun k _ -> k < List.length g) e));
    Alcotest.failf "%d response lines, expected %d" (List.length g)
      (List.length e)
  end

let suite =
  [ case "printer edge values" test_printer_edges;
    test_printer_random_bits;
    test_printer_decimals;
    test_hex_writer;
    test_parse_integer_literals;
    test_trajectory_writer;
    case "trajectory error responses" test_trajectory_errors;
    case "line reader framing" test_line_reader;
    case "stream session golden" test_stream_golden ]
