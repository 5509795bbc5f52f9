(* Reference number printer for the serve protocol, kept as the oracle
   for the production shortest-digit printer: integral values below 1e15
   through [%.0f], every other finite value through [%.{15,16,17}g],
   taking the first precision whose text parses back to the same bits,
   and non-finite values as [null].  Written for clarity, not speed;
   [Serve.Protocol.print (Num x)] must agree with it byte for byte. *)

let print_float x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
  else begin
    let bits = Int64.bits_of_float x in
    let rec go p =
      let s = Printf.sprintf "%.*g" p x in
      if p >= 17 || Int64.equal (Int64.bits_of_float (float_of_string s)) bits
      then s
      else go (p + 1)
    in
    go 15
  end

let print_num x = if Float.is_finite x then print_float x else "null"
