type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Parse_error of string

(* --- parsing ----------------------------------------------------------------- *)

type state = { src : string; mutable pos : int }

let fail st msg =
  raise (Parse_error (Printf.sprintf "at byte %d: %s" st.pos msg))

let peek st = if st.pos < String.length st.src then st.src.[st.pos] else '\255'

let advance st = st.pos <- st.pos + 1

let skip_ws st =
  while
    match peek st with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
  do
    advance st
  done

let expect st c =
  if peek st = c then advance st
  else fail st (Printf.sprintf "expected %C" c)

let expect_word st w =
  let n = String.length w in
  if st.pos + n <= String.length st.src && String.sub st.src st.pos n = w then
    st.pos <- st.pos + n
  else fail st (Printf.sprintf "expected %s" w)

(* UTF-8 encode one scalar value into [buf]. *)
let add_utf8 buf cp =
  if cp < 0x80 then Buffer.add_char buf (Char.chr cp)
  else if cp < 0x800 then begin
    Buffer.add_char buf (Char.chr (0xC0 lor (cp lsr 6)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
  end
  else if cp < 0x10000 then begin
    Buffer.add_char buf (Char.chr (0xE0 lor (cp lsr 12)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
  end
  else begin
    Buffer.add_char buf (Char.chr (0xF0 lor (cp lsr 18)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 12) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
  end

let hex4 st =
  let v = ref 0 in
  for _ = 1 to 4 do
    let c = peek st in
    let d =
      match c with
      | '0' .. '9' -> Char.code c - Char.code '0'
      | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
      | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
      | _ -> fail st "bad \\u escape"
    in
    v := (!v lsl 4) lor d;
    advance st
  done;
  !v

let parse_string st =
  expect st '"';
  let buf = Buffer.create 16 in
  let rec go () =
    match peek st with
    | '\255' -> fail st "unterminated string"
    | '"' -> advance st
    | '\\' ->
      advance st;
      (match peek st with
      | '"' -> Buffer.add_char buf '"'; advance st
      | '\\' -> Buffer.add_char buf '\\'; advance st
      | '/' -> Buffer.add_char buf '/'; advance st
      | 'b' -> Buffer.add_char buf '\b'; advance st
      | 'f' -> Buffer.add_char buf '\012'; advance st
      | 'n' -> Buffer.add_char buf '\n'; advance st
      | 'r' -> Buffer.add_char buf '\r'; advance st
      | 't' -> Buffer.add_char buf '\t'; advance st
      | 'u' ->
        advance st;
        let cp = hex4 st in
        if cp >= 0xD800 && cp <= 0xDBFF then begin
          (* High surrogate: a low surrogate must follow. *)
          expect st '\\';
          expect st 'u';
          let lo = hex4 st in
          if lo < 0xDC00 || lo > 0xDFFF then fail st "unpaired surrogate";
          add_utf8 buf
            (0x10000 + ((cp - 0xD800) lsl 10) + (lo - 0xDC00))
        end
        else if cp >= 0xDC00 && cp <= 0xDFFF then fail st "unpaired surrogate"
        else add_utf8 buf cp
      | _ -> fail st "bad escape");
      go ()
    | c when Char.code c < 0x20 -> fail st "raw control character in string"
    | c ->
      Buffer.add_char buf c;
      advance st;
      go ()
  in
  go ();
  Buffer.contents buf

(* An integer literal of at most 15 digits is exact as an [int] and as a
   float, so it skips [float_of_string] (negated, so that -0 stays -0.0);
   every other literal goes through it. *)
let parse_number st =
  let start = st.pos in
  let neg = peek st = '-' in
  if neg then advance st;
  let int_start = st.pos in
  let n = ref 0 in
  while (match peek st with '0' .. '9' -> true | _ -> false) do
    n := (!n * 10) + (Char.code (peek st) - 48);
    advance st
  done;
  let int_digits = st.pos - int_start in
  let plain = ref true in
  if peek st = '.' then begin
    plain := false;
    advance st;
    while (match peek st with '0' .. '9' -> true | _ -> false) do advance st done
  end;
  (match peek st with
  | 'e' | 'E' ->
    plain := false;
    advance st;
    (match peek st with '+' | '-' -> advance st | _ -> ());
    while (match peek st with '0' .. '9' -> true | _ -> false) do advance st done
  | _ -> ());
  if !plain && int_digits >= 1 && int_digits <= 15 then
    if neg then -.float_of_int !n else float_of_int !n
  else
    let s = String.sub st.src start (st.pos - start) in
    match float_of_string_opt s with
    | Some x -> x
    | None -> fail st (Printf.sprintf "bad number %S" s)

let rec parse_value st =
  skip_ws st;
  match peek st with
  | '{' ->
    advance st;
    skip_ws st;
    if peek st = '}' then begin advance st; Obj [] end
    else begin
      let fields = ref [] in
      let rec members () =
        skip_ws st;
        let k = parse_string st in
        skip_ws st;
        expect st ':';
        let v = parse_value st in
        fields := (k, v) :: !fields;
        skip_ws st;
        match peek st with
        | ',' -> advance st; members ()
        | '}' -> advance st
        | _ -> fail st "expected ',' or '}'"
      in
      members ();
      Obj (List.rev !fields)
    end
  | '[' ->
    advance st;
    skip_ws st;
    if peek st = ']' then begin advance st; Arr [] end
    else begin
      let items = ref [] in
      let rec elements () =
        let v = parse_value st in
        items := v :: !items;
        skip_ws st;
        match peek st with
        | ',' -> advance st; elements ()
        | ']' -> advance st
        | _ -> fail st "expected ',' or ']'"
      in
      elements ();
      Arr (List.rev !items)
    end
  | '"' -> Str (parse_string st)
  | 't' -> expect_word st "true"; Bool true
  | 'f' -> expect_word st "false"; Bool false
  | 'n' -> expect_word st "null"; Null
  | '-' | '0' .. '9' -> Num (parse_number st)
  | '\255' -> fail st "unexpected end of input"
  | c -> fail st (Printf.sprintf "unexpected %C" c)

let parse s =
  let st = { src = s; pos = 0 } in
  let v = parse_value st in
  skip_ws st;
  if st.pos <> String.length s then fail st "trailing garbage after value";
  v

(* --- printing ---------------------------------------------------------------- *)

(* Numbers print as the shortest decimal that round-trips the float64,
   laid out exactly as [%.{P}g] with P = max 15 (digit count) would lay
   it out.  That is byte for byte what the loop in [print_float_slow]
   prints: when the shortest form has at most 15 digits, [%.15g] already
   prints it (the 15-digit grid is coarser than the rounding interval, so
   the interval holds one grid point); when it needs 16 or 17, the
   correctly rounded 16- or 17-digit decimal is the closest one inside
   the interval, which is what the shortest-digit search returns.  The one
   exception is a power of two, whose interval is lopsided: there the
   correctly rounded 16-digit decimal can fall outside it while another
   16-digit decimal lies inside (2^-1017 is shortest as
   7.120236347223045e-307, but [%.16g] gives ...3044 and does not
   round-trip, so [%.17g] prints 7.1202363472230444e-307), so those go
   through the loop.  So do
   subnormals: with fewer than 53 significant bits their interval can
   hold several 15-digit decimals, and [%.15g] picks the closest, not
   the shortest. *)

(* Try increasing precision until re-parsing restores the exact bits.
   %.17g always does, so the loop terminates. *)
let print_float_slow x =
  let bits = Int64.bits_of_float x in
  let rec go p =
    let s = Printf.sprintf "%.*g" p x in
    if p >= 17 || Int64.equal (Int64.bits_of_float (float_of_string s)) bits
    then s
    else go (p + 1)
  in
  go 15

(* Non-negative [n] in decimal, most significant digit first. *)
let rec add_int buf n =
  if n >= 10 then add_int buf (n / 10);
  Buffer.add_char buf (Char.unsafe_chr (48 + (n mod 10)))

(* Lay out the [len]-digit integer [digits] (no trailing zeros) with
   decimal exponent [x] (value = d.ddd × 10^x) as %.{P}g does.  The
   digits are peeled off by constant divisions into [d] first. *)
let add_layout buf digits len x =
  let d = Bytes.create 17 in
  let n = ref digits in
  for i = len - 1 downto 0 do
    Bytes.unsafe_set d i (Char.unsafe_chr (48 + (!n mod 10)));
    n := !n / 10
  done;
  if x < -4 || x >= max 15 len then begin
    Buffer.add_char buf (Bytes.unsafe_get d 0);
    if len > 1 then begin
      Buffer.add_char buf '.';
      Buffer.add_subbytes buf d 1 (len - 1)
    end;
    Buffer.add_string buf (if x < 0 then "e-" else "e+");
    if abs x < 10 then Buffer.add_char buf '0';
    add_int buf (abs x)
  end
  else if x >= len - 1 then begin
    Buffer.add_subbytes buf d 0 len;
    for _ = len to x do Buffer.add_char buf '0' done
  end
  else if x >= 0 then begin
    Buffer.add_subbytes buf d 0 (x + 1);
    Buffer.add_char buf '.';
    Buffer.add_subbytes buf d (x + 1) (len - x - 1)
  end
  else begin
    Buffer.add_string buf "0.";
    for _ = 2 to -x do Buffer.add_char buf '0' done;
    Buffer.add_subbytes buf d 0 len
  end

(* Grisu3 (Loitsch, "Printing floating-point numbers quickly and
   accurately with integers", PLDI 2010), as in double-conversion's
   fast-dtoa: the float and its rounding boundaries are scaled by a
   cached power of ten into [2^-60, 2^-32]-exponent fixed point, digits
   are generated from the upper boundary, and the last digit is weeded
   towards the float.  It either proves the digits shortest and closest
   or gives up (about 0.5% of inputs).  Unsigned 64-bit arithmetic runs
   on [Int64] with unsigned comparisons; [mul_hi] and [weed] are inlined
   so that their [Int64] arguments and results are never boxed. *)

(* 10^k for k = -348, -340, ..., 340: a 64-bit significand rounded to
   nearest and its binary exponent. *)
let cached_f =
  [|
    0xfa8fd5a0081c0288L; 0xbaaee17fa23ebf76L; 0x8b16fb203055ac76L;
    0xcf42894a5dce35eaL; 0x9a6bb0aa55653b2dL; 0xe61acf033d1a45dfL;
    0xab70fe17c79ac6caL; 0xff77b1fcbebcdc4fL; 0xbe5691ef416bd60cL;
    0x8dd01fad907ffc3cL; 0xd3515c2831559a83L; 0x9d71ac8fada6c9b5L;
    0xea9c227723ee8bcbL; 0xaecc49914078536dL; 0x823c12795db6ce57L;
    0xc21094364dfb5637L; 0x9096ea6f3848984fL; 0xd77485cb25823ac7L;
    0xa086cfcd97bf97f4L; 0xef340a98172aace5L; 0xb23867fb2a35b28eL;
    0x84c8d4dfd2c63f3bL; 0xc5dd44271ad3cdbaL; 0x936b9fcebb25c996L;
    0xdbac6c247d62a584L; 0xa3ab66580d5fdaf6L; 0xf3e2f893dec3f126L;
    0xb5b5ada8aaff80b8L; 0x87625f056c7c4a8bL; 0xc9bcff6034c13053L;
    0x964e858c91ba2655L; 0xdff9772470297ebdL; 0xa6dfbd9fb8e5b88fL;
    0xf8a95fcf88747d94L; 0xb94470938fa89bcfL; 0x8a08f0f8bf0f156bL;
    0xcdb02555653131b6L; 0x993fe2c6d07b7facL; 0xe45c10c42a2b3b06L;
    0xaa242499697392d3L; 0xfd87b5f28300ca0eL; 0xbce5086492111aebL;
    0x8cbccc096f5088ccL; 0xd1b71758e219652cL; 0x9c40000000000000L;
    0xe8d4a51000000000L; 0xad78ebc5ac620000L; 0x813f3978f8940984L;
    0xc097ce7bc90715b3L; 0x8f7e32ce7bea5c70L; 0xd5d238a4abe98068L;
    0x9f4f2726179a2245L; 0xed63a231d4c4fb27L; 0xb0de65388cc8ada8L;
    0x83c7088e1aab65dbL; 0xc45d1df942711d9aL; 0x924d692ca61be758L;
    0xda01ee641a708deaL; 0xa26da3999aef774aL; 0xf209787bb47d6b85L;
    0xb454e4a179dd1877L; 0x865b86925b9bc5c2L; 0xc83553c5c8965d3dL;
    0x952ab45cfa97a0b3L; 0xde469fbd99a05fe3L; 0xa59bc234db398c25L;
    0xf6c69a72a3989f5cL; 0xb7dcbf5354e9beceL; 0x88fcf317f22241e2L;
    0xcc20ce9bd35c78a5L; 0x98165af37b2153dfL; 0xe2a0b5dc971f303aL;
    0xa8d9d1535ce3b396L; 0xfb9b7cd9a4a7443cL; 0xbb764c4ca7a44410L;
    0x8bab8eefb6409c1aL; 0xd01fef10a657842cL; 0x9b10a4e5e9913129L;
    0xe7109bfba19c0c9dL; 0xac2820d9623bf429L; 0x80444b5e7aa7cf85L;
    0xbf21e44003acdd2dL; 0x8e679c2f5e44ff8fL; 0xd433179d9c8cb841L;
    0x9e19db92b4e31ba9L; 0xeb96bf6ebadf77d9L; 0xaf87023b9bf0ee6bL;
  |]

let cached_e =
  [|
    -1220; -1193; -1166; -1140; -1113; -1087; -1060; -1034; -1007; -980;
    -954; -927; -901; -874; -847; -821; -794; -768; -741; -715;
    -688; -661; -635; -608; -582; -555; -529; -502; -475; -449;
    -422; -396; -369; -343; -316; -289; -263; -236; -210; -183;
    -157; -130; -103; -77; -50; -24; 3; 30; 56; 83;
    109; 136; 162; 189; 216; 242; 269; 295; 322; 348;
    375; 402; 428; 455; 481; 508; 534; 561; 588; 614;
    641; 667; 694; 720; 747; 774; 800; 827; 853; 880;
    907; 933; 960; 986; 1013; 1039; 1066;
  |]

(* Upper 64 bits of the 128-bit product, rounded half up. *)
let[@inline] mul_hi a b =
  let open Int64 in
  let m32 = 0xFFFFFFFFL in
  let ah = shift_right_logical a 32 and al = logand a m32 in
  let bh = shift_right_logical b 32 and bl = logand b m32 in
  let hl = mul ah bl and lh = mul al bh in
  let mid =
    add
      (add (shift_right_logical (mul al bl) 32) (logand hl m32))
      (add (logand lh m32) 0x80000000L)
  in
  add
    (add (mul ah bh) (shift_right_logical hl 32))
    (add (shift_right_logical lh 32) (shift_right_logical mid 32))

let pow10 = Array.init 10 (fun k -> int_of_float (10.0 ** float_of_int k))

let ult a b = Int64.unsigned_compare a b < 0
let ule a b = Int64.unsigned_compare a b <= 0

exception Give_up

(* Append the shortest digits of finite non-zero [v], laid out.
   @raise Give_up, having appended nothing, when Grisu3 cannot decide,
   for subnormals and for the 16-digit lopsided-interval case described
   above. *)
let add_shortest buf v =
  let bits = Int64.bits_of_float v in
  let biased = Int64.to_int (Int64.shift_right_logical bits 52) land 0x7FF in
  let frac = Int64.to_int (Int64.logand bits 0xFFFFFFFFFFFFFL) in
  if biased = 0 then raise Give_up;
  let f = frac lor (1 lsl 52) and e = biased - 1075 in
  let lower_closer = frac = 0 && biased > 1 in
  (* [v] = f·2^e and its boundaries m± = (2f ± 1)·2^(e-1) (m- =
     (4f - 1)·2^(e-2) when the lower neighbour is closer), as 64-bit
     significands over the one exponent [we]: 2f + 1 has 54 bits. *)
  let we = e - 11 in
  let wf = Int64.shift_left (Int64.of_int f) 11 in
  let plus_f = Int64.shift_left (Int64.of_int ((2 * f) + 1)) 10 in
  let minus_f =
    if lower_closer then Int64.shift_left (Int64.of_int ((4 * f) - 1)) 9
    else Int64.shift_left (Int64.of_int ((2 * f) - 1)) 10
  in
  (* The cached power 10^mk that lands the scaled exponent in
     [-60, -32]. *)
  let k =
    int_of_float
      (Float.ceil (float_of_int (-60 - (we + 64) + 63) *. 0.30102999566398114))
  in
  let index = ((348 + k - 1) / 8) + 1 in
  let cf = cached_f.(index) in
  let mk = -348 + (8 * index) in
  let s = -(we + cached_e.(index) + 64) in
  let w = mul_hi wf cf in
  let too_low = Int64.sub (mul_hi minus_f cf) 1L in
  let too_high = Int64.add (mul_hi plus_f cf) 1L in
  let unsafe = Int64.sub too_high too_low in
  let one = Int64.shift_left 1L s in
  let mask = Int64.sub one 1L in
  let distance = Int64.sub too_high w in
  (* Weed the last digit towards [w]; [rest] is the gap from the
     digits to [too_high], [ten_kappa] the weight of the last digit,
     [unit] the uncertainty of the scaled values at that weight. *)
  let[@inline] weed digits distance unsafe rest ten_kappa unit =
    let open Int64 in
    let small = sub distance unit and big = add distance unit in
    let digits = ref digits and rest = ref rest in
    while
      ult !rest small
      && ule ten_kappa (sub unsafe !rest)
      && (ult (add !rest ten_kappa) small
         || ule (sub (add !rest ten_kappa) small) (sub small !rest))
    do
      if !digits mod 10 = 0 then raise Give_up;
      decr digits;
      rest := add !rest ten_kappa
    done;
    let rest = !rest in
    if
      ult rest big
      && ule ten_kappa (sub unsafe rest)
      && (ult (add rest ten_kappa) big
         || ult (sub (add rest ten_kappa) big) (sub big rest))
    then raise Give_up;
    if
      not
        (ule (shift_left unit 1) rest
        && ule rest (sub unsafe (shift_left unit 2)))
    then raise Give_up;
    !digits
  in
  let integrals = Int64.to_int (Int64.shift_right_logical too_high s) in
  let fractionals = Int64.logand too_high mask in
  (* The integral part (at least 8, below 2^32) digit by digit, most
     significant first.  Its digits are peeled off by constant divisions
     beforehand, so what is left after each prefix is a multiplication
     away rather than a division by a variable power of ten. *)
  let peeled = Bytes.create 10 in
  let kappa = ref 0 and n = ref integrals in
  while !n > 0 do
    Bytes.unsafe_set peeled !kappa (Char.unsafe_chr (!n mod 10));
    n := !n / 10;
    incr kappa
  done;
  let digits = ref 0 and len = ref 0 in
  let result = ref (-1) in
  while !result < 0 && !kappa > 0 do
    decr kappa;
    digits := (!digits * 10) + Char.code (Bytes.unsafe_get peeled !kappa);
    incr len;
    let left = integrals - (!digits * pow10.(!kappa)) in
    let rest =
      Int64.add (Int64.shift_left (Int64.of_int left) s) fractionals
    in
    if ult rest unsafe then
      result :=
        weed !digits distance unsafe rest
          (Int64.shift_left (Int64.of_int pow10.(!kappa)) s) 1L
  done;
  let fractionals = ref fractionals and unit = ref 1L and unsafe = ref unsafe in
  while !result < 0 do
    fractionals := Int64.mul !fractionals 10L;
    unit := Int64.mul !unit 10L;
    unsafe := Int64.mul !unsafe 10L;
    digits :=
      (!digits * 10) + Int64.to_int (Int64.shift_right_logical !fractionals s);
    incr len;
    if !len > 17 then raise Give_up;
    fractionals := Int64.logand !fractionals mask;
    decr kappa;
    if ult !fractionals !unsafe then
      result :=
        weed !digits (Int64.mul distance !unit) !unsafe !fractionals one !unit
  done;
  if !result = 0 then raise Give_up;
  let digits = ref !result and len = ref !len and x = ref (!kappa - mk) in
  while !digits mod 10 = 0 do
    digits := !digits / 10;
    decr len;
    incr x
  done;
  if lower_closer && !len >= 16 then raise Give_up;
  if bits < 0L then Buffer.add_char buf '-';
  add_layout buf !digits !len (!x + !len - 1)

let add_num buf x =
  if not (Float.is_finite x) then Buffer.add_string buf "null"
  else if Float.is_integer x && Float.abs x < 1e15 then begin
    if Float.sign_bit x then Buffer.add_char buf '-';
    add_int buf (abs (int_of_float x))
  end
  else
    try add_shortest buf x
    with Give_up -> Buffer.add_string buf (print_float_slow x)

let add_string buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let hex_digit n = Char.unsafe_chr (if n < 10 then 48 + n else 87 + n)

(* [0x%016Lx] without the format interpreter: two 32-bit halves as
   native ints, eight nibbles each. *)
let bits_hex b =
  let s = Bytes.create 18 in
  Bytes.unsafe_set s 0 '0';
  Bytes.unsafe_set s 1 'x';
  let hi = Int64.to_int (Int64.shift_right_logical b 32)
  and lo = Int64.to_int b land 0xFFFFFFFF in
  for i = 0 to 7 do
    Bytes.unsafe_set s (2 + i) (hex_digit ((hi lsr (28 - (4 * i))) land 15));
    Bytes.unsafe_set s (10 + i) (hex_digit ((lo lsr (28 - (4 * i))) land 15))
  done;
  s

let add_bits buf b = Buffer.add_bytes buf (bits_hex b)

let rec add_value buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool true -> Buffer.add_string buf "true"
  | Bool false -> Buffer.add_string buf "false"
  | Num x -> add_num buf x
  | Str s -> add_string buf s
  | Arr items ->
    Buffer.add_char buf '[';
    List.iteri
      (fun i v ->
        if i > 0 then Buffer.add_char buf ',';
        add_value buf v)
      items;
    Buffer.add_char buf ']'
  | Obj fields ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char buf ',';
        add_string buf k;
        Buffer.add_char buf ':';
        add_value buf v)
      fields;
    Buffer.add_char buf '}'

let print v =
  let buf = Buffer.create 128 in
  add_value buf v;
  Buffer.contents buf

(* --- accessors --------------------------------------------------------------- *)

let member k = function
  | Obj fields -> List.assoc_opt k fields
  | _ -> None

let get_string = function Str s -> Some s | _ -> None
let get_num = function Num x -> Some x | _ -> None

let get_int = function
  | Num x
    when Float.is_integer x
         && x >= Int.to_float min_int
         && x <= Int.to_float max_int -> Some (int_of_float x)
  | _ -> None

let get_bool = function Bool b -> Some b | _ -> None

let hex_of_bits b = Bytes.unsafe_to_string (bits_hex b)

let bits_of_hex s =
  if String.length s = 18 && s.[0] = '0' && (s.[1] = 'x' || s.[1] = 'X') then
    let ok = ref true in
    for i = 2 to 17 do
      match s.[i] with
      | '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> ()
      | _ -> ok := false
    done;
    if !ok then Int64.of_string_opt s else None
  else None
