(* Order statistics over samples, linear interpolation between ranks
   (the same rule as Python's statistics.quantiles 'inclusive'). *)

let quantile samples p =
  let n = Array.length samples in
  if n = 0 then nan
  else begin
    let a = Array.copy samples in
    Array.sort Float.compare a;
    let h = p *. float_of_int (n - 1) in
    let lo = truncate h in
    let hi = min (n - 1) (lo + 1) in
    a.(lo) +. ((h -. float_of_int lo) *. (a.(hi) -. a.(lo)))
  end

let median samples = quantile samples 0.5

(* Growable float sample buffer. *)
type samples = { mutable data : float array; mutable len : int }

let create () = { data = Array.make 1024 0.0; len = 0 }

let push s x =
  if s.len = Array.length s.data then begin
    let d = Array.make (2 * s.len) 0.0 in
    Array.blit s.data 0 d 0 s.len;
    s.data <- d
  end;
  s.data.(s.len) <- x;
  s.len <- s.len + 1

let to_array s = Array.sub s.data 0 s.len
