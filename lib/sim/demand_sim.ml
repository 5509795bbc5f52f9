let clamp_pfd p = min 1.0 (max 0.0 p)

let failure_probability ~n rng belief =
  Mc.probability ~n rng (fun rng ->
      let pfd = clamp_pfd (Dist.Mixture.sample belief rng) in
      Numerics.Rng.bernoulli rng pfd)

let failures_in_campaign ~n_systems ~demands rng belief =
  if n_systems < 1 then invalid_arg "Demand_sim: n_systems < 1";
  if demands < 0 then invalid_arg "Demand_sim: demands < 0";
  Array.init n_systems (fun _ ->
      let pfd = clamp_pfd (Dist.Mixture.sample belief rng) in
      Numerics.Rng.binomial rng ~n:demands ~p:pfd)

let check_conservative_bound ~n rng claim =
  let belief = Confidence.Conservative.worst_case_belief claim in
  let estimate = failure_probability ~n rng belief in
  (estimate, Confidence.Conservative.failure_bound claim)

(* Per-domain column scratch for the batched kernels below (see the note
   on [Mc.domain_scratch]: always fully written before being read, so
   caching is invisible to results and saves a major-heap allocation per
   chunk).  It is separate from [Mc]'s scratch because the fills below
   run inside [Mc]'s batched loops, whose own scratch is live. *)
let scratch_key =
  Domain.DLS.new_key (fun () -> ref (Numerics.Columns.create ~capacity:0 ()))

let domain_scratch len =
  let r = Domain.DLS.get scratch_key in
  if Numerics.Columns.capacity !r < len then
    r := Numerics.Columns.create ~capacity:len ();
  Numerics.Columns.set_length !r len;
  !r

(* Batched Bernoulli marginalisation: fill a segment with pfd draws, fill a
   scratch segment with uniforms, and resolve each slot to 0/1 in place.
   [u < pfd] with u uniform on [0,1) is an exact Bernoulli(clamp pfd) trial
   (never fires at pfd <= 0, always fires at pfd >= 1) and consumes exactly
   one uniform per sample, keeping the stream a pure function of the chunk
   state. *)
let failure_probability_par ?pool ?chunks ~n ~seed belief =
  Mc.estimate_par_batched ?pool ?chunks ~n ~seed (fun () ->
      fun rng buf ~pos ~len ->
        let u = Numerics.Columns.unsafe_data (domain_scratch len) in
        Dist.Mixture.sample_into belief rng buf ~pos ~len;
        Numerics.Rng.fill_floats rng u ~pos:0 ~len;
        for j = 0 to len - 1 do
          let pfd = clamp_pfd (Bigarray.Array1.unsafe_get buf (pos + j)) in
          Bigarray.Array1.unsafe_set buf (pos + j)
            (if Bigarray.Array1.unsafe_get u j < pfd then 1.0 else 0.0)
        done)

let check_conservative_bound_par ?pool ?chunks ~n ~seed claim =
  let belief = Confidence.Conservative.worst_case_belief claim in
  let estimate = failure_probability_par ?pool ?chunks ~n ~seed belief in
  (estimate, Confidence.Conservative.failure_bound claim)

(* Sketch of the pfd belief itself (not of failure outcomes): stream pfd
   draws through [Mc.sketch_par] so quantiles and band masses of the
   belief can be read in O(compression) memory however many samples are
   drawn.  Clamping to [0,1] mirrors every other consumer of pfd draws. *)
let pfd_sketch_par ?pool ?compression ?chunks ~n ~seed belief =
  Mc.sketch_par ?pool ?compression ?chunks ~n ~seed (fun () ->
      fun rng buf ~pos ~len ->
        Dist.Mixture.sample_into belief rng buf ~pos ~len;
        for j = pos to pos + len - 1 do
          Bigarray.Array1.unsafe_set buf j
            (clamp_pfd (Bigarray.Array1.unsafe_get buf j))
        done)

(* Importance-sampled tail mass of the belief.  The mixture splits into
   exact work (atoms: their mass is either on the event or not) and one
   IS run per continuous component against the tilted proposal of its
   family.  Component runs use disjoint derived seeds, so the whole
   result is a pure function of (seed, chunks, n, y, belief) and the
   per-component determinism contract of [Mc.estimate_is] lifts to the
   combination unchanged. *)
let pfd_tail_is ?pool ?chunks ~n ~seed ~y belief =
  if not (y > 0.0 && y < 1.0) then
    invalid_arg "Demand_sim.pfd_tail_is: y outside (0, 1)";
  let comps = Dist.Mixture.components belief in
  let atom_mass =
    List.fold_left
      (fun acc (w, c) ->
        match c with
        | Dist.Mixture.Atom x -> if clamp_pfd x > y then acc +. w else acc
        | Dist.Mixture.Cont _ -> acc)
      0.0 comps
  in
  let parts =
    List.mapi (fun idx (w, c) -> (idx, w, c)) comps
    |> List.filter_map (fun (idx, w, c) ->
           match c with
           | Dist.Mixture.Atom _ -> None
           | Dist.Mixture.Cont d ->
             let cseed = seed + (7919 * (idx + 1)) in
             let proposal =
               match Proposal.tail ~target:d ~y with
               | Some p -> p
               | None -> d
             in
             Some
               ( w,
                 Mc.probability_is ?pool ?chunks ~n ~seed:cseed ~target:d
                   ~proposal (fun x -> clamp_pfd x > y) ))
  in
  let total_n = n * max 1 (List.length parts) in
  let combine proj =
    let mean =
      List.fold_left
        (fun acc (w, e) -> acc +. (w *. (proj e).Mc.mean))
        atom_mass parts
    in
    let var =
      List.fold_left
        (fun acc (w, e) ->
          let s = w *. (proj e).Mc.std_error in
          acc +. (s *. s))
        0.0 parts
    in
    let se = sqrt var in
    {
      Mc.mean;
      std_error = se;
      ci95_lo = mean -. (1.96 *. se);
      ci95_hi = mean +. (1.96 *. se);
      n = total_n;
    }
  in
  match parts with
  | [] ->
    (* Atoms only: the tail mass is exact. *)
    let exact =
      {
        Mc.mean = atom_mass;
        std_error = 0.0;
        ci95_lo = atom_mass;
        ci95_hi = atom_mass;
        n;
      }
    in
    {
      Mc.plain = exact;
      self_norm = exact;
      ess = float_of_int n;
      max_weight_share = 0.0;
      sum_weights = float_of_int n;
    }
  | _ ->
    {
      Mc.plain = combine (fun e -> e.Mc.plain);
      self_norm = combine (fun e -> e.Mc.self_norm);
      ess =
        List.fold_left
          (fun acc (_, e) -> Float.min acc e.Mc.ess)
          infinity parts;
      max_weight_share =
        List.fold_left
          (fun acc (_, e) -> Float.max acc e.Mc.max_weight_share)
          0.0 parts;
      sum_weights =
        List.fold_left
          (fun acc (w, e) -> acc +. (w *. e.Mc.sum_weights))
          0.0 parts;
    }

let survival_curve ~n_systems ~checkpoints rng belief =
  if n_systems < 1 then invalid_arg "Demand_sim: n_systems < 1";
  let checkpoints = List.sort_uniq compare checkpoints in
  List.iter
    (fun c -> if c < 0 then invalid_arg "Demand_sim: negative checkpoint")
    checkpoints;
  (* For each system, the first failure happens at a geometric demand
     index; a system survives checkpoint c iff that index exceeds c. *)
  let first_failures =
    Array.init n_systems (fun _ ->
        let pfd = clamp_pfd (Dist.Mixture.sample belief rng) in
        if pfd <= 0.0 then max_int
        else if pfd >= 1.0 then 1
        else 1 + Numerics.Rng.geometric rng ~p:pfd)
  in
  List.map
    (fun c ->
      let survived =
        Array.fold_left
          (fun acc first -> if first > c then acc + 1 else acc)
          0 first_failures
      in
      (c, float_of_int survived /. float_of_int n_systems))
    checkpoints

let survival_curve_par ?pool ?chunks ~n_systems ~seed ~checkpoints belief =
  if n_systems < 1 then invalid_arg "Demand_sim: n_systems < 1";
  let chunks =
    match chunks with
    | Some c ->
      if c < 1 then invalid_arg "Demand_sim: chunks < 1";
      c
    | None -> Numerics.Parallel.default_chunks ?pool ()
  in
  let checkpoints = List.sort_uniq compare checkpoints in
  List.iter
    (fun c -> if c < 0 then invalid_arg "Demand_sim: negative checkpoint")
    checkpoints;
  let cps = Array.of_list checkpoints in
  let n_cps = Array.length cps in
  let sizes = Numerics.Parallel.chunk_sizes ~n:n_systems ~chunks in
  let streams = Numerics.Rng.split_n (Numerics.Rng.create seed) chunks in
  let body i =
    let size = sizes.(i) in
    let survived = Array.make n_cps 0 in
    if size > 0 then begin
      (* Chunk state is copied and scratch allocated inside the executing
         domain; pfds and first-failure uniforms are drawn a segment at a
         time.  The first failure is geometric by inverse transform:
         1 + floor(log u / log(1 - pfd)) with u in (0,1) — a different
         (batched) stream than the scalar path's [Rng.geometric], but a
         pure function of the chunk state, which is what the domain-count
         determinism contract requires. *)
      let rng = Numerics.Rng.copy streams.(i) in
      let seg = min size Mc.batch_size in
      (* Two disjoint halves of one scratch column: pfd draws in the first,
         first-failure uniforms in the second. *)
      let scratch = Numerics.Columns.unsafe_data (domain_scratch (2 * seg)) in
      let remaining = ref size in
      while !remaining > 0 do
        let len = min !remaining seg in
        Dist.Mixture.sample_into belief rng scratch ~pos:0 ~len;
        Numerics.Rng.fill_floats_pos rng scratch ~pos:seg ~len;
        for k = 0 to len - 1 do
          let pfd = clamp_pfd (Bigarray.Array1.unsafe_get scratch k) in
          let first =
            if pfd <= 0.0 then max_int
            else if pfd >= 1.0 then 1
            else begin
              let u = Bigarray.Array1.unsafe_get scratch (seg + k) in
              let g = log u /. Numerics.Special.log1p (-.pfd) in
              if g >= 4.0e18 then max_int else 1 + int_of_float g
            end
          in
          for j = 0 to n_cps - 1 do
            if first > Array.unsafe_get cps j then
              Array.unsafe_set survived j (Array.unsafe_get survived j + 1)
          done
        done;
        remaining := !remaining - len
      done
    end;
    survived
  in
  (* Survivor counts are integers, so the merge is exact as well as
     order-fixed: the curve is bit-identical at any domain count. *)
  let totals =
    Numerics.Parallel.parallel_for_reduce ?pool ~chunks
      ~init:(Array.make n_cps 0) ~body
      ~merge:(fun acc counts -> Array.map2 ( + ) acc counts)
  in
  Array.to_list
    (Array.mapi
       (fun j c -> (c, float_of_int totals.(j) /. float_of_int n_systems))
       cps)
