open Helpers
module Pop = Elicit.Population
module D = Elicit.Delphi

let bits = Int64.bits_of_float

let run ?(n = 20_000) ?(chunks = 8) ?(num_domains = 2) () =
  Numerics.Parallel.with_pool ~num_domains (fun pool ->
      Pop.run ~pool ~chunks D.default_config ~n)

let result = lazy (run ())

let test_structure () =
  let r = Lazy.force result in
  Alcotest.(check int) "four phases" 4 (List.length r.Pop.phases);
  List.iter2
    (fun (s : Pop.phase_stats) phase -> check_true "phase order" (s.phase = phase))
    r.Pop.phases D.phases;
  (* Doubter head-count scales with the configured proportion (3/12). *)
  Alcotest.(check int) "doubter proportion" (20_000 * 3 / 12) r.Pop.n_doubters;
  Alcotest.(check int) "believers are the rest" 20_000
    (r.Pop.n_doubters + r.Pop.n_believers)

let test_convergence () =
  let r = Lazy.force result in
  let first = List.hd r.Pop.phases in
  let last = List.nth r.Pop.phases 3 in
  check_true "pool confidence grows over phases"
    (last.Pop.confidence_sil2 > first.Pop.confidence_sil2);
  check_true "pooled mean falls"
    (last.Pop.pooled_mean < first.Pop.pooled_mean);
  check_in_range "final confidence is a probability" ~lo:0.0 ~hi:1.0
    last.Pop.confidence_sil2;
  (* The population reproduces the 12-expert panel's qualitative end
     state: high SIL2 confidence. *)
  check_true "high final SIL2 confidence" (last.Pop.confidence_sil2 > 0.8)

let test_bands_ordered () =
  let r = Lazy.force result in
  List.iter
    (fun (s : Pop.phase_stats) ->
      let b = s.Pop.sil2_bands in
      check_true "q05 <= q25" (b.Pop.q05 <= b.Pop.q25);
      check_true "q25 <= q50" (b.Pop.q25 <= b.Pop.q50);
      check_true "q50 <= q75" (b.Pop.q50 <= b.Pop.q75);
      check_true "q75 <= q95" (b.Pop.q75 <= b.Pop.q95);
      check_in_range "band inside [0,1]" ~lo:0.0 ~hi:1.0 b.Pop.q05;
      check_in_range "band inside [0,1]" ~lo:0.0 ~hi:1.0 b.Pop.q95)
    r.Pop.phases

let test_domain_count_invariance () =
  (* Same (seed, n, chunks) at 1, 2 and 4 domains: every reported float
     must be bit-identical — the determinism contract. *)
  let reference = run ~num_domains:1 () in
  List.iter
    (fun num_domains ->
      let r = run ~num_domains () in
      List.iter2
        (fun (a : Pop.phase_stats) (b : Pop.phase_stats) ->
          let same what x y =
            if not (Int64.equal (bits x) (bits y)) then
              Alcotest.failf "%s differs at %d domains: %.17g vs %.17g" what
                num_domains x y
          in
          same "pooled_mean" a.Pop.pooled_mean b.Pop.pooled_mean;
          same "confidence_sil2" a.Pop.confidence_sil2 b.Pop.confidence_sil2;
          same "confidence_sil1" a.Pop.confidence_sil1 b.Pop.confidence_sil1;
          same "q05" a.Pop.sil2_bands.Pop.q05 b.Pop.sil2_bands.Pop.q05;
          same "q50" a.Pop.sil2_bands.Pop.q50 b.Pop.sil2_bands.Pop.q50;
          same "q95" a.Pop.sil2_bands.Pop.q95 b.Pop.sil2_bands.Pop.q95)
        reference.Pop.phases r.Pop.phases)
    [ 2; 4 ]

let test_seed_sensitivity () =
  let a = Lazy.force result in
  let b =
    Numerics.Parallel.with_pool ~num_domains:2 (fun pool ->
        Pop.run ~pool ~chunks:8 { D.default_config with seed = 99 } ~n:20_000)
  in
  let fa = (List.nth a.Pop.phases 3).Pop.pooled_mean in
  let fb = (List.nth b.Pop.phases 3).Pop.pooled_mean in
  check_true "different seed differs" (abs_float (fa -. fb) > 0.0)

let test_validation () =
  check_raises_invalid "n < 2" (fun () ->
      ignore (Pop.run D.default_config ~n:1));
  check_raises_invalid "bad config delegates to Delphi" (fun () ->
      ignore (Pop.run { D.default_config with info_gain = 1.5 } ~n:100));
  check_raises_invalid "bad chunks" (fun () ->
      ignore (Pop.run ~chunks:0 D.default_config ~n:100));
  check_raises_invalid "bad compression" (fun () ->
      ignore (Pop.run ~compression:1.0 D.default_config ~n:100))

let test_summary_table () =
  let t = Pop.summary_table (Lazy.force result) in
  check_true "non-empty" (String.length t > 100)

(* Golden bits: every reported float of [run ~n:20_000 ~chunks:8] on the
   default panel, one row per phase (pooled mean, SIL 2 and SIL 1
   confidence, then q05 q25 q50 q75 q95), as IEEE-754 hex.  A change
   that moves any of them must edit this table and say why. *)
let golden =
  [ [ 0x3f8c661289596cf0L; 0x3fe52370c24d1f04L; 0x3fef869f105dedd7L; 0x3fcfea1ba77fb313L;
      0x3fde6e0d6c7fc942L; 0x3fe5ba29329ed2d6L; 0x3febe84cded4d32fL; 0x3fefa66db575ab64L ];
    [ 0x3f7c7ae99e6e6bd8L; 0x3febc6526b1035dbL; 0x3fefe5490d6110d8L; 0x3fde185e40987df4L;
      0x3fe9e8d83e9dcc0eL; 0x3fee528ff4344dd7L; 0x3fefbd371f3cbd0eL; 0x3feffe16d8f5b22aL ];
    [ 0x3f74e6c2667b2caeL; 0x3fee0f2223d5878fL; 0x3feff1d6f511a368L; 0x3fe3142a1b5262faL;
      0x3fef0cfef7af3509L; 0x3feff9880562c61bL; 0x3fefffed3c0e4d8fL; 0x3feffffffc21fb34L ];
    [ 0x3f71c9334ae70ff9L; 0x3feec548ea5b3711L; 0x3feff6773743caddL; 0x3fe64c4eef894205L;
      0x3feff8e979f2401eL; 0x3fefffffed9ef72aL; 0x3feffffffffff3abL; 0x3ff0000000000000L ] ]

let phase_bits (s : Pop.phase_stats) =
  let b = s.Pop.sil2_bands in
  List.map bits
    [ s.Pop.pooled_mean; s.Pop.confidence_sil2; s.Pop.confidence_sil1;
      b.Pop.q05; b.Pop.q25; b.Pop.q50; b.Pop.q75; b.Pop.q95 ]

let test_golden_bits () =
  List.iter
    (fun num_domains ->
      let r = run ~num_domains () in
      List.iteri
        (fun i (s, expected) ->
          List.iteri
            (fun j (got, want) ->
              if not (Int64.equal got want) then
                Alcotest.failf
                  "phase %d field %d at %d domains: 0x%016Lx, pinned 0x%016Lx"
                  (i + 1) j num_domains got want)
            (List.combine (phase_bits s) expected))
        (List.combine r.Pop.phases golden))
    [ 1; 2 ]

(* The phase kernels keep their sums in unboxed locals and sort the
   digest buffer in place, so what is left per assessor is mostly the
   boxed floats passed along the [norm_cdf] call chain (about 68 words
   over the four phases). *)
let test_allocation_budget () =
  let n = 100_000 in
  Numerics.Parallel.with_pool ~num_domains:1 (fun pool ->
      let before = Gc.minor_words () in
      ignore (Pop.run ~pool D.default_config ~n);
      let words = (Gc.minor_words () -. before) /. float_of_int n in
      if words > 100.0 then
        Alcotest.failf "Population.run allocates %.1f words per assessor \
                        (budget 100)" words)

let suite =
  [ case "protocol structure at scale" test_structure;
    case "population converges like the panel" test_convergence;
    case "quantile bands ordered" test_bands_ordered;
    case "bit-identical at 1/2/4 domains" test_domain_count_invariance;
    case "seed sensitivity" test_seed_sensitivity;
    case "validation" test_validation;
    case "summary table" test_summary_table;
    case "golden bits at 1 and 2 domains" test_golden_bits;
    case "run allocates at most 100 words per assessor" test_allocation_budget ]
