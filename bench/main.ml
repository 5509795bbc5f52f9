(* Bench harness: regenerates every table and figure of the paper (the
   reproduction output recorded in EXPERIMENTS.md), then times each
   generator with Bechamel.

   Usage:
     main.exe                 reproduction output + timings
     main.exe --no-perf       reproduction output only
     main.exe --json <path>   timings + MC-kernel speedup + VR rows as JSON
     main.exe --vr-smoke      fast variance-reduction rows only (CI smoke)
     main.exe --audit-smoke   semantic-audit soundness gate (CI smoke)
     main.exe --serve-smoke   serve-daemon bitwise-identity gate (CI smoke)
     main.exe <id>            one experiment (see the registry for ids) *)

let print_experiment (id, anchor, f) =
  Printf.printf "################ [%s] %s ################\n\n%s\n" id anchor
    (f ())

let run_reproductions () =
  print_endline
    "Reproduction of: Bloomfield, Littlewood, Wright — \"Confidence: its \
     role in\ndependability cases for risk assessment\", DSN 2007.\n";
  List.iter print_experiment Repro.Experiments.all;
  print_endline
    "################ Ablations (library design choices) ################\n";
  List.iter print_experiment Repro.Ablations.all

(* ------------------------------------------------------------------ *)
(* Timing                                                             *)

type row = { name : string; nanos : float; samples : int }

(* A single OLS estimate under a fixed time quota.  Slow experiments
   (hundreds of ms per run) can exhaust a small quota after one run. *)
let ols_once ~name ~quota thunk =
  let open Bechamel in
  let cfg = Benchmark.cfg ~limit:50 ~quota:(Time.second quota) () in
  let instance = Toolkit.Instance.monotonic_clock in
  let analysis =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let test =
    Test.make ~name (Staged.stage (fun () -> ignore (Sys.opaque_identity (thunk ()))))
  in
  match Test.elements test with
  | [ elt ] ->
    let result = Benchmark.run cfg [ instance ] elt in
    let ols = Analyze.one analysis instance result in
    let nanos =
      match Analyze.OLS.estimates ols with
      | Some [ est ] -> est
      | Some _ | None -> nan
    in
    { name; nanos; samples = result.Benchmark.stats.samples }
  | _ -> { name; nanos = nan; samples = 0 }

(* Every row must rest on at least [min_samples] measurements or the
   number is noise (BENCH_2 recorded single-sample rows for the slow
   experiments).  Start cheap and, when a run comes back under-sampled,
   retry with a quota sized from the measured per-run cost. *)
let min_samples = 3

let ols_nanos ~name thunk =
  let rec go ~quota attempt =
    let r = ols_once ~name ~quota thunk in
    if r.samples >= min_samples || attempt >= 3 then r
    else
      let from_estimate =
        if Float.is_finite r.nanos && r.nanos > 0.0 then
          r.nanos *. float_of_int (min_samples + 1) /. 1e9
        else 0.0
      in
      go ~quota:(Float.max (quota *. 4.0) from_estimate) (attempt + 1)
  in
  go ~quota:0.25 0

let time_string nanos =
  if nanos >= 1e9 then Printf.sprintf "%.3f s" (nanos /. 1e9)
  else if nanos >= 1e6 then Printf.sprintf "%.3f ms" (nanos /. 1e6)
  else Printf.sprintf "%.3f us" (nanos /. 1e3)

let print_rows rows =
  Printf.printf "%-28s %16s %8s\n" "experiment" "time/run" "samples";
  print_endline (String.make 54 '-');
  List.iter
    (fun r ->
      Printf.printf "%-28s %16s %8d\n" r.name (time_string r.nanos) r.samples)
    rows

let time_experiments () =
  List.map
    (fun (id, _, f) -> ols_nanos ~name:id (fun () -> f ()))
    Repro.Experiments.all

let run_perf () =
  print_endline "################ Bechamel timings ################\n";
  print_rows (time_experiments ())

(* ------------------------------------------------------------------ *)
(* MC kernel speedups: the n = 300,000 conservative-bound check, the
   100,000-system survival curve, and the n = 300,000 pfd quantile
   sketch, sequential vs the domain pool at 1, 2 and 4 domains.  The
   parallel results must be bit-identical across domain counts (fixed
   seed and chunk count). *)

type kernel_row = {
  kernel : string;
  variant : string;
  domains : int;  (** requested *)
  pool_domains : int;  (** what [Domain.spawn] actually delivered *)
  r : row;
}

let domain_counts = [ 1; 2; 4 ]

let conservative_kernel () =
  let n = 300_000 and chunks = 64 and seed = Repro.Paper.seed in
  let claim = Confidence.Claim.make ~bound:1e-4 ~confidence:0.9991 in
  let belief = Confidence.Conservative.worst_case_belief claim in
  let seq =
    ols_nanos ~name:"conservative_mc/seq" (fun () ->
        let rng = Numerics.Rng.create seed in
        Sim.Demand_sim.failure_probability ~n rng belief)
  in
  let par d =
    Numerics.Parallel.with_pool ~num_domains:d (fun pool ->
        let r =
          ols_nanos ~name:(Printf.sprintf "conservative_mc/par%d" d) (fun () ->
              Sim.Demand_sim.failure_probability_par ~pool ~n ~chunks ~seed
                belief)
        in
        let estimate =
          Sim.Demand_sim.failure_probability_par ~pool ~n ~chunks ~seed belief
        in
        (r, estimate, Numerics.Parallel.num_domains pool))
  in
  let runs = List.map (fun d -> (d, par d)) domain_counts in
  let estimates = List.map (fun (_, (_, e, _)) -> e) runs in
  let identical =
    match estimates with
    | first :: rest ->
      List.for_all
        (fun (e : Sim.Mc.estimate) ->
          e.mean = first.Sim.Mc.mean
          && e.std_error = first.Sim.Mc.std_error
          && e.ci95_lo = first.Sim.Mc.ci95_lo
          && e.ci95_hi = first.Sim.Mc.ci95_hi
          && e.n = first.Sim.Mc.n)
        rest
    | [] -> true
  in
  let rows =
    {
      kernel = "conservative_mc";
      variant = "sequential";
      domains = 1;
      pool_domains = 1;
      r = seq;
    }
    :: List.map
         (fun (d, (r, _, pool_domains)) ->
           {
             kernel = "conservative_mc";
             variant = "parallel";
             domains = d;
             pool_domains;
             r;
           })
         runs
  in
  (rows, identical)

let survival_kernel () =
  let n_systems = 100_000 and chunks = 64 and seed = Repro.Paper.seed + 41 in
  let checkpoints = [ 0; 10; 100; 1000; 10000 ] in
  let prior =
    Dist.Mixture.of_dist
      (Dist.Lognormal.of_mode_mean ~mode:Repro.Paper.mode ~mean:1e-2)
  in
  let seq =
    ols_nanos ~name:"survival_mc/seq" (fun () ->
        let rng = Numerics.Rng.create seed in
        Sim.Demand_sim.survival_curve ~n_systems ~checkpoints rng prior)
  in
  let par d =
    Numerics.Parallel.with_pool ~num_domains:d (fun pool ->
        let r =
          ols_nanos ~name:(Printf.sprintf "survival_mc/par%d" d) (fun () ->
              Sim.Demand_sim.survival_curve_par ~pool ~n_systems ~chunks ~seed
                ~checkpoints prior)
        in
        let curve =
          Sim.Demand_sim.survival_curve_par ~pool ~n_systems ~chunks ~seed
            ~checkpoints prior
        in
        (r, curve, Numerics.Parallel.num_domains pool))
  in
  let runs = List.map (fun d -> (d, par d)) domain_counts in
  let identical =
    match List.map (fun (_, (_, c, _)) -> c) runs with
    | first :: rest -> List.for_all (fun c -> c = first) rest
    | [] -> true
  in
  let rows =
    {
      kernel = "survival_mc";
      variant = "sequential";
      domains = 1;
      pool_domains = 1;
      r = seq;
    }
    :: List.map
         (fun (d, (r, _, pool_domains)) ->
           {
             kernel = "survival_mc";
             variant = "parallel";
             domains = d;
             pool_domains;
             r;
           })
         runs
  in
  (rows, identical)

(* The streaming-sketch kernel: summarise 300,000 pfd draws into a
   t-digest without retaining the samples.  The sequential baseline is
   the same batched sample-and-add loop without the pool or the chunked
   RNG streams; the parallel rows must agree bitwise on the merged
   sketch's quantiles and count at every domain count. *)
let sketch_kernel () =
  let n = 300_000 and chunks = 64 and seed = Repro.Paper.seed + 43 in
  let prior =
    Dist.Mixture.of_dist
      (Dist.Lognormal.of_mode_mean ~mode:Repro.Paper.mode ~mean:1e-2)
  in
  let ps = [| 0.05; 0.5; 0.95 |] in
  let fingerprint sk =
    ( Numerics.Sketch.count sk,
      Array.map
        (fun p -> Int64.bits_of_float (Numerics.Sketch.quantile sk p))
        ps )
  in
  let seq =
    let batch = 4096 in
    let col = Numerics.Columns.make batch 0.0 in
    let buf = Numerics.Columns.unsafe_data col in
    ols_nanos ~name:"sketch_mc/seq" (fun () ->
        let rng = Numerics.Rng.create seed in
        let sk = Numerics.Sketch.create () in
        let rem = ref n in
        while !rem > 0 do
          let len = min !rem batch in
          Dist.Mixture.sample_into prior rng buf ~pos:0 ~len;
          Numerics.Sketch.add_column sk col ~pos:0 ~len;
          rem := !rem - len
        done;
        Numerics.Sketch.quantile sk 0.5)
  in
  let par d =
    Numerics.Parallel.with_pool ~num_domains:d (fun pool ->
        let r =
          ols_nanos ~name:(Printf.sprintf "sketch_mc/par%d" d) (fun () ->
              Sim.Demand_sim.pfd_sketch_par ~pool ~n ~chunks ~seed prior)
        in
        let sk = Sim.Demand_sim.pfd_sketch_par ~pool ~n ~chunks ~seed prior in
        (r, fingerprint sk, Numerics.Parallel.num_domains pool))
  in
  let runs = List.map (fun d -> (d, par d)) domain_counts in
  let identical =
    match List.map (fun (_, (_, fp, _)) -> fp) runs with
    | first :: rest -> List.for_all (fun fp -> fp = first) rest
    | [] -> true
  in
  let rows =
    {
      kernel = "sketch_mc";
      variant = "sequential";
      domains = 1;
      pool_domains = 1;
      r = seq;
    }
    :: List.map
         (fun (d, (r, _, pool_domains)) ->
           {
             kernel = "sketch_mc";
             variant = "parallel";
             domains = d;
             pool_domains;
             r;
           })
         runs
  in
  (rows, identical)

(* ------------------------------------------------------------------ *)
(* Variance-reduction rows: statistical efficiency of importance
   sampling and QMC against the plain parallel MC baseline at an equal
   sample budget.  Efficiency is work-normalised — variance x time per
   run, so a method only scores by reducing variance faster than it
   inflates cost.  The IS row targets the tail mass P(pfd > 1e-3) of a
   lognormal belief (mode 1e-5, sigma 1.2); the QMC row estimates the
   same belief's mean through the quantile transform. *)

type vr_row = {
  vr_name : string;  (** which estimand *)
  vr_method : string;  (** [plain] / [is] / [qmc] *)
  vr_mean : float;
  vr_se : float;
  vr_n : int;
  vr_r : row;
  vr_efficiency : float;
      (** (var x time) of plain over (var x time) of this row; 1 for the
          baseline rows. *)
}

let vr_rows ?(n = 65536) () =
  let chunks = 64 and seed = Repro.Paper.seed + 91 in
  let sigma = 1.2 in
  let target = Dist.Lognormal.make ~mu:(log 1e-5 +. (sigma *. sigma)) ~sigma in
  let y = 1e-3 in
  Numerics.Parallel.with_pool ~num_domains:4 (fun pool ->
      let efficiency (base_r : row) (base_e : Sim.Mc.estimate) (r : row)
          (e : Sim.Mc.estimate) =
        let v0 = base_e.Sim.Mc.std_error *. base_e.Sim.Mc.std_error
        and v1 = e.Sim.Mc.std_error *. e.Sim.Mc.std_error in
        if v1 > 0.0 && r.nanos > 0.0 then
          v0 *. base_r.nanos /. (v1 *. r.nanos)
        else nan
      in
      (* Tail probability: plain Bernoulli counting vs tilted-proposal IS. *)
      let tail_plain () =
        Sim.Mc.probability_par ~pool ~chunks ~n ~seed (fun rng ->
            target.Dist.sample rng > y)
      in
      let proposal =
        match Sim.Proposal.tail ~target ~y with
        | Some p -> p
        | None -> target
      in
      let tail_is () =
        (Sim.Mc.probability_is ~pool ~chunks ~n ~seed:(seed + 1) ~target
           ~proposal (fun x -> x > y))
          .Sim.Mc.plain
      in
      let r_plain = ols_nanos ~name:"vr_tail/plain" tail_plain in
      let e_plain = tail_plain () in
      let r_is = ols_nanos ~name:"vr_tail/is" tail_is in
      let e_is = tail_is () in
      (* Mean estimation: plain sampling vs randomised QMC through the
         quantile transform (16 scrambled replicates). *)
      let mean_plain () =
        Sim.Mc.estimate_par ~pool ~chunks ~n ~seed:(seed + 2) (fun rng ->
            target.Dist.sample rng)
      in
      let replicates = 16 in
      let mean_qmc () =
        Sim.Mc.estimate_qmc ~pool ~replicates ~dim:1 ~n:(n / replicates)
          ~seed:(seed + 3) (fun p ->
            let u = Stdlib.Float.Array.get p 0 in
            let u = Float.min (1.0 -. 1e-12) (Float.max 1e-12 u) in
            target.Dist.quantile u)
      in
      let r_mplain = ols_nanos ~name:"vr_mean/plain" mean_plain in
      let e_mplain = mean_plain () in
      let r_qmc = ols_nanos ~name:"vr_mean/qmc" mean_qmc in
      let e_qmc = mean_qmc () in
      let mk name meth (r : row) (e : Sim.Mc.estimate) eff =
        {
          vr_name = name;
          vr_method = meth;
          vr_mean = e.Sim.Mc.mean;
          vr_se = e.Sim.Mc.std_error;
          vr_n = e.Sim.Mc.n;
          vr_r = r;
          vr_efficiency = eff;
        }
      in
      [ mk "tail_p_gt_1e-3" "plain" r_plain e_plain 1.0;
        mk "tail_p_gt_1e-3" "is" r_is e_is (efficiency r_plain e_plain r_is e_is);
        mk "lognormal_mean" "plain" r_mplain e_mplain 1.0;
        mk "lognormal_mean" "qmc" r_qmc e_qmc
          (efficiency r_mplain e_mplain r_qmc e_qmc) ])

let print_vr_rows rows =
  Printf.printf "%-18s %-6s %12s %10s %12s %12s\n" "estimand" "method" "mean"
    "se" "time/run" "efficiency";
  print_endline (String.make 76 '-');
  List.iter
    (fun v ->
      Printf.printf "%-18s %-6s %12.4e %10.2e %12s %12.2f\n" v.vr_name
        v.vr_method v.vr_mean v.vr_se (time_string v.vr_r.nanos)
        v.vr_efficiency)
    rows;
  let se_of m name =
    List.find_opt (fun v -> v.vr_method = m && v.vr_name = name) rows
    |> Option.map (fun v -> v.vr_se)
  in
  (match (se_of "plain" "lognormal_mean", se_of "qmc" "lognormal_mean") with
  | Some a, Some b when b > 0.0 ->
    Printf.printf "qmc rmse improvement on the mean row: %.1fx\n" (a /. b)
  | _ -> ());
  match List.find_opt (fun v -> v.vr_method = "is") rows with
  | Some v ->
    Printf.printf
      "is statistical efficiency vs plain MC (variance x time): %.1fx\n"
      v.vr_efficiency
  | None -> ()

(* ------------------------------------------------------------------ *)
(* Micro regressions: the primitives the MC speedups rest on.  The
   quantile pair records the sort-vs-select gap ([Summary.quantile]
   copies and fully sorts; [Summary.quantile_unsorted] runs Floyd–Rivest
   selection on the copy); the sketch rows guard the streaming add path
   and the chunk-order merge (now over SoA centroid columns); the RNG
   pair records the scalar-vs-batched draw gap; the SoA-vs-boxed pairs
   record what the columnar migration bought on the empirical-quantile
   and mixture-sampling hot paths; the snapshot trio times the on-disk
   column round-trip (copying and mmapped loads). *)

let micro_n = 1_000_000

let micro_rows () =
  let xs =
    let rng = Numerics.Rng.create 7 in
    Array.init micro_n (fun _ -> Numerics.Rng.float rng)
  in
  let quantile_sort =
    ols_nanos ~name:"quantile_sort_1e6" (fun () ->
        Numerics.Summary.quantile xs 0.99)
  in
  let quantile_select =
    ols_nanos ~name:"quantile_select_1e6" (fun () ->
        Numerics.Summary.quantile_unsorted xs 0.99)
  in
  (* The before/after of the Empirical migration: first-quantile cost on
     a fresh pool.  Boxed = copy the boxed array and fully sort (what the
     old array-backed Empirical did on its first order-statistic query);
     SoA = copy into an unboxed column and Floyd–Rivest in place. *)
  let empirical_quantile_boxed =
    ols_nanos ~name:"empirical_quantile_boxed_1e6" (fun () ->
        let copy = Array.copy xs in
        Array.sort Float.compare copy;
        copy.(int_of_float (0.99 *. float_of_int (micro_n - 1))))
  in
  let empirical_quantile_soa =
    ols_nanos ~name:"empirical_quantile_soa_1e6" (fun () ->
        let emp =
          Dist.Empirical.of_column ~share:true (Numerics.Columns.of_array xs)
        in
        Dist.Empirical.quantile emp 0.99)
  in
  (* An 8-component mixture: the cumulative-weight binary-search path
     (neither the atoms-only nor the 1/2-component fast paths apply).
     Scalar = one [sample] call per slot, the pre-columnar fallback for
     k >= 3; SoA = [sample_into] batching selection through the cum
     column. *)
  let mixture8 =
    Dist.Mixture.make
      [ (0.125, Dist.Mixture.Atom 0.0);
        (0.125, Dist.Mixture.Atom 1e-3);
        (0.125, Dist.Mixture.Cont (Dist.Lognormal.make ~mu:(-9.0) ~sigma:0.8));
        (0.125, Dist.Mixture.Cont (Dist.Lognormal.make ~mu:(-8.0) ~sigma:0.9));
        (0.125, Dist.Mixture.Cont (Dist.Lognormal.make ~mu:(-7.0) ~sigma:1.0));
        (0.125, Dist.Mixture.Cont (Dist.Lognormal.make ~mu:(-6.0) ~sigma:1.1));
        (0.125, Dist.Mixture.Cont (Dist.Lognormal.make ~mu:(-5.0) ~sigma:1.2));
        (0.125, Dist.Mixture.Cont (Dist.Lognormal.make ~mu:(-4.0) ~sigma:1.3)) ]
  in
  let mix_n = 262_144 in
  let mixture_scalar =
    let col = Numerics.Columns.make mix_n 0.0 in
    ols_nanos ~name:"mixture_sample8_scalar_262k" (fun () ->
        let rng = Numerics.Rng.create 11 in
        for i = 0 to mix_n - 1 do
          Numerics.Columns.set col i (Dist.Mixture.sample mixture8 rng)
        done)
  in
  let mixture_soa =
    let col = Numerics.Columns.make mix_n 0.0 in
    let buf = Numerics.Columns.unsafe_data col in
    ols_nanos ~name:"mixture_sample8_soa_262k" (fun () ->
        let rng = Numerics.Rng.create 11 in
        Dist.Mixture.sample_into mixture8 rng buf ~pos:0 ~len:mix_n)
  in
  let sketch_add =
    let col = Numerics.Columns.of_array xs in
    ols_nanos ~name:"sketch_add_soa_1e6" (fun () ->
        let sk = Numerics.Sketch.create () in
        Numerics.Sketch.add_column sk col ~pos:0 ~len:micro_n;
        Numerics.Sketch.quantile sk 0.99)
  in
  (* 64 pre-built 16k-value sketches folded in chunk order: the shape of
     the parallel reduction.  [merge] allocates a fresh sketch per step;
     [merge_into] recycles one accumulator's columns (the fold the
     parallel layer now runs). *)
  let sketch_parts () =
    Array.init 64 (fun i ->
        let rng = Numerics.Rng.create (1000 + i) in
        let sk = Numerics.Sketch.create () in
        for _ = 1 to 16_000 do
          Numerics.Sketch.add sk (Numerics.Rng.float rng)
        done;
        sk)
  in
  let sketch_merge =
    let parts = sketch_parts () in
    ols_nanos ~name:"sketch_merge_soa_64x16k" (fun () ->
        Array.fold_left Numerics.Sketch.merge
          (Numerics.Sketch.create ())
          parts)
  in
  let sketch_merge_into =
    let parts = sketch_parts () in
    ols_nanos ~name:"sketch_merge_into_64x16k" (fun () ->
        let acc = Numerics.Sketch.create () in
        Array.iter (fun sk -> Numerics.Sketch.merge_into ~into:acc sk) parts;
        acc)
  in
  (* Snapshot round-trip on a 1e6-element column: atomic save, copying
     load, and private-mmap load. *)
  let snap_path = Filename.temp_file "confcase_bench" ".snap" in
  let snap_col = Numerics.Columns.of_array xs in
  let columns_save =
    ols_nanos ~name:"snapshot_save_1e6" (fun () ->
        Numerics.Columns.save snap_path [ ("samples", snap_col) ])
  in
  let columns_load =
    ols_nanos ~name:"snapshot_load_1e6" (fun () ->
        Numerics.Columns.load ~mmap:false snap_path)
  in
  let columns_load_mmap =
    ols_nanos ~name:"snapshot_load_mmap_1e6" (fun () ->
        Numerics.Columns.load ~mmap:true snap_path)
  in
  (try Sys.remove snap_path with Sys_error _ -> ());
  let rng_scalar =
    ols_nanos ~name:"rng_float_scalar_1e6" (fun () ->
        let rng = Numerics.Rng.create 7 in
        let acc = ref 0.0 in
        for _ = 1 to micro_n do
          acc := !acc +. Numerics.Rng.float rng
        done;
        !acc)
  in
  let rng_fill =
    let buf = Numerics.Columns.unsafe_data (Numerics.Columns.make micro_n 0.0) in
    ols_nanos ~name:"rng_fill_floats_1e6" (fun () ->
        let rng = Numerics.Rng.create 7 in
        Numerics.Rng.fill_floats rng buf ~pos:0 ~len:micro_n)
  in
  [ quantile_sort; quantile_select; empirical_quantile_boxed;
    empirical_quantile_soa; mixture_scalar; mixture_soa; sketch_add;
    sketch_merge; sketch_merge_into; columns_save; columns_load;
    columns_load_mmap; rng_scalar; rng_fill ]

let speedups rows =
  let nanos_of kernel variant domains =
    List.find_opt
      (fun k -> k.kernel = kernel && k.variant = variant && k.domains = domains)
      rows
    |> Option.map (fun k -> k.r.nanos)
  in
  List.filter_map
    (fun k ->
      if k.variant <> "parallel" || k.domains = 1 then None
      else
        let vs_one =
          match nanos_of k.kernel "parallel" 1 with
          | Some base when Float.is_finite base && k.r.nanos > 0.0 ->
            base /. k.r.nanos
          | _ -> nan
        in
        let vs_seq =
          match nanos_of k.kernel "sequential" 1 with
          | Some base when Float.is_finite base && k.r.nanos > 0.0 ->
            base /. k.r.nanos
          | _ -> nan
        in
        Some (k.kernel, k.domains, vs_one, vs_seq))
    rows

(* ------------------------------------------------------------------ *)
(* Case-graph rows: the flat CSR propagation engine at the ROADMAP's
   10^6-node scale.  The headline configuration (legs 9, fanout 10,
   depth 5, no sharing) is exactly one million nodes; leaf confidences
   are drawn from a band tight under 1.0 so the ~111k-leaf AND products
   stay far from underflow — a product that collapsed to 0.0 would let
   the incremental engine's bitwise early cut-off skip all real work and
   fake the speedup.  A second propagation row runs the shared-evidence
   DAG configuration, where the C009 overlap actually floors the
   correlation.  Parallel propagation must be bit-identical to the
   sequential kernel at 1, 2 and 4 domains, and the root after the edit
   storm must match a full re-propagation bitwise. *)

type graph_summary = {
  g_build : row;
  g_prop : row;
  g_prop_dag : row;
  g_edit : row;
  g_lint : row;
  g_audit : row;
  g_nodes : int;
  g_edges : int;
  g_dag_nodes : int;
  g_dag_overlap : float;
  g_deterministic : bool;
  g_audit_sound : bool;
}

(* Soundness of the audit's interval pass against the propagation engine:
   under every dependence model the propagated root must lie inside the
   static [lo, hi] interval, and with point leaf bounds (base, base) the
   interval sweep must reproduce the propagated value bitwise at every
   node — it runs the same float operations in the same order. *)
let audit_sound g =
  let module G = Casekit.Graph in
  List.for_all
    (fun dep ->
      let root_value = G.propagate dep g in
      let lo, hi = G.propagate_bounds dep g in
      let root = G.root g in
      let within =
        Numerics.Columns.get lo root <= root_value
        && root_value <= Numerics.Columns.get hi root
      in
      let point =
        G.propagate_bounds
          ~leaf_bounds:(fun i -> (G.base_confidence g i, G.base_confidence g i))
          dep g
      in
      let point_identical = ref true in
      let plo, phi = point in
      let vals = G.values g in
      for i = 0 to G.size g - 1 do
        let v = Int64.bits_of_float (Numerics.Columns.get vals i) in
        if
          Int64.bits_of_float (Numerics.Columns.get plo i) <> v
          || Int64.bits_of_float (Numerics.Columns.get phi i) <> v
        then point_identical := false
      done;
      within && !point_identical)
    [ G.Independent; G.Frechet_lower; G.Frechet_upper; G.Correlated 0.3 ]

let graph_rows ?(depth = 5) () =
  let module G = Casekit.Graph in
  let seed = Repro.Paper.seed + 101 in
  let legs = 9 and fanout = 10 in
  let leaf = (0.999998, 0.9999999) in
  let dep = G.Correlated 0.3 in
  let build () = Casekit.Generate.case ~seed ~legs ~fanout ~depth ~leaf () in
  let g = build () in
  let n = G.size g in
  (* Rows are suffixed with the node count (the headline depth-5 config is
     exactly 10^6 nodes) so a smoke run at another depth cannot be mistaken
     for — or compared against — the full-scale row. *)
  let sized name =
    if n = 1_000_000 then name ^ "_1e6" else Printf.sprintf "%s_%d" name n
  in
  let r_build = ols_nanos ~name:(sized "graph_build") build in
  let r_prop =
    ols_nanos ~name:(sized "graph_propagate") (fun () -> G.propagate dep g)
  in
  let seq_bits = Int64.bits_of_float (G.propagate dep g) in
  let dag =
    Casekit.Generate.case ~seed ~legs ~fanout ~depth ~shared:0.1 ~leaf ()
  in
  let r_prop_dag =
    ols_nanos ~name:(sized "graph_propagate_dag") (fun () ->
        G.propagate dep dag)
  in
  let dag_bits = Int64.bits_of_float (G.propagate dep dag) in
  let par_identical =
    List.for_all
      (fun d ->
        Numerics.Parallel.with_pool ~num_domains:d (fun pool ->
            Int64.bits_of_float (G.propagate_par ~pool ~chunks:64 dep g)
            = seq_bits
            && Int64.bits_of_float (G.propagate_par ~pool ~chunks:64 dep dag)
               = dag_bits))
      domain_counts
  in
  (* Lint and audit throughput: the structural rules as linear CSR sweeps,
     then the full semantic audit (interval bounds, vacuity probes, SPOF
     dominators) at a target the headline configuration attains. *)
  let r_lint =
    ols_nanos ~name:(sized "graph_lint") (fun () -> Analysis.Audit.lint g)
  in
  let audit_options =
    {
      Analysis.Audit.default_options with
      target = Some 0.9;
      dependence = dep;
    }
  in
  let r_audit =
    ols_nanos ~name:(sized "graph_audit") (fun () ->
        Analysis.Audit.graph ~options:audit_options g)
  in
  let sound = audit_sound g in
  (* Edit storm through the incremental engine; the post-storm root must
     agree bitwise with a from-scratch propagation of the edited graph. *)
  ignore (G.propagate dep g);
  let leaves = G.evidence_indices g in
  let rng = Numerics.Rng.create (seed + 1) in
  let lo, hi = leaf in
  let last = ref 0.0 in
  let r_edit =
    ols_nanos ~name:(sized "graph_incremental_edit") (fun () ->
        let i = leaves.(Numerics.Rng.int rng (Array.length leaves)) in
        G.set_evidence g i (Numerics.Rng.uniform rng lo hi);
        last := G.refresh dep g;
        !last)
  in
  let incremental_identical =
    Int64.bits_of_float !last = Int64.bits_of_float (G.propagate dep g)
  in
  {
    g_build = r_build;
    g_prop = r_prop;
    g_prop_dag = r_prop_dag;
    g_edit = r_edit;
    g_lint = r_lint;
    g_audit = r_audit;
    g_nodes = n;
    g_edges = G.edge_count g;
    g_dag_nodes = G.size dag;
    g_dag_overlap = G.max_overlap dag;
    g_deterministic = par_identical && incremental_identical;
    g_audit_sound = sound;
  }

let graph_throughput gs =
  let per_sec (r : row) scale =
    if Float.is_finite r.nanos && r.nanos > 0.0 then scale *. 1e9 /. r.nanos
    else nan
  in
  ( per_sec gs.g_build (float_of_int gs.g_nodes),
    per_sec gs.g_prop (float_of_int gs.g_nodes),
    per_sec gs.g_edit 1.0,
    (if Float.is_finite gs.g_edit.nanos && gs.g_edit.nanos > 0.0 then
       gs.g_prop.nanos /. gs.g_edit.nanos
     else nan),
    per_sec gs.g_lint (float_of_int gs.g_nodes),
    per_sec gs.g_audit (float_of_int gs.g_nodes) )

let print_graph_summary gs =
  print_rows
    [ gs.g_build; gs.g_prop; gs.g_prop_dag; gs.g_edit; gs.g_lint; gs.g_audit ];
  let build_nps, prop_nps, eps, speedup, lint_nps, audit_nps =
    graph_throughput gs
  in
  Printf.printf
    "graph: %d nodes, %d edges (dag config: %d nodes, max overlap %.3f)\n"
    gs.g_nodes gs.g_edges gs.g_dag_nodes gs.g_dag_overlap;
  Printf.printf "build: %.3g nodes/sec; propagate: %.3g nodes/sec\n" build_nps
    prop_nps;
  Printf.printf
    "incremental: %.3g edits/sec, %.0fx vs full re-propagation\n" eps speedup;
  Printf.printf "lint: %.3g nodes/sec; audit: %.3g nodes/sec\n" lint_nps
    audit_nps;
  Printf.printf
    "graph results bit-identical (1/2/4 domains, incremental vs full): %b\n"
    gs.g_deterministic;
  Printf.printf
    "audit interval sound (root within bounds, point bounds bit-identical, \
     all 4 models): %b\n"
    gs.g_audit_sound

(* ------------------------------------------------------------------ *)
(* Serve rows: the daemon's request path end-to-end — JSON decode,
   memo lookup, graph work, JSON encode — measured per request with the
   monotonic clock so the rows are latency percentiles, not OLS means
   (a memo hit and a cold propagation differ by four orders of
   magnitude; a mean over the mixture would describe neither).

   Three request classes against the headline 10^6-node graph:
   cold (flush before every evaluate, so each pays the full
   propagation), memoised (the same evaluate repeated — every request
   after the first cold one hits the content-addressed memo), and
   incremental edit (random leaf edits through the dirty-cone refresh).
   Correctness is gated bitwise: memo-hit bits must equal cold bits,
   and the last edit's bits must equal a from-scratch propagation of a
   twin graph that mirrored every edit outside the engine. *)

type serve_summary = {
  s_cold : row;  (* nanos = p50 of per-request latency *)
  s_cold_p99 : float;
  s_memo : row;
  s_memo_p99 : float;
  s_edit : row;
  s_edit_p99 : float;
  s_nodes : int;
  s_hit_ratio : float;
  s_memo_identical : bool;
  s_edit_identical : bool;
  s_edit_speedup : float;  (* cold p50 / edit p50 *)
}

let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then nan
  else
    let i = int_of_float (Float.round (p *. float_of_int (n - 1))) in
    sorted.(max 0 (min (n - 1) i))

(* Time [iters] requests through {!Serve.Engine.handle}; [prepare] runs
   untimed before each (flush, twin mirroring).  Returns the p50 row,
   the p99, and every response line for the bitwise gates. *)
let serve_latency ~name ~iters ~prepare ~request eng =
  let samples = Array.make iters nan in
  let responses = Array.make iters "" in
  for k = 0 to iters - 1 do
    prepare k;
    let line = request k in
    let t0 = Monotonic_clock.now () in
    let resp = Serve.Engine.handle eng line in
    let t1 = Monotonic_clock.now () in
    samples.(k) <- Int64.to_float (Int64.sub t1 t0);
    responses.(k) <- resp
  done;
  Array.sort Float.compare samples;
  ( { name; nanos = percentile samples 0.5; samples = iters },
    percentile samples 0.99,
    responses )

(* The [bits] hex side-channel of a successful response. *)
let serve_bits resp =
  let open Serve.Protocol in
  match parse resp with
  | exception Parse_error _ -> None
  | v -> (
    match (member "ok" v, member "bits" v) with
    | Some (Bool true), Some (Str s) -> bits_of_hex s
    | _ -> None)

let all_equal_bits resps =
  match serve_bits resps.(0) with
  | None -> None
  | Some b0 ->
    if
      Array.for_all
        (fun r ->
          match serve_bits r with
          | Some b -> Int64.equal b b0
          | None -> false)
        resps
    then Some b0
    else None

let serve_rows ?(depth = 5) () =
  let module G = Casekit.Graph in
  let seed = Repro.Paper.seed + 101 in
  let legs = 9 and fanout = 10 in
  let leaf_lo = 0.999998 and leaf_hi = 0.9999999 in
  let eng = Serve.Engine.create () in
  ignore
    (Serve.Engine.handle eng
       (Printf.sprintf
          "{\"op\":\"generate\",\"case\":\"bench\",\"seed\":%d,\"legs\":%d,\
           \"fanout\":%d,\"depth\":%d,\"leaf_lo\":%s,\"leaf_hi\":%s}"
          seed legs fanout depth
          (Serve.Protocol.print (Serve.Protocol.Num leaf_lo))
          (Serve.Protocol.print (Serve.Protocol.Num leaf_hi))));
  (* Twin graph built outside the engine with identical parameters:
     generation is seed-deterministic, so node indices coincide.  Every
     edit sent to the daemon is mirrored here, and at the end a
     from-scratch propagation of the twin must agree bitwise with the
     daemon's last incremental answer. *)
  let twin =
    Casekit.Generate.case ~seed ~legs ~fanout ~depth
      ~leaf:(leaf_lo, leaf_hi) ()
  in
  let n = G.size twin in
  let dep = G.Correlated 0.3 in
  let sized name =
    if n = 1_000_000 then name ^ "_1e6" else Printf.sprintf "%s_%d" name n
  in
  let eval = "{\"op\":\"evaluate\",\"case\":\"bench\",\"dependence\":0.3}" in
  let flush = "{\"op\":\"flush\"}" in
  (* Cold: flush before each timed evaluate — the memo is emptied and
     the graph invalidated, so every request pays the full propagation. *)
  let cold_iters = if depth >= 5 then 15 else 50 in
  let r_cold, cold_p99, cold_resps =
    serve_latency ~name:(sized "serve_cold_eval") ~iters:cold_iters
      ~prepare:(fun _ -> ignore (Serve.Engine.handle eng flush))
      ~request:(fun _ -> eval)
      eng
  in
  let cold_bits = all_equal_bits cold_resps in
  (* Memoised: the state left by the last cold evaluate is in the memo;
     every repeat must hit and return the stored bits. *)
  let hits_before = Serve.Engine.hits eng in
  let memo_iters = 2000 in
  let r_memo, memo_p99, memo_resps =
    serve_latency ~name:(sized "serve_memo_eval") ~iters:memo_iters
      ~prepare:(fun _ -> ())
      ~request:(fun _ -> eval)
      eng
  in
  let memo_bits = all_equal_bits memo_resps in
  let memo_hits = Serve.Engine.hits eng - hits_before in
  let memo_identical =
    match (cold_bits, memo_bits) with
    | Some c, Some m -> Int64.equal c m && memo_hits = memo_iters
    | _ -> false
  in
  (* Incremental edits: random leaf values in the same band, decided up
     front so the twin mirrors the exact floats the daemon receives
     (the request carries them through the round-trip-exact printer). *)
  let leaves = G.evidence_indices twin in
  let rng = Numerics.Rng.create (seed + 7) in
  let edit_iters = 2000 in
  let edit_idx = Array.make edit_iters 0 in
  let edit_val = Array.make edit_iters 0.0 in
  for k = 0 to edit_iters - 1 do
    edit_idx.(k) <- leaves.(Numerics.Rng.int rng (Array.length leaves));
    edit_val.(k) <- Numerics.Rng.uniform rng leaf_lo leaf_hi
  done;
  let r_edit, edit_p99, edit_resps =
    serve_latency ~name:(sized "serve_edit") ~iters:edit_iters
      ~prepare:(fun k -> G.set_evidence twin edit_idx.(k) edit_val.(k))
      ~request:(fun k ->
        Printf.sprintf
          "{\"op\":\"edit\",\"case\":\"bench\",\"node\":%d,\"value\":%s,\
           \"dependence\":0.3}"
          edit_idx.(k)
          (Serve.Protocol.print (Serve.Protocol.Num edit_val.(k))))
      eng
  in
  let twin_bits = Int64.bits_of_float (G.propagate dep twin) in
  let edit_identical =
    match serve_bits edit_resps.(edit_iters - 1) with
    | Some b -> Int64.equal b twin_bits
    | None -> false
  in
  let hits = float_of_int (Serve.Engine.hits eng) in
  let misses = float_of_int (Serve.Engine.misses eng) in
  let hit_ratio =
    if hits +. misses > 0.0 then hits /. (hits +. misses) else nan
  in
  let edit_speedup =
    if Float.is_finite r_edit.nanos && r_edit.nanos > 0.0 then
      r_cold.nanos /. r_edit.nanos
    else nan
  in
  {
    s_cold = r_cold;
    s_cold_p99 = cold_p99;
    s_memo = r_memo;
    s_memo_p99 = memo_p99;
    s_edit = r_edit;
    s_edit_p99 = edit_p99;
    s_nodes = n;
    s_hit_ratio = hit_ratio;
    s_memo_identical = memo_identical;
    s_edit_identical = edit_identical;
    s_edit_speedup = edit_speedup;
  }

let print_serve_summary ss =
  print_rows [ ss.s_cold; ss.s_memo; ss.s_edit ];
  Printf.printf "serve: %d nodes; p99 cold %s, memoised %s, edit %s\n"
    ss.s_nodes (time_string ss.s_cold_p99) (time_string ss.s_memo_p99)
    (time_string ss.s_edit_p99);
  Printf.printf "cache hit ratio: %.3f\n" ss.s_hit_ratio;
  Printf.printf
    "memoised bits == cold bits: %b; last edit bits == full re-propagation: \
     %b\n"
    ss.s_memo_identical ss.s_edit_identical;
  Printf.printf "incremental edit p50 vs cold p50: %.0fx\n" ss.s_edit_speedup

(* ------------------------------------------------------------------ *)
(* Streaming evidence engine: column ingest throughput at 10^6-event
   batches, serve-mode single-event ingest latency, the population-scale
   Delphi, and the bitwise gates — streamed posterior identical to the
   batch update on the pooled totals, and parallel merge identical
   across 1/2/4 domains and several chunk counts. *)

type stream_summary = {
  st_events : int;
  st_ingest_demands : row;
  st_demands_eps : float;  (* events per second *)
  st_ingest_hours : row;
  st_hours_eps : float;
  st_serve_ingest : row;  (* nanos = p50 of per-request latency *)
  st_serve_ingest_p99 : float;
  st_pop : row;
  st_pop_n : int;
  st_pop_aps : float;  (* assessors per second, full four-phase protocol *)
  st_stream_vs_batch : bool;  (* streamed == batch; serve == library *)
  st_merge_identical : bool;  (* 1/2/4 domains x 1/4/16 chunks *)
}

let stream_rows ?(events = 1_000_000) ?(pop_n = 1_000_000) () =
  let module S = Experience.Stream in
  let module Cols = Numerics.Columns in
  let seed = Repro.Paper.seed + 211 in
  let truth = 3e-3 in
  (* Synthetic event columns: one demand (or 0.5-1.5 operating hours)
     per event, failures Bernoulli at the true rate — the shape the
     [confcase stream] generator produces. *)
  let demands = Cols.make events 1.0 in
  let hours = Cols.create ~capacity:events () in
  let fails = Cols.create ~capacity:events () in
  let rng = Numerics.Rng.create seed in
  for _ = 1 to events do
    Cols.push hours (Numerics.Rng.uniform rng 0.5 1.5);
    Cols.push fails (if Numerics.Rng.bernoulli rng truth then 1.0 else 0.0)
  done;
  let a = 1.5 and b = 100.0 in
  let shape = 2.0 and rate = 1e6 in
  let sized name n =
    if n = 1_000_000 then name ^ "_1e6" else Printf.sprintf "%s_%d" name n
  in
  let bits = Int64.bits_of_float in
  Numerics.Parallel.with_pool (fun pool ->
      (* Throughput: a fresh conjugate accumulator absorbs the full
         column batch in parallel, then answers one posterior query. *)
      let r_demands =
        ols_nanos ~name:(sized "stream_ingest_demands" events) (fun () ->
            let acc = S.demand_beta ~a ~b in
            S.ingest_demands_par ~pool acc ~demands ~failures:fails;
            S.mean acc)
      in
      let r_hours =
        ols_nanos ~name:(sized "stream_ingest_hours" events) (fun () ->
            let acc = S.rate_gamma ~shape ~rate in
            S.ingest_hours_par ~pool acc ~hours ~failures:fails;
            S.mean acc)
      in
      let eps_of (r : row) =
        if Float.is_finite r.nanos && r.nanos > 0.0 then
          float_of_int events *. 1e9 /. r.nanos
        else nan
      in
      (* Gate 1a: a mixture prior (the Section 4 belief) ingested in
         parallel reproduces the one-shot batch update on the pooled
         totals bitwise — mean and P(<= bound).  Run on a 2x10^4-event
         sub-view: grid reweighting is bounded by likelihood underflow
         (the weights annihilate once the evidence log-likelihood passes
         float range), which is exactly why the conjugate paths carry
         the traffic-scale rows above. *)
      let gate_len = min events 20_000 in
      let gd = Cols.sub_view demands ~pos:0 ~len:gate_len in
      let gh = Cols.sub_view hours ~pos:0 ~len:gate_len in
      let gf = Cols.sub_view fails ~pos:0 ~len:gate_len in
      let prior_pfd =
        Dist.Mixture.of_dist (Dist.Lognormal.of_mode_mean ~mode:3e-3 ~mean:1e-2)
      in
      let prior_rate =
        Dist.Mixture.of_dist
          (Dist.Lognormal.of_mode_sigma ~mode:3e-7 ~sigma:0.9)
      in
      let same_posterior streamed batch bound =
        Int64.equal (bits (Dist.Mixture.mean streamed))
          (bits (Dist.Mixture.mean batch))
        && Int64.equal
             (bits (Dist.Mixture.prob_le streamed bound))
             (bits (Dist.Mixture.prob_le batch bound))
      in
      let acc_d = S.demand_of_belief prior_pfd in
      S.ingest_demands_par ~pool acc_d ~demands:gd ~failures:gf;
      let batch_d, _ =
        Experience.Bayes.update_demands prior_pfd ~failures:(S.failures acc_d)
          ~demands:(S.demands acc_d)
      in
      let acc_h = S.rate_of_belief prior_rate in
      S.ingest_hours_par ~pool acc_h ~hours:gh ~failures:gf;
      let batch_h, _ =
        Experience.Bayes.update_time prior_rate ~failures:(S.failures acc_h)
          ~time:(S.hours acc_h)
      in
      let batch_ok =
        same_posterior (S.posterior acc_d) batch_d 1e-2
        && same_posterior (S.posterior acc_h) batch_h 1e-6
      in
      (* Gate 2: merge identity — parallel ingestion at any domain and
         chunk count reproduces sequential ingestion exactly. *)
      let totals_of acc = (S.demands acc, S.failures acc, bits (S.mean acc)) in
      let reference =
        let acc = S.demand_beta ~a ~b in
        S.ingest_demands_col acc ~demands ~failures:fails;
        totals_of acc
      in
      let merge_ok =
        List.for_all
          (fun num_domains ->
            Numerics.Parallel.with_pool ~num_domains (fun p ->
                List.for_all
                  (fun chunks ->
                    let acc = S.demand_beta ~a ~b in
                    S.ingest_demands_par ~pool:p ~chunks acc ~demands
                      ~failures:fails;
                    totals_of acc = reference)
                  [ 1; 4; 16 ]))
          domain_counts
      in
      (* Serve-mode ingest: single-event requests through the daemon's
         request path, p50/p99 per request. *)
      let eng = Serve.Engine.create () in
      ignore
        (Serve.Engine.handle eng
           (Printf.sprintf
              "{\"op\":\"stream\",\"stream\":\"bench\",\"beta_a\":%s,\
               \"beta_b\":%s}"
              (Serve.Protocol.print (Serve.Protocol.Num a))
              (Serve.Protocol.print (Serve.Protocol.Num b))));
      let ingest_iters = 2000 in
      let r_serve, serve_p99, _ =
        serve_latency ~name:"stream_serve_ingest" ~iters:ingest_iters
          ~prepare:(fun _ -> ())
          ~request:(fun _ ->
            "{\"op\":\"ingest\",\"stream\":\"bench\",\"demands\":1,\
             \"failures\":0}")
          eng
      in
      (* Gate 1b: the daemon's posterior after those events matches a
         library accumulator holding the same totals bitwise (sufficient
         statistics — one observe call with the pooled count). *)
      let twin = S.demand_beta ~a ~b in
      S.observe_demands twin ~demands:ingest_iters ~failures:0;
      let posterior_resp =
        Serve.Engine.handle eng "{\"op\":\"posterior\",\"stream\":\"bench\"}"
      in
      let serve_ok =
        match serve_bits posterior_resp with
        | Some bv -> Int64.equal bv (bits (S.mean twin))
        | None -> false
      in
      (* Population Delphi: one full four-phase protocol over [pop_n]
         synthetic assessors through the batched column kernels. *)
      let r_pop =
        ols_nanos ~name:(sized "population_delphi" pop_n) (fun () ->
            Elicit.Population.run ~pool Elicit.Delphi.default_config ~n:pop_n)
      in
      let pop_aps =
        if Float.is_finite r_pop.nanos && r_pop.nanos > 0.0 then
          float_of_int pop_n *. 1e9 /. r_pop.nanos
        else nan
      in
      {
        st_events = events;
        st_ingest_demands = r_demands;
        st_demands_eps = eps_of r_demands;
        st_ingest_hours = r_hours;
        st_hours_eps = eps_of r_hours;
        st_serve_ingest = r_serve;
        st_serve_ingest_p99 = serve_p99;
        st_pop = r_pop;
        st_pop_n = pop_n;
        st_pop_aps = pop_aps;
        st_stream_vs_batch = batch_ok && serve_ok;
        st_merge_identical = merge_ok;
      })

let print_stream_summary st =
  print_rows [ st.st_ingest_demands; st.st_ingest_hours; st.st_pop ];
  Printf.printf
    "ingest: %.2fM demand events/s, %.2fM hour events/s (%d-event batches)\n"
    (st.st_demands_eps /. 1e6) (st.st_hours_eps /. 1e6) st.st_events;
  Printf.printf "serve ingest: p50 %s, p99 %s\n"
    (time_string st.st_serve_ingest.nanos)
    (time_string st.st_serve_ingest_p99);
  Printf.printf "population delphi: %d assessors, %.2fM assessors/s\n"
    st.st_pop_n (st.st_pop_aps /. 1e6);
  Printf.printf "streamed posterior == batch (and serve == library): %b\n"
    st.st_stream_vs_batch;
  Printf.printf "merge identity across 1/2/4 domains x 1/4/16 chunks: %b\n"
    st.st_merge_identical

(* ------------------------------------------------------------------ *)
(* JSON                                                               *)

let json_float f =
  if Float.is_finite f then Printf.sprintf "%.6g" f else "null"

let json_escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let write_json oc ~experiments ~micro ~kernels ~vr ~graph ~serve ~stream
    ~deterministic =
  let buf = Buffer.create 4096 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "{\n  \"schema\": \"confcase-bench-9\",\n";
  add "  \"experiments\": [\n";
  List.iteri
    (fun i r ->
      add "    {\"name\": \"%s\", \"nanos_per_run\": %s, \"samples\": %d}%s\n"
        (json_escape r.name) (json_float r.nanos) r.samples
        (if i = List.length experiments - 1 then "" else ","))
    experiments;
  add "  ],\n  \"micro\": [\n";
  List.iteri
    (fun i r ->
      add "    {\"name\": \"%s\", \"nanos_per_run\": %s, \"samples\": %d}%s\n"
        (json_escape r.name) (json_float r.nanos) r.samples
        (if i = List.length micro - 1 then "" else ","))
    micro;
  add "  ],\n  \"mc_kernels\": [\n";
  List.iteri
    (fun i k ->
      add
        "    {\"name\": \"%s\", \"variant\": \"%s\", \"domains\": %d, \
         \"pool_domains\": %d, \"nanos_per_run\": %s, \"samples\": %d}%s\n"
        (json_escape k.kernel) k.variant k.domains k.pool_domains
        (json_float k.r.nanos) k.r.samples
        (if i = List.length kernels - 1 then "" else ","))
    kernels;
  add "  ],\n  \"vr\": [\n";
  List.iteri
    (fun i v ->
      add
        "    {\"name\": \"%s\", \"method\": \"%s\", \"mean\": %s, \
         \"std_error\": %s, \"n\": %d, \"nanos_per_run\": %s, \"samples\": \
         %d, \"efficiency_vs_plain\": %s}%s\n"
        (json_escape v.vr_name) (json_escape v.vr_method) (json_float v.vr_mean)
        (json_float v.vr_se) v.vr_n (json_float v.vr_r.nanos) v.vr_r.samples
        (json_float v.vr_efficiency)
        (if i = List.length vr - 1 then "" else ","))
    vr;
  add "  ],\n  \"graph\": {\n";
  let build_nps, prop_nps, eps, speedup, lint_nps, audit_nps =
    graph_throughput graph
  in
  add "    \"nodes\": %d,\n    \"edges\": %d,\n" graph.g_nodes graph.g_edges;
  add "    \"dag_nodes\": %d,\n    \"dag_max_overlap\": %s,\n"
    graph.g_dag_nodes (json_float graph.g_dag_overlap);
  add "    \"rows\": [\n";
  let grows =
    [ graph.g_build; graph.g_prop; graph.g_prop_dag; graph.g_edit;
      graph.g_lint; graph.g_audit ]
  in
  List.iteri
    (fun i r ->
      add "      {\"name\": \"%s\", \"nanos_per_run\": %s, \"samples\": %d}%s\n"
        (json_escape r.name) (json_float r.nanos) r.samples
        (if i = List.length grows - 1 then "" else ","))
    grows;
  add "    ],\n";
  add "    \"build_nodes_per_sec\": %s,\n" (json_float build_nps);
  add "    \"propagate_nodes_per_sec\": %s,\n" (json_float prop_nps);
  add "    \"edits_per_sec\": %s,\n" (json_float eps);
  add "    \"incremental_speedup_vs_full\": %s,\n" (json_float speedup);
  add "    \"lint_nodes_per_sec\": %s,\n" (json_float lint_nps);
  add "    \"audit_nodes_per_sec\": %s,\n" (json_float audit_nps);
  add "    \"audit_interval_sound\": %b,\n" graph.g_audit_sound;
  add "    \"deterministic_across_domains\": %b\n  },\n"
    graph.g_deterministic;
  add "  \"serve\": {\n";
  add "    \"nodes\": %d,\n" serve.s_nodes;
  add "    \"rows\": [\n";
  let srows =
    [
      (serve.s_cold, serve.s_cold_p99);
      (serve.s_memo, serve.s_memo_p99);
      (serve.s_edit, serve.s_edit_p99);
    ]
  in
  List.iteri
    (fun i ((r : row), p99) ->
      let eps =
        if Float.is_finite r.nanos && r.nanos > 0.0 then 1e9 /. r.nanos
        else nan
      in
      add
        "      {\"name\": \"%s\", \"nanos_per_run\": %s, \"p99_nanos\": %s, \
         \"samples\": %d, \"evals_per_sec\": %s}%s\n"
        (json_escape r.name) (json_float r.nanos) (json_float p99) r.samples
        (json_float eps)
        (if i = List.length srows - 1 then "" else ","))
    srows;
  add "    ],\n";
  add "    \"hit_ratio\": %s,\n" (json_float serve.s_hit_ratio);
  add "    \"memo_bits_identical\": %b,\n" serve.s_memo_identical;
  add "    \"edit_bits_identical\": %b,\n" serve.s_edit_identical;
  add "    \"edit_speedup_vs_cold\": %s,\n" (json_float serve.s_edit_speedup);
  add "    \"edit_speedup_ok\": %b\n  },\n"
    (serve.s_edit_speedup >= 10.0);
  add "  \"stream\": {\n";
  add "    \"events\": %d,\n" stream.st_events;
  add "    \"rows\": [\n";
  let strows =
    [ (stream.st_ingest_demands, stream.st_demands_eps);
      (stream.st_ingest_hours, stream.st_hours_eps) ]
  in
  List.iteri
    (fun i ((r : row), eps) ->
      add
        "      {\"name\": \"%s\", \"nanos_per_run\": %s, \"samples\": %d, \
         \"events_per_sec\": %s}%s\n"
        (json_escape r.name) (json_float r.nanos) r.samples (json_float eps)
        (if i = List.length strows - 1 then "" else ","))
    strows;
  add "    ],\n";
  add
    "    \"serve_ingest\": {\"name\": \"%s\", \"p50_nanos\": %s, \
     \"p99_nanos\": %s, \"samples\": %d},\n"
    (json_escape stream.st_serve_ingest.name)
    (json_float stream.st_serve_ingest.nanos)
    (json_float stream.st_serve_ingest_p99)
    stream.st_serve_ingest.samples;
  add
    "    \"population\": {\"name\": \"%s\", \"n\": %d, \"nanos_per_run\": %s, \
     \"samples\": %d, \"assessors_per_sec\": %s},\n"
    (json_escape stream.st_pop.name) stream.st_pop_n
    (json_float stream.st_pop.nanos) stream.st_pop.samples
    (json_float stream.st_pop_aps);
  add "    \"streamed_equals_batch\": %b,\n" stream.st_stream_vs_batch;
  add "    \"merge_bits_identical\": %b\n  },\n" stream.st_merge_identical;
  let sp = speedups kernels in
  add "  \"speedups\": [\n";
  List.iteri
    (fun i (kernel, domains, vs_one, vs_seq) ->
      add
        "    {\"name\": \"%s\", \"domains\": %d, \"speedup_vs_one_domain\": \
         %s, \"speedup_vs_sequential\": %s}%s\n"
        (json_escape kernel) domains (json_float vs_one) (json_float vs_seq)
        (if i = List.length sp - 1 then "" else ","))
    sp;
  add "  ],\n  \"deterministic_across_domains\": %b\n}\n" deterministic;
  Buffer.output_buffer oc buf;
  close_out oc

let run_json path =
  (* Open the output up front: an unwritable path must fail before the
     benchmarks spend minutes running, not after. *)
  let oc =
    try open_out path
    with Sys_error msg ->
      Printf.eprintf "cannot write %s\n" msg;
      exit 1
  in
  print_endline "################ Bechamel timings ################\n";
  let experiments = time_experiments () in
  print_rows experiments;
  print_endline "\n################ Micro regressions ################\n";
  let micro = micro_rows () in
  print_rows micro;
  print_endline
    "\n################ Variance reduction (equal sample budget) \
     ################\n";
  let vr = vr_rows () in
  print_vr_rows vr;
  print_endline "\n################ MC kernels (seq vs domain pool) ################\n";
  let conservative_rows, conservative_id = conservative_kernel () in
  let survival_rows, survival_id = survival_kernel () in
  let sketch_rows, sketch_id = sketch_kernel () in
  let kernels = conservative_rows @ survival_rows @ sketch_rows in
  print_rows (List.map (fun k -> k.r) kernels);
  let kernels_id = conservative_id && survival_id && sketch_id in
  List.iter
    (fun (kernel, domains, vs_one, vs_seq) ->
      Printf.printf
        "%s: %d domains -> %.2fx vs 1-domain pool, %.2fx vs sequential\n"
        kernel domains vs_one vs_seq)
    (speedups kernels);
  Printf.printf "parallel results bit-identical across domain counts: %b\n"
    kernels_id;
  print_endline
    "\n################ Case graphs (CSR propagate, 10^6 nodes) \
     ################\n";
  let graph = graph_rows () in
  print_graph_summary graph;
  print_endline
    "\n################ Serve daemon (hot evaluation path) ################\n";
  let serve = serve_rows () in
  print_serve_summary serve;
  let serve_ok =
    serve.s_memo_identical && serve.s_edit_identical
    && serve.s_edit_speedup >= 10.0
  in
  print_endline
    "\n################ Streaming evidence (ingest, population Delphi) \
     ################\n";
  let stream = stream_rows () in
  print_stream_summary stream;
  let stream_ok = stream.st_stream_vs_batch && stream.st_merge_identical in
  let deterministic =
    kernels_id && graph.g_deterministic && graph.g_audit_sound && serve_ok
    && stream_ok
  in
  write_json oc ~experiments ~micro ~kernels ~vr ~graph ~serve ~stream
    ~deterministic;
  Printf.printf "\nwrote %s\n" path;
  if not deterministic then exit 1

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  match args with
  | [ "--no-perf" ] -> run_reproductions ()
  | [ "--json"; path ] -> run_json path
  | [ "--json" ] ->
    prerr_endline "--json requires an output path, e.g. --json BENCH_7.json";
    exit 1
  | [ "--vr-smoke" ] ->
    (* A fast CI-sized pass over the variance-reduction rows only: a
       quarter of the sample budget, no JSON.  Informational — the exit
       code only reflects whether the rows computed at all. *)
    print_endline
      "################ Variance reduction (smoke, n = 2^14) \
       ################\n";
    print_vr_rows (vr_rows ~n:16384 ())
  | [ "--soa-smoke" ] ->
    (* The micro rows only — exercises the column kernels (column
       quantile, cum-column mixture sampling, sketch add/merge/merge_into,
       batched RNG fill, snapshot save/load incl. mmap) without the slow
       experiment and kernel sections.  Informational: CI gates on
       completion, not on the ratios. *)
    print_endline "################ Micro regressions (SoA smoke) ################\n";
    print_rows (micro_rows ())
  | [ "--graph-smoke" ] ->
    (* A CI-sized pass over the graph rows at depth 3 (~10^4 nodes):
       exercises build, full and DAG propagation, 1/2/4-domain identity
       and the incremental edit storm without the 10^6-node cost.
       Gates on determinism only — the ratios are informational. *)
    print_endline
      "################ Case graphs (smoke, depth 3) ################\n";
    let graph = graph_rows ~depth:3 () in
    print_graph_summary graph;
    if not graph.g_deterministic then exit 1
  | [ "--audit-smoke" ] ->
    (* A CI-sized pass gating the semantic audit: runs the lint and audit
       rows at depth 3 and verifies the interval pass is sound against the
       propagation engine — the root lies within the static bounds and
       point leaf bounds reproduce the propagated values bitwise, under
       all four dependence models.  Exit 1 on any violation. *)
    print_endline
      "################ Semantic audit (smoke, depth 3) ################\n";
    let graph = graph_rows ~depth:3 () in
    print_graph_summary graph;
    if not (graph.g_deterministic && graph.g_audit_sound) then exit 1
  | [ "--serve-smoke" ] ->
    (* A CI-sized pass over the serve rows at depth 3: exercises the
       full request path (generate, cold/memoised evaluate, incremental
       edits mirrored onto a twin graph) and gates on the bitwise
       identities only — latency ratios at this scale are
       informational. *)
    print_endline
      "################ Serve daemon (smoke, depth 3) ################\n";
    let serve = serve_rows ~depth:3 () in
    print_serve_summary serve;
    if not (serve.s_memo_identical && serve.s_edit_identical) then exit 1
  | [ "--stream-smoke" ] ->
    (* A CI-sized pass over the streaming rows: 10^5-event columns and a
       5x10^4-assessor population.  Gates on the bitwise identities only
       — streamed == batch on the pooled totals, serve == library, and
       merge identity across domain and chunk counts; throughput at this
       scale is informational. *)
    print_endline
      "################ Streaming evidence (smoke, 10^5 events) \
       ################\n";
    let st = stream_rows ~events:100_000 ~pop_n:50_000 () in
    print_stream_summary st;
    if not (st.st_stream_vs_batch && st.st_merge_identical) then exit 1
  | [] ->
    run_reproductions ();
    run_perf ()
  | [ id ] ->
    (match Repro.Experiments.run_one id with
    | output -> print_string output
    | exception Not_found ->
      Printf.eprintf "unknown experiment %s; known ids:\n" id;
      List.iter
        (fun (i, anchor, _) -> Printf.eprintf "  %-14s %s\n" i anchor)
        Repro.Experiments.all;
      exit 1)
  | _ ->
    prerr_endline
      "usage: main.exe [--no-perf | --json <path> | --vr-smoke | \
       --soa-smoke | --graph-smoke | --audit-smoke | --serve-smoke | \
       --stream-smoke | <experiment-id>]";
    exit 1
