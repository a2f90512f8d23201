(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation and runs the ablation studies DESIGN.md calls out, at
   medium scale.  It prints them and nothing else: it reads no clock and
   writes no file.  Wall-clock figures come from bench/perf (repeated
   runs with spreads) and bench/micro (kernels); scripts/check.sh times
   this program from outside for its anti-scaling gate.

     dune exec bench/main.exe

   Independent studies run across a Domain pool sized by REPRO_JOBS
   (default: the machine's recommended domain count).  All printing
   happens on the main domain in registry order, so stdout is
   byte-identical at any job count. *)

let scale = Benchmarks.Study.Medium

let pool = Parallel.Pool.create ~domains:(Parallel.Pool.default_domains ())

let section title =
  Format.printf "@.============================================================@.";
  Format.printf "%s@." title;
  Format.printf "============================================================@."

(* ------------------------------------------------------------------ *)
(* Experiments (computed once, reused by figures and tables)           *)

let experiments =
  lazy
    (Parallel.Pool.map_list pool
       (fun s ->
         (* The nested sweep shares the pool: idle domains claim its
            points instead of leaving them to run sequentially in this
            one, so a long-tail study does not serialize the run. *)
         Core.Experiment.run ~pool ~scale s)
       Benchmarks.Registry.all)

let experiment name =
  List.find
    (fun (e : Core.Experiment.t) -> e.Core.Experiment.study.Benchmarks.Study.spec_name = name)
    (Lazy.force experiments)

let by_names names = List.map experiment names

let study name =
  match Benchmarks.Registry.find name with Some s -> s | None -> assert false

(* ------------------------------------------------------------------ *)
(* Figures and tables                                                  *)

let figure1 () =
  section "Figure 1: Y-branch motivating example (dictionary compression)";
  let rng = Simcore.Rng.create 1 in
  let text = Workloads.Textgen.repetitive_text rng ~bytes:50000 ~redundancy:0.5 in
  let y = Annotations.Ybranch.make ~probability:0.0001 in
  let heuristic =
    Workloads.Dict_compress.compress ~policy:Workloads.Dict_compress.Heuristic text
  in
  let fixed =
    Workloads.Dict_compress.compress
      ~policy:(Workloads.Dict_compress.Fixed_interval (Annotations.Ybranch.interval y))
      text
  in
  Format.printf "@YBRANCH(probability=%.4f): cut interval %d chars@."
    (Annotations.Ybranch.probability y) (Annotations.Ybranch.interval y);
  Format.printf "heuristic: %d restarts, %d bits@." heuristic.Workloads.Dict_compress.restarts
    heuristic.Workloads.Dict_compress.output_bits;
  Format.printf "y-branch : %d restarts, %d bits (independent blocks: %d)@."
    fixed.Workloads.Dict_compress.restarts fixed.Workloads.Dict_compress.output_bits
    (List.length fixed.Workloads.Dict_compress.segments)

let speedup_of series n =
  match Sim.Speedup.at_threads series n with
  | Some p -> p.Sim.Speedup.speedup
  | None -> nan

let figure2 () =
  section "Figure 2: Commutative motivating example (Yacm_random)";
  let registry = Annotations.Commutative.create () in
  Annotations.Commutative.annotate registry ~fn:"Yacm_random" ~rollback:"Yacm_set_seed" ();
  (match Annotations.Commutative.validate_speculative registry with
  | Ok () -> Format.printf "COMMUTATIVE Yacm_random: valid under speculation@."
  | Error e -> Format.printf "invalid: %s@." e);
  let twolf = experiment "300.twolf" in
  let baseline = Core.Experiment.run ~scale ~use_baseline_plan:true (study "300.twolf") in
  Format.printf "300.twolf at 8 threads: %.2fx with the annotation, %.2fx without@."
    (speedup_of twolf.Core.Experiment.series 8)
    (speedup_of baseline.Core.Experiment.series 8)

let figure3 () =
  section "Figure 3: phase dependence graph and execution plan";
  Core.Report.figure3 Format.std_formatter (Machine.Config.default ~cores:8)

let figure4 () =
  section "Figure 4: speedup — 181.mcf, 253.perlbmk, 255.vortex, 256.bzip2";
  Core.Report.figure Format.std_formatter ~title:"(paper Figure 4)"
    (by_names [ "181.mcf"; "253.perlbmk"; "255.vortex"; "256.bzip2" ])

let figure5 () =
  section "Figure 5: speedup — 176.gcc, 254.gap";
  Core.Report.figure Format.std_formatter ~title:"(paper Figure 5)"
    (by_names [ "176.gcc"; "254.gap" ])

let figure6 () =
  section "Figure 6: speedup — 175.vpr, 186.crafty, 197.parser, 300.twolf";
  Core.Report.figure Format.std_formatter ~title:"(paper Figure 6)"
    (by_names [ "175.vpr"; "186.crafty"; "197.parser"; "300.twolf" ]);
  Core.Chart.pp Format.std_formatter
    (List.map
       (fun (e : Core.Experiment.t) -> e.Core.Experiment.series)
       (by_names [ "175.vpr"; "186.crafty"; "197.parser"; "300.twolf" ]))

let figure7 () =
  section "Figure 7: speedup — 164.gzip";
  Core.Report.figure Format.std_formatter ~title:"(paper Figure 7)" (by_names [ "164.gzip" ]);
  Format.printf "fixed-interval blocking compression loss: %.2f%% (paper: < 1%%)@."
    (100.0 *. Benchmarks.B164_gzip.compression_loss ~scale:Benchmarks.Study.Small)

let table1 () =
  section "Table 1: parallelized loops, lines changed, techniques";
  Core.Report.table1 Format.std_formatter Benchmarks.Registry.all

let table2 () =
  section "Table 2: best speedup vs Moore's-law expectation";
  Core.Report.table2 Format.std_formatter (Lazy.force experiments)

(* ------------------------------------------------------------------ *)
(* Ablations                                                           *)

let ablation_annotations () =
  section "Ablation: sequential-model extensions on vs off (16 threads)";
  Format.printf "%-12s %12s %12s@." "benchmark" "annotated" "baseline";
  let rows =
    Parallel.Pool.map_list pool
      (fun name ->
        match Benchmarks.Registry.find name with
        | Some s when s.Benchmarks.Study.baseline_plan <> None ->
          let a = Core.Experiment.run ~pool ~scale ~threads:[ 1; 16 ] s in
          let b = Core.Experiment.run ~pool ~scale ~threads:[ 1; 16 ] ~use_baseline_plan:true s in
          Some
            ( name,
              speedup_of a.Core.Experiment.series 16,
              speedup_of b.Core.Experiment.series 16 )
        | _ -> None)
      Benchmarks.Registry.names
  in
  List.iter
    (function
      | Some (name, a, b) -> Format.printf "%-12s %11.2fx %11.2fx@." name a b
      | None -> ())
    rows;
  (* gzip and gcc ablate through workload variants, not plans. *)
  let sweep_plan plan profile =
    let built = Core.Framework.build ~plan profile in
    Sim.Speedup.sweep ~pool ~threads:[ 1; 16 ] ~label:"x" built.Core.Framework.input
  in
  let gzip = study "164.gzip" in
  let gcc = study "176.gcc" in
  let variants =
    Parallel.Pool.map_list pool
      (fun mk -> speedup_of (mk ()) 16)
      [
        (fun () ->
          sweep_plan gzip.Benchmarks.Study.plan
            (Benchmarks.B164_gzip.run_with_policy ~ybranch:true ~scale));
        (fun () ->
          sweep_plan gzip.Benchmarks.Study.plan
            (Benchmarks.B164_gzip.run_with_policy ~ybranch:false ~scale));
        (fun () ->
          sweep_plan gcc.Benchmarks.Study.plan
            (Benchmarks.B176_gcc.run_with_label_scheme ~per_function_labels:true ~scale));
        (fun () ->
          sweep_plan gcc.Benchmarks.Study.plan
            (Benchmarks.B176_gcc.run_with_label_scheme ~per_function_labels:false ~scale));
      ]
  in
  match variants with
  | [ gzip_y; gzip_h; gcc_per_fn; gcc_global ] ->
    Format.printf "%-12s %11.2fx %11.2fx   (Y-branch vs heuristic blocks)@." "164.gzip"
      gzip_y gzip_h;
    Format.printf "%-12s %11.2fx %11.2fx   (per-function vs global label_num)@." "176.gcc"
      gcc_per_fn gcc_global
  | _ -> assert false

let ablation_policies () =
  section "Ablation: misspeculation policy and eager forwarding (16 threads)";
  List.iter
    (fun bench ->
      Format.printf "%s:@." bench;
      let rows =
        Parallel.Pool.map_list pool
          (fun (label, policy) ->
            let e = Core.Experiment.run ~pool ~scale ~threads:[ 1; 16 ] ~policy (study bench) in
            let misspec = Core.Experiment.misspec_total e ~threads:16 in
            (label, speedup_of e.Core.Experiment.series 16, misspec))
          [
            ( "serialize (paper's model)",
              { Sim.Pipeline.misspec = Sim.Pipeline.Serialize; forwarding = false } );
            ( "squash + re-execute",
              { Sim.Pipeline.misspec = Sim.Pipeline.Squash; forwarding = false } );
            ( "serialize + forwarding",
              { Sim.Pipeline.misspec = Sim.Pipeline.Serialize; forwarding = true } );
          ]
      in
      List.iter
        (fun (label, sp, misspec) ->
          Format.printf "  %-28s %8.2fx  (misspec-affected tasks: %d)@." label sp misspec)
        rows)
    (* twolf: dense conflicts — squash collapses into a re-execution
       storm, vindicating the paper's serialize-on-occurrence model;
       vortex: sparse conflicts — the policies barely differ. *)
    [ "300.twolf"; "255.vortex" ]

let ablation_queue_capacity () =
  section "Ablation: queue capacity (164.gzip, 16 threads; paper uses 32 entries)";
  let gzip = study "164.gzip" in
  let profile = gzip.Benchmarks.Study.run ~scale in
  let built = Core.Framework.build ~plan:gzip.Benchmarks.Study.plan profile in
  Parallel.Pool.map_list pool
    (fun cap ->
      let config ~cores = Machine.Config.make ~cores ~queue_capacity:cap () in
      let series =
        Sim.Speedup.sweep ~pool ~threads:[ 1; 16 ] ~config ~label:"q" built.Core.Framework.input
      in
      (cap, speedup_of series 16))
    [ 1; 2; 4; 8; 32; 128 ]
  |> List.iter (fun (cap, sp) -> Format.printf "capacity %3d: %.2fx@." cap sp)

let ablation_silent_stores () =
  section "Ablation: silent-store detection (181.mcf refresh_potential, 16 threads)";
  let mcf = study "181.mcf" in
  Parallel.Pool.map_list pool
    (fun (label, silent) ->
      let plan =
        { mcf.Benchmarks.Study.plan with Speculation.Spec_plan.silent_stores = silent }
      in
      let profile = mcf.Benchmarks.Study.run ~scale in
      let built = Core.Framework.build ~plan profile in
      let series = Sim.Speedup.sweep ~pool ~threads:[ 1; 16 ] ~label built.Core.Framework.input in
      (label, speedup_of series 16))
    [ ("silent stores on", true); ("silent stores off", false) ]
  |> List.iter (fun (label, sp) -> Format.printf "%-22s %.2fx@." label sp)

let dswp_vs_tls () =
  section "DSWP plan vs TLS plan (paper Section 3.2: 'similar results'; 16 threads)";
  Format.printf "%-12s %10s %10s@." "benchmark" "DSWP" "TLS";
  List.iter
    (fun (e : Core.Experiment.t) ->
      let input = e.Core.Experiment.built.Core.Framework.input in
      let tls = Sim.Tls_plan.speedup (Machine.Config.default ~cores:16) input in
      Format.printf "%-12s %9.2fx %9.2fx@."
        e.Core.Experiment.study.Benchmarks.Study.spec_name
        (speedup_of e.Core.Experiment.series 16)
        tls)
    (Lazy.force experiments)

let auto_vs_hand () =
  section "Automatic (profile-guided) plan vs hand plan (16 threads)";
  Format.printf "%-12s %10s %10s@." "benchmark" "hand" "auto";
  Parallel.Pool.map_list pool
    (fun (s : Benchmarks.Study.t) ->
      let speedup_built (b : Core.Framework.built) =
        let series =
          Sim.Speedup.sweep ~pool ~threads:[ 1; 16 ] ~label:"x" b.Core.Framework.input
        in
        speedup_of series 16
      in
      let hand =
        speedup_built (Core.Framework.build ~plan:s.Benchmarks.Study.plan (s.Benchmarks.Study.run ~scale))
      in
      let auto_built, _ =
        Core.Framework.build_auto
          ~commutative:s.Benchmarks.Study.plan.Speculation.Spec_plan.commutative
          (s.Benchmarks.Study.run ~scale)
      in
      (s.Benchmarks.Study.spec_name, hand, speedup_built auto_built))
    Benchmarks.Registry.all
  |> List.iter (fun (name, hand, auto) ->
         Format.printf "%-12s %9.2fx %9.2fx@." name hand auto)

let gantt_demo () =
  section "Schedule detail: 256.bzip2 on 8 cores (Gantt; paper Figure 3c's shape)";
  let bzip2 = study "256.bzip2" in
  let profile = bzip2.Benchmarks.Study.run ~scale:Benchmarks.Study.Small in
  let built = Core.Framework.build ~plan:bzip2.Benchmarks.Study.plan profile in
  List.iter
    (function
      | Sim.Input.Serial _ -> ()
      | Sim.Input.Parallel loop ->
        let r = Sim.Pipeline.run_loop (Machine.Config.default ~cores:8) loop in
        Sim.Gantt.pp ~cores:8 Format.std_formatter r)
    built.Core.Framework.input.Sim.Input.segments

let static_model () =
  section "Static model: DSWP partition and pipeline bound per benchmark";
  List.iter
    (fun (s : Benchmarks.Study.t) ->
      let partition =
        Dswp.Partition.partition (s.Benchmarks.Study.pdg ())
          ~enabled:(Core.Framework.enabled_breakers s.Benchmarks.Study.plan)
      in
      Format.printf "%-12s parallel fraction %.2f, static bound at 32 threads %.1fx@."
        s.Benchmarks.Study.spec_name
        (Dswp.Partition.parallel_fraction partition)
        (Dswp.Partition.pipeline_bound partition ~threads:32))
    Benchmarks.Registry.all

let () =
  figure1 ();
  figure2 ();
  figure3 ();
  figure4 ();
  figure5 ();
  figure6 ();
  figure7 ();
  table1 ();
  table2 ();
  ablation_annotations ();
  ablation_policies ();
  ablation_queue_capacity ();
  ablation_silent_stores ();
  dswp_vs_tls ();
  auto_vs_hand ();
  gantt_demo ();
  static_model ();
  Parallel.Pool.shutdown pool;
  Format.printf "@.done.@."
