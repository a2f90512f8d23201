(* The `repro` command-line tool: run the paper's experiments and print
   its tables and figures.

     repro list                      enumerate benchmarks
     repro run -b 164.gzip           sweep one benchmark
     repro explain -b 256.bzip2     stall/critical-path attribution
     repro lint -b 197.parser        plan soundness + race lint
     repro plan -b 164.gzip          auto-planner tournament over the plan space
     repro table1 / table2           the paper's tables
     repro figure -n 4               figure by number (3..7)
     repro ablate -b 300.twolf       annotated vs baseline plan
*)

open Cmdliner

let scale_conv =
  let parse = function
    | "small" -> Ok Benchmarks.Study.Small
    | "medium" -> Ok Benchmarks.Study.Medium
    | "large" -> Ok Benchmarks.Study.Large
    | s -> Error (`Msg ("unknown scale: " ^ s))
  in
  Arg.conv (parse, fun ppf s -> Format.pp_print_string ppf (Benchmarks.Study.scale_to_string s))

(* A count that must be at least 1, such as a machine size: 0 is a usage
   error (exit 124), not an uncaught exception from the layer that
   rejects it. *)
let positive_int =
  let parse s =
    match Arg.conv_parser Arg.int s with
    | Ok n when n < 1 ->
      Error (`Msg (Printf.sprintf "invalid value '%s', expected an integer >= 1" s))
    | r -> r
  in
  Arg.conv (parse, Arg.conv_printer Arg.int)

let scale_arg =
  Arg.(value & opt scale_conv Benchmarks.Study.Medium
       & info [ "s"; "scale" ] ~docv:"SCALE" ~doc:"Input scale: small, medium, large.")

let bench_arg =
  Arg.(required & opt (some string) None
       & info [ "b"; "benchmark" ] ~docv:"NAME" ~doc:"Benchmark name, e.g. 164.gzip or gzip.")

let jobs_arg =
  Arg.(value & opt int 0
       & info [ "j"; "jobs" ] ~docv:"N"
           ~doc:"Worker domains for independent experiment points. 0 (the default) \
                 means $(b,REPRO_JOBS) from the environment, or the machine's \
                 recommended domain count. Results are identical at any job count.")

let with_pool jobs f =
  let domains = if jobs >= 1 then jobs else Parallel.Pool.default_domains () in
  Parallel.Pool.with_pool ~domains f

let trace_arg =
  Arg.(value & opt (some string) None
       & info [ "trace" ] ~docv:"FILE"
           ~doc:"Write a Chrome trace_event JSON of the simulated schedule to $(docv) \
                 (open in chrome://tracing or ui.perfetto.dev): one track per core, \
                 counter tracks for queue occupancy, instants for commits and \
                 squashes. When absent, $(b,SIM_TRACE) from the environment is \
                 used; unset means no trace.")

let trace_file flag = match flag with Some _ -> flag | None -> Sys.getenv_opt "SIM_TRACE"

(* Re-simulate the program with a recording sink and export the Chrome
   trace.  Simulations are cheap, so tracing is a separate instrumented
   run rather than a tax on every experiment. *)
let write_trace ~threads input file =
  let recorder = Obs.Sink.recorder () in
  ignore
    (Sim.Pipeline.run
       (Machine.Config.default ~cores:threads)
       ~obs:(Obs.Sink.record recorder) input);
  Obs.Trace_event.write_file file (Obs.Sink.events recorder);
  Format.eprintf "trace: %d events written to %s@." (Obs.Sink.count recorder) file

let summary_arg =
  Arg.(value & opt (some string) None
       & info [ "summary" ] ~docv:"FILE"
           ~doc:"Write an $(b,Obs.Summary) of the run — simulator counters, queue \
                 gauges and occupancy series folded from one simulation at the \
                 study's paper thread count — to $(docv). A .csv suffix selects the \
                 flat CSV table; anything else gets JSON. Independent of --trace: no \
                 event list is kept.")

(* Re-simulate once, folding each loop's event stream into the summary. *)
let write_summary ~threads input file =
  let snap = Core.Experiment.summary (Machine.Config.default ~cores:threads) input in
  if Filename.check_suffix file ".csv" then Obs.Summary.write_csv snap file
  else Obs.Summary.write_json snap file;
  Format.eprintf "summary: written to %s@." file

let find_study name =
  match Benchmarks.Registry.find name with
  | Some s -> Ok s
  | None ->
    Error (`Msg (Printf.sprintf "unknown benchmark %s (try: %s)" name
                   (String.concat ", " Benchmarks.Registry.names)))

(* Every per-benchmark subcommand starts the same way: resolve the -b
   argument against the registry, fail with the candidate list otherwise. *)
let with_study name f =
  match find_study name with Error _ as e -> e | Ok study -> f study

let threads_arg =
  Arg.(value & opt positive_int 8 & info [ "t"; "threads" ] ~docv:"N" ~doc:"Machine size.")

let list_cmd =
  let run () =
    List.iter
      (fun (s : Benchmarks.Study.t) ->
        Format.printf "%-12s  paper: %.2fx @ %d threads  —  %s@." s.Benchmarks.Study.spec_name
          s.Benchmarks.Study.paper_speedup s.Benchmarks.Study.paper_threads
          s.Benchmarks.Study.description)
      Benchmarks.Registry.all
  in
  Cmd.v (Cmd.info "list" ~doc:"List the benchmark case studies.")
    Term.(const run $ const ())

let run_cmd =
  let run name scale jobs trace summary =
    with_study name (fun study ->
      with_pool jobs (fun pool ->
          let e = Core.Experiment.run ~pool ~scale study in
          Core.Report.diagnostics Format.std_formatter e;
          let input = e.Core.Experiment.built.Core.Framework.input in
          let threads = study.Benchmarks.Study.paper_threads in
          (match trace_file trace with
          | None -> ()
          | Some file ->
            (* Trace the paper's headline configuration for this study. *)
            write_trace ~threads input file);
          (match summary with
          | None -> ()
          | Some file -> write_summary ~threads input file);
          Ok ()))
  in
  Cmd.v (Cmd.info "run" ~doc:"Sweep one benchmark across thread counts.")
    Term.(term_result
            (const run $ bench_arg $ scale_arg $ jobs_arg $ trace_arg $ summary_arg))

let explain_cmd =
  let json_arg =
    Arg.(value & opt (some string) None
         & info [ "json" ] ~docv:"FILE"
             ~doc:"Also write the attribution records as JSON to $(docv): an array \
                   with one object per parallelized loop (study, loop, stall \
                   taxonomy, critical path, bounds, diagnosis).")
  in
  let run name scale threads json =
    with_study name (fun study ->
      let profile = study.Benchmarks.Study.run ~scale in
      let built = Core.Framework.build ~plan:study.Benchmarks.Study.plan profile in
      let cfg = Machine.Config.default ~cores:threads in
      let blocks = ref [] in
      List.iter
        (function
          | Sim.Input.Serial _ -> ()
          | Sim.Input.Parallel loop ->
            let a = Obs_analysis.Attribution.run cfg loop in
            (* Under SIM_VALIDATE the oracle already re-checked the
               schedule; also assert the analysis' own conservation
               invariants (stall tiling, path length = span). *)
            if !Sim.Pipeline.validate_default then Obs_analysis.Attribution.validate_exn a;
            Obs_analysis.Explain.report Format.std_formatter a;
            Format.printf "@.";
            if json <> None then begin
              let block =
                match Obs_analysis.Attribution.to_json a with
                | Obs.Json.Obj fields ->
                  Obs.Json.Obj
                    (("study", Obs.Json.Str study.Benchmarks.Study.spec_name)
                     :: fields
                    @ [ ("diagnosis",
                         Obs.Json.Str (Obs_analysis.Explain.diagnose a)) ])
                | j -> j
              in
              blocks := block :: !blocks
            end)
        built.Core.Framework.input.Sim.Input.segments;
      (match json with
      | None -> ()
      | Some file ->
        Out_channel.with_open_bin file (fun oc ->
            Out_channel.output_string oc
              (Obs.Json.to_string (Obs.Json.Arr (List.rev !blocks))));
        Format.eprintf "explain: %d attribution records written to %s@."
          (List.length !blocks) file);
      Ok ())
  in
  Cmd.v
    (Cmd.info "explain"
       ~doc:"Attribute a benchmark's span: per-core stall taxonomy, critical path by \
             phase and edge kind, analytic bounds and headroom, one-line diagnosis. \
             $(b,--json) additionally emits the machine-readable records.")
    Term.(term_result (const run $ bench_arg $ scale_arg $ threads_arg $ json_arg))

let table1_cmd =
  let run () = Core.Report.table1 Format.std_formatter Benchmarks.Registry.all in
  Cmd.v (Cmd.info "table1" ~doc:"Print the paper's Table 1 (parallelization summary).")
    Term.(const run $ const ())

let table2_cmd =
  let run scale jobs =
    let experiments =
      with_pool jobs (fun pool ->
          Parallel.Pool.map_list pool (Core.Experiment.run ~scale) Benchmarks.Registry.all)
    in
    Core.Report.table2 Format.std_formatter experiments
  in
  Cmd.v (Cmd.info "table2" ~doc:"Reproduce Table 2 (best speedups vs Moore's law).")
    Term.(const run $ scale_arg $ jobs_arg)

let figure_benchmarks = function
  | 4 -> Ok [ "181.mcf"; "253.perlbmk"; "255.vortex"; "256.bzip2" ]
  | 5 -> Ok [ "176.gcc"; "254.gap" ]
  | 6 -> Ok [ "175.vpr"; "186.crafty"; "197.parser"; "300.twolf" ]
  | 7 -> Ok [ "164.gzip" ]
  | n -> Error (`Msg (Printf.sprintf "no figure %d (3..7 exist)" n))

let figure_cmd =
  let number_arg =
    Arg.(required & opt (some int) None
         & info [ "n"; "number" ] ~docv:"N" ~doc:"Figure number (3-7).")
  in
  let run n scale jobs =
    if n = 3 then begin
      Core.Report.figure3 Format.std_formatter (Machine.Config.default ~cores:8);
      Ok ()
    end
    else
      match figure_benchmarks n with
      | Error e -> Error e
      | Ok names ->
        let studies = List.filter_map Benchmarks.Registry.find names in
        let experiments =
          with_pool jobs (fun pool ->
              Parallel.Pool.map_list pool (Core.Experiment.run ~scale) studies)
        in
        Core.Report.figure Format.std_formatter
          ~title:(Printf.sprintf "Figure %d: speedup of MT over ST execution" n)
          experiments;
        Ok ()
  in
  Cmd.v (Cmd.info "figure" ~doc:"Reproduce a figure's data series.")
    Term.(term_result (const run $ number_arg $ scale_arg $ jobs_arg))

let ablate_cmd =
  let run name scale jobs =
    with_study name (fun study ->
      if study.Benchmarks.Study.baseline_plan = None then
        Error (`Msg (name ^ " has no annotation-free baseline plan"))
      else
        with_pool jobs (fun pool ->
            let annotated = Core.Experiment.run ~pool ~scale study in
            let baseline = Core.Experiment.run ~pool ~scale ~use_baseline_plan:true study in
            Format.printf "with annotations:@.";
            Core.Report.diagnostics Format.std_formatter annotated;
            Format.printf "without annotations:@.";
            Core.Report.diagnostics Format.std_formatter baseline;
            Ok ()))
  in
  Cmd.v
    (Cmd.info "ablate" ~doc:"Compare a study's annotated plan with its baseline plan.")
    Term.(term_result (const run $ bench_arg $ scale_arg $ jobs_arg))

let gantt_cmd =
  let run name scale threads trace =
    with_study name (fun study ->
      let profile = study.Benchmarks.Study.run ~scale in
      let built = Core.Framework.build ~plan:study.Benchmarks.Study.plan profile in
      List.iter
        (function
          | Sim.Input.Serial _ -> ()
          | Sim.Input.Parallel loop ->
            let r = Sim.Pipeline.run_loop (Machine.Config.default ~cores:threads) loop in
            Format.printf "loop %s (span %d):@." loop.Sim.Input.name r.Sim.Pipeline.span;
            Sim.Gantt.pp ~cores:threads Format.std_formatter r)
        built.Core.Framework.input.Sim.Input.segments;
      (match trace_file trace with
      | None -> ()
      | Some file -> write_trace ~threads built.Core.Framework.input file);
      Ok ())
  in
  Cmd.v (Cmd.info "gantt" ~doc:"Render a benchmark's simulated schedule as ASCII Gantt rows.")
    Term.(term_result (const run $ bench_arg $ scale_arg $ threads_arg $ trace_arg))

let chart_cmd =
  let run name scale jobs =
    with_study name (fun study ->
      with_pool jobs (fun pool ->
          let e = Core.Experiment.run ~pool ~scale study in
          Core.Chart.pp Format.std_formatter [ e.Core.Experiment.series ];
          Ok ()))
  in
  Cmd.v (Cmd.info "chart" ~doc:"Plot a benchmark's speedup curve as an ASCII chart.")
    Term.(term_result (const run $ bench_arg $ scale_arg $ jobs_arg))

let auto_cmd =
  let run name scale =
    with_study name (fun study ->
      let profile = study.Benchmarks.Study.run ~scale in
      let trace = Profiling.Profile.trace profile in
      List.iter
        (fun (loop : Ir.Trace.loop) ->
          let log = Profiling.Profile.log_of profile loop.Ir.Trace.loop_name in
          let mem_edges = Profiling.Mem_profile.analyze log in
          let profiles =
            Speculation.Auto_plan.profile_locations
              ~loc_name:(Profiling.Profile.loc_name profile) ~loop ~mem_edges
          in
          Format.printf "loop %s:@." loop.Ir.Trace.loop_name;
          Speculation.Auto_plan.pp_profile Format.std_formatter profiles)
        (Ir.Trace.loops trace);
      Ok ())
  in
  Cmd.v
    (Cmd.info "auto"
       ~doc:"Show the profile-guided speculation decisions for a benchmark's loops.")
    Term.(term_result (const run $ bench_arg $ scale_arg))

(* Re-annotate every function of every group without its rollback: the
   registry shape the strip-rollback mutation wants. *)
let strip_rollbacks c =
  let c' = Annotations.Commutative.create () in
  List.iter
    (fun group ->
      List.iter
        (fun fn -> Annotations.Commutative.annotate c' ~fn ~group ())
        (Annotations.Commutative.members c ~group))
    (Annotations.Commutative.groups c);
  c'

let mutations =
  [
    ("no-alias", `No_alias);
    ("no-value", `No_value);
    ("no-sync", `No_sync);
    ("unannotate", `Unannotate);
    ("strip-rollback", `Strip_rollback);
  ]

let mutate_plan kind (plan : Speculation.Spec_plan.t) =
  let open Speculation.Spec_plan in
  match kind with
  | `No_alias -> { plan with alias = No_alias }
  | `No_value -> { plan with value_locs = [] }
  | `No_sync -> { plan with sync_locs = [] }
  | `Unannotate -> { plan with commutative = Annotations.Commutative.create () }
  | `Strip_rollback -> { plan with commutative = strip_rollbacks plan.commutative }

let lint_cmd =
  let strict_arg =
    Arg.(value & flag
         & info [ "strict" ] ~doc:"Treat warning-severity findings as blocking too.")
  in
  let mutate_arg =
    Arg.(value & opt (some (enum mutations)) None
         & info [ "mutate" ] ~docv:"KIND"
             ~doc:"Lint against a deliberately corrupted copy of the plan while \
                   keeping the partition the original plan produced (the stale- \
                   artifact scenario). One of: no-alias, no-value, no-sync, \
                   unannotate, strip-rollback. The lint must then fail; used by \
                   the golden snapshots in test/golden to prove each diagnostic \
                   fires.")
  in
  let json_arg =
    Arg.(value & opt (some string) None
         & info [ "json" ] ~docv:"FILE"
             ~doc:"Also write the findings as JSON to $(docv) (same record shape as \
                   $(b,repro audit-pdg --json): summary counts plus one object per \
                   finding with fields kind, severity, where, message, hint).")
  in
  let run name scale strict mutate json =
    with_study name (fun study ->
      let pdg = study.Benchmarks.Study.pdg () in
      let plan = study.Benchmarks.Study.plan in
      (* Partition under the *shipped* plan; --mutate only swaps the plan
         the lint passes see. *)
      let partition =
        Dswp.Partition.partition pdg
          ~enabled:(Speculation.Spec_plan.enabled_breakers plan)
      in
      let lint_plan = match mutate with None -> plan | Some k -> mutate_plan k plan in
      let profile = study.Benchmarks.Study.run ~scale in
      let findings = Lint.Driver.run ~pdg ~partition ~plan:lint_plan ~profile () in
      Format.printf "%s %s:@." study.Benchmarks.Study.spec_name
        (match mutate with
        | None -> "shipped plan"
        | Some k -> Printf.sprintf "plan mutated with %s"
                      (fst (List.find (fun (_, v) -> v = k) mutations)));
      Lint.Diagnostic.pp_report Format.std_formatter findings;
      (match json with
      | None -> ()
      | Some file ->
        Out_channel.with_open_bin file (fun oc ->
            Out_channel.output_string oc
              (Obs.Json.to_string (Lint.Diagnostic.report_to_json findings)));
        Format.eprintf "lint: %d findings written to %s@." (List.length findings) file);
      (* Cmdliner's term_result reserves its own exit codes; the documented
         contract (0 clean / 1 findings) needs an explicit exit. *)
      let code = Lint.Diagnostic.exit_code ~strict findings in
      if code <> 0 then exit code;
      Ok ())
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:"Check a benchmark's PDG, partition and speculation plan for soundness \
             (structural lint, unbroken dependences, annotation hygiene) and replay \
             its access logs through a happens-before race detector. Exits 0 when \
             clean, 1 when any error-severity finding exists ($(b,--strict) promotes \
             warnings).")
    Term.(term_result
            (const run $ bench_arg $ scale_arg $ strict_arg $ mutate_arg $ json_arg))

(* Shared by infer/audit-pdg: the study's loop-body IR, or a helpful error. *)
let with_flow_body (study : Benchmarks.Study.t) f =
  match study.Benchmarks.Study.flow_body with
  | Some body -> f body
  | None ->
    Error
      (`Msg
         (Printf.sprintf
            "%s has no loop-body IR yet (studies with one: %s)"
            study.Benchmarks.Study.spec_name
            (String.concat ", "
               (List.filter_map
                  (fun (s : Benchmarks.Study.t) ->
                    if s.Benchmarks.Study.flow_body <> None then
                      Some s.Benchmarks.Study.spec_name
                    else None)
                  Benchmarks.Registry.all))))

let iterations_arg =
  Cmdliner.Arg.(
    value & opt int 200
    & info [ "iterations" ] ~docv:"N"
        ~doc:"Reference-interpreter iterations behind the measured probabilities \
              and distance histograms.")

let infer_cmd =
  let run name iterations =
    with_study name (fun study ->
      with_flow_body study (fun body ->
        let commutative = study.Benchmarks.Study.plan.Speculation.Spec_plan.commutative in
        let r = Flow.Infer.run ~commutative ~iterations body in
        Format.printf "%a@." Flow.Analyze.pp r.Flow.Infer.analysis;
        Format.printf "measured rates (%d iterations):@." r.Flow.Infer.iterations;
        List.iter
          (fun (dep, rate) ->
            Format.printf "  p=%.3f  %a@." rate (Flow.Analyze.pp_dep body) dep)
          r.Flow.Infer.rates;
        Format.printf "@.%a@." Ir.Pdg.pp r.Flow.Infer.pdg;
        if r.Flow.Infer.histograms <> [] then begin
          Format.printf "@.carried distance histograms:@.";
          List.iter
            (fun (((src, dst), norm), ((_, _), total)) ->
              Format.printf "  %s->%s (%d obs): %s@."
                body.Flow.Body.b_regions.(src).Flow.Body.r_label
                body.Flow.Body.b_regions.(dst).Flow.Body.r_label total
                (String.concat " "
                   (List.map (fun (d, f) -> Printf.sprintf "d%d:%.2f" d f) norm)))
            (List.combine r.Flow.Infer.histograms r.Flow.Infer.hist_totals)
        end;
        Ok ()))
  in
  Cmd.v
    (Cmd.info "infer"
       ~doc:"Run the static dependence analysis on a benchmark's loop-body IR: the \
             dependence set with its iteration-distance lattice, measured \
             manifestation rates, the synthesized PDG, and the carried-distance \
             histograms the reference interpreter observed.")
    Term.(term_result (const run $ bench_arg $ iterations_arg))

let audit_cmd =
  let strict_arg =
    Arg.(value & flag
         & info [ "strict" ] ~doc:"Treat warning-severity findings as blocking too.")
  in
  let mutate_arg =
    Arg.(value & opt (some (enum [ ("drop-write", `Drop_write) ])) None
         & info [ "mutate" ] ~docv:"KIND"
             ~doc:"Audit a deliberately corrupted copy of the loop-body IR (the \
                   interpreter still runs the original). $(b,drop-write) removes \
                   the body's first write, so the soundness layer must report the \
                   now-unpredicted dependences and exit 1; used by the golden \
                   snapshots in test/golden to prove the audit can fail.")
  in
  let json_arg =
    Arg.(value & opt (some string) None
         & info [ "json" ] ~docv:"FILE"
             ~doc:"Also write the findings as JSON to $(docv) (same record shape as \
                   $(b,repro lint --json)).")
  in
  let run name iterations strict mutate json =
    with_study name (fun study ->
      with_flow_body study (fun body ->
        let commutative = study.Benchmarks.Study.plan.Speculation.Spec_plan.commutative in
        let hand = study.Benchmarks.Study.pdg () in
        let r = Lint.Audit.check ~iterations ?mutate ~commutative ~hand body in
        Format.printf "%s %s:@." study.Benchmarks.Study.spec_name
          (match mutate with
          | None -> "hand PDG vs inferred"
          | Some `Drop_write -> "IR mutated with drop-write");
        Lint.Diagnostic.pp_report Format.std_formatter r.Lint.Audit.diagnostics;
        (match json with
        | None -> ()
        | Some file ->
          Out_channel.with_open_bin file (fun oc ->
              Out_channel.output_string oc
                (Obs.Json.to_string
                   (Lint.Diagnostic.report_to_json r.Lint.Audit.diagnostics)));
          Format.eprintf "audit-pdg: %d findings written to %s@."
            (List.length r.Lint.Audit.diagnostics) file);
        let code = Lint.Diagnostic.exit_code ~strict r.Lint.Audit.diagnostics in
        if code <> 0 then exit code;
        Ok ()))
  in
  Cmd.v
    (Cmd.info "audit-pdg"
       ~doc:"Audit a benchmark's hand-written PDG against the statically inferred \
             one: a hand PDG missing an inferred must-dependence (or failing the \
             interpreter-vs-analysis soundness check) is an error; extra \
             conservative edges, breaker mismatches and probability/weight drift \
             are warnings. Exits 0 when clean, 1 when any error-severity finding \
             exists ($(b,--strict) promotes warnings).")
    Term.(term_result
            (const run $ bench_arg $ iterations_arg $ strict_arg $ mutate_arg
             $ json_arg))

let plan_cmd =
  let beam_arg =
    Arg.(value & opt positive_int 8
         & info [ "beam" ] ~docv:"K"
             ~doc:"Simulation wave size: the branch-and-bound incumbent advances \
                   between waves of $(docv) candidates.")
  in
  let budget_arg =
    Arg.(value & opt int 64
         & info [ "budget" ] ~docv:"N"
             ~doc:"Maximum number of candidate simulations; seed plans are always \
                   simulated and exempt from the budget.")
  in
  let plan_threads_arg =
    Arg.(value & opt positive_int 16
         & info [ "t"; "threads" ] ~docv:"N"
             ~doc:"Simulated machine size for replicated candidates.")
  in
  let corrupt_arg =
    Arg.(value & flag
         & info [ "corrupt-candidates" ]
             ~doc:"Self-test: structurally corrupt every non-seed candidate's \
                   partition (a serial stage merged into the replicated stage) \
                   before linting. The lint pruner must then reject candidates: \
                   exits 0 iff the reported lint-pruned count is positive; used by \
                   the golden snapshots in test/golden to prove the pruning path \
                   fires.")
  in
  let run name beam budget threads jobs corrupt =
    with_study name (fun study ->
      with_pool jobs (fun pool ->
          let report =
            Core.Plan_search.run ~pool ~beam ~budget ~threads ~corrupt study
          in
          Core.Plan_search.pp Format.std_formatter report;
          (* Documented contract (cmdliner reserves its own codes, so exit
             explicitly): normally 0 iff a winner exists, every simulated
             run is oracle-valid, and the winner matches or beats the hand
             seed; with --corrupt-candidates, 0 iff lint pruned anything. *)
          let ok =
            if corrupt then
              report.Core.Plan_search.search.Dswp.Search.counts
                .Dswp.Search.lint_pruned > 0
            else
              match
                ( Core.Plan_search.winner_speedup report,
                  Core.Plan_search.seed_speedup report )
              with
              | Some w, Some h ->
                Core.Plan_search.oracle_clean report && w +. 1e-9 >= h
              | _ -> false
          in
          if not ok then exit 1;
          Ok ()))
  in
  Cmd.v
    (Cmd.info "plan"
       ~doc:"Search the plan space for a benchmark: enumerate breaker subsets \
             and stage assignments from both partitioners (DAG-SCC and backward \
             slicing), reject unsound candidates with the lint, prune with sound \
             analytic bounds, simulate survivors across a worker pool, and \
             validate every simulated schedule with the oracle. Prints a ranked \
             table; exits 0 when the winning plan is oracle-valid and matches or \
             beats the hand plan, 1 otherwise.")
    Term.(term_result
            (const run $ bench_arg $ beam_arg $ budget_arg $ plan_threads_arg
             $ jobs_arg $ corrupt_arg))

let profile_real_cmd =
  let threads_arg =
    Arg.(value & opt int 4
         & info [ "t"; "threads" ] ~docv:"N"
             ~doc:"Domain count for the probed run (at least 2: the sequential \
                   path has no roles to probe).")
  in
  let run name threads scale trace =
    with_study name (fun study ->
      if threads < 2 then Error (`Msg "profile-real needs --threads >= 2")
      else begin
        let bname = study.Benchmarks.Study.spec_name in
        (* Staged pipelines may carry run-once state, so the sequential
           reference and the probed run each get a fresh instance. *)
        let seq = Runtime.Staged.run_seq (Runtime.Real_bench.staged ~scale bname) in
        let want_trace = trace_file trace in
        let r =
          Runtime.Exec.run ~threads ~name:bname ~probe:true
            (Runtime.Real_bench.staged ~scale bname)
        in
        let st = r.Runtime.Exec.stats in
        Format.printf "profile-real: %s at %d domains (%d B replicas), %.3fs, %d squashes@."
          bname st.Runtime.Exec.threads st.Runtime.Exec.replicas
          st.Runtime.Exec.seconds st.Runtime.Exec.squashes;
        (match r.Runtime.Exec.telemetry with
        | None -> Format.printf "no telemetry (sequential run)@."
        | Some tl ->
          Format.printf "@[<v>%a@]@." (Runtime.Exec.pp_telemetry st) tl);
        (match want_trace with
        | None -> ()
        | Some file ->
          let events = Runtime.Exec.events r in
          Obs.Trace_event.write_file ~process_name:("profile-real " ^ bname) file events;
          Format.eprintf "trace: %d real events written to %s@." (List.length events) file);
        (* Documented contract: 0 = probed output byte-identical to the
           sequential reference, 1 = mismatch (cmdliner reserves its own
           codes, so exit explicitly). *)
        if r.Runtime.Exec.output <> seq then begin
          Format.eprintf "profile-real: OUTPUT MISMATCH vs sequential reference@.";
          exit 1
        end;
        Ok ()
      end)
  in
  Cmd.v
    (Cmd.info "profile-real"
       ~doc:"Run one benchmark on real domains with telemetry probes enabled: \
             per-role dispatch/run/commit latency histograms, queue stall and \
             occupancy high-water stats, squash and validation costs. \
             $(b,--trace) writes a Chrome trace of the real event stream (with \
             SPSC queue-occupancy counter tracks). Exits 0 when the probed output \
             is byte-identical to the sequential reference, 1 otherwise.")
    Term.(term_result
            (const run $ bench_arg $ threads_arg $ scale_arg $ trace_arg))

let validate_real_cmd =
  let bench_opt_arg =
    Arg.(value & opt (some string) None
         & info [ "b"; "benchmark" ] ~docv:"NAME"
             ~doc:"Validate one benchmark (e.g. 164.gzip or gzip). Default: all 11.")
  in
  let threads_arg =
    Arg.(value & opt positive_int 4
         & info [ "t"; "threads" ] ~docv:"N"
             ~doc:"Run each benchmark at every domain count from 1 to $(docv). Real \
                   speedup needs at least $(docv) cores; output equality is checked \
                   regardless.")
  in
  let corrupt_arg =
    Arg.(value & flag
         & info [ "self-test-corrupt" ]
             ~doc:"Self-test: flip one byte of the first parallel output before the \
                   equality check. The command must then exit 1; used by \
                   scripts/check.sh to prove the check can fail.")
  in
  let run bench threads scale trace corrupt =
    (match bench with
    | None -> Ok ()
    | Some b -> Result.map (fun (_ : Benchmarks.Study.t) -> ()) (find_study b))
    |> Result.map (fun () ->
           let benches = Option.map (fun b -> [ b ]) bench in
           let outcome =
             Runtime.Validate.run ?benches ~max_threads:threads ~scale
               ?trace:(trace_file trace) ~corrupt ()
           in
           (* Documented contract: 0 = byte-identical everywhere, 1 = any
              mismatch; cmdliner reserves its own codes, so exit here. *)
           if not outcome.Runtime.Validate.ok then exit 1)
  in
  Cmd.v
    (Cmd.info "validate-real"
       ~doc:"Execute benchmarks on real OCaml domains (A|B|C pipeline over lock-free \
             SPSC queues; speculative stages read a lock-free store and commit after \
             validation) and validate \
             against the simulator: parallel output must be byte-identical to the \
             sequential reference at every thread count, and measured wall-clock \
             speedup is printed beside the simulator's prediction. Exits 0 when every \
             output matches, 1 otherwise.")
    Term.(term_result
            (const run $ bench_opt_arg $ threads_arg $ scale_arg $ trace_arg
             $ corrupt_arg))

let () =
  let default = Term.(ret (const (`Help (`Pager, None)))) in
  let info =
    Cmd.info "repro" ~version:"1.0"
      ~doc:"Reproduction of 'Revisiting the Sequential Programming Model for Multi-Core'."
  in
  exit
    (Cmd.eval
       (Cmd.group ~default info
          [
            list_cmd; run_cmd; explain_cmd; lint_cmd; infer_cmd; audit_cmd; plan_cmd;
            table1_cmd; table2_cmd; figure_cmd; ablate_cmd; gantt_cmd; chart_cmd;
            auto_cmd; profile_real_cmd; validate_real_cmd;
          ]))
