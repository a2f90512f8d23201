(* End-to-end smoke tests over the public Core API: every study builds,
   simulates, and produces sane speedups.  The detailed per-module suites
   live in the other test executables. *)

let check_study (s : Benchmarks.Study.t) () =
  let e = Core.Experiment.run ~threads:[ 1; 4; 8 ] s in
  let best = Core.Experiment.best e in
  Alcotest.(check bool)
    (s.Benchmarks.Study.spec_name ^ " speedup >= 1")
    true
    (best.Sim.Speedup.speedup >= 0.99);
  let p1 =
    match Sim.Speedup.at_threads e.Core.Experiment.series 1 with
    | Some p -> p
    | None -> Alcotest.fail "missing 1-thread point"
  in
  Alcotest.(check bool)
    (s.Benchmarks.Study.spec_name ^ " single-thread speedup ~ 1")
    true
    (abs_float (p1.Sim.Speedup.speedup -. 1.0) < 0.001)

let partition_matches (s : Benchmarks.Study.t) () =
  let ok =
    Core.Framework.validate_partition
      (s.Benchmarks.Study.pdg ())
      ~plan:s.Benchmarks.Study.plan
      ~expected_parallel:s.Benchmarks.Study.pdg_expected_parallel
  in
  Alcotest.(check bool) (s.Benchmarks.Study.spec_name ^ " partition") true ok

(* ------------------------------------------------------------------ *)
(* Framework plumbing                                                  *)

let build_rejects_open_profile () =
  let p = Profiling.Profile.create ~name:"x" in
  Profiling.Profile.begin_loop p "l";
  Alcotest.check_raises "open loop"
    (Invalid_argument "Profile.trace: a loop or task is still open") (fun () ->
      ignore (Core.Framework.build ~plan:(Speculation.Spec_plan.make ()) p))

let build_auto_matches_hand_on_gzip () =
  let s =
    match Benchmarks.Registry.find "164.gzip" with Some s -> s | None -> assert false
  in
  let speedup built =
    let series =
      Sim.Speedup.sweep ~threads:[ 1; 8 ] ~label:"x" built.Core.Framework.input
    in
    match Sim.Speedup.at_threads series 8 with
    | Some p -> p.Sim.Speedup.speedup
    | None -> Alcotest.fail "missing point"
  in
  let hand =
    speedup
      (Core.Framework.build ~plan:s.Benchmarks.Study.plan
         (s.Benchmarks.Study.run ~scale:Benchmarks.Study.Small))
  in
  let auto, plans =
    Core.Framework.build_auto (s.Benchmarks.Study.run ~scale:Benchmarks.Study.Small)
  in
  Alcotest.(check int) "one loop planned" 1 (List.length plans);
  Alcotest.(check bool) "auto within 10% of hand" true
    (speedup auto >= 0.9 *. hand)

let plan_for_overrides_per_loop () =
  (* Two loops; the override synchronizes everything in the second. *)
  let p = Profiling.Profile.create ~name:"two" in
  let shared = Profiling.Profile.loc p "shared" in
  let run_loop name =
    Profiling.Profile.begin_loop p name;
    for i = 0 to 5 do
      ignore (Profiling.Profile.begin_task p ~iteration:i ~phase:Ir.Task.B ());
      Profiling.Profile.read p shared;
      Profiling.Profile.work p 10;
      Profiling.Profile.write p shared i;
      Profiling.Profile.end_task p
    done;
    Profiling.Profile.end_loop p
  in
  run_loop "first";
  run_loop "second";
  let spec_plan = Speculation.Spec_plan.make ~alias:Speculation.Spec_plan.Alias_all () in
  let sync_plan = Speculation.Spec_plan.make () in
  let built =
    Core.Framework.build
      ~plan_for:(fun name -> if name = "second" then Some sync_plan else None)
      ~plan:spec_plan p
  in
  (match built.Core.Framework.diagnostics with
  | [ d1; d2 ] ->
    Alcotest.(check bool) "first speculates" true
      (d1.Core.Framework.resolve_stats.Speculation.Resolve.speculated > 0);
    Alcotest.(check int) "second synchronizes" 0
      d2.Core.Framework.resolve_stats.Speculation.Resolve.speculated
  | _ -> Alcotest.fail "expected two loops")

let report_smoke () =
  (* The report functions must render without raising. *)
  let buf = Buffer.create 256 in
  let ppf = Format.formatter_of_buffer buf in
  Core.Report.table1 ppf Benchmarks.Registry.all;
  Core.Report.figure3 ppf (Machine.Config.default ~cores:8);
  let e =
    Core.Experiment.run ~threads:[ 1; 4 ]
      (match Benchmarks.Registry.find "256.bzip2" with Some s -> s | None -> assert false)
  in
  Core.Report.table2 ppf [ e ];
  Core.Report.figure ppf ~title:"t" [ e ];
  Core.Report.diagnostics ppf e;
  Format.pp_print_flush ppf ();
  Alcotest.(check bool) "rendered something" true (Buffer.length buf > 200)

let chart_renders () =
  let e =
    Core.Experiment.run ~threads:[ 1; 4; 8 ]
      (match Benchmarks.Registry.find "256.bzip2" with Some s -> s | None -> assert false)
  in
  let text = Core.Chart.render [ e.Core.Experiment.series ] in
  Alcotest.(check bool) "legend present" true
    (String.length text > 100
    &&
    let needle = "256.bzip2" in
    let n = String.length needle in
    let rec go i = i + n <= String.length text && (String.sub text i n = needle || go (i + 1)) in
    go 0)

let chart_empty () =
  Alcotest.(check string) "no data" "(no data)\n" (Core.Chart.render [])

let experiment_row_consistent () =
  let e =
    Core.Experiment.run ~threads:[ 1; 8 ]
      (match Benchmarks.Registry.find "186.crafty" with Some s -> s | None -> assert false)
  in
  let row = Core.Experiment.table2_row e in
  Alcotest.(check (float 1e-9)) "ratio = speedup / moore"
    (row.Core.Experiment.speedup /. row.Core.Experiment.moore)
    row.Core.Experiment.ratio

(* Framework.build's input and diagnostics equal the verbatim reference
   build's (test/ref_build.ml) on every study at Small and Large. *)
let build_matches_reference () =
  List.iter
    (fun scale ->
      List.iter
        (fun (s : Benchmarks.Study.t) ->
          let profile = s.Benchmarks.Study.run ~scale in
          let plan = s.Benchmarks.Study.plan in
          let built = Core.Framework.build ~plan profile in
          let reference = Ref_build.Framework.build ~plan profile in
          Alcotest.(check bool)
            (Printf.sprintf "%s %s: input = reference" s.Benchmarks.Study.spec_name
               (Benchmarks.Study.scale_to_string scale))
            true
            (built.Core.Framework.input = reference.Core.Framework.input
            && built.Core.Framework.diagnostics = reference.Core.Framework.diagnostics))
        Benchmarks.Registry.all)
    [ Benchmarks.Study.Small; Benchmarks.Study.Large ]

let () =
  let study_cases =
    List.map
      (fun (s : Benchmarks.Study.t) ->
        Alcotest.test_case s.Benchmarks.Study.spec_name `Slow (check_study s))
      Benchmarks.Registry.all
  in
  let partition_cases =
    List.map
      (fun (s : Benchmarks.Study.t) ->
        Alcotest.test_case s.Benchmarks.Study.spec_name `Quick (partition_matches s))
      Benchmarks.Registry.all
  in
  Alcotest.run "core"
    [
      ("end-to-end", study_cases);
      ("dswp-partition", partition_cases);
      ( "framework",
        [
          Alcotest.test_case "rejects open profile" `Quick build_rejects_open_profile;
          Alcotest.test_case "auto matches hand (gzip)" `Slow build_auto_matches_hand_on_gzip;
          Alcotest.test_case "per-loop plan override" `Quick plan_for_overrides_per_loop;
          Alcotest.test_case "build = reference on the registry" `Slow build_matches_reference;
        ] );
      ( "report",
        [
          Alcotest.test_case "smoke" `Slow report_smoke;
          Alcotest.test_case "table2 row" `Slow experiment_row_consistent;
          Alcotest.test_case "chart renders" `Slow chart_renders;
          Alcotest.test_case "chart empty" `Quick chart_empty;
        ] );
    ]
