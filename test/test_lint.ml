(* The lint subsystem: structural PDG checks, plan/partition soundness,
   the happens-before race detector, and mutation differentials proving
   that corrupting a known-good plan produces the named diagnostic. *)

module D = Lint.Diagnostic
module R = Check.Runner

let kinds ds = List.map (fun (d : D.t) -> d.D.kind) ds

let has_kind k ds = List.mem k (kinds ds)

let expect_pass ~name gen prop =
  R.run_prop_exn ~count:200 ~print:(Format.asprintf "%a" Ir.Pdg.pp) ~name gen prop

(* ------------------------------------------------------------------ *)
(* Pdg_check                                                           *)

(* a -> b -> c pipeline shape with a broken recurrence on b. *)
let little_pdg () =
  let g = Ir.Pdg.create "little" in
  let a = Ir.Pdg.add_node g ~label:"produce" ~weight:0.2 () in
  let b = Ir.Pdg.add_node g ~label:"work" ~weight:0.6 ~replicable:true () in
  let c = Ir.Pdg.add_node g ~label:"consume" ~weight:0.2 () in
  Ir.Pdg.add_edge g ~src:a ~dst:b ~kind:Ir.Dep.Register ();
  Ir.Pdg.add_edge g ~src:b ~dst:c ~kind:Ir.Dep.Register ();
  Ir.Pdg.add_edge g ~src:a ~dst:a ~kind:Ir.Dep.Register ~loop_carried:true ();
  Ir.Pdg.add_edge g ~src:b ~dst:b ~kind:Ir.Dep.Memory ~loop_carried:true
    ~breaker:Ir.Pdg.Alias_speculation ();
  (g, a, b, c)

let pdg_check_clean () =
  let g, _, _, _ = little_pdg () in
  Alcotest.(check int) "no findings" 0 (List.length (Lint.Pdg_check.check g))

let pdg_check_probability () =
  let g, a, b, _ = little_pdg () in
  Ir.Pdg.add_edge g ~src:a ~dst:b ~kind:Ir.Dep.Memory ~probability:1.5 ();
  let ds = Lint.Pdg_check.check g in
  Alcotest.(check bool) "bad-annotation error" true
    (has_kind D.Bad_annotation (D.errors ds))

let pdg_check_breaker_kind () =
  let g, a, b, _ = little_pdg () in
  (* Alias speculation claims to break a register dependence: nonsense. *)
  Ir.Pdg.add_edge g ~src:a ~dst:b ~kind:Ir.Dep.Register ~loop_carried:true
    ~breaker:Ir.Pdg.Alias_speculation ();
  let ds = Lint.Pdg_check.check g in
  Alcotest.(check bool) "mismatch is an error" true
    (has_kind D.Bad_annotation (D.errors ds))

let pdg_check_useless_breaker () =
  let g, a, b, _ = little_pdg () in
  (* A breaker on an intra-iteration edge buys nothing: warning. *)
  Ir.Pdg.add_edge g ~src:a ~dst:b ~kind:Ir.Dep.Memory ~breaker:Ir.Pdg.Silent_store ();
  let ds = Lint.Pdg_check.check g in
  Alcotest.(check int) "no errors" 0 (List.length (D.errors ds));
  Alcotest.(check bool) "warning" true (has_kind D.Bad_annotation (D.warnings ds))

(* ------------------------------------------------------------------ *)
(* Plan_check                                                          *)

let all_enabled _ = true
let none_enabled _ = false

let plan_check_sound () =
  let g, _, _, _ = little_pdg () in
  let partition = Dswp.Partition.partition g ~enabled:all_enabled in
  let ds = Lint.Plan_check.check_enabled ~pdg:g ~partition ~enabled:all_enabled in
  Alcotest.(check int) "no findings" 0 (List.length ds)

let plan_check_unbroken () =
  let g, _, _, _ = little_pdg () in
  (* Partition as if the breaker were enabled, then lint under a plan
     that disables it: the b->b recurrence is stranded inside the
     replicated stage. *)
  let partition = Dswp.Partition.partition g ~enabled:all_enabled in
  let ds = Lint.Plan_check.check_enabled ~pdg:g ~partition ~enabled:none_enabled in
  Alcotest.(check bool) "unbroken-dep error" true
    (has_kind D.Unbroken_dep (D.errors ds))

let stage ~phase ~nodes ~replicated =
  {
    Dswp.Partition.phase;
    nodes;
    weight = 0.0 (* not linted *);
    replicated;
  }

let plan_check_stage_closure () =
  let g, a, b, c = little_pdg () in
  (* Node b claimed by no stage. *)
  let partition =
    {
      Dswp.Partition.stages =
        [
          stage ~phase:Ir.Task.A ~nodes:[ a ] ~replicated:false;
          stage ~phase:Ir.Task.B ~nodes:[] ~replicated:false;
          stage ~phase:Ir.Task.C ~nodes:[ c ] ~replicated:false;
        ];
      broken = [];
    }
  in
  let ds = Lint.Plan_check.check_enabled ~pdg:g ~partition ~enabled:all_enabled in
  Alcotest.(check bool) "stage-closure error" true
    (has_kind D.Stage_closure (D.errors ds));
  ignore b

let plan_check_nonreplicable () =
  let g, a, b, c = little_pdg () in
  (* 'produce' (not replicable) forced into the replicated stage. *)
  let partition =
    {
      Dswp.Partition.stages =
        [
          stage ~phase:Ir.Task.A ~nodes:[] ~replicated:false;
          stage ~phase:Ir.Task.B ~nodes:[ a; b ] ~replicated:true;
          stage ~phase:Ir.Task.C ~nodes:[ c ] ~replicated:false;
        ];
      broken = [];
    }
  in
  let ds = Lint.Plan_check.check_enabled ~pdg:g ~partition ~enabled:all_enabled in
  Alcotest.(check bool) "stage-closure error" true
    (has_kind D.Stage_closure (D.errors ds))

let plan_check_backward_edge () =
  let g = Ir.Pdg.create "backward" in
  let a = Ir.Pdg.add_node g ~label:"a" ~weight:0.5 () in
  let b = Ir.Pdg.add_node g ~label:"b" ~weight:0.5 ~replicable:true () in
  Ir.Pdg.add_edge g ~src:b ~dst:a ~kind:Ir.Dep.Register ~loop_carried:true ();
  let partition =
    {
      Dswp.Partition.stages =
        [
          stage ~phase:Ir.Task.A ~nodes:[ a ] ~replicated:false;
          stage ~phase:Ir.Task.B ~nodes:[ b ] ~replicated:true;
          stage ~phase:Ir.Task.C ~nodes:[] ~replicated:false;
        ];
      broken = [];
    }
  in
  let ds = Lint.Plan_check.check_enabled ~pdg:g ~partition ~enabled:none_enabled in
  Alcotest.(check bool) "backward carried dep is unbroken" true
    (has_kind D.Unbroken_dep (D.errors ds))

let plan_check_deadlock_risk () =
  let g = Ir.Pdg.create "spec-into-serial" in
  let b = Ir.Pdg.add_node g ~label:"b" ~weight:0.5 ~replicable:true () in
  let c = Ir.Pdg.add_node g ~label:"c" ~weight:0.5 () in
  Ir.Pdg.add_edge g ~src:b ~dst:c ~kind:Ir.Dep.Memory ~loop_carried:true
    ~breaker:Ir.Pdg.Alias_speculation ();
  let partition =
    {
      Dswp.Partition.stages =
        [
          stage ~phase:Ir.Task.A ~nodes:[] ~replicated:false;
          stage ~phase:Ir.Task.B ~nodes:[ b ] ~replicated:true;
          stage ~phase:Ir.Task.C ~nodes:[ c ] ~replicated:false;
        ];
      broken = [];
    }
  in
  let ds = Lint.Plan_check.check_enabled ~pdg:g ~partition ~enabled:all_enabled in
  Alcotest.(check int) "no errors" 0 (List.length (D.errors ds));
  Alcotest.(check bool) "deadlock-risk warning" true
    (has_kind D.Deadlock_risk (D.warnings ds))

let plan_check_commutative () =
  let g = Ir.Pdg.create "commutative" in
  let b = Ir.Pdg.add_node g ~label:"b" ~weight:1.0 ~replicable:true () in
  Ir.Pdg.add_edge g ~src:b ~dst:b ~kind:Ir.Dep.Memory ~loop_carried:true
    ~breaker:(Ir.Pdg.Commutative_annotation "alloc") ();
  (* Registered group, with a rollback, no other speculation: clean. *)
  let reg = Annotations.Commutative.create () in
  Annotations.Commutative.annotate reg ~fn:"xalloc" ~group:"alloc" ~rollback:"xfree" ();
  let plan = Speculation.Spec_plan.make ~commutative:reg () in
  let partition =
    Dswp.Partition.partition g ~enabled:(Speculation.Spec_plan.enabled_breakers plan)
  in
  Alcotest.(check int) "honoured group is clean" 0
    (List.length (Lint.Plan_check.check ~pdg:g ~partition ~plan));
  (* Same partition, plan whose registry does not define the group. *)
  let bare = Speculation.Spec_plan.make () in
  let ds = Lint.Plan_check.check ~pdg:g ~partition ~plan:bare in
  Alcotest.(check bool) "undefined group" true
    (has_kind D.Bad_annotation (D.errors ds));
  (* Speculating plan whose group lost its rollback. *)
  let noroll = Annotations.Commutative.create () in
  Annotations.Commutative.annotate noroll ~fn:"xalloc" ~group:"alloc" ();
  let spec =
    Speculation.Spec_plan.make ~alias:Speculation.Spec_plan.Alias_all
      ~commutative:noroll ()
  in
  let ds = Lint.Plan_check.check ~pdg:g ~partition ~plan:spec in
  Alcotest.(check bool) "missing rollback under speculation" true
    (has_kind D.Bad_annotation (D.errors ds))

(* ------------------------------------------------------------------ *)
(* Race_check                                                          *)

(* Two iterations of the A/B/C pipeline; both B tasks touch location 0
   ("acc"): iteration 0's B writes what iteration 1's B reads, and the
   replicas run concurrently. *)
let two_iter_loop () =
  let t ~id ~iteration ~phase =
    Ir.Task.make ~id ~iteration ~phase ~work:10 ()
  in
  {
    Ir.Trace.loop_name = "loop";
    tasks =
      [|
        t ~id:0 ~iteration:0 ~phase:Ir.Task.A;
        t ~id:1 ~iteration:0 ~phase:Ir.Task.B;
        t ~id:2 ~iteration:0 ~phase:Ir.Task.C;
        t ~id:3 ~iteration:1 ~phase:Ir.Task.A;
        t ~id:4 ~iteration:1 ~phase:Ir.Task.B;
        t ~id:5 ~iteration:1 ~phase:Ir.Task.C;
      |];
    explicit_deps = [];
  }

let acc_log ?group () =
  let log = Profiling.Access_log.create () in
  Profiling.Access_log.record log ~task:1 ~loc:0 ~op:(Profiling.Access_log.Write 7)
    ?group ~offset:1 ();
  Profiling.Access_log.record log ~task:4 ~loc:0 ~op:Profiling.Access_log.Read ?group
    ~offset:1 ();
  log

let loc_name = function 0 -> "acc" | n -> Printf.sprintf "loc%d" n

let hb_ordering () =
  let loop = two_iter_loop () in
  let hb = Lint.Race_check.happens_before loop in
  Alcotest.(check bool) "A0 < B0" true (hb 0 1);
  Alcotest.(check bool) "A0 < B1" true (hb 0 4);
  Alcotest.(check bool) "A0 < A1" true (hb 0 3);
  Alcotest.(check bool) "C0 < C1" true (hb 2 5);
  Alcotest.(check bool) "B0 feeds forward to C1" true (hb 1 5);
  Alcotest.(check bool) "B replicas unordered" false (hb 1 4 || hb 4 1);
  Alcotest.(check bool) "C0 vs A1 unordered" false (hb 2 3 || hb 3 2);
  Alcotest.(check bool) "B1 cannot precede A0" false (hb 4 0);
  Alcotest.(check bool) "irreflexive" false (hb 1 1)

let race_check cases =
  let loop = two_iter_loop () in
  List.iter
    (fun (name, plan, group, expect_race) ->
      let ds = Lint.Race_check.check ~plan ~loc_name loop (acc_log ?group ()) in
      Alcotest.(check bool) name expect_race (has_kind D.Race ds))
    cases

let race_uncovered () =
  race_check
    [
      ("bare plan races", Speculation.Spec_plan.make (), None, true);
      ( "sync_locs covers",
        Speculation.Spec_plan.make ~sync_locs:[ "acc" ] (),
        None,
        false );
      ( "value speculation covers",
        Speculation.Spec_plan.make ~value_locs:[ "acc" ] (),
        None,
        false );
      ( "alias speculation covers",
        Speculation.Spec_plan.make ~alias:Speculation.Spec_plan.Alias_all (),
        None,
        false );
      ( "alias scope misses other locs",
        Speculation.Spec_plan.make ~alias:(Speculation.Spec_plan.Alias_locs [ "dict" ]) (),
        None,
        true );
    ]

let race_commutative () =
  let reg = Annotations.Commutative.create () in
  Annotations.Commutative.annotate reg ~fn:"bump" ~group:"acc_group" ~rollback:"unbump" ();
  race_check
    [
      ( "honoured commutative group covers",
        Speculation.Spec_plan.make ~commutative:reg (),
        Some "acc_group",
        false );
      ( "unregistered group still races",
        Speculation.Spec_plan.make (),
        Some "acc_group",
        true );
    ]

(* ------------------------------------------------------------------ *)
(* Registry sweep + mutation differentials                             *)

let study name =
  match Benchmarks.Registry.find name with
  | Some s -> s
  | None -> Alcotest.failf "no study %s" name

let registry_clean () =
  List.iter
    (fun (s : Benchmarks.Study.t) ->
      let pdg = s.Benchmarks.Study.pdg () in
      let profile = s.Benchmarks.Study.run ~scale:Benchmarks.Study.Small in
      let ds =
        Lint.Driver.run ~pdg ~plan:s.Benchmarks.Study.plan ~profile ()
      in
      Alcotest.(check (list string))
        (s.Benchmarks.Study.spec_name ^ " lints clean")
        []
        (List.map (Format.asprintf "%a" D.pp) (D.errors ds)))
    Benchmarks.Registry.all

let strip_rollbacks c =
  let c' = Annotations.Commutative.create () in
  List.iter
    (fun group ->
      List.iter
        (fun fn -> Annotations.Commutative.annotate c' ~fn ~group ())
        (Annotations.Commutative.members c ~group))
    (Annotations.Commutative.groups c);
  c'

(* Lint a study's Small run against a mutated copy of its plan, keeping
   the partition the shipped plan produced (what `repro lint --mutate`
   does). *)
let lint_mutated ~bench ~mutate =
  let s = study bench in
  let pdg = s.Benchmarks.Study.pdg () in
  let plan = s.Benchmarks.Study.plan in
  let partition =
    Dswp.Partition.partition pdg ~enabled:(Speculation.Spec_plan.enabled_breakers plan)
  in
  let profile = s.Benchmarks.Study.run ~scale:Benchmarks.Study.Small in
  Lint.Driver.run ~pdg ~partition ~plan:(mutate plan) ~profile ()

let mcf_no_alias (p : Speculation.Spec_plan.t) =
  { p with Speculation.Spec_plan.alias = Speculation.Spec_plan.No_alias }

(* Corrupting a known-good plan must produce the named diagnostic. *)
let mutation_differential () =
  let check_mutation ~bench ~mutate ~expect ~name =
    Alcotest.(check bool) name true (has_kind expect (D.errors (lint_mutated ~bench ~mutate)))
  in
  let open Speculation.Spec_plan in
  check_mutation ~bench:"181.mcf" ~mutate:mcf_no_alias ~expect:D.Race
    ~name:"mcf minus alias speculation races";
  check_mutation ~bench:"186.crafty"
    ~mutate:(fun p -> { p with value_locs = [] })
    ~expect:D.Unbroken_dep ~name:"crafty minus value speculation strands its recurrence";
  check_mutation ~bench:"197.parser"
    ~mutate:(fun p -> { p with commutative = strip_rollbacks p.commutative })
    ~expect:D.Bad_annotation ~name:"parser minus rollbacks is flagged"

(* The record `repro lint --json` and `repro audit-pdg --json` write,
   emitted and parsed back: its key order is part of the contract, at
   the top level and in every finding.  181.mcf without alias
   speculation gives a non-empty finding list; 164.gzip's audit is the
   audit-pdg side. *)
let json_record_shape () =
  let keys = function Obs.Json.Obj kvs -> List.map fst kvs | _ -> [] in
  let check_record name ds =
    match Obs.Json.parse (Obs.Json.to_string (D.report_to_json ds)) with
    | Error e -> Alcotest.failf "%s: record does not parse: %s" name e
    | Ok v ->
      Alcotest.(check (list string))
        (name ^ ": top-level keys")
        [ "summary"; "errors"; "warnings"; "findings" ]
        (keys v);
      let findings =
        Option.value ~default:[] (Option.bind (Obs.Json.member "findings" v) Obs.Json.to_list)
      in
      Alcotest.(check int)
        (name ^ ": one object per finding")
        (List.length ds) (List.length findings);
      List.iter
        (fun f ->
          Alcotest.(check (list string))
            (name ^ ": finding keys")
            [ "kind"; "severity"; "where"; "message"; "hint" ]
            (keys f))
        findings
  in
  let lint = lint_mutated ~bench:"181.mcf" ~mutate:mcf_no_alias in
  Alcotest.(check bool) "mcf minus alias speculation has findings" true (lint <> []);
  check_record "lint 181.mcf no-alias" lint;
  let gzip = study "164.gzip" in
  let body = Option.get gzip.Benchmarks.Study.flow_body in
  let audit =
    Lint.Audit.check
      ~commutative:gzip.Benchmarks.Study.plan.Speculation.Spec_plan.commutative
      ~hand:(gzip.Benchmarks.Study.pdg ()) body
  in
  check_record "audit-pdg 164.gzip" audit.Lint.Audit.diagnostics

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)

(* Partitioning with every breaker enabled must produce a plan-sound
   triple: the partitioner only places an SCC in the replicated stage
   when its surviving recurrences are gone, and stages close under
   ancestry, so neither pass may find an error. *)
let prop_partition_sound () =
  expect_pass ~name:"generated pdg + all-breaker partition lints clean"
    (Check.Gen_ir.pdg ~breakers:true ~self_deps:true ())
    (fun g ->
      let partition = Dswp.Partition.partition g ~enabled:all_enabled in
      D.errors (Lint.Pdg_check.check g) = []
      && D.errors (Lint.Plan_check.check_enabled ~pdg:g ~partition ~enabled:all_enabled)
         = [])

(* Disabling the breaker of a broken loop-carried edge that lives inside
   the replicated stage must surface as Unbroken_dep.  (A broken edge
   elsewhere — say a carried recurrence wholly inside serial stage A —
   may legitimately stay silent: the serial order carries it.) *)
let prop_disabled_breaker_reported () =
  expect_pass ~name:"disabling a used breaker reports unbroken-dep"
    (Check.Gen_ir.pdg ~breakers:true ~self_deps:true ())
    (fun g ->
      let partition = Dswp.Partition.partition g ~enabled:all_enabled in
      let in_b id = Dswp.Partition.phase_of_node partition id = Ir.Task.B in
      List.for_all
        (fun (e : Ir.Pdg.edge) ->
          if not (e.Ir.Pdg.loop_carried && in_b e.Ir.Pdg.src && in_b e.Ir.Pdg.dst)
          then true
          else
            match e.Ir.Pdg.breaker with
            | None -> true
            | Some b ->
              let ds =
                Lint.Plan_check.check_enabled ~pdg:g ~partition
                  ~enabled:(fun b' -> b' <> b)
              in
              has_kind D.Unbroken_dep (D.errors ds))
        partition.Dswp.Partition.broken)

let () =
  Alcotest.run "lint"
    [
      ( "pdg_check",
        [
          Alcotest.test_case "clean" `Quick pdg_check_clean;
          Alcotest.test_case "probability range" `Quick pdg_check_probability;
          Alcotest.test_case "breaker kind mismatch" `Quick pdg_check_breaker_kind;
          Alcotest.test_case "useless breaker warns" `Quick pdg_check_useless_breaker;
        ] );
      ( "plan_check",
        [
          Alcotest.test_case "sound triple" `Quick plan_check_sound;
          Alcotest.test_case "unbroken dep" `Quick plan_check_unbroken;
          Alcotest.test_case "stage closure" `Quick plan_check_stage_closure;
          Alcotest.test_case "non-replicable in B" `Quick plan_check_nonreplicable;
          Alcotest.test_case "backward edge" `Quick plan_check_backward_edge;
          Alcotest.test_case "deadlock risk" `Quick plan_check_deadlock_risk;
          Alcotest.test_case "commutative registry" `Quick plan_check_commutative;
        ] );
      ( "race_check",
        [
          Alcotest.test_case "happens-before" `Quick hb_ordering;
          Alcotest.test_case "coverage" `Quick race_uncovered;
          Alcotest.test_case "commutative coverage" `Quick race_commutative;
        ] );
      ( "benchmarks",
        [
          Alcotest.test_case "registry lints clean" `Slow registry_clean;
          Alcotest.test_case "mutation differentials" `Slow mutation_differential;
          Alcotest.test_case "json record shape" `Slow json_record_shape;
        ] );
      ( "properties",
        [
          Alcotest.test_case "partition soundness" `Quick prop_partition_sound;
          Alcotest.test_case "disabled breaker reported" `Quick
            prop_disabled_breaker_reported;
        ] );
    ]
