(* The static dependence engine: analyzer unit cases (distance lattice,
   kill/blocker machinery), the hand-PDG audit over the registry's
   loop-body IRs, the drop-write self-test, distance-aware realization,
   and the soundness property: every dependence the reference
   interpreter observes is statically predicted — no false negatives,
   ever. *)

module B = Flow.Body
module A = Flow.Analyze
module I = Flow.Infer
module D = Lint.Diagnostic
module R = Check.Runner

let study name =
  match Benchmarks.Registry.find name with
  | Some s -> s
  | None -> Alcotest.failf "unknown study %s" name

let body_of name =
  let s = study name in
  match s.Benchmarks.Study.flow_body with
  | Some b -> b
  | None -> Alcotest.failf "%s has no flow body" name

let registry_of name =
  (study name).Benchmarks.Study.plan.Speculation.Spec_plan.commutative

let audit name =
  let s = study name in
  let body = body_of name in
  Lint.Audit.check ~commutative:(registry_of name)
    ~hand:(s.Benchmarks.Study.pdg ())
    body

(* ------------------------------------------------------------------ *)
(* Analyzer unit cases                                                 *)

let one_region stmts =
  {
    B.b_name = "unit";
    b_scalars = [| ("s", B.Mem) |];
    b_arrays = [| "a" |];
    b_regions = [| { B.r_label = "r0"; r_stmts = stmts } |];
  }

let affine_distance_two () =
  (* read a[i-2]; write a[i]: a recurrence the lattice must pin to
     exactly distance 2, and the synthesized PDG must annotate. *)
  let body =
    one_region
      [
        Read (B.Elem (0, B.Affine { stride = 1; offset = -2 }));
        Work 1;
        Write (B.Elem (0, B.Affine { stride = 1; offset = 0 }));
      ]
  in
  let a = A.run body in
  let carried = List.filter (fun (d : A.dep) -> d.A.d_carried) a.A.deps in
  (match carried with
  | [ d ] ->
    Alcotest.(check bool) "exact 2" true (d.A.d_dists = [ A.Exact 2 ]);
    Alcotest.(check bool) "must" true d.A.d_must
  | ds -> Alcotest.failf "expected one carried dep, got %d" (List.length ds));
  let r = I.run ~iterations:50 body in
  match Ir.Pdg.edges r.I.pdg with
  | [ e ] -> Alcotest.(check (option int)) "pdg distance" (Some 2) e.Ir.Pdg.distance
  | es -> Alcotest.failf "expected one pdg edge, got %d" (List.length es)

let must_write_blocks_carried () =
  (* r0 writes s every iteration before r1 reads it: the carried
     r0 -> r1 dependence is killed by r0's own next-iteration write, so
     only the intra-iteration edge may remain. *)
  let body =
    {
      B.b_name = "unit";
      b_scalars = [| ("s", B.Mem) |];
      b_arrays = [||];
      b_regions =
        [|
          { B.r_label = "r0"; r_stmts = [ Write (B.Scalar 0) ] };
          { B.r_label = "r1"; r_stmts = [ Read (B.Scalar 0) ] };
        |];
    }
  in
  let a = A.run body in
  Alcotest.(check bool) "no carried r0->r1" false
    (List.exists
       (fun (d : A.dep) -> d.A.d_carried && d.A.d_src = 0 && d.A.d_dst = 1)
       a.A.deps);
  Alcotest.(check bool) "intra r0->r1 present" true
    (List.exists
       (fun (d : A.dep) -> (not d.A.d_carried) && d.A.d_src = 0 && d.A.d_dst = 1)
       a.A.deps)

let dynamic_index_unknown () =
  (* A pointer-shaped read: distance Unknown, alias-speculable. *)
  let body =
    one_region
      [
        Read (B.Elem (0, B.Dynamic { salt = 1; range = 4 }));
        Write (B.Elem (0, B.Affine { stride = 1; offset = 0 }));
      ]
  in
  let a = A.run body in
  match List.filter (fun (d : A.dep) -> d.A.d_carried) a.A.deps with
  | [ d ] ->
    Alcotest.(check bool) "unknown distance" true (List.mem A.Unknown d.A.d_dists);
    Alcotest.(check bool) "alias-speculable" true
      (d.A.d_breaker = Some Ir.Pdg.Alias_speculation)
  | ds -> Alcotest.failf "expected one carried dep, got %d" (List.length ds)

(* ------------------------------------------------------------------ *)
(* Hand-PDG audit over the registry bodies                             *)

let audit_clean name () =
  let r = audit name in
  Alcotest.(check (list string)) "clean" []
    (List.map (fun d -> Format.asprintf "%a" D.pp d) r.Lint.Audit.diagnostics)

let drop_write_fails () =
  let s = study "164.gzip" in
  let r =
    Lint.Audit.check ~mutate:`Drop_write ~commutative:(registry_of "164.gzip")
      ~hand:(s.Benchmarks.Study.pdg ())
      (body_of "164.gzip")
  in
  Alcotest.(check int) "exit 1" 1 (D.exit_code r.Lint.Audit.diagnostics);
  Alcotest.(check bool) "soundness error reported" true
    (List.exists
       (fun (d : D.t) -> d.D.kind = D.Pdg_mismatch && D.is_error d)
       r.Lint.Audit.diagnostics)

let measured_rates_bounded () =
  let r = I.run ~commutative:(registry_of "300.twolf") (body_of "300.twolf") in
  List.iter
    (fun (_, p) ->
      Alcotest.(check bool) "rate in [0,1]" true (p >= 0.0 && p <= 1.0))
    r.I.rates

(* ------------------------------------------------------------------ *)
(* Distance-aware realization                                          *)

let realize_pdg ~distance =
  let g = Ir.Pdg.create "realize-test" in
  let a = Ir.Pdg.add_node g ~label:"a" ~weight:0.2 () in
  let b = Ir.Pdg.add_node g ~label:"b" ~weight:0.6 ~replicable:true () in
  let c = Ir.Pdg.add_node g ~label:"c" ~weight:0.2 () in
  Ir.Pdg.add_edge g ~src:a ~dst:b ~kind:Ir.Dep.Register ();
  Ir.Pdg.add_edge g ~src:b ~dst:c ~kind:Ir.Dep.Register ();
  Ir.Pdg.add_edge g ~src:a ~dst:a ~kind:Ir.Dep.Register ~loop_carried:true ();
  Ir.Pdg.add_edge g ~src:a ~dst:c ~kind:Ir.Dep.Memory ~loop_carried:true ?distance ();
  g

let realize_sync_distance_two () =
  (* An a->c carried edge pinned to distance 2 must synchronize A_i with
     C_{i+2}, not C_{i+1}: three tasks per iteration, A at 3i, C at
     3i+2. *)
  let g = realize_pdg ~distance:(Some 2) in
  let enabled _ = false in
  let part = Dswp.Partition.partition g ~enabled in
  let loop = Sim.Realize.loop g ~partition:part ~enabled ~iterations:6 in
  let has src dst =
    List.exists
      (fun (e : Sim.Input.edge) ->
        e.Sim.Input.src = src && e.Sim.Input.dst = dst
        && not e.Sim.Input.speculated)
      loop.Sim.Input.edges
  in
  Alcotest.(check bool) "A_0 -> C_2" true (has 0 8);
  Alcotest.(check bool) "A_1 -> C_3" true (has 3 11);
  Alcotest.(check bool) "no distance-1 sync" false (has 0 5)

let realize_sync_default_distance () =
  let g = realize_pdg ~distance:None in
  let enabled _ = false in
  let part = Dswp.Partition.partition g ~enabled in
  let loop = Sim.Realize.loop g ~partition:part ~enabled ~iterations:6 in
  Alcotest.(check bool) "A_0 -> C_1 at default distance" true
    (List.exists
       (fun (e : Sim.Input.edge) -> e.Sim.Input.src = 0 && e.Sim.Input.dst = 5)
       loop.Sim.Input.edges)

let realize_spec_edge_distance () =
  (* A speculated B->B recurrence squashes at the edge's own minimum
     distance: every speculation event lands two iterations out when
     the PDG pins the edge to distance 2, and one out when it carries
     none. *)
  let realize distance =
    let g = Ir.Pdg.create "realize-spec" in
    let a = Ir.Pdg.add_node g ~label:"a" ~weight:0.2 () in
    let b = Ir.Pdg.add_node g ~label:"b" ~weight:0.6 ~replicable:true () in
    let c = Ir.Pdg.add_node g ~label:"c" ~weight:0.2 () in
    Ir.Pdg.add_edge g ~src:a ~dst:b ~kind:Ir.Dep.Register ();
    Ir.Pdg.add_edge g ~src:b ~dst:c ~kind:Ir.Dep.Register ();
    Ir.Pdg.add_edge g ~src:a ~dst:a ~kind:Ir.Dep.Register ~loop_carried:true ();
    Ir.Pdg.add_edge g ~src:b ~dst:b ~kind:Ir.Dep.Memory ~loop_carried:true
      ~probability:1.0 ~breaker:Ir.Pdg.Alias_speculation ?distance ();
    let enabled br = br = Ir.Pdg.Alias_speculation in
    let part = Dswp.Partition.partition g ~enabled in
    let loop = Sim.Realize.loop g ~partition:part ~enabled ~iterations:6 in
    List.filter (fun (e : Sim.Input.edge) -> e.Sim.Input.speculated) loop.Sim.Input.edges
  in
  let dist (e : Sim.Input.edge) = (e.Sim.Input.dst - e.Sim.Input.src) / 3 in
  let check label d specs =
    Alcotest.(check bool) (label ^ ": speculation events exist") true (specs <> []);
    List.iter (fun e -> Alcotest.(check int) label d (dist e)) specs
  in
  check "pinned distance 2" 2 (realize (Some 2));
  check "default distance 1" 1 (realize None)

(* ------------------------------------------------------------------ *)
(* Soundness                                                           *)

let commutative_gen_registry () =
  let c = Annotations.Commutative.create () in
  Annotations.Commutative.annotate c ~fn:Check.Gen_ir.flow_commutative_fn
    ~group:"gen-group" ~rollback:"gen-rollback" ();
  c

let sound body ~commutative ~iterations =
  let a = A.run ~commutative body in
  List.for_all
    (fun mode ->
      List.for_all (A.predicts a) (A.observe ~commutative ~ybranch:mode ~iterations body))
    [ `Never; `Compiler ]

let bench_bodies_sound () =
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " sound") true
        (sound (body_of name) ~commutative:(registry_of name) ~iterations:100))
    [ "164.gzip"; "181.mcf"; "300.twolf" ]

(* The tentpole property: over random bodies, every interpreter-observed
   dependence is statically predicted at a compatible distance, in both
   Y-branch modes.  1000 cases under `dune build @prop` (CHECK_COUNT),
   replayable with CHECK_SEED. *)
let soundness_prop () =
  let commutative = commutative_gen_registry () in
  R.run_prop_exn ~name:"flow analysis soundness"
    ~print:(fun b -> Format.asprintf "%a" B.pp b)
    (Check.Gen_ir.flow_body ())
    (fun body ->
      match B.validate body with
      | Error e -> Alcotest.failf "generator produced invalid body: %s" e
      | Ok () -> sound body ~commutative ~iterations:12)

let () =
  Alcotest.run "flow"
    [
      ( "analyze",
        [
          Alcotest.test_case "affine distance 2" `Quick affine_distance_two;
          Alcotest.test_case "must-write blocks carried" `Quick must_write_blocks_carried;
          Alcotest.test_case "dynamic index unknown" `Quick dynamic_index_unknown;
        ] );
      ( "audit",
        [
          Alcotest.test_case "gzip clean" `Quick (audit_clean "164.gzip");
          Alcotest.test_case "twolf clean" `Quick (audit_clean "300.twolf");
          Alcotest.test_case "mcf clean" `Quick (audit_clean "181.mcf");
          Alcotest.test_case "drop-write fails" `Quick drop_write_fails;
          Alcotest.test_case "rates bounded" `Quick measured_rates_bounded;
        ] );
      ( "realize",
        [
          Alcotest.test_case "sync at distance 2" `Quick realize_sync_distance_two;
          Alcotest.test_case "sync default distance" `Quick realize_sync_default_distance;
          Alcotest.test_case "spec at edge distance" `Quick realize_spec_edge_distance;
        ] );
      ( "soundness",
        [
          Alcotest.test_case "bench bodies" `Quick bench_bodies_sound;
          Alcotest.test_case "random bodies (prop)" `Quick soundness_prop;
        ] );
    ]
