type line = Command of bool | Sentence of string list

let make_input ~scale =
  let count = Study.iterations_for scale ~small:90 ~medium:240 ~large:600 in
  let rng = Simcore.Rng.create 197 in
  List.init count (fun i ->
      if i > 0 && Simcore.Rng.chance rng 0.05 then Command (Simcore.Rng.bool rng)
      else begin
        let len =
          let u = Simcore.Rng.float rng in
          if u < 0.75 then Simcore.Rng.int_in rng 4 12
          else if u < 0.97 then Simcore.Rng.int_in rng 12 20
          else Simcore.Rng.int_in rng 20 26
        in
        let s = Workloads.Chart_parser.sentence_of_length rng len in
        (* A few scrambled sentences exercise the reject path. *)
        if Simcore.Rng.chance rng 0.15 then Sentence (Workloads.Chart_parser.scramble rng s)
        else Sentence s
      end)

let run ~scale =
  let input = make_input ~scale in
  let p = Profiling.Profile.create ~name:"197.parser" in
  let echo_mode = Profiling.Profile.loc p "echo_mode" in
  let alloc_loc = Profiling.Profile.loc p "xalloc_pool" in
  let out_loc = Profiling.Profile.loc p "results" in
  Profiling.Profile.serial_work p 2000 (* the 60MB startup allocation *);
  Profiling.Profile.begin_loop p "batch_process";
  List.iteri
    (fun i line ->
      (* Phase A: read the line; commands execute here so that their
         effect is synchronized, not speculated. *)
      ignore (Profiling.Profile.begin_task p ~iteration:i ~phase:Ir.Task.A ());
      (match line with
      | Command on ->
        Profiling.Profile.work p 6;
        Profiling.Profile.write p echo_mode (if on then 1 else 0)
      | Sentence s -> Profiling.Profile.work p (2 + List.length s));
      Profiling.Profile.end_task p;
      (* Phase B: parse the sentence. *)
      ignore (Profiling.Profile.begin_task p ~iteration:i ~phase:Ir.Task.B ());
      let result_digest =
        match line with
        | Command _ ->
          Profiling.Profile.work p 1;
          0
        | Sentence s ->
          Profiling.Profile.read p echo_mode;
          let r =
            Profiling.Profile.commutative p ~group:"xalloc" (fun () ->
                Profiling.Profile.read p alloc_loc;
                let r = Workloads.Chart_parser.parse Workloads.Chart_parser.english_like s in
                Profiling.Profile.write p alloc_loc (i + 1);
                r)
          in
          Profiling.Profile.work p r.Workloads.Chart_parser.work;
          if r.Workloads.Chart_parser.grammatical then 1 else 2
      in
      Profiling.Profile.end_task p;
      (* Phase C: report the parse in input order. *)
      ignore (Profiling.Profile.begin_task p ~iteration:i ~phase:Ir.Task.C ());
      Profiling.Profile.read p out_loc;
      Profiling.Profile.work p 3;
      Profiling.Profile.write p out_loc ((i * 4) + result_digest);
      Profiling.Profile.end_task p)
    input;
  Profiling.Profile.end_loop p;
  Profiling.Profile.serial_work p 300;
  p

let pdg () =
  let g = Ir.Pdg.create "197.parser batch_process" in
  let read = Ir.Pdg.add_node g ~label:"read_line_and_commands" ~weight:0.03 () in
  let parse = Ir.Pdg.add_node g ~label:"parse" ~weight:0.94 ~replicable:true () in
  let report = Ir.Pdg.add_node g ~label:"report" ~weight:0.03 () in
  Ir.Pdg.add_edge g ~src:read ~dst:parse ~kind:Ir.Dep.Memory ();
  Ir.Pdg.add_edge g ~src:parse ~dst:report ~kind:Ir.Dep.Register ();
  Ir.Pdg.add_edge g ~src:read ~dst:read ~kind:Ir.Dep.Register ~loop_carried:true ();
  Ir.Pdg.add_edge g ~src:report ~dst:report ~kind:Ir.Dep.Memory ~loop_carried:true ();
  (* The allocator free-list dependence the Commutative annotation hides. *)
  Ir.Pdg.add_edge g ~src:parse ~dst:parse ~kind:Ir.Dep.Memory ~loop_carried:true
    ~probability:1.0 ~breaker:(Ir.Pdg.Commutative_annotation "xalloc") ();
  g

let commutative_registry () =
  let c = Annotations.Commutative.create () in
  Annotations.Commutative.annotate c ~fn:"xalloc" ~group:"xalloc" ~rollback:"xfree" ();
  Annotations.Commutative.annotate c ~fn:"xfree" ~group:"xalloc" ();
  c

let study =
  {
    Study.spec_name = "197.parser";
    description = "link-grammar style sentence parsing; sentences parse in parallel, \
                   parser commands run in phase A, the allocator is Commutative";
    loops =
      [ { Study.li_function = "batch_process"; li_location = "main.c:1522-1779"; li_exec_time = "100%" } ];
    lines_changed_all = 3;
    lines_changed_model = 3;
    techniques = [ "Commutative"; "TLS Memory"; "DSWP" ];
    paper_speedup = 24.50;
    paper_threads = 32;
    run;
    plan =
      Speculation.Spec_plan.make ~alias:Speculation.Spec_plan.Alias_all
        ~sync_locs:[ "echo_mode" ] ~commutative:(commutative_registry ()) ();
    baseline_plan =
      Some
        (Speculation.Spec_plan.make ~alias:Speculation.Spec_plan.Alias_all
           ~sync_locs:[ "echo_mode" ] ());
    pdg;
    pdg_expected_parallel = [ "parse" ];
    flow_body = None;
  }
