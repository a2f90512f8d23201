(* Tests for the lib/obs observability layer: JSON round-trips, the
   summary fold over simulator events, event sinks, Chrome trace export
   from a real registry study, and the summary emitters. *)

module J = Obs.Json
module Sum = Obs.Summary
module S = Obs.Sink
module E = Obs.Event

(* ------------------------------------------------------------------ *)
(* Json                                                                *)

let json_round_trip () =
  let v =
    J.Obj
      [
        ("name", J.Str "pipe \"quoted\"\n\ttab");
        ("count", J.Int 42);
        ("ratio", J.Float 2.5);
        ("flag", J.Bool true);
        ("none", J.Null);
        ("xs", J.Arr [ J.Int 1; J.Int (-2); J.Arr []; J.Obj [] ]);
      ]
  in
  match J.parse (J.to_string v) with
  | Ok v' -> Alcotest.(check bool) "round-trips" true (v = v')
  | Error e -> Alcotest.failf "parse failed: %s" e

let json_rejects_garbage () =
  let bad s =
    match J.parse s with
    | Ok _ -> Alcotest.failf "accepted %S" s
    | Error _ -> ()
  in
  bad "";
  bad "{";
  bad "[1, 2,]";
  bad "{\"a\": 1} trailing";
  bad "\"unterminated"

(* Every malformed input must come back as a located Error — never an
   exception, never a silent prefix-parse. *)
let json_error_paths () =
  let bad s =
    match J.parse s with
    | Ok _ -> Alcotest.failf "accepted %S" s
    | Error e ->
      (* Errors carry a byte position, either "at byte N: reason" or
         "reason at N". *)
      let contains needle =
        let n = String.length e and nn = String.length needle in
        let rec go i = i + nn <= n && (String.sub e i nn = needle || go (i + 1)) in
        go 0
      in
      let located = contains "at byte" || contains " at " in
      Alcotest.(check bool) (Printf.sprintf "error for %S is located (%s)" s e) true located
  in
  (* truncated literals *)
  bad "tru";
  bad "truX";
  bad "fals";
  bad "nul";
  (* truncated numbers and structures *)
  bad "-";
  bad "[1";
  bad "{\"a\"";
  bad "{\"a\":}";
  (* trailing garbage after a complete value *)
  bad "[] []";
  bad "1 2";
  (* bad and truncated escapes *)
  bad "\"\\x\"";
  bad "\"\\u12\"";
  bad "\"\\u123g\"";
  bad "\"\\";
  (* control character inside a string *)
  bad "\"a\tb\""

(* Nesting past the parser's cap must fail with an error, not blow the
   stack; nesting under it must still work. *)
let json_deep_nesting () =
  let deep n = String.make n '[' ^ String.make n ']' in
  (match J.parse (deep 100) with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "rejected 100-deep nesting: %s" e);
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  (match J.parse (deep 600) with
  | Ok _ -> Alcotest.fail "accepted 600-deep nesting"
  | Error e -> Alcotest.(check bool) "names the cap" true (contains e "nesting"));
  (* An unclosed 100k-bracket prefix must also return, not crash. *)
  match J.parse (String.make 100_000 '[') with
  | Ok _ -> Alcotest.fail "accepted unclosed brackets"
  | Error _ -> ()

let json_accessors () =
  let v = J.Obj [ ("a", J.Int 3); ("b", J.Arr [ J.Str "x" ]) ] in
  Alcotest.(check (option int)) "member int" (Some 3) (Option.bind (J.member "a" v) J.to_int);
  Alcotest.(check (option string)) "nested str" (Some "x")
    (Option.bind
       (Option.bind (Option.bind (J.member "b" v) J.to_list) (fun l -> List.nth_opt l 0))
       J.to_str);
  Alcotest.(check (option int)) "missing" None (Option.bind (J.member "zzz" v) J.to_int)

(* ------------------------------------------------------------------ *)
(* Metrics: the summary fold                                           *)

let fold_events ~slots events =
  let f = Sum.fold ~slots in
  List.iter (S.emit (Sum.sink f)) events;
  f

let task_start task phase work =
  E.Task_start { time = 0; task; core = 1; phase; iteration = 0; work }

let push queue ~time slot occupancy = E.Queue_push { time; queue; slot; occupancy; task = 0 }

let pop queue ~time slot occupancy = E.Queue_pop { time; queue; slot; occupancy; task = 0 }

(* Busy is charged at start; a mid-run squash gives back what it never
   executed, a squash after finishing gives back nothing.  Each queue
   event moves its direction's gauge and extends its slot's series; a
   slot no event touched still gets an (empty) series. *)
let metrics_counters_and_gauges () =
  let f =
    fold_events ~slots:3
      [
        task_start 0 'A' 5;
        push E.In_queue ~time:1 0 1;
        push E.In_queue ~time:2 2 1;
        task_start 1 'B' 10;
        pop E.In_queue ~time:3 0 0;
        E.Task_squash { time = 7; task = 1; core = 1; elapsed = 4 };
        task_start 1 'B' 10;
        task_start 2 'B' 6;
        push E.Out_queue ~time:8 2 1;
        E.Task_squash { time = 9; task = 2; core = 2; elapsed = 6 };
        pop E.Out_queue ~time:9 2 0;
        task_start 3 'C' 2;
      ]
  in
  Sum.add_counts f ~misspec_delayed:2 ~squashes:1;
  Sum.add_counts f ~misspec_delayed:1 ~squashes:1;
  let snap = Sum.snapshot f in
  Alcotest.(check (list (pair string int)))
    "counters"
    [
      ("busy/A", 5);
      ("busy/B", 4 + 10 + 6);
      ("busy/C", 2);
      ("misspec_delayed", 3);
      ("squashes", 2);
    ]
    snap.Sum.counters;
  Alcotest.(check (list (pair string (pair int int))))
    "gauges: last value, high water"
    [ ("in_queue_occupancy", (0, 1)); ("out_queue_occupancy", (0, 1)) ]
    snap.Sum.gauges;
  Alcotest.(check (list (pair string (list (pair int int)))))
    "series per slot, untouched slots included"
    [
      ("in_queue/0", [ (1, 1); (3, 0) ]);
      ("in_queue/1", []);
      ("in_queue/2", [ (2, 1) ]);
      ("out_queue/0", []);
      ("out_queue/1", []);
      ("out_queue/2", [ (8, 1); (9, 0) ]);
    ]
    snap.Sum.series

let metrics_snapshot_sorted () =
  let snap = Sum.snapshot (Sum.fold ~slots:11) in
  let names l = List.map fst l in
  Alcotest.(check (list string)) "counters name-sorted"
    (List.sort compare (names snap.Sum.counters))
    (names snap.Sum.counters);
  Alcotest.(check (list string)) "gauges name-sorted"
    (List.sort compare (names snap.Sum.gauges))
    (names snap.Sum.gauges);
  Alcotest.(check (list string)) "series in string order"
    [ "in_queue/0"; "in_queue/1"; "in_queue/10"; "in_queue/2" ]
    (List.filteri (fun i _ -> i < 4) (names snap.Sum.series));
  Alcotest.(check int) "one series per slot and direction" 22 (List.length snap.Sum.series)

(* ------------------------------------------------------------------ *)
(* Sinks and events                                                    *)

let sink_null_is_disabled () =
  Alcotest.(check bool) "disabled" false (S.enabled S.null);
  (* Emitting into the null sink is a no-op, not an error. *)
  S.emit S.null (E.Wake { time = 0 })

let sink_recorder_and_offset () =
  let r = S.recorder () in
  let sink = S.offset 100 (S.record r) in
  S.emit sink (E.Task_finish { time = 7; task = 3; core = 1 });
  S.emit sink (E.Wake { time = 1 });
  Alcotest.(check int) "two events" 2 (S.count r);
  Alcotest.(check (list int)) "times rebased" [ 107; 101 ] (List.map E.time (S.events r));
  S.clear r;
  Alcotest.(check int) "cleared" 0 (S.count r)

(* ------------------------------------------------------------------ *)
(* Trace export from a real registry study                             *)

let gzip_input =
  lazy
    (let study =
       match Benchmarks.Registry.find "164.gzip" with Some s -> s | None -> assert false
     in
     let profile = study.Benchmarks.Study.run ~scale:Benchmarks.Study.Small in
     (Core.Framework.build ~plan:study.Benchmarks.Study.plan profile).Core.Framework.input)

let trace_export_registry_study () =
  let recorder = S.recorder () in
  ignore
    (Sim.Pipeline.run
       (Machine.Config.default ~cores:16)
       ~obs:(S.record recorder) (Lazy.force gzip_input));
  Alcotest.(check bool) "events recorded" true (S.count recorder > 0);
  let json = Obs.Trace_event.export (S.events recorder) in
  (* The serialized trace must parse back... *)
  let reparsed =
    match J.parse (J.to_string json) with
    | Ok v -> v
    | Error e -> Alcotest.failf "trace does not re-parse: %s" e
  in
  let events =
    match Option.bind (J.member "traceEvents" reparsed) J.to_list with
    | Some l -> l
    | None -> Alcotest.fail "no traceEvents array"
  in
  let phase e = Option.bind (J.member "ph" e) J.to_str in
  (* ...with complete slices spread over more than one core track... *)
  let slice_tids =
    List.filter_map
      (fun e -> if phase e = Some "X" then Option.bind (J.member "tid" e) J.to_int else None)
      events
  in
  Alcotest.(check bool) "has slices" true (slice_tids <> []);
  Alcotest.(check bool) "slices on several cores" true
    (List.length (List.sort_uniq compare slice_tids) >= 2);
  (* ...and counter tracks for both queue directions. *)
  let counter_names =
    List.sort_uniq compare
      (List.filter_map
         (fun e -> if phase e = Some "C" then Option.bind (J.member "name" e) J.to_str else None)
         events)
  in
  let has prefix =
    List.exists
      (fun n -> String.length n >= String.length prefix && String.sub n 0 (String.length prefix) = prefix)
      counter_names
  in
  Alcotest.(check bool) "in-queue counters" true (has "in-queue");
  Alcotest.(check bool) "out-queue counters" true (has "out-queue")

let trace_null_sink_changes_nothing () =
  (* The default (null) sink must leave results identical to an
     instrumented run — observability is read-only. *)
  let cfg = Machine.Config.default ~cores:8 in
  let input = Lazy.force gzip_input in
  let plain = Sim.Pipeline.run cfg input in
  let recorder = S.recorder () in
  let observed = Sim.Pipeline.run cfg ~obs:(S.record recorder) input in
  Alcotest.(check bool) "same result" true (plain = observed);
  Alcotest.(check bool) "yet events flowed" true (S.count recorder > 0)

(* A synthetic stream exercising the export paths the registry study
   doesn't pin down: dispatch/wake instants and out-queue counters. *)
let trace_instants_and_out_queue () =
  let events =
    [
      E.Task_start { time = 0; task = 0; core = 0; phase = 'A'; iteration = 0; work = 4 };
      E.Task_finish { time = 4; task = 0; core = 0 };
      E.Dispatch { time = 4; task = 1; slot = 2 };
      E.Wake { time = 5 };
      E.Queue_push { time = 6; queue = E.Out_queue; slot = 2; occupancy = 1; task = 1 };
      E.Queue_pop { time = 9; queue = E.Out_queue; slot = 2; occupancy = 0; task = 1 };
    ]
  in
  let json = Obs.Trace_event.export events in
  let trace =
    match Option.bind (J.member "traceEvents" json) J.to_list with
    | Some l -> l
    | None -> Alcotest.fail "no traceEvents"
  in
  let field k e = J.member k e in
  let str k e = Option.bind (field k e) J.to_str in
  let int k e = Option.bind (field k e) J.to_int in
  let find name =
    match List.find_opt (fun e -> str "name" e = Some name) trace with
    | Some e -> e
    | None -> Alcotest.failf "no event named %S" name
  in
  let dispatch = find "dispatch 1->slot 2" in
  Alcotest.(check (option string)) "dispatch is an instant" (Some "i") (str "ph" dispatch);
  Alcotest.(check (option int)) "dispatch time" (Some 4) (int "ts" dispatch);
  Alcotest.(check (option int)) "dispatch slot arg" (Some 2)
    (Option.bind (field "args" dispatch) (int "slot"));
  let wake = find "wake" in
  Alcotest.(check (option string)) "wake is an instant" (Some "i") (str "ph" wake);
  Alcotest.(check (option int)) "wake time" (Some 5) (int "ts" wake);
  (* Both push and pop sample the same out-queue counter track with the
     occupancy after the operation. *)
  let samples =
    List.filter (fun e -> str "name" e = Some "out-queue 2" && str "ph" e = Some "C") trace
  in
  Alcotest.(check (list (pair (option int) (option int))))
    "out-queue track samples (ts, occupancy)"
    [ (Some 6, Some 1); (Some 9, Some 0) ]
    (List.map (fun e -> (int "ts" e, Option.bind (field "args" e) (int "occupancy"))) samples)

(* ------------------------------------------------------------------ *)
(* Summary emitters                                                    *)

let summary_emits_csv_and_json () =
  let metrics = { Sum.counters = [ ("squashes", 3) ]; gauges = [ ("occ", (5, 5)) ]; series = [] } in
  let csv = Obs.Summary.to_csv metrics in
  (match String.split_on_char '\n' (String.trim csv) with
  | header :: rows ->
    Alcotest.(check string) "header" Obs.Summary.csv_header header;
    Alcotest.(check int) "one row per metric" 2 (List.length rows)
  | [] -> Alcotest.fail "empty csv");
  let json = Obs.Summary.to_json metrics in
  match J.parse (J.to_string json) with
  | Ok v ->
    Alcotest.(check (option int)) "counter survives" (Some 3)
      (Option.bind
         (Option.bind (J.member "metrics" v) (J.member "counters"))
         (fun c -> Option.bind (J.member "squashes" c) J.to_int))
  | Error e -> Alcotest.failf "summary json invalid: %s" e

(* 164.gzip at Small scale on 16 cores, pinned byte for byte (the
   golden [run --summary] snapshot takes the study's paper thread count,
   32): a change here is a change to the simulator's event stream or to
   the summary fold. *)
let gzip_bench_metrics =
  String.concat ""
    [
      {|{"counters":{"busy/A":8192,"busy/B":1208844,"busy/C":982,|};
      {|"misspec_delayed":0,"squashes":0},|};
      {|"gauges":{"in_queue_occupancy":{"value":0,"high_water":1},|};
      {|"out_queue_occupancy":{"value":0,"high_water":1}},|};
      {|"series":{|};
      {|"in_queue/0":[[512,1],[513,0],[8208,1],[32583,0]],|};
      {|"in_queue/1":[[1025,1],[1026,0]],|};
      {|"in_queue/10":[[5642,1],[5643,0],[8207,1],[37333,0]],|};
      {|"in_queue/11":[[6155,1],[6156,0],[7694,1],[37812,0]],|};
      {|"in_queue/12":[[6668,1],[6669,0]],|};
      {|"in_queue/13":[[7181,1],[7182,0]],|};
      {|"in_queue/2":[[1538,1],[1539,0]],|};
      {|"in_queue/3":[[2051,1],[2052,0]],|};
      {|"in_queue/4":[[2564,1],[2565,0]],|};
      {|"in_queue/5":[[3077,1],[3078,0]],|};
      {|"in_queue/6":[[3590,1],[3591,0]],|};
      {|"in_queue/7":[[4103,1],[4104,0]],|};
      {|"in_queue/8":[[4616,1],[4617,0]],|};
      {|"in_queue/9":[[5129,1],[5130,0]],|};
      {|"out_queue/0":[[32583,1],[32584,0],[32615,1],[138411,0]],|};
      {|"out_queue/1":[[34198,1],[34199,0]],|};
      {|"out_queue/10":[[37333,1],[112504,0],[135573,1],[138352,0]],|};
      {|"out_queue/11":[[37812,1],[112566,0],[138293,1],[138294,0]],|};
      {|"out_queue/12":[[39532,1],[112629,0]],|};
      {|"out_queue/13":[[108192,1],[112696,0]],|};
      {|"out_queue/2":[[34763,1],[34764,0]],|};
      {|"out_queue/3":[[105444,1],[105445,0]],|};
      {|"out_queue/4":[[102444,1],[105507,0]],|};
      {|"out_queue/5":[[106244,1],[106245,0]],|};
      {|"out_queue/6":[[111787,1],[111788,0]],|};
      {|"out_queue/7":[[93894,1],[111853,0]],|};
      {|"out_queue/8":[[107290,1],[111907,0]],|};
      {|"out_queue/9":[[112440,1],[112441,0]]}}|};
    ]

let summary_gzip_bench_pinned () =
  let snap =
    Core.Experiment.summary (Machine.Config.default ~cores:16) (Lazy.force gzip_input)
  in
  Alcotest.(check string) "metrics" gzip_bench_metrics (J.to_string (Sum.metrics_json snap))

(* ------------------------------------------------------------------ *)
(* Hist                                                                *)

(* Bucket edges: 0 -> bucket 0, [2^(k-1), 2^k) -> bucket k; the exact
   count/sum/min/max ride alongside, so mean is exact and quantile is
   an upper bound clamped to the true max. *)
let hist_buckets_and_stats () =
  let h = Obs.Hist.create () in
  List.iter (Obs.Hist.add h) [ 0; 1; 2; 3; 4; 1000 ];
  Alcotest.(check int) "count" 6 (Obs.Hist.count h);
  Alcotest.(check int) "sum" 1010 (Obs.Hist.sum h);
  Alcotest.(check int) "min" 0 (Obs.Hist.min_value h);
  Alcotest.(check int) "max" 1000 (Obs.Hist.max_value h);
  Alcotest.(check (float 1e-9)) "mean exact" (1010. /. 6.) (Obs.Hist.mean h);
  (* p100 is clamped to the true max, not bucket 10's edge (1023). *)
  Alcotest.(check int) "p100 clamped" 1000 (Obs.Hist.quantile h 1.0);
  (* target 3 lands in bucket 2 ([2,4)), whose largest value is 3. *)
  Alcotest.(check int) "p50 upper bound" 3 (Obs.Hist.quantile h 0.5)

(* ------------------------------------------------------------------ *)
(* Probe                                                               *)

let probe_ring_wrap () =
  let p = Obs.Probe.create ~capacity:8 ~domain:0 () in
  for i = 0 to 19 do
    Obs.Probe.record p ~kind:1 ~time:i ~a:(10 * i) ~b:i
  done;
  Alcotest.(check int) "count is total writes" 20 (Obs.Probe.count p);
  Alcotest.(check int) "dropped to wrap" 12 (Obs.Probe.dropped p);
  let es = Obs.Probe.entries p in
  Alcotest.(check int) "retains capacity" 8 (List.length es);
  Alcotest.(check (list int)) "oldest retained first"
    [ 12; 13; 14; 15; 16; 17; 18; 19 ]
    (List.map (fun (e : Obs.Probe.entry) -> e.Obs.Probe.e_time) es);
  List.iter
    (fun (e : Obs.Probe.entry) ->
      Alcotest.(check int) "payload survives" (10 * e.Obs.Probe.e_time)
        e.Obs.Probe.e_a;
      Alcotest.(check int) "seq matches time here" e.Obs.Probe.e_time
        e.Obs.Probe.e_seq)
    es

(* The probe exists to sit on the runtime hot path, so both the
   disabled path (record_opt None) and the enabled path must run
   without allocating a word.  Gc.minor_words is exact for the
   allocations of the measuring domain. *)
let probe_paths_allocation_free () =
  let p = Obs.Probe.create ~capacity:64 ~domain:0 () in
  let measure f =
    let w0 = Gc.minor_words () in
    f ();
    Gc.minor_words () -. w0
  in
  ignore (measure (fun () -> ()));
  let disabled =
    measure (fun () ->
        for i = 0 to 9_999 do
          Obs.Probe.record_opt None ~kind:0 ~time:i ~a:i ~b:i
        done)
  in
  Alcotest.(check (float 0.)) "disabled path allocates nothing" 0. disabled;
  let enabled =
    measure (fun () ->
        for i = 0 to 9_999 do
          Obs.Probe.record p ~kind:0 ~time:i ~a:i ~b:i
        done)
  in
  Alcotest.(check (float 0.)) "enabled path allocates nothing" 0. enabled

(* Cross-domain drain: per-domain probes filled from real domains merge
   into one deterministic order keyed by (time, domain, seq), whatever
   the actual interleaving was. *)
let probe_cross_domain_merge () =
  let mk d = Obs.Probe.create ~capacity:64 ~domain:d () in
  let probes = [ mk 0; mk 1; mk 2 ] in
  let fill p d =
    (* Same timestamps in every domain: the domain tag must break the
       ties, giving one canonical interleaving. *)
    for i = 0 to 9 do
      Obs.Probe.record p ~kind:d ~time:(i * 2) ~a:d ~b:i
    done
  in
  (match probes with
  | [ p0; p1; p2 ] ->
    fill p0 0;
    let d1 = Domain.spawn (fun () -> fill p1 1) in
    let d2 = Domain.spawn (fun () -> fill p2 2) in
    Domain.join d1;
    Domain.join d2
  | _ -> assert false);
  let es = Obs.Probe.merge probes in
  Alcotest.(check int) "all records" 30 (List.length es);
  let expected =
    List.concat_map
      (fun i -> List.map (fun d -> (i * 2, d, i)) [ 0; 1; 2 ])
      [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9 ]
  in
  Alcotest.(check (list (triple int int int))) "deterministic (time, domain, seq)"
    expected
    (List.map
       (fun (e : Obs.Probe.entry) ->
         (e.Obs.Probe.e_time, e.Obs.Probe.e_domain, e.Obs.Probe.e_seq))
       es)

let () =
  Alcotest.run "obs"
    [
      ( "json",
        [
          Alcotest.test_case "round trip" `Quick json_round_trip;
          Alcotest.test_case "rejects garbage" `Quick json_rejects_garbage;
          Alcotest.test_case "error paths located" `Quick json_error_paths;
          Alcotest.test_case "deep nesting rejected" `Quick json_deep_nesting;
          Alcotest.test_case "accessors" `Quick json_accessors;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "counters and gauges" `Quick metrics_counters_and_gauges;
          Alcotest.test_case "snapshot sorted" `Quick metrics_snapshot_sorted;
        ] );
      ( "sinks",
        [
          Alcotest.test_case "null disabled" `Quick sink_null_is_disabled;
          Alcotest.test_case "recorder and offset" `Quick sink_recorder_and_offset;
        ] );
      ( "trace",
        [
          Alcotest.test_case "registry study exports" `Quick trace_export_registry_study;
          Alcotest.test_case "null sink is read-only" `Quick trace_null_sink_changes_nothing;
          Alcotest.test_case "instants and out-queue track" `Quick trace_instants_and_out_queue;
        ] );
      ( "summary",
        [
          Alcotest.test_case "csv and json" `Quick summary_emits_csv_and_json;
          Alcotest.test_case "gzip bench snapshot pinned" `Quick summary_gzip_bench_pinned;
        ] );
      ( "hist",
        [
          Alcotest.test_case "buckets and stats" `Quick hist_buckets_and_stats;
        ] );
      ( "probe",
        [
          Alcotest.test_case "ring wrap" `Quick probe_ring_wrap;
          Alcotest.test_case "paths allocation-free" `Quick probe_paths_allocation_free;
          Alcotest.test_case "cross-domain merge" `Quick probe_cross_domain_merge;
        ] );
    ]
