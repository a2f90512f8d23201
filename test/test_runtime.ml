(* The real Domain-parallel DSWP runtime: SPSC queue semantics (model-
   based and cross-domain), executor output equality against the
   sequential reference for all 11 staged benchmarks, speculation
   squash behaviour, and the sim-vs-real cross-validation harness. *)

module Spsc = Runtime.Spsc
module Staged = Runtime.Staged
module Exec = Runtime.Exec

(* ------------------------------------------------------------------ *)
(* SPSC queue vs a FIFO model under a randomized operation schedule    *)

let spsc_matches_model () =
  let rng = Simcore.Rng.create 0xC0FFEE in
  for _round = 1 to 40 do
    let cap = 1 lsl Simcore.Rng.int_in rng 0 5 in
    let q = Spsc.create ~capacity:cap () in
    Alcotest.(check int) "capacity is the requested power of two" cap (Spsc.capacity q);
    let model = Queue.create () in
    let next = ref 0 in
    for _op = 1 to 400 do
      if Simcore.Rng.bool rng then begin
        let pushed = Spsc.try_push q !next in
        Alcotest.(check bool)
          "try_push succeeds iff the model queue has room"
          (Queue.length model < cap) pushed;
        if pushed then begin
          Queue.push !next model;
          incr next
        end
      end
      else begin
        match Spsc.try_pop q with
        | `Item x -> Alcotest.(check int) "FIFO order" (Queue.pop model) x
        | `Empty -> Alcotest.(check bool) "empty iff model empty" true (Queue.is_empty model)
        | `Closed -> Alcotest.fail "never closed in this schedule"
      end;
      Alcotest.(check int) "length tracks the model" (Queue.length model) (Spsc.length q)
    done
  done

let spsc_close_semantics () =
  let q = Spsc.create ~capacity:4 () in
  assert (Spsc.try_push q 1);
  assert (Spsc.try_push q 2);
  Spsc.close q;
  (* Close stops the stream after the buffered items drain. *)
  Alcotest.(check (option int)) "drains first item" (Some 1) (Spsc.pop q);
  Alcotest.(check (option int)) "drains second item" (Some 2) (Spsc.pop q);
  Alcotest.(check (option int)) "then end of stream" None (Spsc.pop q);
  match Spsc.try_pop q with
  | `Closed -> ()
  | _ -> Alcotest.fail "try_pop after drain must report `Closed"

let spsc_poison_raises () =
  let q = Spsc.create () in
  assert (Spsc.try_push q 1);
  Spsc.poison q;
  Alcotest.check_raises "push raises" Spsc.Poisoned (fun () -> Spsc.push q 2);
  Alcotest.check_raises "pop raises" Spsc.Poisoned (fun () -> ignore (Spsc.pop q))

(* Two real domains, 1M items: nothing lost, nothing duplicated,
   nothing reordered.  A large ring keeps the single-core fallback
   (spin-then-sleep handoff) fast enough to stress in-test. *)
let spsc_two_domain_stress () =
  let n = 1_000_000 in
  let q = Spsc.create ~capacity:1024 () in
  let producer =
    Domain.spawn (fun () ->
        for i = 0 to n - 1 do
          Spsc.push q i
        done;
        Spsc.close q)
  in
  let expected = ref 0 in
  let received = ref 0 in
  let ok = ref true in
  let rec drain () =
    match Spsc.pop q with
    | Some x ->
      if x <> !expected then ok := false;
      incr expected;
      incr received;
      drain ()
    | None -> ()
  in
  drain ();
  Domain.join producer;
  Alcotest.(check bool) "in order" true !ok;
  Alcotest.(check int) "all items received exactly once" n !received

(* ------------------------------------------------------------------ *)
(* Executor: every staged benchmark, byte-identical at every count     *)

let bench_output_equality () =
  let counts =
    (* Always exercise a replicated-B layout (>= 3 roles) even on a
       small machine; correctness cannot depend on the core count. *)
    List.sort_uniq compare (Test_util.domain_counts () @ [ 3; 4 ])
  in
  List.iter
    (fun name ->
      let seq = Staged.run_seq (Runtime.Real_bench.staged name) in
      List.iter
        (fun threads ->
          let r = Exec.run ~threads ~name (Runtime.Real_bench.staged name) in
          Alcotest.(check bool)
            (Printf.sprintf "%s byte-identical at %d threads" name threads)
            true
            (r.Exec.output = seq))
        counts)
    Runtime.Real_bench.names

let role_stats_cover_all_items () =
  let name = "164.gzip" in
  let r = Exec.run ~threads:4 ~name (Runtime.Real_bench.staged name) in
  let n = Staged.iterations (Runtime.Real_bench.staged name) in
  let items role_prefix =
    Array.fold_left
      (fun acc rs ->
        if String.length rs.Exec.rs_role > 0 && rs.Exec.rs_role.[0] = role_prefix then
          acc + rs.Exec.rs_items
        else acc)
      0 r.Exec.stats.Exec.roles
  in
  Alcotest.(check int) "A produced every iteration" n (items 'A');
  Alcotest.(check int) "B replicas covered every iteration" n (items 'B');
  Alcotest.(check int) "C consumed every iteration" n (items 'C');
  Alcotest.(check int) "replicas per the paper's plan" 2 r.Exec.stats.Exec.replicas

let stage_exception_propagates () =
  let staged =
    Staged.Pure
      {
        Staged.iterations = 100;
        produce = (fun i -> i);
        transform = (fun i -> if i = 57 then failwith "boom" else i);
        consume = (fun buf _ r -> Buffer.add_string buf (string_of_int r));
        finish = ignore;
      }
  in
  match Exec.run ~threads:4 ~name:"boom" staged with
  | exception Failure m -> Alcotest.(check string) "original exception" "boom" m
  | _ -> Alcotest.fail "stage exception must re-raise on the caller"

(* ------------------------------------------------------------------ *)
(* Speculation: conflicts squash, output stays sequential              *)

(* Every iteration reads the location the previous iteration wrote, so
   any replica running ahead of the commit point reads a stale value;
   the runtime must squash it and still reproduce the sequential
   output.  B work is padded so iterations genuinely overlap. *)
let conflict_staged () =
  let pad = ref 0 in
  Staged.Spec
    {
      Staged.sp_iterations = 64;
      sp_init = [ (0, 1) ];
      sp_produce = (fun i -> i);
      sp_exec =
        (fun ~read i ->
          for k = 0 to 2000 do
            pad := !pad + k
          done;
          let v = read 0 in
          ([ (0, Staged.mix v i) ], Staged.mix v i));
      sp_consume = (fun buf i d -> Buffer.add_string buf (Printf.sprintf "%d %s\n" i (Staged.hex d)));
      sp_finish = (fun ~read buf -> Buffer.add_string buf (Staged.hex (read 0) ^ "\n"));
    }

(* The decoded probe stream: bracketed by the loop markers, time-sorted,
   one start/finish pair per (iteration, phase), one commit per
   iteration, [n] pushes and pops on every queue kind the layout uses,
   and exactly the squashes the stats counted. *)
let check_events ~label ~threads staged =
  let n = Staged.iterations staged in
  let r = Exec.run ~threads ~name:label ~probe:true staged in
  let stream = Exec.events r in
  let check_int what = Alcotest.(check int) (Printf.sprintf "%s: %s" label what) in
  (match stream with
  | Obs.Event.Loop_begin _ :: _ -> ()
  | _ -> Alcotest.failf "%s: first event is Loop_begin" label);
  (match List.rev stream with
  | Obs.Event.Loop_end _ :: _ -> ()
  | _ -> Alcotest.failf "%s: last event is Loop_end" label);
  let rec sorted = function
    | a :: (b :: _ as rest) -> Obs.Event.time a <= Obs.Event.time b && sorted rest
    | _ -> true
  in
  Alcotest.(check bool) (label ^ ": events in time order") true (sorted stream);
  let count p = List.length (List.filter p stream) in
  let commits =
    List.sort compare
      (List.filter_map (function Obs.Event.Iter_commit c -> Some c.iteration | _ -> None) stream)
  in
  Alcotest.(check (list int)) (label ^ ": one commit per iteration") (List.init n Fun.id) commits;
  let starts =
    List.sort compare
      (List.filter_map
         (function
           | Obs.Event.Task_start s -> Some (s.iteration, s.phase, s.task) | _ -> None)
         stream)
  in
  let expected =
    List.concat_map
      (fun i -> List.mapi (fun k phase -> (i, phase, (3 * i) + k)) [ 'A'; 'B'; 'C' ])
      (List.init n Fun.id)
  in
  Alcotest.(check (list (triple int char int)))
    (label ^ ": one start per (iteration, phase)") expected starts;
  let finishes =
    List.sort compare
      (List.filter_map (function Obs.Event.Task_finish f -> Some f.task | _ -> None) stream)
  in
  Alcotest.(check (list int)) (label ^ ": one finish per start")
    (List.map (fun (_, _, task) -> task) expected) finishes;
  let queue_ops q =
    ( count (function Obs.Event.Queue_push p -> p.queue = q | _ -> false),
      count (function Obs.Event.Queue_pop p -> p.queue = q | _ -> false) )
  in
  let fused = threads = 2 in
  Alcotest.(check (pair int int)) (label ^ ": in-queue pushes/pops") (n, n)
    (queue_ops Obs.Event.In_queue);
  Alcotest.(check (pair int int)) (label ^ ": out-queue pushes/pops")
    (if fused then (0, 0) else (n, n))
    (queue_ops Obs.Event.Out_queue);
  check_int "squash events = squash count" r.Exec.stats.Exec.squashes
    (count (function Obs.Event.Task_squash _ -> true | _ -> false));
  match r.Exec.telemetry with
  | None -> Alcotest.failf "%s: no telemetry" label
  | Some tl -> check_int "nothing dropped" 0 tl.Exec.tl_dropped

let events_well_formed () =
  check_events ~label:"181.mcf" ~threads:3 (Runtime.Real_bench.staged "181.mcf");
  check_events ~label:"conflict fused" ~threads:2 (conflict_staged ());
  check_events ~label:"conflict replicated" ~threads:4 (conflict_staged ())

let speculation_squashes_and_recovers () =
  let seq = Staged.run_seq (conflict_staged ()) in
  let squashes = ref 0 in
  for _attempt = 1 to 5 do
    let r = Exec.run ~threads:4 ~name:"conflict" (conflict_staged ()) in
    Alcotest.(check bool) "output sequential despite conflicts" true (r.Exec.output = seq);
    squashes := !squashes + r.Exec.stats.Exec.squashes
  done;
  (* A dependence chain through location 0 with two replicas racing:
     across 5 runs at least one speculative read must have gone stale. *)
  Alcotest.(check bool) "mis-speculation actually occurred" true (!squashes > 0)

let spec_benches_squash_and_match () =
  List.iter
    (fun name ->
      let seq = Staged.run_seq (Runtime.Real_bench.staged name) in
      let r = Exec.run ~threads:4 ~name (Runtime.Real_bench.staged name) in
      Alcotest.(check bool) (name ^ " byte-identical with speculation") true
        (r.Exec.output = seq))
    [ "175.vpr"; "300.twolf" ]

(* ------------------------------------------------------------------ *)
(* The validate-real harness itself                                    *)

let validate_catches_corruption () =
  (* The gate's self-test: a corrupted parallel output must flip the
     verdict, proving the equality check can fail. *)
  let honest =
    Runtime.Validate.run ~benches:[ "181.mcf" ] ~max_threads:2 ~scale:Benchmarks.Study.Small ()
  in
  Alcotest.(check bool) "honest run validates" true honest.Runtime.Validate.ok;
  let corrupted =
    Runtime.Validate.run ~benches:[ "181.mcf" ] ~max_threads:2 ~scale:Benchmarks.Study.Small
      ~corrupt:true ()
  in
  Alcotest.(check bool) "corrupted run fails" false corrupted.Runtime.Validate.ok

let validate_history_round_trips () =
  let path = Filename.temp_file "validate_real" ".jsonl" in
  Sys.remove path;
  let outcome =
    Runtime.Validate.run ~benches:[ "253.perlbmk" ] ~max_threads:2
      ~scale:Benchmarks.Study.Small ~history:path ()
  in
  let entries =
    match Obs_analysis.History.load path with
    | Ok es -> es
    | Error e -> Alcotest.fail e
  in
  Sys.remove path;
  match entries with
  | [ e ] ->
    Alcotest.(check int) "all measured points recorded" (List.length outcome.Runtime.Validate.points)
      (List.length e.Obs_analysis.History.real);
    Alcotest.(check bool) "real block non-empty" true (e.Obs_analysis.History.real <> []);
    List.iter
      (fun (p : Obs_analysis.History.real_point) ->
        Alcotest.(check bool) "point validated" true p.Obs_analysis.History.rp_ok)
      e.Obs_analysis.History.real
  | es -> Alcotest.fail (Printf.sprintf "expected 1 history entry, found %d" (List.length es))

(* Sim-vs-real tolerance: the measured speedup *ordering* of the three
   smallest benches must not contradict the simulator's predicted
   ordering.  Wall-clock speedup needs real cores: on a machine with
   fewer than 4 recommended domains the measurement would only reflect
   scheduler thrash, so the check logs a notice and skips. *)
let sim_vs_real_ordering () =
  if Test_util.available_domains () < 4 then
    print_endline
      (Printf.sprintf
         "NOTICE: sim-vs-real ordering skipped — %d recommended domain(s), need 4"
         (Test_util.available_domains ()))
  else begin
    let scale = Benchmarks.Study.Medium in
    let outcome =
      Runtime.Validate.run ~benches:Runtime.Real_bench.small_three ~max_threads:4 ~scale ()
    in
    Alcotest.(check bool) "outputs validated" true outcome.Runtime.Validate.ok;
    let best_of bench f =
      List.fold_left
        (fun acc (p : Obs_analysis.History.real_point) ->
          if p.Obs_analysis.History.rp_study = bench then max acc (f p) else acc)
        0. outcome.Runtime.Validate.points
    in
    let measured b = best_of b (fun p -> p.Obs_analysis.History.rp_speedup) in
    let predicted b = best_of b (fun p -> p.Obs_analysis.History.rp_sim_speedup) in
    (* Kendall comparison over the three pairs: concordant pairs must
       not be outnumbered by discordant ones (ordering, not absolute). *)
    let pairs =
      match Runtime.Real_bench.small_three with
      | [ a; b; c ] -> [ (a, b); (a, c); (b, c) ]
      | _ -> Alcotest.fail "small_three must have three benches"
    in
    let score =
      List.fold_left
        (fun acc (x, y) ->
          let sim = compare (predicted x) (predicted y) in
          let real = compare (measured x) (measured y) in
          if sim = 0 || real = 0 then acc
          else if sim = real then acc + 1
          else acc - 1)
        0 pairs
    in
    Alcotest.(check bool)
      (Printf.sprintf "measured ordering tracks predicted ordering (score %d)" score)
      true (score >= 0)
  end

(* ------------------------------------------------------------------ *)
(* Telemetry probes                                                    *)

(* The observability contract: turning probes on must not change a
   single output byte, at any thread count, including the speculation
   path (175.vpr squashes and re-executes under probes). *)
let probes_do_not_change_output () =
  List.iter
    (fun name ->
      let seq = Staged.run_seq (Runtime.Real_bench.staged name) in
      List.iter
        (fun threads ->
          let r =
            Exec.run ~threads ~name ~probe:true (Runtime.Real_bench.staged name)
          in
          Alcotest.(check bool)
            (Printf.sprintf "%s byte-identical under probes at %d threads" name
               threads)
            true
            (r.Exec.output = seq);
          Alcotest.(check bool)
            (Printf.sprintf "%s telemetry present iff parallel (%d threads)" name
               threads)
            (threads > 1)
            (r.Exec.telemetry <> None))
        [ 1; 2; 3; 4 ])
    [ "164.gzip"; "175.vpr" ]

let telemetry_is_sane () =
  let name = "164.gzip" in
  let staged = Runtime.Real_bench.staged name in
  let n = Staged.iterations staged in
  let r = Exec.run ~threads:3 ~name ~probe:true staged in
  match r.Exec.telemetry with
  | None -> Alcotest.fail "no telemetry from a probed parallel run"
  | Some tl ->
    Alcotest.(check int) "one probe per role" (Array.length r.Exec.stats.Exec.roles)
      (Array.length tl.Exec.tl_roles);
    Array.iter
      (fun rp ->
        Alcotest.(check bool)
          (rp.Exec.rp_role ^ " recorded a stage sample per item")
          true
          (Obs.Hist.count rp.Exec.rp_stage > 0))
      tl.Exec.tl_roles;
    Alcotest.(check bool) "has queue stats" true (tl.Exec.tl_queues <> []);
    List.iter
      (fun qs ->
        Alcotest.(check bool) "high-water within capacity" true
          (qs.Exec.qs_high_water >= 0 && qs.Exec.qs_high_water <= qs.Exec.qs_capacity);
        Alcotest.(check int) "every item crossed the queue" n qs.Exec.qs_pushes)
      tl.Exec.tl_queues;
    Alcotest.(check int) "nothing dropped at this scale" 0 tl.Exec.tl_dropped

(* Queue records carry occupancy, not latency: they must stay out of
   every latency histogram, and the queue table is unchanged by them. *)
let queue_records_stay_out_of_histograms () =
  let name = "164.gzip" in
  let staged = Runtime.Real_bench.staged name in
  let n = Staged.iterations staged in
  let r = Exec.run ~threads:3 ~name ~probe:true staged in
  match r.Exec.telemetry with
  | None -> Alcotest.fail "no telemetry from a probed parallel run"
  | Some tl ->
    Array.iter
      (fun rp ->
        Alcotest.(check int) (rp.Exec.rp_role ^ " has no validate samples") 0
          (Obs.Hist.count rp.Exec.rp_validate);
        Alcotest.(check int) (rp.Exec.rp_role ^ " has no squash samples") 0
          (Obs.Hist.count rp.Exec.rp_squash))
      tl.Exec.tl_roles;
    Alcotest.(check (list (triple string int int)))
      "one in-queue and one out-queue, every item pushed once"
      [ ("in", 64, n); ("out", 64, n) ]
      (List.map
         (fun qs ->
           (Obs.Event.queue_name qs.Exec.qs_queue, qs.Exec.qs_capacity, qs.Exec.qs_pushes))
         tl.Exec.tl_queues)

(* A real probe dump must fit a calibration: the microsecond stage
   histograms become per-iteration stage costs. *)
let probe_dump_fits_calibration () =
  let name = "164.gzip" in
  let staged = Runtime.Real_bench.staged name in
  let n = Staged.iterations staged in
  let r = Exec.run ~threads:3 ~name ~probe:true staged in
  match r.Exec.telemetry with
  | None -> Alcotest.fail "no telemetry"
  | Some tl -> (
    let j = Exec.telemetry_to_json ~name r.Exec.stats tl in
    (* through text, as `repro plan --calibrate <dump>` reads it *)
    match Obs.Json.parse (Obs.Json.to_string j) with
    | Error e -> Alcotest.failf "dump does not re-parse: %s" e
    | Ok j -> (
      match Sim.Calibrate.of_probe_json j with
      | Error e -> Alcotest.failf "of_probe_json: %s" e
      | Ok cal ->
        Alcotest.(check string) "source" "probe" cal.Sim.Calibrate.source;
        Alcotest.(check string) "bench" name cal.Sim.Calibrate.bench;
        Alcotest.(check int) "iterations" n cal.Sim.Calibrate.iterations;
        Alcotest.(check bool) "total cost positive" true
          (Sim.Calibrate.total_cost cal >= 0.);
        Alcotest.(check bool) "queue latency positive" true
          (cal.Sim.Calibrate.queue_latency >= 1)))

let () =
  Alcotest.run "runtime"
    [
      ( "spsc",
        [
          Alcotest.test_case "matches FIFO model" `Quick spsc_matches_model;
          Alcotest.test_case "close semantics" `Quick spsc_close_semantics;
          Alcotest.test_case "poison raises" `Quick spsc_poison_raises;
          Alcotest.test_case "two-domain 1M-item stress" `Quick spsc_two_domain_stress;
        ] );
      ( "exec",
        [
          Alcotest.test_case "all 11 benches byte-identical" `Quick bench_output_equality;
          Alcotest.test_case "role stats cover all items" `Quick role_stats_cover_all_items;
          Alcotest.test_case "events well-formed" `Quick events_well_formed;
          Alcotest.test_case "stage exception propagates" `Quick stage_exception_propagates;
        ] );
      ( "speculation",
        [
          Alcotest.test_case "conflicts squash and recover" `Quick
            speculation_squashes_and_recovers;
          Alcotest.test_case "spec benches match with speculation" `Quick
            spec_benches_squash_and_match;
        ] );
      ( "probe",
        [
          Alcotest.test_case "probes never change output" `Quick
            probes_do_not_change_output;
          Alcotest.test_case "telemetry sane" `Quick telemetry_is_sane;
          Alcotest.test_case "queue records stay out of histograms" `Quick
            queue_records_stay_out_of_histograms;
          Alcotest.test_case "probe dump fits calibration" `Quick
            probe_dump_fits_calibration;
        ] );
      ( "validate",
        [
          Alcotest.test_case "catches corrupted output" `Quick validate_catches_corruption;
          Alcotest.test_case "history round-trips real block" `Quick
            validate_history_round_trips;
          Alcotest.test_case "sim-vs-real ordering" `Slow sim_vs_real_ordering;
        ] );
    ]
