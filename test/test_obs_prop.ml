(* Property: Obs.Json emit -> parse is the identity, over random values
   of bounded depth.  Floats are excluded by design: the emitter writes
   integer-valued floats as "%.0f" (which re-parse as Int) and everything
   else at %.6g precision, so Float round-trips only up to representation
   — the structural property holds for every other constructor. *)

module G = QCheck2.Gen
module R = Check.Runner
module J = Obs.Json

(* Arbitrary bytes, including quotes, backslashes and control
   characters, so the escaper's every branch is exercised. *)
let string_gen = G.string_size ~gen:(G.char_range '\000' '\255') (G.int_bound 12)

let leaf_gens =
  [
    G.return J.Null;
    G.map (fun b -> J.Bool b) G.bool;
    G.map (fun i -> J.Int i) (G.int_range (-1_000_000_000) 1_000_000_000);
    G.map (fun s -> J.Str s) string_gen;
  ]

let rec value_gen depth =
  if depth = 0 then G.oneof leaf_gens
  else
    G.oneof
      (leaf_gens
      @ [
          G.map (fun l -> J.Arr l) (G.list_size (G.int_bound 4) (value_gen (depth - 1)));
          G.map
            (fun kvs -> J.Obj kvs)
            (G.list_size (G.int_bound 4) (G.pair string_gen (value_gen (depth - 1))));
        ])

let () =
  R.run_prop_exn ~print:J.to_string ~name:"json parse . to_string = id" (value_gen 3)
    (fun v -> J.parse (J.to_string v) = Ok v)

(* Property: Obs_analysis.Timeline equals the reference implementation
   (test/ref_analysis.ml) on random loops, machines and policies, over
   the whole recording and over a random prefix of it — a truncated
   recording leaves runs open and queues mid-flight. *)

module GI = Check.Gen_ir

(* Half the loops have works of at most 2, so producers that share a
   consumer (Check.Gen_ir draws edges in fans) often finish at the same
   instant and the critical path's choice among tied in-edges shows. *)
let timeline_case =
  let open G in
  let* max_work = oneofl [ 2; 20 ] in
  let* d = GI.loop_desc ~max_iters:16 ~max_work () in
  let* cfg = GI.config () in
  let* policy = GI.policy in
  let* cut = int_bound 1000 in
  return (d, cfg, policy, cut)

let print_sim_case ?(extra = "") (d, cfg, (p : Sim.Sched.policy)) =
  let misspec =
    match p.Sim.Sched.misspec with Sim.Sched.Serialize -> "serialize" | Sim.Sched.Squash -> "squash"
  in
  Format.asprintf "%a misspec=%s fwd=%b%s@ %a" Machine.Config.pp cfg misspec
    p.Sim.Sched.forwarding extra GI.pp_loop_desc d

let print_timeline_case (d, cfg, p, cut) =
  print_sim_case ~extra:(Printf.sprintf " cut=%d/1000" cut) (d, cfg, p)

let () =
  R.run_prop_exn ~print:print_timeline_case
    ~name:"timeline = reference on whole and truncated recordings" timeline_case
    (fun (d, cfg, policy, cut) ->
      let loop = GI.build_loop d in
      let rec_ = Obs.Sink.recorder () in
      (* One- or two-entry queues can deadlock the simulator (about 0.6%
         of cases); such a run has no schedule to attribute. *)
      match Sim.Pipeline.run_loop cfg ~policy ~validate:false ~obs:(Obs.Sink.record rec_) loop with
      | exception Failure _ -> true
      | r ->
        let events = Obs.Sink.events rec_ in
        let keep = List.length events * cut / 1000 in
        let prefix = List.filteri (fun i _ -> i < keep) events in
        List.for_all
          (fun evs ->
            Obs_analysis.Timeline.of_events cfg loop r evs
            = Ref_analysis.Timeline.of_events cfg loop r evs)
          [ events; prefix ])

(* Property: Obs_analysis.Critpath equals the verbatim reference
   (test/ref_analysis.ml) on the same random loops, machines and all four
   policies, over the whole recording and a random prefix, and with the
   schedule listed in reverse (out of completion order, so the time
   indexes are sorted rather than taken as listed). *)

let () =
  R.run_prop_exn ~print:print_timeline_case
    ~name:"critical path = reference on whole and truncated recordings" timeline_case
    (fun (d, cfg, policy, cut) ->
      let loop = GI.build_loop d in
      let rec_ = Obs.Sink.recorder () in
      match Sim.Pipeline.run_loop cfg ~policy ~validate:false ~obs:(Obs.Sink.record rec_) loop with
      | exception Failure _ -> true
      | r ->
        let events = Obs.Sink.events rec_ in
        let keep = List.length events * cut / 1000 in
        let prefix = List.filteri (fun i _ -> i < keep) events in
        let reversed = { r with Sim.Sched.schedule = List.rev r.Sim.Sched.schedule } in
        List.for_all
          (fun (r, evs) ->
            Obs_analysis.Critpath.extract cfg ~policy loop r evs
            = Ref_analysis.Critpath.extract cfg ~policy loop r evs)
          [ (r, events); (r, prefix); (reversed, events) ])

(* Property: the summary folded from a loop's event stream agrees with
   the simulator's result on 2, 3 and 8 cores under both policies.
   busy/A+B+C is the per-core busy total (a mid-run squash is charged
   only what it executed), the gauges' high waters are the result's
   queue high-water marks, and the squash count is the number of
   Task_squash events.  Each direction keeps one series per B slot,
   touched or not, with one sample per queue event. *)

let summary_case =
  let open G in
  let* d = GI.loop_desc ~max_iters:16 () in
  let* cores = oneofl [ 2; 3; 8 ] in
  let* cap = int_range ~origin:32 1 32 in
  let* lat = int_range 0 5 in
  let* policy = GI.policy in
  return (d, Machine.Config.make ~cores ~queue_capacity:cap ~comm_latency:lat (), policy)

let () =
  R.run_prop_exn ~print:print_sim_case ~name:"summary fold = loop result" summary_case
    (fun (d, cfg, policy) ->
      let loop = GI.build_loop d in
      let rec_ = Obs.Sink.recorder () in
      match Sim.Pipeline.run_loop cfg ~policy ~validate:false ~obs:(Obs.Sink.record rec_) loop with
      | exception Failure _ -> true
      | r ->
        let events = Obs.Sink.events rec_ in
        let slots = Dswp.Planner.b_core_count cfg in
        let fold = Obs.Summary.fold ~slots in
        List.iter (Obs.Sink.emit (Obs.Summary.sink fold)) events;
        Obs.Summary.add_counts fold ~misspec_delayed:r.Sim.Pipeline.misspec_delayed
          ~squashes:r.Sim.Pipeline.squashes;
        let s = Obs.Summary.snapshot fold in
        let counter n = List.assoc n s.Obs.Summary.counters in
        let high n = snd (List.assoc n s.Obs.Summary.gauges) in
        let count p = List.length (List.filter p events) in
        let queue_events q =
          count (function
            | Obs.Event.Queue_push { queue; _ } | Obs.Event.Queue_pop { queue; _ } -> queue = q
            | _ -> false)
        in
        let slot_names prefix = List.init slots (Printf.sprintf "%s/%d" prefix) in
        let samples prefix =
          List.concat_map
            (fun (n, pts) -> if List.mem n (slot_names prefix) then pts else [])
            s.Obs.Summary.series
        in
        counter "busy/A" + counter "busy/B" + counter "busy/C"
        = Array.fold_left ( + ) 0 r.Sim.Pipeline.busy
        && high "in_queue_occupancy" = r.Sim.Pipeline.in_queue_high_water
        && high "out_queue_occupancy" = r.Sim.Pipeline.out_queue_high_water
        && counter "squashes" = count (function Obs.Event.Task_squash _ -> true | _ -> false)
        && List.map fst s.Obs.Summary.series
           = List.sort compare (slot_names "in_queue" @ slot_names "out_queue")
        && List.length (samples "in_queue") = queue_events Obs.Event.In_queue
        && List.length (samples "out_queue") = queue_events Obs.Event.Out_queue)
