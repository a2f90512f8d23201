(* Property: Obs.Json emit -> parse is the identity, over random values
   of bounded depth.  Floats are excluded by design: the emitter writes
   integer-valued floats as "%.0f" (which re-parse as Int) and everything
   else at %.6g precision, so Float round-trips only up to representation
   — the structural property holds for every other constructor. *)

module G = Check.Gen
module R = Check.Runner
module J = Obs.Json

(* Arbitrary bytes, including quotes, backslashes and control
   characters, so the escaper's every branch is exercised. *)
let string_gen = G.string_size ~char:G.byte_char (G.int_bound 12)

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

let timeline_case =
  let open G in
  let* d = GI.loop_desc ~max_iters:16 () in
  let* cfg = GI.config () in
  let* policy = GI.policy in
  let* cut = int_bound 1000 in
  return (d, cfg, policy, cut)

let print_timeline_case (d, cfg, (p : Sim.Sched.policy), cut) =
  let misspec =
    match p.Sim.Sched.misspec with Sim.Sched.Serialize -> "serialize" | Sim.Sched.Squash -> "squash"
  in
  Format.asprintf "%a misspec=%s fwd=%b cut=%d/1000@ %a" Machine.Config.pp cfg misspec
    p.Sim.Sched.forwarding cut GI.pp_loop_desc d

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
