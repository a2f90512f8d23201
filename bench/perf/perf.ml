(* The benchmark program: five workloads over the model pipeline, the planner
   and the 2-domain runtime.  Each layer is timed from outside, around
   the calls this file makes into its public functions; nothing inside
   lib/ is instrumented for it.  README.md in this directory explains
   the workloads, every metric and how to compare two sets of runs. *)

module Study = Benchmarks.Study
module J = Obs.Json
module Timeline = Obs_analysis.Timeline

let now = Unix.gettimeofday

let scale = Study.Large

(* ------------------------------------------------------------------ *)
(* Statistics                                                          *)

let median xs =
  let a = Array.of_list (List.sort Float.compare xs) in
  let n = Array.length a in
  if n = 0 then invalid_arg "median: no samples"
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* The [n - 1] cut points of Python's [statistics.quantiles(xs, n=n)]
   with its default 'exclusive' method, so a spread printed here reads
   the same as one computed by any script over the same values. *)
let quantiles ~n xs =
  let a = Array.of_list (List.sort Float.compare xs) in
  let ld = Array.length a in
  if ld = 0 then invalid_arg "quantiles: no samples"
  else if ld = 1 then List.init (n - 1) (fun _ -> a.(0))
  else
    let m = ld + 1 in
    List.init (n - 1) (fun k ->
        let i = k + 1 in
        let j = max 1 (min (ld - 1) (i * m / n)) in
        let delta = (i * m) - (j * n) in
        ((a.(j - 1) *. float_of_int (n - delta)) +. (a.(j) *. float_of_int delta))
        /. float_of_int n)

(* Quartile distance as a share of the median. *)
let spread xs =
  match quantiles ~n:4 xs with
  | [ q1; _; q3 ] ->
    let m = median xs in
    if m = 0. then 0. else (q3 -. q1) /. Float.abs m
  | _ -> assert false

(* Sorted first, so that the value does not depend on the order in which
   a pass happened to visit its studies. *)
let geomean xs =
  let logs = List.map log (List.sort Float.compare xs) in
  exp (List.fold_left ( +. ) 0. logs /. float_of_int (List.length xs))

let ratio num den = if den = 0. then 0. else num /. den

(* ------------------------------------------------------------------ *)
(* Metric catalogue                                                    *)

type better = Lower | Higher

(* End-to-end metrics that only some workloads have, so BENCHMARK.json
   (whose metrics every workload must report) cannot list them.  They
   are printed and written with the untraced run's record, and [compare]
   gates them with the bounds here; [None] means the value is
   deterministic and must match exactly. *)
let record_only =
  [
    ("pass_s.p90", "s", Lower, Some 0.20);
    ("plan_candidates_per_s", "1/s", Higher, Some 0.15);
    ("sim_speedup_geomean", "x", Higher, None);
    ("plan_winner_geomean", "x", Higher, None);
    ("error_rate", "fraction", Lower, None);
  ]

let model_short_names = [ "gzip"; "crafty"; "bzip2"; "vpr"; "twolf"; "vortex"; "mcf"; "gap"; "perlbmk" ]

(* The BENCHMARK.json per-layer metrics: a traced run reports every one,
   0 where the workload never reaches the layer.  Each is the median over
   the run's traced passes of its per-pass value. *)
let per_layer =
  List.concat
    [
      List.concat_map
        (fun l -> [ (l ^ ".s", "s"); (l ^ ".minor_mw", "Mword") ])
        [ "profile"; "build"; "simulate"; "oracle"; "attribute"; "infer"; "plan" ];
      [
        ("simulate.tasks", "count");
        ("simulate.ns_per_task", "ns");
        ("gc.major_collections", "count");
        ("untraced.s", "s");
      ];
      List.map (fun s -> ("study." ^ s ^ ".s", "s")) model_short_names;
      [ ("model.misspec_delayed", "count"); ("model.squashes", "count") ];
      List.map
        (fun c -> ("model.stall." ^ Timeline.category_name c, "work_units"))
        Timeline.categories;
      [ ("sim_speedup_geomean", "x") ];
      List.map
        (fun c -> ("plan." ^ c, "count"))
        [ "generated"; "lint_pruned"; "bound_pruned"; "budget_pruned"; "simulated" ];
      [ ("plan.simulated_ratio", "ratio"); ("plan_winner_geomean", "x") ];
      List.concat_map
        (fun h -> [ (h ^ ".p50", "us"); (h ^ ".p99", "us") ])
        [
          "real.push_stall_us"; "real.pop_stall_us"; "real.validate_us"; "real.stage_us.A";
          "real.stage_us.B"; "real.stage_us.C";
        ];
      [
        ("real.queue.high_water", "count");
        ("real.queue.pushes", "count");
        ("real.A.busy_s", "s");
        ("real.BC.busy_s", "s");
        ("real.A.blocked_s", "s");
        ("real.BC.starved_s", "s");
        ("real.seq.s", "s");
        ("real.par.s", "s");
        ("real.speedup", "x");
        ("real.squashes", "count");
        ("real.violations", "count");
        ("real.squash_us.p50", "us");
        ("real.probe_dropped", "count");
        ("trace_overhead", "ratio");
      ];
    ]

(* ------------------------------------------------------------------ *)
(* Per-pass counters and spans                                         *)

(* Reset at the start of every pass. *)
let sums : (string, float) Hashtbl.t = Hashtbl.create 64

let hists : (string, Obs.Hist.t) Hashtbl.t = Hashtbl.create 16

let get key = Option.value ~default:0. (Hashtbl.find_opt sums key)

let add key v = Hashtbl.replace sums key (get key +. v)

let add_max key v = Hashtbl.replace sums key (Float.max (get key) v)

let add_hist key h =
  Hashtbl.replace hists key
    (match Hashtbl.find_opt hists key with
    | None -> Obs.Hist.merge h (Obs.Hist.create ())
    | Some acc -> Obs.Hist.merge acc h)

(* Host time of the pass's timed calls: the unit of [pass_s]. *)
let op_time = ref 0.

let timed f =
  let t0 = now () in
  let dt = ref 0. in
  let r =
    Fun.protect
      ~finally:(fun () ->
        dt := now () -. t0;
        op_time := !op_time +. !dt)
      f
  in
  (r, !dt)

type span = {
  id : int;
  name : string;
  parent : int;  (** -1 for a pass's root span *)
  in_pass : int;
  t0 : float;
  mutable t1 : float;
  mutable minor_mw : float;  (** minor-heap words allocated inside, in millions *)
}

(* Spans stay in memory (newest first) and are written with the run's
   record at exit. *)
let spans : span list ref = ref []

let open_spans : int list ref = ref []

let tracing = ref false

let pass_no = ref 0

let run_start = now ()

let layer name f =
  if not !tracing then f ()
  else begin
    let s =
      {
        id = (match !spans with [] -> 0 | p :: _ -> p.id + 1);
        name;
        parent = (match !open_spans with p :: _ -> p | [] -> -1);
        in_pass = !pass_no;
        t0 = now ();
        t1 = 0.;
        minor_mw = 0.;
      }
    in
    let w0 = Gc.minor_words () in
    spans := s :: !spans;
    open_spans := s.id :: !open_spans;
    Fun.protect
      ~finally:(fun () ->
        s.t1 <- now ();
        s.minor_mw <- (Gc.minor_words () -. w0) /. 1e6;
        open_spans := List.tl !open_spans)
      f
  end

let duration s = s.t1 -. s.t0

(* "pass" and "study.<name>" spans group layer calls; their self time is
   glue the layers do not account for, reported as [untraced.s]. *)
let is_group name = name = "pass" || String.starts_with ~prefix:"study." name

(* ------------------------------------------------------------------ *)
(* Operations and their checks                                         *)

let attempted = ref 0

let failed = ref 0

(* False during set-up, whose warm-up pass records the references: a
   failure there aborts the run instead of being counted. *)
let counting = ref false

(* --self-test-corrupt: the first checked output after set-up is
   corrupted before its check runs. *)
let corrupt_armed = ref false

let take_corrupt () =
  let c = !corrupt_armed in
  corrupt_armed := false;
  c

(* One operation: [f] runs it and says whether its output is right. *)
let operation label f =
  let verdict =
    match f () with
    | true -> None
    | false -> Some "wrong output"
    | exception e -> Some ("raised " ^ Printexc.to_string e)
  in
  match verdict with
  | None -> if !counting then incr attempted
  | Some why ->
    if not !counting then failwith (Printf.sprintf "%s during set-up: %s" label why);
    incr attempted;
    incr failed;
    Printf.eprintf "perf: %s: %s\n%!" label why

(* The first sighting of a key (in the set-up's warm-up pass) records the
   reference; every later pass must reproduce it exactly. *)
let matches refs key v =
  match Hashtbl.find_opt refs key with
  | None ->
    Hashtbl.add refs key v;
    true
  | Some r -> String.equal r v

(* The seed's only effect: set-up runs in registry order, so it is the
   same work for every seed, and the timed passes visit studies (and a
   traced real pass its sequential and parallel runs) in seeded order. *)
let order_rng : Random.State.t option ref = ref None

let shuffle xs =
  match !order_rng with
  | None -> xs
  | Some rng ->
    let a = Array.of_list xs in
    for i = Array.length a - 1 downto 1 do
      let j = Random.State.int rng (i + 1) in
      let t = a.(i) in
      a.(i) <- a.(j);
      a.(j) <- t
    done;
    Array.to_list a

let coin () = match !order_rng with None -> false | Some rng -> Random.State.bool rng

(* ------------------------------------------------------------------ *)
(* Workloads                                                           *)

type instance = { pass : traced:bool -> unit; close : unit -> unit }

let study name =
  match Benchmarks.Registry.find name with
  | Some s -> s
  | None -> invalid_arg ("unknown study " ^ name)

let short (s : Study.t) =
  let n = s.Study.spec_name in
  match String.index_opt n '.' with
  | Some i -> String.sub n (i + 1) (String.length n - i - 1)
  | None -> n

let parallel_loops (input : Sim.Input.t) =
  List.filter_map
    (function Sim.Input.Parallel l -> Some l | Sim.Input.Serial _ -> None)
    input.Sim.Input.segments

(* --- model-profile, model-sim --------------------------------------- *)

(* Attribution at the paper's thread count; its counters are the
   deterministic model.* metrics. *)
let attribute (s : Study.t) input =
  let cfg = Machine.Config.default ~cores:s.Study.paper_threads in
  List.map
    (fun loop ->
      let a =
        layer "attribute" (fun () -> Obs_analysis.Attribution.run cfg ~validate:false loop)
      in
      add "model.misspec_delayed" (float_of_int a.Obs_analysis.Attribution.misspec_delayed);
      add "model.squashes" (float_of_int a.Obs_analysis.Attribution.squashes);
      List.iter
        (fun c ->
          add
            ("model.stall." ^ Timeline.category_name c)
            (float_of_int (Timeline.total a.Obs_analysis.Attribution.timeline c)))
        Timeline.categories;
      a)
    (parallel_loops input)

let totals_of (points : Sim.Speedup.point list) =
  List.map (fun p -> p.Sim.Speedup.result.Sim.Pipeline.total_time) points

(* The untraced path: one public call for the whole study. *)
let via_experiment s =
  let e = Core.Experiment.run ~scale s in
  ( (Core.Experiment.best e).Sim.Speedup.speedup,
    totals_of e.Core.Experiment.series.Sim.Speedup.points,
    attribute s e.Core.Experiment.built.Core.Framework.input )

(* The traced path: the same work as [Core.Experiment.run], one layer at
   a time, with the oracle applied separately to every loop result. *)
let via_layers (s : Study.t) =
  let profile = layer "profile" (fun () -> s.Study.run ~scale) in
  let built = layer "build" (fun () -> Core.Framework.build ~plan:s.Study.plan profile) in
  let input = built.Core.Framework.input in
  let loops = parallel_loops input in
  let tasks = List.fold_left (fun acc l -> acc + Array.length l.Sim.Input.tasks) 0 loops in
  let points =
    List.map
      (fun threads ->
        let cfg = Machine.Config.default ~cores:threads in
        let result = layer "simulate" (fun () -> Sim.Pipeline.run cfg ~validate:false input) in
        add "simulate.tasks" (float_of_int tasks);
        layer "oracle" (fun () ->
            List.iter2
              (fun loop (_, r) -> Sim.Oracle.validate_exn cfg loop r)
              loops result.Sim.Pipeline.loops);
        { Sim.Speedup.threads; speedup = Sim.Pipeline.speedup result; result })
      (List.sort_uniq compare Sim.Speedup.paper_thread_counts)
  in
  let series = { Sim.Speedup.label = s.Study.spec_name; points } in
  ((Sim.Speedup.best series).Sim.Speedup.speedup, totals_of points, attribute s input)

let model names () =
  (* The untraced path's oracle runs inside every simulated loop. *)
  Sim.Pipeline.validate_default := true;
  let studies = List.map study names in
  let refs = Hashtbl.create 16 in
  let pass ~traced =
    let speedups =
      List.map
        (fun s ->
          let label = s.Study.spec_name in
          let speedup = ref 1. in
          operation label (fun () ->
              let (best, totals, attrs), _ =
                timed (fun () ->
                    if traced then layer ("study." ^ short s) (fun () -> via_layers s)
                    else via_experiment s)
              in
              speedup := best;
              let totals =
                match totals with
                | t :: rest when take_corrupt () -> (t + 1) :: rest
                | _ -> totals
              in
              let digest =
                String.concat " "
                  (List.map string_of_int totals
                  @ List.map
                      (fun (a : Obs_analysis.Attribution.t) ->
                        Printf.sprintf "%d/%d" a.span a.headroom)
                      attrs)
              in
              matches refs label digest);
          !speedup)
        (shuffle studies)
    in
    add "sim_speedup_geomean" (geomean speedups)
  in
  { pass; close = ignore }

(* --- plan-search ----------------------------------------------------- *)

let plan_search () =
  let studies = Benchmarks.Registry.all in
  let bodies =
    List.filter_map
      (fun (s : Study.t) -> Option.map (fun b -> (s, b)) s.Study.flow_body)
      studies
  in
  let pool = Parallel.Pool.create ~domains:1 in
  let refs = Hashtbl.create 32 in
  let pass ~traced:_ =
    List.iter
      (fun ((s : Study.t), body) ->
        let label = "infer " ^ s.Study.spec_name in
        operation label (fun () ->
            let r, _ =
              timed (fun () ->
                  layer "infer" (fun () ->
                      Flow.Infer.run
                        ~commutative:s.Study.plan.Speculation.Spec_plan.commutative body))
            in
            matches refs label (Format.asprintf "%a" Ir.Pdg.pp r.Flow.Infer.pdg)))
      (shuffle bodies);
    let plan_s = ref 0. in
    let winners =
      List.map
        (fun (s : Study.t) ->
          let label = "plan " ^ s.Study.spec_name in
          let winner = ref 1. in
          operation label (fun () ->
              let rep, dt = timed (fun () -> layer "plan" (fun () -> Core.Plan_search.run ~pool s)) in
              plan_s := !plan_s +. dt;
              let c = rep.Core.Plan_search.search.Dswp.Search.counts in
              add "plan.generated" (float_of_int c.Dswp.Search.generated);
              add "plan.lint_pruned" (float_of_int c.Dswp.Search.lint_pruned);
              add "plan.bound_pruned" (float_of_int c.Dswp.Search.bound_pruned);
              add "plan.budget_pruned" (float_of_int c.Dswp.Search.budget_pruned);
              add "plan.simulated" (float_of_int c.Dswp.Search.simulated);
              match
                (Core.Plan_search.winner_speedup rep, Core.Plan_search.seed_speedup rep)
              with
              | Some w, Some seed ->
                winner := w;
                let w = if take_corrupt () then w +. 1. else w in
                Core.Plan_search.oracle_clean rep
                && w +. 1e-9 >= seed
                && matches refs label
                     (Printf.sprintf "%h %d %d %d %d %d" w c.Dswp.Search.generated
                        c.Dswp.Search.lint_pruned c.Dswp.Search.bound_pruned
                        c.Dswp.Search.budget_pruned c.Dswp.Search.simulated)
              | _ -> false);
          !winner)
        (shuffle studies)
    in
    add "plan_winner_geomean" (geomean winners);
    add "plan_candidates_per_s" (ratio (get "plan.generated") !plan_s)
  in
  { pass; close = (fun () -> Parallel.Pool.shutdown pool) }

(* --- real-spec, real-pure -------------------------------------------- *)

let real_telemetry (st : Runtime.Exec.stats) (tl : Runtime.Exec.telemetry) =
  let role name =
    match
      Array.find_opt (fun (r : Runtime.Exec.role_stats) -> r.rs_role = name) st.Runtime.Exec.roles
    with
    | Some r -> r
    | None -> failwith ("no role " ^ name)
  in
  (* Two domains: A on one, B and C fused on the other. *)
  let a = role "A" and b = role "B0" and c = role "C" in
  add "real.A.busy_s" a.rs_busy;
  add "real.BC.busy_s" (b.rs_busy +. c.rs_busy);
  add "real.A.blocked_s" a.rs_blocked;
  add "real.BC.starved_s" (b.rs_starved +. c.rs_starved);
  add "real.squashes" (float_of_int st.Runtime.Exec.squashes);
  add "real.violations" (float_of_int st.Runtime.Exec.violations);
  add "real.probe_dropped" (float_of_int tl.Runtime.Exec.tl_dropped);
  List.iter
    (fun (q : Runtime.Exec.queue_stat) ->
      add_max "real.queue.high_water" (float_of_int q.qs_high_water);
      add "real.queue.pushes" (float_of_int q.qs_pushes))
    tl.Runtime.Exec.tl_queues;
  Array.iter
    (fun (rp : Runtime.Exec.role_probe) ->
      add_hist "real.push_stall_us" rp.rp_push_stall;
      add_hist "real.pop_stall_us" rp.rp_pop_stall;
      add_hist "real.validate_us" rp.rp_validate;
      add_hist "real.squash_us" rp.rp_squash;
      add_hist ("real.stage_us." ^ String.sub rp.rp_role 0 1) rp.rp_stage)
    tl.Runtime.Exec.tl_roles

let flip_first_byte s =
  String.mapi (fun i c -> if i = 0 then Char.chr (Char.code c lxor 1) else c) s

let real names () =
  (* Pipelines carry run-once state in their closures, so every run gets
     a fresh one; building it generates the inputs and is not timed. *)
  let fresh name = Runtime.Real_bench.staged ~scale name in
  let refs = Hashtbl.create 4 in
  List.iter (fun n -> Hashtbl.replace refs n (Runtime.Staged.run_seq (fresh n))) names;
  let pool = Parallel.Pool.create ~domains:2 in
  let par name ~traced =
    operation name (fun () ->
        let staged = fresh name in
        let r, _ =
          timed (fun () ->
              layer "real.par" (fun () ->
                  Runtime.Exec.run ~pool ~probe:traced ~threads:2 ~name staged))
        in
        Option.iter (real_telemetry r.Runtime.Exec.stats) r.Runtime.Exec.telemetry;
        let out = r.Runtime.Exec.output in
        let out = if take_corrupt () then flip_first_byte out else out in
        String.equal out (Hashtbl.find refs name))
  in
  let seq name =
    operation (name ^ " sequential") (fun () ->
        let staged = fresh name in
        String.equal
          (layer "real.seq" (fun () -> Runtime.Staged.run_seq staged))
          (Hashtbl.find refs name))
  in
  let pass ~traced =
    List.iter
      (fun name ->
        if not traced then par name ~traced
        else if coin () then (seq name; par name ~traced)
        else (par name ~traced; seq name))
      (shuffle names)
  in
  { pass; close = (fun () -> Parallel.Pool.shutdown pool) }

(* Name, domains used, and the set-up that returns the pass function. *)
let workloads =
  [
    ("model-profile", 1, model [ "164.gzip"; "186.crafty"; "256.bzip2" ]);
    ( "model-sim",
      1,
      model [ "175.vpr"; "300.twolf"; "255.vortex"; "181.mcf"; "254.gap"; "253.perlbmk" ] );
    ("plan-search", 1, plan_search);
    ("real-spec", 2, real [ "175.vpr"; "300.twolf" ]);
    ("real-pure", 2, real [ "164.gzip"; "256.bzip2" ]);
  ]

(* ------------------------------------------------------------------ *)
(* Passes                                                              *)

type pass_record = {
  traced : bool;
  op_s : float;  (** host time of the pass's timed calls *)
  metrics : (string * float) list;
}

(* Per-layer self times, allocation and span coverage for one traced
   pass.  A span's self time is its duration minus its children's. *)
let span_metrics ~wall =
  let ss = List.filter (fun s -> s.in_pass = !pass_no) !spans in
  let children = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace children s.parent
          (duration s +. Option.value ~default:0. (Hashtbl.find_opt children s.parent)))
    ss;
  let covered = ref 0. in
  List.iter
    (fun s ->
      let self = duration s -. Option.value ~default:0. (Hashtbl.find_opt children s.id) in
      covered := !covered +. self;
      if is_group s.name then add "untraced.s" self
      else begin
        add (s.name ^ ".s") self;
        add (s.name ^ ".minor_mw") s.minor_mw
      end;
      if String.starts_with ~prefix:"study." s.name then add (s.name ^ ".s") (duration s))
    ss;
  operation "trace coverage" (fun () -> !covered >= 0.9 *. wall)

(* Ratios over the pass's sums, each with its base. *)
let derived =
  [
    ("simulate.ns_per_task", fun () -> 1e9 *. ratio (get "simulate.s") (get "simulate.tasks"));
    ("plan.simulated_ratio", fun () -> ratio (get "plan.simulated") (get "plan.generated"));
    ("real.speedup", fun () -> ratio (get "real.seq.s") (get "real.par.s"));
  ]

let run_pass inst ~traced =
  Hashtbl.reset sums;
  Hashtbl.reset hists;
  op_time := 0.;
  incr pass_no;
  tracing := traced;
  let majors = (Gc.quick_stat ()).Gc.major_collections in
  let t0 = now () in
  if traced then layer "pass" (fun () -> inst.pass ~traced) else inst.pass ~traced;
  let wall = now () -. t0 in
  tracing := false;
  add "gc.major_collections" (float_of_int ((Gc.quick_stat ()).Gc.major_collections - majors));
  if traced then span_metrics ~wall;
  Hashtbl.iter
    (fun key h ->
      add (key ^ ".p50") (float_of_int (Obs.Hist.quantile h 0.5));
      add (key ^ ".p99") (float_of_int (Obs.Hist.quantile h 0.99)))
    hists;
  List.iter (fun (key, f) -> add key (f ())) derived;
  { traced; op_s = !op_time; metrics = List.of_seq (Hashtbl.to_seq sums) }

(* ------------------------------------------------------------------ *)
(* Run header                                                          *)

let read_file f = try Some (In_channel.with_open_bin f In_channel.input_all) with Sys_error _ -> None

(* Read from the checkout's own .git, so that no process outside it is
   asked; "unknown" outside a git checkout. *)
let git_rev () =
  let trim = Option.map String.trim in
  match trim (read_file ".git/HEAD") with
  | None -> "unknown"
  | Some head when String.starts_with ~prefix:"ref: " head -> (
    let r = String.sub head 5 (String.length head - 5) in
    match trim (read_file (".git/" ^ r)) with
    | Some h -> h
    | None ->
      let packed = Option.value ~default:"" (read_file ".git/packed-refs") in
      List.find_map
        (fun l ->
          match String.split_on_char ' ' l with
          | [ h; r' ] when r' = r -> Some h
          | _ -> None)
        (String.split_on_char '\n' packed)
      |> Option.value ~default:"unknown")
  | Some h -> h

(* Linux only: the process's resident-set high-water mark. *)
let peak_rss_mb () =
  let vm_hwm l = try Some (Scanf.sscanf l "VmHWM: %d kB" Fun.id) with _ -> None in
  match
    Option.bind (read_file "/proc/self/status") (fun status ->
        List.find_map vm_hwm (String.split_on_char '\n' status))
  with
  | Some kb -> float_of_int kb /. 1024.
  | None -> failwith "peak_rss_mb: no VmHWM in /proc/self/status"

(* ------------------------------------------------------------------ *)
(* JSON output                                                         *)

(* Like [Obs.Json.to_string], but floats keep all their digits. *)
let rec json_string = function
  | J.Float f -> Printf.sprintf "%.17g" f
  | J.Arr xs -> "[" ^ String.concat ", " (List.map json_string xs) ^ "]"
  | J.Obj fields ->
    "{"
    ^ String.concat ", "
        (List.map (fun (k, v) -> J.to_string (J.Str k) ^ ": " ^ json_string v) fields)
    ^ "}"
  | (J.Null | J.Bool _ | J.Int _ | J.Str _) as j -> J.to_string j

let metrics_json ms =
  J.Obj
    (List.map
       (fun (name, unit, v) -> (name, J.Obj [ ("value", J.Float v); ("unit", J.Str unit) ]))
       ms)

(* ------------------------------------------------------------------ *)
(* A run                                                               *)

let die fmt = Printf.ksprintf (fun s -> prerr_endline ("perf: " ^ s); exit 2) fmt

(* Human-readable lines, the optional full record, and the result line
   (last on stdout); exits 1 when any operation failed. *)
let report ~header ~reported ~extras ~out =
  let correct = !failed = 0 in
  let result metrics =
    [
      ("correct", J.Bool correct);
      ("attempted", J.Int !attempted);
      ("failed", J.Int !failed);
      ("metrics", metrics_json metrics);
    ]
  in
  List.iter (fun (k, v) -> Printf.printf "# %-14s %s\n" k (json_string v)) header;
  List.iter (fun (name, unit, v) -> Printf.printf "%-28s %14.6g %s\n" name v unit) (reported @ extras);
  Printf.printf "# operations %d attempted, %d failed\n" !attempted !failed;
  Option.iter
    (fun file ->
      let span_json s =
        J.Obj
          [
            ("name", J.Str s.name);
            ("start", J.Float (s.t0 -. run_start));
            ("end", J.Float (s.t1 -. run_start));
            ("parent", J.Int s.parent);
            ("pass", J.Int s.in_pass);
          ]
      in
      let record =
        header @ result (reported @ extras) @ [ ("spans", J.Arr (List.rev_map span_json !spans)) ]
      in
      Out_channel.with_open_gen [ Open_append; Open_creat; Open_wronly ] 0o644 file (fun oc ->
          output_string oc (json_string (J.Obj record) ^ "\n")))
    out;
  print_endline (json_string (J.Obj (result reported)));
  exit (if correct then 0 else 1)

let run ~workload ~seed ~seconds ~passes ~trace ~corrupt ~out =
  let domains, start =
    match List.find_opt (fun (n, _, _) -> n = workload) workloads with
    | Some (_, d, s) -> (d, s)
    | None ->
      die "unknown workload %S (known: %s)" workload
        (String.concat ", " (List.map (fun (n, _, _) -> n) workloads))
  in
  (* Set-up is repeated and its median reported, so that the first, cold
     set-ups do not move [setup_s]; a one-pass smoke run sets up once.
     The count is fixed, not timed: [peak_rss_mb] is read after the
     set-ups and must cover the same work in every run. *)
  let setups = if passes = None then 5 else 1 in
  let setup_times = ref [] and inst = ref None in
  for _ = 1 to setups do
    Option.iter (fun i -> i.close ()) !inst;
    let t0 = now () in
    let i = start () in
    ignore (run_pass i ~traced:false);
    setup_times := (now () -. t0) :: !setup_times;
    inst := Some i
  done;
  let inst = Option.get !inst in
  (* Read before the timed passes: [Sim.Pipeline] keeps every loop it has
     simulated (up to a 512-loop cap), so the high-water mark of a
     time-bounded run would grow with the number of passes that fit. *)
  let setup_rss = peak_rss_mb () in
  counting := true;
  corrupt_armed := corrupt;
  order_rng := Some (Random.State.make [| seed |]);
  (* Closed loop: passes run back to back.  A traced run alternates an
     untraced and a traced pass, so [trace_overhead] compares passes
     measured under the same conditions. *)
  let records = ref [] and n = ref 0 in
  let t_measure = now () in
  let more () =
    match passes with Some p -> !n < p | None -> !n = 0 || now () -. t_measure < seconds
  in
  while more () do
    records := run_pass inst ~traced:false :: !records;
    if trace then records := run_pass inst ~traced:true :: !records;
    incr n
  done;
  inst.close ();
  let records = List.rev !records in
  let of_kind traced = List.filter (fun r -> r.traced = traced) records in
  let values key rs =
    List.map (fun r -> Option.value ~default:0. (List.assoc_opt key r.metrics)) rs
  in
  let present key rs = List.exists (fun r -> List.mem_assoc key r.metrics) rs in
  let untraced = of_kind false and traced = of_kind true in
  (* The traced model path calls the layers one at a time; it must
     simulate exactly what the untraced Core.Experiment.run path does. *)
  if trace && present "sim_speedup_geomean" records then
    operation "traced and untraced sim_speedup_geomean agree" (fun () ->
        List.sort_uniq Float.compare (values "sim_speedup_geomean" records) |> List.length = 1);
  let pass_times = List.map (fun r -> r.op_s) untraced in
  let reported =
    if not trace then
      (* The BENCHMARK.json end-to-end metrics: every workload has them. *)
      [
        ("setup_s", "s", median !setup_times);
        ("pass_s", "s", median pass_times);
        ("peak_rss_mb", "MB", setup_rss);
      ]
    else
      List.map
        (fun (name, unit) ->
          let v =
            if name = "trace_overhead" then
              ratio (median (List.map (fun r -> r.op_s) traced)) (median pass_times) -. 1.
            else median (values name traced)
          in
          (name, unit, v))
        per_layer
  in
  let extras =
    if trace then []
    else
      List.filter_map
        (fun (name, unit, _, _) ->
          match name with
          | "pass_s.p90" when List.length pass_times >= 100 ->
            Some (name, unit, List.nth (quantiles ~n:10 pass_times) 8)
          | "error_rate" ->
            Some (name, unit, ratio (float_of_int !failed) (float_of_int !attempted))
          | _ when present name untraced -> Some (name, unit, median (values name untraced))
          | _ -> None)
        record_only
  in
  let header =
    [
      ("workload", J.Str workload);
      ("trace", J.Bool trace);
      ("rev", J.Str (git_rev ()));
      ("nproc", J.Int (Domain.recommended_domain_count ()));
      ("domains", J.Int domains);
      ("ocaml", J.Str Sys.ocaml_version);
      ("scale", J.Str (Study.scale_to_string scale));
      ("seed", J.Int seed);
      ("seconds", J.Float seconds);
      ("setups", J.Int setups);
      ("passes", J.Int (List.length untraced));
      ("traced_passes", J.Int (List.length traced));
    ]
  in
  report ~header ~reported ~extras ~out

(* ------------------------------------------------------------------ *)
(* compare                                                             *)

let parse_json file s =
  match J.parse s with Ok j -> j | Error e -> die "%s: %s" file e

let number = function J.Float f -> Some f | J.Int i -> Some (float_of_int i) | _ -> None

(* (name, better, bound) of each end-to-end metric BENCHMARK.json lists. *)
let benchmark_bounds file =
  let text = match read_file file with Some t -> t | None -> die "cannot read %s" file in
  let j = parse_json file text in
  match Option.bind (J.member "end_to_end" j) J.to_list with
  | None -> die "%s: no end_to_end list" file
  | Some ms ->
    List.map
      (fun m ->
        let field k = J.member k m in
        match
          ( Option.bind (field "name") J.to_str,
            Option.bind (field "better") J.to_str,
            Option.bind (field "bound") number )
        with
        | Some name, Some b, Some bound -> (name, (if b = "higher" then Higher else Lower), Some bound)
        | _ -> die "%s: malformed end_to_end entry" file)
      ms

(* Untraced records of a JSONL file written with --out: workload ->
   metric -> values, in file order. *)
let load_records file =
  let text = match read_file file with Some t -> t | None -> die "cannot read %s" file in
  List.filter_map
    (fun line ->
      if String.trim line = "" then None
      else
        let j = parse_json file line in
        match (J.member "workload" j, J.member "trace" j, J.member "metrics" j) with
        | Some (J.Str w), Some (J.Bool false), Some (J.Obj ms) ->
          Some
            ( w,
              List.filter_map
                (fun (k, v) -> Option.map (fun x -> (k, x)) (Option.bind (J.member "value" v) number))
                ms )
        | _, Some (J.Bool true), _ -> None
        | _ -> die "%s: not a perf record: %s" file line)
    (String.split_on_char '\n' text)

let verdict ~name ~better ~bound a b =
  let ma = median a and mb = median b in
  (* Positive when B reads worse than A. *)
  let worse_by = match better with Lower -> mb -. ma | Higher -> ma -. mb in
  match bound with
  | None ->
    if List.for_all (fun v -> v = ma) (a @ b) then "agree"
    else if worse_by > 0. then "worse"
    else if worse_by < 0. then "better"
    else "unresolved"
  | Some bound ->
    (* A handful of short set-ups per run spread widely from cold starts,
       so set-up time is judged on its medians alone. *)
    if name <> "setup_s" && Float.max (spread a) (spread b) > bound then "unresolved"
    else
      let w = ratio worse_by (Float.abs ma) in
      if w > bound then "worse" else if -.w > bound then "better" else "agree"

let compare_files ~benchmark fa fb =
  let metrics =
    benchmark_bounds benchmark
    @ List.map (fun (name, _, better, bound) -> (name, better, bound)) record_only
  in
  let ra = load_records fa and rb = load_records fb in
  let workloads = List.sort_uniq compare (List.map fst ra) in
  let values recs w m =
    List.filter_map (fun (w', ms) -> if w' = w then List.assoc_opt m ms else None) recs
  in
  Printf.printf "%-14s %-22s %13s %13s %8s %8s  %s\n" "workload" "metric" "median A" "median B"
    "spread A" "spread B" "verdict";
  let bad = ref 0 in
  List.iter
    (fun w ->
      List.iter
        (fun (m, better, bound) ->
          match (values ra w m, values rb w m) with
          | [], _ | _, [] -> ()
          | a, b ->
            let v = verdict ~name:m ~better ~bound a b in
            if v = "worse" || v = "unresolved" then incr bad;
            Printf.printf "%-14s %-22s %13.6g %13.6g %7.1f%% %7.1f%%  %s\n" w m (median a)
              (median b) (100. *. spread a) (100. *. spread b) v)
        metrics)
    workloads;
  exit (if !bad = 0 then 0 else 1)

(* ------------------------------------------------------------------ *)
(* Command line                                                        *)

let usage =
  "usage: perf.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--passes N]\n\
  \                [--out FILE] [--self-test-corrupt]\n\
  \       perf.exe compare A.jsonl B.jsonl [--benchmark BENCHMARK.json]"

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  match args with
  | "compare" :: rest -> (
    let rec go files benchmark = function
      | "--benchmark" :: f :: rest -> go files f rest
      | f :: rest -> go (f :: files) benchmark rest
      | [] -> (List.rev files, benchmark)
    in
    match go [] "BENCHMARK.json" rest with
    | [ fa; fb ], benchmark -> compare_files ~benchmark fa fb
    | _ -> die "%s" usage)
  | _ ->
    let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
    let passes = ref None and out = ref None and corrupt = ref false in
    let spec =
      [
        ("--workload", Arg.Set_string workload, "NAME workload to run");
        ("--seed", Arg.Set_int seed, "N permutes study order (and seq/parallel order when traced)");
        ("--seconds", Arg.Set_float seconds, "S measure for S seconds (default 10)");
        ("--trace", Arg.Set_int trace, "0|1 1 runs the traced run (per-layer metrics)");
        ("--passes", Arg.Int (fun n -> passes := Some n), "N run exactly N passes and set up once");
        ("--out", Arg.String (fun f -> out := Some f), "FILE append the run's full record to FILE");
        ( "--self-test-corrupt",
          Arg.Set corrupt,
          " corrupt one checked output; the run must then fail" );
      ]
    in
    (try Arg.parse_argv Sys.argv spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage
     with Arg.Bad msg | Arg.Help msg ->
       prerr_string msg;
       exit 2);
    if !workload = "" || (!trace <> 0 && !trace <> 1) || !seconds <= 0.
       || Option.fold ~none:false ~some:(fun p -> p < 1) !passes
    then die "%s" usage;
    run ~workload:!workload ~seed:!seed ~seconds:!seconds ~passes:!passes ~trace:(!trace = 1)
      ~corrupt:!corrupt ~out:!out
