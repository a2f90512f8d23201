(* Differential property: for random lint-clean loops, the real
   Domain-parallel runtime reproduces the sequential interpreter's
   output byte for byte at 1, 2 and 4 domains.

   The loop comes from Check.Gen_ir (a random PDG), is cut by the DSWP
   partitioner with every breaker enabled, and only partitions the plan
   linter accepts with a non-empty parallel stage are exercised — the
   same acceptance path real plans go through.  Synthetic gives the cut
   an executable semantics; Synthetic.reference is an independent
   interpreter of that semantics, so the equality checks the whole
   chain: staged encoding, queues, role scheduling, commit order.

   A second property, below, checks random speculative loops against
   Staged.run_seq.  CHECK_SEED / CHECK_COUNT replay a failure's input
   deterministically, as for every other property in the suite. *)

let enabled _ = true

let gen = QCheck2.Gen.pair (Check.Gen_ir.pdg ~max_nodes:12 ()) (QCheck2.Gen.int_range 1 24)

let lint_clean pdg partition =
  Lint.Diagnostic.errors (Lint.Plan_check.check_enabled ~pdg ~partition ~enabled) = []

let differential (pdg, iterations) =
  let partition = Dswp.Partition.partition pdg ~enabled in
  let b = Dswp.Partition.stage partition Ir.Task.B in
  if not (lint_clean pdg partition) || b.Dswp.Partition.nodes = [] then true
  else begin
    let reference = Runtime.Synthetic.reference pdg partition ~iterations in
    let seq = Runtime.Staged.run_seq (Runtime.Synthetic.staged pdg partition ~iterations) in
    seq = reference
    && List.for_all
         (fun threads ->
           let r =
             Runtime.Exec.run ~threads ~name:"prop"
               (Runtime.Synthetic.staged pdg partition ~iterations)
           in
           r.Runtime.Exec.output = reference)
         [ 2; 4 ]
  end

let print (pdg, iterations) =
  Format.asprintf "iterations=%d@.%a" iterations Ir.Pdg.pp pdg

(* Speculative differential property: random [Spec] loops over
   locations 0..7.  [sp_init] covers a random subset, so reads of
   missing locations and writes past the initial store both occur.
   Step i holds two bit masks over the locations: iteration i reads the
   first set and writes each location of the second a value mixed from
   what it read and i, so a stale read that escaped validation would
   change the output.  The body is padded so replicas overlap. *)
type spec_case = { init : (int * int) list; steps : (int * int) list }

let subset mask = List.filter (fun l -> mask land (1 lsl l) <> 0) (List.init 8 Fun.id)

let spec_gen =
  let open QCheck2.Gen in
  let* mask = int_range 0 255 and* values = list_repeat 8 (int_range (-50) 50) in
  let+ steps = list_size (int_range 1 40) (pair (int_range 0 255) (int_range 0 255)) in
  { init = List.map (fun l -> (l, List.nth values l)) (subset mask); steps }

let spec_staged { init; steps } =
  let steps = Array.of_list steps in
  let module S = Runtime.Staged in
  S.Spec
    {
      S.sp_iterations = Array.length steps;
      sp_init = init;
      sp_produce = (fun i -> i);
      sp_exec =
        (fun ~read i ->
          let pad = ref 0 in
          for k = 0 to 2000 do
            pad := !pad + k
          done;
          ignore (Sys.opaque_identity !pad);
          let reads, writes = steps.(i) in
          let d = List.fold_left (fun h l -> S.mix h (read l)) i (subset reads) in
          (List.map (fun l -> (l, S.mix d l)) (subset writes), d));
      sp_consume = (fun buf i d -> Buffer.add_string buf (Printf.sprintf "%d %s\n" i (S.hex d)));
      sp_finish =
        (fun ~read buf ->
          List.iter (fun l -> Buffer.add_string buf (Printf.sprintf "%d=%d\n" l (read l))) (subset 255));
    }

let spec_differential case =
  let seq = Runtime.Staged.run_seq (spec_staged case) in
  List.for_all
    (fun threads ->
      (Runtime.Exec.run ~threads ~name:"spec prop" (spec_staged case)).Runtime.Exec.output = seq)
    [ 2; 3; 4 ]

let print_spec { init; steps } =
  let locs mask = String.concat "," (List.map string_of_int (subset mask)) in
  Printf.sprintf "init=[%s] steps=[%s]"
    (String.concat "; " (List.map (fun (l, v) -> Printf.sprintf "%d:%d" l v) init))
    (String.concat "; " (List.map (fun (r, w) -> Printf.sprintf "r{%s} w{%s}" (locs r) (locs w)) steps))

let () =
  Check.Runner.run_prop_exn ~name:"runtime: parallel output = sequential interpreter" ~print
    gen differential;
  Check.Runner.run_prop_exn ~name:"runtime: speculative output = sequential" ~print:print_spec
    spec_gen spec_differential
