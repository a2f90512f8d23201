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

   CHECK_SEED / CHECK_COUNT replay a failure deterministically, as for
   every other property in the suite. *)

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

let () =
  Check.Runner.run_prop_exn ~name:"runtime: parallel output = sequential interpreter" ~print
    gen differential
