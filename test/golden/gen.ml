(* Prints test/golden/dune.inc: one rule per deterministic output of
   bench/main.exe and repro, and one runtest [diff] of that output
   against its committed <name>.expected file.

     dune runtest       # fails on any byte change, naming the output
     dune promote       # accepts a deliberate change

   The outputs come from Benchmarks.Registry (and each study's
   flow_body), so a new study gets its snapshots without hand edits:
   the runtest diff of dune.inc against this program's output fails
   first, [dune promote] refreshes dune.inc, and the next run writes
   the study's expected files for review.

   Every rule sets SIM_VALIDATE=1 itself, so each snapshotted schedule
   is re-checked by the oracle whenever the rule runs, and a cached
   result can never come from an unvalidated run.  Outputs that carry
   wall-clock figures (validate-real and profile-real runs) are left
   out. *)

type sexp = A of string | L of sexp list

(* Atoms-only lists stay on one line; otherwise the leading atoms share
   the opening line and every later element gets its own, one column
   deeper — the layout dune's own formatter uses. *)
let rec pp indent = function
  | A s -> print_string s
  | L items ->
    let rec split acc = function
      | A s :: rest -> split (s :: acc) rest
      | rest -> (List.rev acc, rest)
    in
    let head, rest = split [] items in
    print_string ("(" ^ String.concat " " head);
    List.iter
      (fun x ->
        print_string ("\n" ^ String.make (indent + 1) ' ');
        pp (indent + 1) x)
      rest;
    print_string ")"

let stanza s =
  pp 0 s;
  print_string "\n\n"

let atoms s = List.map (fun a -> A a) (String.split_on_char ' ' s)

(* A repro command line, as a format. *)
let cmd fmt = Printf.sprintf ("%%{exe:../../bin/repro.exe} " ^^ fmt)

(* [produce out action] runs [action] under SIM_VALIDATE=1 (and [env],
   outermost first) to write the target [out]. *)
let produce ?(env = []) out action =
  let action =
    List.fold_right
      (fun (k, v) body -> L [ A "setenv"; A k; A v; body ])
      (("SIM_VALIDATE", "1") :: env)
      action
  in
  stanza (L [ A "rule"; L [ A "targets"; A out ]; L [ A "action"; action ] ])

let output_of ?(stderr = false) ?(exit_code = 0) cmd =
  let run = L (A "run" :: atoms cmd) in
  L
    [
      A (if stderr then "with-stderr-to" else "with-stdout-to");
      A "%{targets}";
      (if exit_code = 0 then run
       else L [ A "with-accepted-exit-codes"; A (string_of_int exit_code); run ]);
    ]

(* Every output of one snapshot diffs against the same expected file. *)
let check name outs =
  let diff out = L [ A "diff"; A (name ^ ".expected"); A out ] in
  stanza
    (L
       [
         A "rule";
         L [ A "alias"; A "runtest" ];
         L
           [
             A "action";
             (match outs with [ out ] -> diff out | _ -> L (A "progn" :: List.map diff outs));
           ];
       ])

let snapshot ?stderr ?exit_code name cmd =
  produce (name ^ ".out") (output_of ?stderr ?exit_code cmd);
  check name [ name ^ ".out" ]

(* The same command at 1 and 4 jobs, both against one expected file:
   output must not depend on the job count. *)
let jobs_pair ?(env = fun _ -> []) name cmd =
  let out j = Printf.sprintf "%s-j%d.out" name j in
  List.iter (fun j -> produce ~env:(env j) (out j) (output_of (cmd j))) [ 1; 4 ];
  check name [ out 1; out 4 ]

(* The self-tests: each corrupts a known-good artifact, so the command
   must exit 1 and print the finding that proves its check can fail. *)
let lint_mutations =
  [ ("181.mcf", "no-alias"); ("186.crafty", "no-value"); ("197.parser", "strip-rollback") ]

let () =
  print_string
    "; Generated by gen.exe from Benchmarks.Registry: do not edit.  A runtest\n\
     ; diff in ./dune re-checks this file, and `dune promote` refreshes it.\n\n";
  jobs_pair "bench-quick"
    ~env:(fun j -> [ ("REPRO_JOBS", string_of_int j) ])
    (fun _ -> "%{exe:../../bench/main.exe}");
  List.iter
    (fun (s : Benchmarks.Study.t) ->
      let b = s.Benchmarks.Study.spec_name in
      jobs_pair ("run-" ^ b) (cmd "run -b %s --jobs %d" b);
      jobs_pair ("plan-" ^ b) (cmd "plan -b %s --jobs %d" b);
      snapshot ("explain-" ^ b) (cmd "explain -b %s" b);
      List.iter
        (fun t ->
          snapshot (Printf.sprintf "explain-%s-t%d" b t) (cmd "explain -b %s --threads %d" b t))
        [ 2; 3; 8; 32 ];
      snapshot ("explain-" ^ b ^ "-large") (cmd "explain -b %s --scale large" b);
      (* --summary picks CSV or JSON by the target's suffix. *)
      List.iter
        (fun ext ->
          let out = Printf.sprintf "summary-%s.%s" b ext in
          let run = atoms (cmd "run -b %s -s small --summary %%{targets}" b) in
          produce out (L [ A "ignore-outputs"; L (A "run" :: run) ]);
          check out [ out ])
        [ "json"; "csv" ];
      snapshot ("lint-" ^ b) (cmd "lint -b %s -s small" b);
      if s.Benchmarks.Study.flow_body <> None then begin
        snapshot ("audit-pdg-" ^ b) (cmd "audit-pdg -b %s" b);
        snapshot ("infer-" ^ b) (cmd "infer -b %s" b)
      end)
    Benchmarks.Registry.all;
  List.iter
    (fun (b, m) ->
      snapshot ~exit_code:1
        (Printf.sprintf "lint-%s-mutate-%s" b m)
        (cmd "lint -b %s -s small --mutate %s" b m))
    lint_mutations;
  snapshot ~exit_code:1 "audit-pdg-164.gzip-mutate-drop-write"
    (cmd "audit-pdg -b 164.gzip --mutate drop-write");
  snapshot "plan-164.gzip-corrupt-candidates" (cmd "plan -b 164.gzip --corrupt-candidates --jobs 2");
  (* A count below 1 is a usage error: exit 124, usage on stderr. *)
  snapshot ~stderr:true ~exit_code:124 "explain-164.gzip-threads0"
    (cmd "explain -b 164.gzip --threads 0");
  snapshot ~stderr:true ~exit_code:124 "validate-real-164.gzip-threads0"
    (cmd "validate-real -b 164.gzip --threads 0 -s small");
  snapshot ~stderr:true ~exit_code:124 "plan-164.gzip-beam0" (cmd "plan -b 164.gzip --beam 0")
