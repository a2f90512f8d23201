(* Anti-scaling gate over a bench history file (JSONL, one entry per
   bench run; see Obs_analysis.History), run by scripts/check.sh.

   Compares the newest jobs>1 entry against the newest jobs=1 entry
   (preferring a same-revision pair) and fails when the parallel run's
   wall clock exceeds the sequential run's by more than the tolerance:
   a parallel harness that is *slower* than sequential is a bug
   regardless of the machine.  On a single-core box parity (within
   tolerance) is the best possible outcome; real speedups (ratio < 1)
   need real cores.  The pair choice and the verdict are
   Obs_analysis.History.scaling.

     compare_bench --scaling [FILE]  (default: BENCH_history.jsonl)
     SCALING_TOLERANCE=0.25          headroom (fraction, default 0.15)

   Exit codes: 0 = ok / nothing to compare, 1 = anti-scaling, 2 = usage
   or input error. *)

module H = Obs_analysis.History

let fail fmt = Printf.ksprintf (fun msg -> prerr_endline ("compare_bench: " ^ msg); exit 2) fmt

let tolerance () =
  match Sys.getenv_opt "SCALING_TOLERANCE" with
  | None -> 0.15
  | Some s -> (
    match float_of_string_opt s with
    | Some t when t >= 0. -> t
    | _ -> fail "SCALING_TOLERANCE must be a non-negative fraction, got %S" s)

let scaling_gate file =
  let tolerance = tolerance () in
  let entries = match H.load file with Ok es -> es | Error e -> fail "%s" e in
  match H.scaling ~tolerance entries with
  | H.Nothing_to_compare which ->
    Printf.printf "compare_bench --scaling: %s has no %s entry — nothing to compare\n" file which;
    exit 0
  | H.Compared { par; seq; same_rev; ratio; ok } ->
    if not same_rev then
      Printf.printf
        "  note: no jobs=1 entry at rev %s; comparing against rev %s — wall clocks may \
         reflect different code\n"
        par.H.rev seq.H.rev;
    Printf.printf
      "compare_bench --scaling: jobs=%d %.2fs vs jobs=1 %.2fs at rev %s (ratio %.2f, \
       tolerance %.0f%%)\n"
      par.H.jobs par.H.total_seconds seq.H.total_seconds par.H.rev ratio (100. *. tolerance);
    if ok then begin
      Printf.printf "  ok: parallel run within tolerance of sequential\n";
      exit 0
    end
    else begin
      Printf.printf "  ANTI-SCALING: jobs=%d is %.0f%% slower than jobs=1 (allowed: %.0f%%)\n"
        par.H.jobs
        (100. *. (ratio -. 1.))
        (100. *. tolerance);
      exit 1
    end

let () =
  match List.tl (Array.to_list Sys.argv) with
  | [ "--scaling" ] -> scaling_gate "BENCH_history.jsonl"
  | [ "--scaling"; file ] -> scaling_gate file
  | _ -> fail "usage: compare_bench --scaling [FILE]"
