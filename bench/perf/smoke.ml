(* Smoke test of the benchmark program: every BENCHMARK.json workload runs
   one pass untraced and traced; each run must exit 0 and end with a
   result line that parses, reports no failure and names exactly the
   metrics (with the units) BENCHMARK.json lists for that mode.  A run
   with --self-test-corrupt must exit 1 and report the failure.

   usage: smoke.exe PERF_EXE BENCHMARK_JSON *)

module J = Obs.Json

(* A bare name would be searched for in PATH. *)
let perf =
  let p = Sys.argv.(1) in
  if Filename.is_implicit p then Filename.concat Filename.current_dir_name p else p

let errors = ref 0

let fail fmt =
  Printf.ksprintf
    (fun s ->
      incr errors;
      prerr_endline ("smoke: " ^ s))
    fmt

let benchmark =
  match J.parse (In_channel.with_open_bin Sys.argv.(2) In_channel.input_all) with
  | Ok j -> j
  | Error e -> failwith ("BENCHMARK.json: " ^ e)

let list key = Option.value ~default:[] (Option.bind (J.member key benchmark) J.to_list)

let str key j = Option.value ~default:"" (Option.bind (J.member key j) J.to_str)

(* (name, unit) pairs BENCHMARK.json lists under [key], sorted. *)
let expected key = List.sort compare (List.map (fun m -> (str "name" m, str "unit" m)) (list key))

let last_line out =
  match List.rev (List.filter (fun l -> l <> "") (String.split_on_char '\n' out)) with
  | l :: _ -> l
  | [] -> ""

let check_result ~label ~metrics_key line =
  match J.parse line with
  | Error e -> fail "%s: last line does not parse (%s): %s" label e line
  | Ok (J.Obj fields as j) ->
    if List.map fst fields <> [ "correct"; "attempted"; "failed"; "metrics" ] then
      fail "%s: result keys are not correct/attempted/failed/metrics" label;
    if J.member "correct" j <> Some (J.Bool true) then fail "%s: not correct" label;
    if J.member "failed" j <> Some (J.Int 0) then fail "%s: failed operations" label;
    (match Option.bind (J.member "attempted" j) J.to_int with
    | Some n when n >= 1 -> ()
    | _ -> fail "%s: attempted is not a positive count" label);
    let printed =
      match J.member "metrics" j with
      | Some (J.Obj ms) ->
        List.map
          (fun (name, m) ->
            (match J.member "value" m with
            | Some (J.Float _ | J.Int _) -> ()
            | _ -> fail "%s: %s has no numeric value" label name);
            (name, str "unit" m))
          ms
      | _ -> []
    in
    let printed = List.sort compare printed and listed = expected metrics_key in
    List.iter
      (fun (n, u) ->
        if not (List.mem (n, u) listed) then
          fail "%s: printed %s (%s) is not in BENCHMARK.json %s" label n u metrics_key)
      printed;
    List.iter
      (fun (n, u) ->
        if not (List.mem (n, u) printed) then
          fail "%s: BENCHMARK.json %s lists %s (%s), which is not printed" label metrics_key n u)
      listed
  | Ok _ -> fail "%s: last line is not an object" label

(* A job: the arguments, and the check of (stdout, exit status). *)
let jobs =
  List.concat_map
    (fun w ->
      let name = str "name" w in
      List.map
        (fun (trace, metrics_key) ->
          let label = Printf.sprintf "%s --trace %s" name trace in
          ( [ "--workload"; name; "--seed"; "1"; "--trace"; trace; "--passes"; "1" ],
            fun out status ->
              if status <> Unix.WEXITED 0 then fail "%s: did not exit 0" label;
              check_result ~label ~metrics_key (last_line out) ))
        [ ("0", "end_to_end"); ("1", "per_layer") ])
    (list "workloads")
  @ List.map
      (fun name ->
        ( [ "--workload"; name; "--passes"; "1"; "--self-test-corrupt" ],
          fun out status ->
            if status <> Unix.WEXITED 1 then fail "%s --self-test-corrupt: did not exit 1" name;
            match J.parse (last_line out) with
            | Ok j when J.member "correct" j = Some (J.Bool false) -> ()
            | _ -> fail "%s --self-test-corrupt: result does not report the failure" name ))
      [ "real-pure"; "plan-search"; "model-profile" ]

(* Two jobs at a time.  The children's stderr is kept and shown only when
   a check fails (the corrupted runs report their failure there). *)
let () =
  let start (args, check) =
    let chans = Unix.open_process_args_full perf (Array.of_list (perf :: args))
        (Unix.environment ())
    in
    (chans, check)
  in
  let finish (((out_ic, _, err_ic) as chans), check) =
    let out = In_channel.input_all out_ic in
    let err = In_channel.input_all err_ic in
    let before = !errors in
    check out (Unix.close_process_full chans);
    if !errors > before then prerr_string err
  in
  let rec go = function
    | a :: b :: rest ->
      let a = start a and b = start b in
      finish a;
      finish b;
      go rest
    | [ a ] -> finish (start a)
    | [] -> ()
  in
  go jobs;
  if !errors > 0 then exit 1
