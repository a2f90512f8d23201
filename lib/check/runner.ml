let env_int name = Option.bind (Sys.getenv_opt name) (fun s -> int_of_string_opt (String.trim s))

(* Stable per-property default seed: independent of hashing randomization
   (we roll our own FNV-1a) so a failure reproduces across runs and
   machines without any environment setup. *)
let seed_of_name name =
  let h = ref 0x811c9dc5 in
  String.iter
    (fun c ->
      h := !h lxor Char.code c;
      h := !h * 0x01000193 land 0x3FFFFFFF)
    name;
  !h

let run_prop_exn ?count ?(print = fun _ -> "<no printer>") ~name gen prop =
  let seed = match env_int "CHECK_SEED" with Some s -> s | None -> seed_of_name name in
  let count =
    match count with Some c -> c | None -> Option.value ~default:100 (env_int "CHECK_COUNT")
  in
  let cell = QCheck2.Test.make_cell ~count ~name gen prop in
  let fail error counterexample =
    Printf.ksprintf failwith "property %s failed (%s)%s\n  replay with CHECK_SEED=%d" name
      error counterexample seed
  in
  let shrunk (c : _ QCheck2.TestResult.counter_ex) =
    Printf.sprintf "\n  minimal counterexample (after %d shrink steps): %s" c.shrink_steps
      (print c.instance)
  in
  match
    QCheck2.TestResult.get_state
      (QCheck2.Test.check_cell ~rand:(Random.State.make [| seed |]) cell)
  with
  | Success -> ()
  | Failed { instances } -> fail "property is false" (shrunk (List.hd instances))
  | Error { instance; exn; _ } -> fail (Printexc.to_string exn) (shrunk instance)
  | Failed_other { msg } -> fail msg ""
