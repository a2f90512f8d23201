type kind =
  | Race
  | Unbroken_dep
  | Bad_annotation
  | Stage_closure
  | Deadlock_risk
  | Pdg_mismatch

type severity = Error | Warning

type t = {
  kind : kind;
  severity : severity;
  where : string;
  message : string;
  hint : string;
}

let make ~kind ~severity ~where ?(hint = "") message =
  { kind; severity; where; message; hint }

(* Stable kebab-case names, printed in text and JSON findings. *)
let kind_name = function
  | Race -> "race"
  | Unbroken_dep -> "unbroken-dep"
  | Bad_annotation -> "bad-annotation"
  | Stage_closure -> "stage-closure"
  | Deadlock_risk -> "deadlock-risk"
  | Pdg_mismatch -> "pdg-mismatch"

let severity_name = function Error -> "error" | Warning -> "warning"

let is_error d = d.severity = Error

let errors ds = List.filter is_error ds

let warnings ds = List.filter (fun d -> not (is_error d)) ds

let sort ds =
  let key d = (d.severity = Warning, kind_name d.kind, d.where, d.message) in
  List.stable_sort (fun a b -> compare (key a) (key b)) ds

let exit_code ?(strict = false) ds =
  if errors ds <> [] then 1 else if strict && ds <> [] then 1 else 0

let pp ppf d =
  Format.fprintf ppf "%s[%s] %s: %s" (severity_name d.severity) (kind_name d.kind)
    d.where d.message;
  if d.hint <> "" then Format.fprintf ppf "@.  hint: %s" d.hint

let summary ds =
  let e = List.length (errors ds) and w = List.length (warnings ds) in
  if e = 0 && w = 0 then "clean"
  else
    Printf.sprintf "%d error%s, %d warning%s" e
      (if e = 1 then "" else "s")
      w
      (if w = 1 then "" else "s")

let pp_report ppf ds =
  List.iter (fun d -> Format.fprintf ppf "%a@." pp d) (sort ds);
  Format.fprintf ppf "lint: %s@." (summary ds)

(* Field order is part of the contract: kind, severity, where, message,
   hint — the same emitter backs `repro lint --json` and
   `repro audit-pdg --json`. *)
let to_json d =
  Obs.Json.Obj
    [
      ("kind", Obs.Json.Str (kind_name d.kind));
      ("severity", Obs.Json.Str (severity_name d.severity));
      ("where", Obs.Json.Str d.where);
      ("message", Obs.Json.Str d.message);
      ("hint", Obs.Json.Str d.hint);
    ]

let report_to_json ds =
  let ds = sort ds in
  Obs.Json.Obj
    [
      ("summary", Obs.Json.Str (summary ds));
      ("errors", Obs.Json.Int (List.length (errors ds)));
      ("warnings", Obs.Json.Int (List.length (warnings ds)));
      ("findings", Obs.Json.Arr (List.map to_json ds));
    ]
