module J = Obs.Json

type study = {
  study : string;
  threads : int;
  span : int;
  speedup : float;
  seconds : float;
}

type gc_stats = {
  gc_minor_words : float;
  gc_promoted_words : float;
  gc_major_words : float;
  gc_minor_collections : int;
  gc_major_collections : int;
}

type real_point = {
  rp_study : string;
  rp_threads : int;
  rp_seconds : float;
  rp_speedup : float;
  rp_sim_speedup : float;
  rp_ok : bool;
  rp_squashes : int;
}

type entry = {
  rev : string;
  config : string;
  scale : string;
  jobs : int;
  total_seconds : float;
  gc : gc_stats option;
  studies : study list;
  real : real_point list;
}

let study_to_json s =
  J.Obj
    [
      ("study", J.Str s.study);
      ("threads", J.Int s.threads);
      ("span", J.Int s.span);
      ("speedup", J.Float s.speedup);
      ("seconds", J.Float s.seconds);
    ]

let gc_to_json g =
  J.Obj
    [
      ("minor_words", J.Float g.gc_minor_words);
      ("promoted_words", J.Float g.gc_promoted_words);
      ("major_words", J.Float g.gc_major_words);
      ("minor_collections", J.Int g.gc_minor_collections);
      ("major_collections", J.Int g.gc_major_collections);
    ]

let real_to_json r =
  J.Obj
    [
      ("study", J.Str r.rp_study);
      ("threads", J.Int r.rp_threads);
      ("seconds", J.Float r.rp_seconds);
      ("speedup", J.Float r.rp_speedup);
      ("sim_speedup", J.Float r.rp_sim_speedup);
      ("ok", J.Bool r.rp_ok);
      ("squashes", J.Int r.rp_squashes);
    ]

let entry_to_json e =
  J.Obj
    ([
       ("rev", J.Str e.rev);
       ("config", J.Str e.config);
       ("scale", J.Str e.scale);
       ("jobs", J.Int e.jobs);
       ("total_seconds", J.Float e.total_seconds);
     ]
    @ (match e.gc with None -> [] | Some g -> [ ("gc", gc_to_json g) ])
    @ [ ("studies", J.Arr (List.map study_to_json e.studies)) ]
    @
    match e.real with
    | [] -> []
    | real -> [ ("real", J.Arr (List.map real_to_json real)) ])

(* Integer-valued floats render as "3" and re-parse as [Int]; accept
   both shapes for every numeric field. *)
let to_float = function J.Float f -> Some f | J.Int i -> Some (float_of_int i) | _ -> None

let field name conv j =
  match Option.bind (J.member name j) conv with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "missing or mistyped field %S" name)

let ( let* ) = Result.bind

let study_of_json j =
  let* study = field "study" J.to_str j in
  let* threads = field "threads" J.to_int j in
  let* span = field "span" J.to_int j in
  let* speedup = field "speedup" to_float j in
  let* seconds = field "seconds" to_float j in
  Ok { study; threads; span; speedup; seconds }

let gc_of_json j =
  let* gc_minor_words = field "minor_words" to_float j in
  let* gc_promoted_words = field "promoted_words" to_float j in
  let* gc_major_words = field "major_words" to_float j in
  let* gc_minor_collections = field "minor_collections" J.to_int j in
  let* gc_major_collections = field "major_collections" J.to_int j in
  Ok
    {
      gc_minor_words;
      gc_promoted_words;
      gc_major_words;
      gc_minor_collections;
      gc_major_collections;
    }

let real_of_json j =
  let* rp_study = field "study" J.to_str j in
  let* rp_threads = field "threads" J.to_int j in
  let* rp_seconds = field "seconds" to_float j in
  let* rp_speedup = field "speedup" to_float j in
  let* rp_sim_speedup = field "sim_speedup" to_float j in
  let* rp_ok = field "ok" (function J.Bool b -> Some b | _ -> None) j in
  let* rp_squashes = field "squashes" J.to_int j in
  Ok { rp_study; rp_threads; rp_seconds; rp_speedup; rp_sim_speedup; rp_ok; rp_squashes }

let entry_of_json j =
  let* rev = field "rev" J.to_str j in
  let* config = field "config" J.to_str j in
  let* scale = field "scale" J.to_str j in
  let* jobs = field "jobs" J.to_int j in
  let* total_seconds = field "total_seconds" to_float j in
  (* Optional: lines written before GC accounting existed don't have it. *)
  let* gc =
    match J.member "gc" j with
    | None -> Ok None
    | Some g ->
      let* g = gc_of_json g in
      Ok (Some g)
  in
  let* studies = field "studies" J.to_list j in
  let* studies =
    List.fold_left
      (fun acc s ->
        let* acc = acc in
        let* s = study_of_json s in
        Ok (s :: acc))
      (Ok []) studies
  in
  (* Optional: only validate-real entries carry measured points. *)
  let* real =
    match J.member "real" j with
    | None -> Ok []
    | Some (J.Arr rs) ->
      List.fold_left
        (fun acc r ->
          let* acc = acc in
          let* r = real_of_json r in
          Ok (r :: acc))
        (Ok []) rs
      |> Result.map List.rev
    | Some _ -> Error "mistyped field \"real\""
  in
  Ok { rev; config; scale; jobs; total_seconds; gc; studies = List.rev studies; real }

let append path e =
  let oc = open_out_gen [ Open_append; Open_creat ] 0o644 path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (J.to_string (entry_to_json e) ^ "\n"))

let load path =
  if not (Sys.file_exists path) then Ok []
  else begin
    let ic = open_in path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        let rec go n acc =
          match input_line ic with
          | exception End_of_file -> Ok (List.rev acc)
          | "" -> go (n + 1) acc
          | line -> (
            match J.parse line with
            | Error e -> Error (Printf.sprintf "%s:%d: %s" path n e)
            | Ok j -> (
              match entry_of_json j with
              | Error e -> Error (Printf.sprintf "%s:%d: %s" path n e)
              | Ok entry -> go (n + 1) (entry :: acc)))
        in
        go 1 [])
  end

(* Porcelain v1 lines read "XY path" or "XY old -> new"; "??" and "!!"
   mark untracked and ignored files.  The records live at the root. *)
let rev_label ~head status =
  let record path = String.starts_with ~prefix:"BENCH_" path && not (String.contains path '/') in
  let dirty line =
    String.length line > 3
    && (match String.sub line 0 2 with "??" | "!!" -> false | _ -> true)
    && String.sub line 3 (String.length line - 3)
       |> String.split_on_char ' '
       |> List.exists (fun p -> p <> "" && p <> "->" && not (record p))
  in
  if List.exists dirty status then head ^ "+dirty" else head

let command_lines cmd =
  match Unix.open_process_in (cmd ^ " 2>/dev/null") with
  | exception Unix.Unix_error _ -> None
  | ic ->
    let lines = In_channel.input_all ic |> String.split_on_char '\n' in
    if Unix.close_process_in ic = Unix.WEXITED 0 then Some (List.filter (( <> ) "") lines)
    else None

let current_rev () =
  match command_lines "git rev-parse --short HEAD" with
  | Some [ head ] -> (
    match command_lines "git --no-optional-locks status --porcelain --untracked-files=no" with
    | Some status -> rev_label ~head status
    | None -> head)
  | _ -> "unknown"

type scaling =
  | Nothing_to_compare of string
  | Compared of { par : entry; seq : entry; same_rev : bool; ratio : float; ok : bool }

let scaling ~tolerance entries =
  (* Newest first, simulated entries only. *)
  let newest = List.rev (List.filter (fun e -> e.real = []) entries) in
  match List.find_opt (fun e -> e.jobs > 1) newest with
  | None -> Nothing_to_compare "jobs>1"
  | Some par -> (
    let seq_of pred = List.find_opt (fun e -> e.jobs = 1 && pred e) newest in
    let same_rev = seq_of (fun e -> e.rev = par.rev) in
    match if same_rev <> None then same_rev else seq_of (fun _ -> true) with
    | None -> Nothing_to_compare "jobs=1"
    | Some seq ->
      let ratio = if seq.total_seconds > 0. then par.total_seconds /. seq.total_seconds else 1. in
      Compared { par; seq; same_rev = same_rev <> None; ratio; ok = ratio <= 1. +. tolerance })
