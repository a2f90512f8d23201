type snapshot = {
  counters : (string * int) list;
  gauges : (string * (int * int)) list;
  series : (string * (int * int) list) list;
}

(* One queue direction: the gauge's last value and high water, and each
   B slot's (time, occupancy) samples, newest first. *)
type queue_fold = { mutable last : int; mutable high : int; rev : (int * int) list array }

type fold = {
  busy : int array;  (* phases A, B, C *)
  runs : (int, int * int) Hashtbl.t;  (* task -> phase, work of its latest start *)
  mutable misspec_delayed : int;
  mutable squashes : int;
  in_q : queue_fold;
  out_q : queue_fold;
}

let queue_fold slots = { last = 0; high = 0; rev = Array.make slots [] }

let fold ~slots =
  {
    busy = Array.make 3 0;
    runs = Hashtbl.create 64;
    misspec_delayed = 0;
    squashes = 0;
    in_q = queue_fold slots;
    out_q = queue_fold slots;
  }

let note q ~time ~slot occupancy =
  q.last <- occupancy;
  if occupancy > q.high then q.high <- occupancy;
  q.rev.(slot) <- (time, occupancy) :: q.rev.(slot)

(* A start charges the task's full work to its phase; a squash takes
   back what the aborted run never executed (zero for a run that had
   finished), so busy/A..C matches the simulator's per-core charge. *)
let sink f =
  Sink.make (function
    | Event.Task_start { task; phase; work; _ } ->
      let p = match phase with 'A' -> 0 | 'B' -> 1 | _ -> 2 in
      f.busy.(p) <- f.busy.(p) + work;
      Hashtbl.replace f.runs task (p, work)
    | Event.Task_squash { task; elapsed; _ } ->
      let p, work = Hashtbl.find f.runs task in
      f.busy.(p) <- f.busy.(p) - (work - elapsed)
    | Event.Queue_push { time; queue; slot; occupancy; _ }
    | Event.Queue_pop { time; queue; slot; occupancy; _ } ->
      note (match queue with Event.In_queue -> f.in_q | Event.Out_queue -> f.out_q) ~time ~slot
        occupancy
    | _ -> ())

let add_counts f ~misspec_delayed ~squashes =
  f.misspec_delayed <- f.misspec_delayed + misspec_delayed;
  f.squashes <- f.squashes + squashes

let snapshot f =
  let series prefix q =
    List.init (Array.length q.rev) (fun s -> (Printf.sprintf "%s/%d" prefix s, List.rev q.rev.(s)))
  in
  {
    counters =
      [
        ("busy/A", f.busy.(0));
        ("busy/B", f.busy.(1));
        ("busy/C", f.busy.(2));
        ("misspec_delayed", f.misspec_delayed);
        ("squashes", f.squashes);
      ];
    gauges =
      [
        ("in_queue_occupancy", (f.in_q.last, f.in_q.high));
        ("out_queue_occupancy", (f.out_q.last, f.out_q.high));
      ];
    series =
      List.sort
        (fun (a, _) (b, _) -> compare a b)
        (series "in_queue" f.in_q @ series "out_queue" f.out_q);
  }

let metrics_json s =
  Json.Obj
    [
      ("counters", Json.Obj (List.map (fun (n, v) -> (n, Json.Int v)) s.counters));
      ( "gauges",
        Json.Obj
          (List.map
             (fun (n, (v, h)) ->
               (n, Json.Obj [ ("value", Json.Int v); ("high_water", Json.Int h) ]))
             s.gauges) );
      ( "series",
        Json.Obj
          (List.map
             (fun (n, pts) ->
               ( n,
                 Json.Arr
                   (List.map (fun (t, v) -> Json.Arr [ Json.Int t; Json.Int v ]) pts) ))
             s.series) );
    ]

let to_json s = Json.Obj [ ("metrics", metrics_json s) ]

(* CSV: one flat table, a [kind] discriminator column, an empty cell
   where a column does not apply to the row's kind. *)
let csv_header = "kind,name,value,high_water"

let csv_escape s =
  if String.exists (fun c -> c = ',' || c = '"' || c = '\n') s then
    "\"" ^ String.concat "\"\"" (String.split_on_char '"' s) ^ "\""
  else s

let to_csv s =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf csv_header;
  Buffer.add_char buf '\n';
  List.iter
    (fun (n, v) -> Buffer.add_string buf (Printf.sprintf "counter,%s,%d,\n" (csv_escape n) v))
    s.counters;
  List.iter
    (fun (n, (v, h)) ->
      Buffer.add_string buf (Printf.sprintf "gauge,%s,%d,%d\n" (csv_escape n) v h))
    s.gauges;
  Buffer.contents buf

let write_file path contents =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc contents)

let write_json s path = write_file path (Json.to_string (to_json s) ^ "\n")

let write_csv s path = write_file path (to_csv s)
