(* Model-based property tests: Simcore.Ring (the double-ended queue)
   and Simcore.Heap against a naive list reference.  A random operation
   trace drives both; any divergence shrinks to a minimal trace via
   QCheck2's integrated shrinking. *)

module G = QCheck2.Gen
module R = Check.Runner

(* ------------------------------------------------------------------ *)
(* Ring vs a plain list                                                *)

type deque_op = Push_back of int | Push_front of int | Pop_front | Peek_front | Clear | Snapshot

let deque_op_gen =
  G.frequency
    [
      (4, G.map (fun x -> Push_back x) (G.int_bound 100));
      (2, G.map (fun x -> Push_front x) (G.int_bound 100));
      (4, G.return Pop_front);
      (2, G.return Peek_front);
      (1, G.return Clear);
      (2, G.return Snapshot);
    ]

let show_deque_op = function
  | Push_back x -> Printf.sprintf "push_back %d" x
  | Push_front x -> Printf.sprintf "push_front %d" x
  | Pop_front -> "pop_front"
  | Peek_front -> "peek_front"
  | Clear -> "clear"
  | Snapshot -> "snapshot"

let show_ops show ops = "[" ^ String.concat "; " (List.map show ops) ^ "]"

(* Run the trace against both implementations, folding every observable
   (pop results, peeks, lengths, snapshots) into one comparison list. *)
let deque_trace_agrees ops =
  let d = Simcore.Ring.create ~capacity:2 () in
  let model = ref [] in
  let obs_d = ref [] and obs_m = ref [] in
  let push r x = r := x :: !r in
  List.iter
    (fun op ->
      (match op with
      | Push_back x ->
        Simcore.Ring.push_back d x;
        model := !model @ [ x ]
      | Push_front x ->
        Simcore.Ring.push_front d x;
        model := x :: !model
      | Pop_front -> (
        push obs_d (`Popped (Simcore.Ring.pop_front d));
        match !model with
        | [] -> push obs_m (`Popped None)
        | x :: rest ->
          model := rest;
          push obs_m (`Popped (Some x)))
      | Peek_front ->
        push obs_d (`Peek (Simcore.Ring.peek_front d));
        push obs_m (`Peek (match !model with [] -> None | x :: _ -> Some x))
      | Clear ->
        Simcore.Ring.clear d;
        model := []
      | Snapshot ->
        push obs_d (`List (Simcore.Ring.to_list d));
        push obs_m (`List !model));
      push obs_d (`Len (Simcore.Ring.length d));
      push obs_m (`Len (List.length !model));
      push obs_d (`Empty (Simcore.Ring.is_empty d));
      push obs_m (`Empty (!model = [])))
    ops;
  !obs_d = !obs_m

(* Trace lengths follow QCheck2's [list]: half under 10 operations, one
   in twenty up to 10k. *)
let deque_matches_model () =
  R.run_prop_exn
    ~print:(show_ops show_deque_op)
    ~name:"deque matches list model"
    (G.list_size G.nat deque_op_gen)
    deque_trace_agrees

(* ------------------------------------------------------------------ *)
(* Heap vs a sorted association list                                   *)

type heap_op = Add of int | Pop_min | Peek_min | Hclear

let heap_op_gen =
  G.frequency
    [
      (5, G.map (fun p -> Add p) (G.int_bound 20));
      (4, G.return Pop_min);
      (2, G.return Peek_min);
      (1, G.return Hclear);
    ]

let show_heap_op = function
  | Add p -> Printf.sprintf "add ~prio:%d" p
  | Pop_min -> "pop_min"
  | Peek_min -> "peek_min"
  | Hclear -> "clear"

(* The model is a list of (prio, insertion index) kept in insertion
   order; the minimum is the earliest-inserted element of the smallest
   priority, which checks the heap's documented FIFO tie-break.  Each
   element's payload is its insertion index so ties are observable. *)
let heap_trace_agrees ops =
  let h = Simcore.Heap.create () in
  let model = ref [] in
  let stamp = ref 0 in
  let obs_h = ref [] and obs_m = ref [] in
  let push r x = r := x :: !r in
  let model_min () =
    List.fold_left
      (fun best (p, s) ->
        match best with
        | Some (bp, bs) when (bp, bs) <= (p, s) -> best
        | _ -> Some (p, s))
      None (List.rev !model)
  in
  List.iter
    (fun op ->
      (match op with
      | Add p ->
        Simcore.Heap.add h ~prio:p !stamp;
        model := (p, !stamp) :: !model;
        incr stamp
      | Pop_min -> (
        push obs_h (`Popped (Simcore.Heap.pop_min h));
        match model_min () with
        | None -> push obs_m (`Popped None)
        | Some (p, s) ->
          model := List.filter (fun e -> e <> (p, s)) !model;
          push obs_m (`Popped (Some (p, s))))
      | Peek_min ->
        push obs_h (`Peek (Simcore.Heap.peek_min h));
        push obs_m (`Peek (model_min ()))
      | Hclear ->
        Simcore.Heap.clear h;
        model := []);
      push obs_h (`Len (Simcore.Heap.length h));
      push obs_m (`Len (List.length !model)))
    ops;
  !obs_h = !obs_m

let heap_matches_model () =
  R.run_prop_exn
    ~print:(show_ops show_heap_op)
    ~name:"heap matches sorted model"
    (G.list_size (G.int_range 0 40) heap_op_gen)
    heap_trace_agrees

(* Draining a heap yields priorities in non-decreasing order with FIFO
   ties — the exact property the simulator's determinism rests on. *)
let heap_drain_sorted () =
  R.run_prop_exn
    ~print:(fun ps -> show_ops string_of_int ps)
    ~name:"heap drains sorted with FIFO ties"
    (G.list_size (G.int_range 0 60) (G.int_bound 10))
    (fun prios ->
      let h = Simcore.Heap.create () in
      List.iteri (fun i p -> Simcore.Heap.add h ~prio:p i) prios;
      let rec drain acc =
        match Simcore.Heap.pop_min h with None -> List.rev acc | Some pe -> drain (pe :: acc)
      in
      let drained = drain [] in
      let expected =
        List.stable_sort
          (fun (p1, _) (p2, _) -> compare p1 p2)
          (List.mapi (fun i p -> (p, i)) prios)
      in
      drained = expected)

(* ------------------------------------------------------------------ *)
(* Iset vs Hashtbl                                                     *)

type iset_op = Iadd of int | Iremove of int | Imem of int | Iclear

(* Keys from a small range so adds, removes and lookups meet, with some
   negatives and far keys, and multiples of 256, which share a home slot
   in every table up to 256 slots (long probe runs to shift back). *)
let iset_key =
  G.oneof
    [
      G.int_range (-3) 40;
      G.map (fun k -> 256 * k) (G.int_range (-4) 12);
      G.oneofl [ max_int; -1_000_000; 1 lsl 40 ];
    ]

let iset_op_gen =
  G.frequency
    [
      (6, G.map (fun k -> Iadd k) iset_key);
      (4, G.map (fun k -> Iremove k) iset_key);
      (3, G.map (fun k -> Imem k) iset_key);
      (1, G.return Iclear);
    ]

let show_iset_op = function
  | Iadd k -> Printf.sprintf "add %d" k
  | Iremove k -> Printf.sprintf "remove %d" k
  | Imem k -> Printf.sprintf "mem %d" k
  | Iclear -> "clear"

let iset_matches_model () =
  R.run_prop_exn ~print:(show_ops show_iset_op) ~name:"iset matches Hashtbl model"
    (G.list_size G.nat iset_op_gen) (fun ops ->
      let s = Simcore.Iset.create () and model = Hashtbl.create 16 in
      List.for_all
        (fun op ->
          let agrees =
            match op with
            | Iadd k ->
              let fresh = not (Hashtbl.mem model k) in
              Hashtbl.replace model k ();
              Simcore.Iset.add s k = fresh
            | Iremove k ->
              Hashtbl.remove model k;
              Simcore.Iset.remove s k;
              true
            | Imem k -> Simcore.Iset.mem s k = Hashtbl.mem model k
            | Iclear ->
              Hashtbl.reset model;
              Simcore.Iset.clear s;
              true
          in
          agrees
          && Simcore.Iset.cardinal s = Hashtbl.length model
          && Hashtbl.fold (fun k () ok -> ok && Simcore.Iset.mem s k) model true)
        ops)

let () =
  Alcotest.run "simcore-prop"
    [
      ( "deque",
        [ Alcotest.test_case "agrees with list model on random traces" `Quick deque_matches_model ]
      );
      ( "heap",
        [
          Alcotest.test_case "agrees with sorted model on random traces" `Quick heap_matches_model;
          Alcotest.test_case "drains sorted with FIFO tie-break" `Quick heap_drain_sorted;
        ] );
      ( "iset",
        [ Alcotest.test_case "agrees with Hashtbl on random traces" `Quick iset_matches_model ] );
    ]
