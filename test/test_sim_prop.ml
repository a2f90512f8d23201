(* Property: Sim.Calibrate.fit is invariant under task reordering
   within an iteration.

   The fit's observations are per-iteration per-stage work sums, so
   shuffling the tasks of one iteration among themselves (and
   renumbering ids to the new indices, with edges remapped) must
   produce bit-identical stage costs, residuals, and speculation
   rates: the sums are exact integer additions and the mean/RSS passes
   run in fixed iteration order either way.  A fit that broke under
   reordering would mean it depends on trace serialization order — an
   artifact, not a property of the program. *)

module G = QCheck2.Gen
module R = Check.Runner
module GI = Check.Gen_ir

(* Deterministic in-place Fisher-Yates over [idx], driven by a local
   LCG so the shuffle depends only on [salt]. *)
let shuffle salt idx =
  let state = ref (salt land 0x3FFFFFFF) in
  let next bound =
    state := ((!state * 1103515245) + 12345) land 0x3FFFFFFF;
    !state mod bound
  in
  for i = Array.length idx - 1 downto 1 do
    let j = next (i + 1) in
    let t = idx.(i) in
    idx.(i) <- idx.(j);
    idx.(j) <- t
  done

(* Reorder tasks within each iteration block, renumber ids to the new
   indices, and remap edge endpoints accordingly. *)
let permute_within_iterations salt (loop : Sim.Input.loop) =
  let tasks = loop.Sim.Input.tasks in
  let n = Array.length tasks in
  let by_iter : (int, int list ref) Hashtbl.t = Hashtbl.create 16 in
  let iters = ref [] in
  Array.iteri
    (fun i (tk : Ir.Task.t) ->
      match Hashtbl.find_opt by_iter tk.Ir.Task.iteration with
      | Some l -> l := i :: !l
      | None ->
        Hashtbl.add by_iter tk.Ir.Task.iteration (ref [ i ]);
        iters := tk.Ir.Task.iteration :: !iters)
    tasks;
  let order = Array.make n 0 in
  let pos = ref 0 in
  List.iter
    (fun it ->
      let idx = Array.of_list (List.rev !(Hashtbl.find by_iter it)) in
      shuffle (salt + it) idx;
      Array.iter
        (fun i ->
          order.(!pos) <- i;
          incr pos)
        idx)
    (List.sort compare !iters);
  let inv = Array.make n 0 in
  Array.iteri (fun k i -> inv.(i) <- k) order;
  let tasks' =
    Array.init n (fun k ->
        let tk = tasks.(order.(k)) in
        Ir.Task.make ~id:k ~iteration:tk.Ir.Task.iteration
          ~phase:tk.Ir.Task.phase ~intra:tk.Ir.Task.intra
          ~work:tk.Ir.Task.work ())
  in
  let edges' =
    List.map
      (fun (e : Sim.Input.edge) ->
        { e with Sim.Input.src = inv.(e.Sim.Input.src); dst = inv.(e.Sim.Input.dst) })
      loop.Sim.Input.edges
  in
  Sim.Input.make_loop ~name:loop.Sim.Input.name ~tasks:tasks' ~edges:edges'

let () =
  let gen =
    G.pair
      (GI.loop_desc ~max_iters:8 ~max_bs:4 ~max_work:20 ~edge_factor:3 ())
      (G.int_bound 1_000_000)
  in
  R.run_prop_exn
    ~print:(fun (d, salt) ->
      Printf.sprintf "salt=%d %s" salt (GI.show_loop_desc d))
    ~name:"Calibrate.fit invariant under within-iteration reordering" gen
    (fun (desc, salt) ->
      let loop = GI.build_loop desc in
      let permuted = permute_within_iterations salt loop in
      Sim.Calibrate.fit ~bench:"prop" loop
      = Sim.Calibrate.fit ~bench:"prop" permuted)
