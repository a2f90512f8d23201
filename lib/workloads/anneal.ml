type t = {
  grid : int;
  pos : (int * int) array;  (* block -> coordinates *)
  cell : int array;  (* y * grid + x -> block id or -1 *)
  nets : int array array;  (* net -> member blocks *)
  nets_of : int list array;  (* block -> nets containing it *)
  rng : Simcore.Rng.t;
  mutable cost : int;
}

let net_cost t net =
  let members = t.nets.(net) in
  let minx = ref max_int and maxx = ref min_int in
  let miny = ref max_int and maxy = ref min_int in
  Array.iter
    (fun b ->
      let x, y = t.pos.(b) in
      if x < !minx then minx := x;
      if x > !maxx then maxx := x;
      if y < !miny then miny := y;
      if y > !maxy then maxy := y)
    members;
  !maxx - !minx + (!maxy - !miny)

let recompute_cost t =
  let c = ref 0 in
  for net = 0 to Array.length t.nets - 1 do
    c := !c + net_cost t net
  done;
  !c

let create ~seed ~blocks ~grid ~nets =
  if blocks > grid * grid then invalid_arg "Anneal.create: grid too small";
  let rng = Simcore.Rng.create seed in
  let cells = Array.init (grid * grid) Fun.id in
  Simcore.Rng.shuffle rng cells;
  let pos = Array.make blocks (0, 0) in
  let cell = Array.make (grid * grid) (-1) in
  for b = 0 to blocks - 1 do
    let c = cells.(b) in
    pos.(b) <- (c mod grid, c / grid);
    cell.(c) <- b
  done;
  let nets_arr =
    Array.init nets (fun _ ->
        let size = Simcore.Rng.int_in rng 2 5 in
        let members = Hashtbl.create 8 in
        while Hashtbl.length members < size do
          Hashtbl.replace members (Simcore.Rng.int rng blocks) ()
        done;
        Hashtbl.fold (fun b () acc -> b :: acc) members [] |> List.sort compare
        |> Array.of_list)
  in
  let nets_of = Array.make blocks [] in
  Array.iteri (fun n members -> Array.iter (fun b -> nets_of.(b) <- n :: nets_of.(b)) members)
    nets_arr;
  let t = { grid; pos; cell; nets = nets_arr; nets_of; rng; cost = 0 } in
  t.cost <- recompute_cost t;
  t

let block_count t = Array.length t.pos

let total_cost t = t.cost

type swap = {
  accepted : bool;
  block : int;
  partner : int option;
  nets_read : int list;
  rng_calls : int;
  cost_delta : int;
  work : int;
}

let try_swap t ~threshold =
  let rng_calls = ref 0 in
  let rand n =
    incr rng_calls;
    Simcore.Rng.int t.rng n
  in
  let block = rand (Array.length t.pos) in
  let bx, by = t.pos.(block) in
  (* Re-roll coordinates while they hit the block's own cell: the
     variable-call-count behaviour the paper describes for vpr/twolf. *)
  let rec pick_dest () =
    let x = rand t.grid and y = rand t.grid in
    if x = bx && y = by then pick_dest () else (x, y)
  in
  let nx, ny = pick_dest () in
  let dest_cell = (ny * t.grid) + nx in
  let partner = if t.cell.(dest_cell) >= 0 then Some t.cell.(dest_cell) else None in
  let affected =
    let ns =
      t.nets_of.(block) @ (match partner with Some p -> t.nets_of.(p) | None -> [])
    in
    List.sort_uniq compare ns
  in
  let before = List.fold_left (fun acc n -> acc + net_cost t n) 0 affected in
  (* Apply tentatively. *)
  let apply () =
    t.cell.((by * t.grid) + bx) <- (match partner with Some p -> p | None -> -1);
    t.cell.(dest_cell) <- block;
    t.pos.(block) <- (nx, ny);
    match partner with Some p -> t.pos.(p) <- (bx, by) | None -> ()
  in
  let revert () =
    t.cell.(dest_cell) <- (match partner with Some p -> p | None -> -1);
    t.cell.((by * t.grid) + bx) <- block;
    t.pos.(block) <- (bx, by);
    match partner with Some p -> t.pos.(p) <- (nx, ny) | None -> ()
  in
  apply ();
  let after = List.fold_left (fun acc n -> acc + net_cost t n) 0 affected in
  let delta = after - before in
  let accepted =
    if delta <= 0 then true
    else begin
      incr rng_calls;
      Simcore.Rng.float t.rng < threshold
    end
  in
  if accepted then t.cost <- t.cost + delta else revert ();
  let work =
    8 + (2 * List.fold_left (fun acc n -> acc + Array.length t.nets.(n)) 0 affected)
  in
  {
    accepted;
    block;
    partner;
    nets_read = affected;
    rng_calls = !rng_calls;
    cost_delta = (if accepted then delta else 0);
    work;
  }

let cost_is_consistent t = t.cost = recompute_cost t
