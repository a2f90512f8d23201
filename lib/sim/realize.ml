let is_speculative = function
  | Ir.Pdg.Alias_speculation | Ir.Pdg.Value_speculation
  | Ir.Pdg.Control_speculation | Ir.Pdg.Silent_store ->
    true
  | Ir.Pdg.Commutative_annotation _ | Ir.Pdg.Ybranch_annotation -> false

(* Deterministic spread of an occurrence probability over the iteration
   space: edge occurs on iteration i when the running expected count
   crosses an integer there. *)
let occurs p i =
  let p = if p < 0.0 then 0.0 else if p > 1.0 then 1.0 else p in
  let f x = int_of_float (Float.floor (float_of_int x *. p)) in
  f (i + 1) > f i

let loop pdg ~partition ~enabled ~iterations =
  if iterations < 0 then invalid_arg "Realize.loop: negative iterations";
  let n = Ir.Pdg.node_count pdg in
  let phase_of = Array.make (max 1 n) Ir.Task.A in
  List.iter
    (fun (s : Dswp.Partition.stage) ->
      List.iter (fun v -> phase_of.(v) <- s.Dswp.Partition.phase) s.Dswp.Partition.nodes)
    partition.Dswp.Partition.stages;
  let stage_work ph =
    let s = Dswp.Partition.stage partition ph in
    if s.Dswp.Partition.nodes = [] then None
    else begin
      let w = int_of_float (Float.round (s.Dswp.Partition.weight *. 100.)) in
      Some (if w = 0 && s.Dswp.Partition.weight > 0.0 then 1 else w)
    end
  in
  let wa = stage_work Ir.Task.A
  and wb = stage_work Ir.Task.B
  and wc = stage_work Ir.Task.C in
  let present = function
    | Ir.Task.A -> wa <> None
    | Ir.Task.B -> wb <> None
    | Ir.Task.C -> wc <> None
  in
  let offset ph =
    (* Position of the stage's task within an iteration's id block. *)
    match ph with
    | Ir.Task.A -> 0
    | Ir.Task.B -> if present Ir.Task.A then 1 else 0
    | Ir.Task.C ->
      (if present Ir.Task.A then 1 else 0) + if present Ir.Task.B then 1 else 0
  in
  let per_iter =
    (if present Ir.Task.A then 1 else 0)
    + (if present Ir.Task.B then 1 else 0)
    + if present Ir.Task.C then 1 else 0
  in
  let id_of ph i = (i * per_iter) + offset ph in
  let slots =
    List.filter_map
      (fun (ph, w) -> Option.map (fun w -> (ph, w)) w)
      [ (Ir.Task.A, wa); (Ir.Task.B, wb); (Ir.Task.C, wc) ]
  in
  let tasks =
    Array.init (iterations * per_iter) (fun k ->
        let i = k / per_iter and r = k mod per_iter in
        let ph, w = List.nth slots r in
        Ir.Task.make ~id:k ~iteration:i ~phase:ph ~work:w ())
  in
  (* Classify the PDG's edges into the constraint shapes the pipeline
     model cannot express implicitly. *)
  let surviving (e : Ir.Pdg.edge) =
    match e.Ir.Pdg.breaker with None -> true | Some b -> not (enabled b)
  in
  let edge_distance (e : Ir.Pdg.edge) =
    match e.Ir.Pdg.distance with Some d -> d | None -> 1
  in
  let syncs : ((Ir.Task.phase * Ir.Task.phase) * int, unit) Hashtbl.t =
    Hashtbl.create 8
  in
  let spec_quads = ref [] in
  List.iter
    (fun (e : Ir.Pdg.edge) ->
      let s1 = phase_of.(e.Ir.Pdg.src) and s2 = phase_of.(e.Ir.Pdg.dst) in
      if present s1 && present s2 then begin
        if surviving e then begin
          (* Same-stage carried edges ride the serial chains (A, C) or
             are forbidden in B by lint; intra-iteration forward edges
             ride the pipeline structure.  Only carried forward
             cross-stage edges need explicit synchronization — at the
             edge's analyzed minimum distance, when it carries one. *)
          if
            e.Ir.Pdg.loop_carried && s1 <> s2
            && Ir.Task.compare_phase s1 s2 < 0
          then Hashtbl.replace syncs ((s1, s2), edge_distance e) ()
        end
        else
          match e.Ir.Pdg.breaker with
          | Some b when enabled b && is_speculative b ->
            (* Mis-speculation cost surfaces on the carried occurrences:
               into B it squashes, into a serial stage it serializes.
               Same-serial-stage pairs are already chained. *)
            if e.Ir.Pdg.loop_carried && not (s1 = s2 && s1 <> Ir.Task.B) then
              spec_quads :=
                (s1, s2, edge_distance e, e.Ir.Pdg.probability) :: !spec_quads
          | _ -> ()
      end)
    (Ir.Pdg.edges pdg);
  let spec_quads = List.sort_uniq compare !spec_quads in
  let edges = ref [] in
  Hashtbl.fold (fun key () acc -> key :: acc) syncs []
  |> List.sort compare
  |> List.iter (fun ((s1, s2), d) ->
         for i = 0 to iterations - 1 - d do
           edges :=
             {
               Input.src = id_of s1 i;
               dst = id_of s2 (i + d);
               speculated = false;
               src_offset = 0;
               dst_offset = 0;
             }
             :: !edges
         done);
  List.iter
    (fun (s1, s2, d, p) ->
      for i = 0 to iterations - 1 - d do
        if occurs p i then
          edges :=
            {
              Input.src = id_of s1 i;
              dst = id_of s2 (i + d);
              speculated = true;
              src_offset = 0;
              dst_offset = 0;
            }
            :: !edges
      done)
    spec_quads;
  Input.make_loop ~name:(Ir.Pdg.name pdg) ~tasks ~edges:(List.rev !edges)
