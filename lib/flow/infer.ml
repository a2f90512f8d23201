type result = {
  body : Body.t;
  analysis : Analyze.t;
  pdg : Ir.Pdg.t;
  rates : (Analyze.dep * float) list;
  histograms : ((int * int) * (int * float) list) list;
  hist_totals : ((int * int) * int) list;
  iterations : int;
}

let round3 x = Float.round (x *. 1000.0) /. 1000.0

(* Observations attributable to an aggregated dep: matching endpoints,
   kind, carriedness, a contributing base location, and a distance the
   lattice admits. *)
let attributed (dep : Analyze.dep) body (o : Analyze.obs) =
  dep.Analyze.d_src = o.Analyze.o_src
  && dep.Analyze.d_dst = o.Analyze.o_dst
  && dep.Analyze.d_kind = o.Analyze.o_kind
  && dep.Analyze.d_carried = (o.Analyze.o_dist > 0)
  && List.mem (Body.base_name body o.Analyze.o_base) dep.Analyze.d_locs
  && List.exists (fun de -> Analyze.compatible de o.Analyze.o_dist) dep.Analyze.d_dists

let run ?commutative ?(iterations = 200) body =
  let iterations = max 8 iterations in
  let analysis = Analyze.run ?commutative body in
  let obs = Analyze.observe ?commutative ~ybranch:`Never ~iterations body in
  let interp = Interp.run ?commutative ~ybranch:`Never ~iterations body in
  (* Outcome-change rate per (branch region, tested base): the cost a
     last-outcome predictor would pay, i.e. the misprediction rate that
     prices control dependences into that branch. *)
  let flips : (int * Body.base, int * int * bool) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun (b : Interp.branch) ->
      let key = (b.Interp.br_region, b.Interp.br_base) in
      match Hashtbl.find_opt flips key with
      | None -> Hashtbl.replace flips key (1, 0, b.Interp.br_taken)
      | Some (n, changes, last) ->
        let changes = if b.Interp.br_taken <> last then changes + 1 else changes in
        Hashtbl.replace flips key (n + 1, changes, b.Interp.br_taken))
    interp.Interp.branches;
  let flip_rate region base =
    match Hashtbl.find_opt flips (region, base) with
    | Some (n, changes, _) when n > 1 -> float_of_int changes /. float_of_int (n - 1)
    | Some _ -> 0.0
    | None -> 0.0
  in
  let base_of_name =
    let tbl = Hashtbl.create 8 in
    Array.iteri (fun i (n, _) -> Hashtbl.replace tbl n (Body.B_scalar i)) body.Body.b_scalars;
    Array.iteri (fun i n -> Hashtbl.replace tbl n (Body.B_array i)) body.Body.b_arrays;
    fun n -> Hashtbl.find_opt tbl n
  in
  let rate_of (dep : Analyze.dep) =
    if dep.Analyze.d_kind = Ir.Dep.Control then
      (* misprediction, not manifestation: a branch evaluated every
         iteration always consumes its inputs, but only mispredictions
         cost anything under control speculation *)
      List.fold_left
        (fun acc loc ->
          match base_of_name loc with
          | Some base -> Float.max acc (flip_rate dep.Analyze.d_dst base)
          | None -> acc)
        0.0 dep.Analyze.d_locs
    else begin
      let iters = Hashtbl.create 32 in
      List.iter
        (fun o -> if attributed dep body o then Hashtbl.replace iters o.Analyze.o_iter ())
        obs;
      let denom =
        if dep.Analyze.d_carried then max 1 (iterations - 1) else max 1 iterations
      in
      Float.min 1.0 (float_of_int (Hashtbl.length iters) /. float_of_int denom)
    end
  in
  let rates = List.map (fun dep -> (dep, round3 (rate_of dep))) analysis.Analyze.deps in
  (* Carried distance histograms per region pair. *)
  let hist : (int * int, (int, int) Hashtbl.t) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun (o : Analyze.obs) ->
      if o.Analyze.o_dist > 0 then begin
        let key = (o.Analyze.o_src, o.Analyze.o_dst) in
        let buckets =
          match Hashtbl.find_opt hist key with
          | Some b -> b
          | None ->
            let b = Hashtbl.create 4 in
            Hashtbl.add hist key b;
            b
        in
        let n = Option.value ~default:0 (Hashtbl.find_opt buckets o.Analyze.o_dist) in
        Hashtbl.replace buckets o.Analyze.o_dist (n + 1)
      end)
    obs;
  let histograms, hist_totals =
    Hashtbl.fold (fun key buckets acc -> (key, buckets) :: acc) hist []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
    |> List.map (fun (key, buckets) ->
           let counts =
             Hashtbl.fold (fun d n acc -> (d, n) :: acc) buckets []
             |> List.sort compare
           in
           let total = List.fold_left (fun acc (_, n) -> acc + n) 0 counts in
           let norm =
             List.map
               (fun (d, n) -> (d, float_of_int n /. float_of_int (max 1 total)))
               counts
           in
           ((key, norm), (key, total)))
    |> List.split
  in
  (* Synthesize the PDG. *)
  let deps = analysis.Analyze.deps in
  let pdg = Ir.Pdg.create (body.Body.b_name ^ ".inferred") in
  let weights = Body.weights body in
  Array.iteri
    (fun i (r : Body.region) ->
      let replicable =
        List.for_all
          (fun (d : Analyze.dep) ->
            (not (d.Analyze.d_carried && d.Analyze.d_src = i && d.Analyze.d_dst = i))
            || d.Analyze.d_breaker <> None)
          deps
      in
      ignore (Ir.Pdg.add_node pdg ~label:r.Body.r_label ~weight:weights.(i) ~replicable ()))
    body.Body.b_regions;
  List.iter
    (fun (dep, rate) ->
      let distance =
        if dep.Analyze.d_carried then begin
          let d = Analyze.min_distance dep.Analyze.d_dists in
          if d >= 2 then Some d else None
        end
        else None
      in
      Ir.Pdg.add_edge pdg ~src:dep.Analyze.d_src ~dst:dep.Analyze.d_dst
        ~kind:dep.Analyze.d_kind ~loop_carried:dep.Analyze.d_carried ~probability:rate
        ?breaker:dep.Analyze.d_breaker ?distance ())
    rates;
  { body; analysis; pdg; rates; histograms; hist_totals; iterations }
