type edge = {
  src : int;
  dst : int;
  loc : int;
  group : string option;
  silent : bool;
  predicted : bool;
  src_offset : int;
  dst_offset : int;
  distance : int option;
}

type config = { silent_stores : bool }

let default_config = { silent_stores = true }

(* Location ids index the per-location state directly.  A log whose ids
   are negative, or spread far beyond its length, is renumbered densely
   first: [slot] maps an id to its rank among the log's sorted ids. *)
let location_slots entries =
  let lo = ref max_int and hi = ref min_int and len = ref 0 in
  List.iter
    (fun (e : Access_log.entry) ->
      if e.loc < !lo then lo := e.loc;
      if e.loc > !hi then hi := e.loc;
      incr len)
    entries;
  if !len = 0 || (!lo >= 0 && !hi < (2 * !len) + 64) then ((fun l -> l), max 0 (!hi + 1))
  else begin
    let ids = Array.of_list (List.map (fun (e : Access_log.entry) -> e.loc) entries) in
    Array.sort Int.compare ids;
    let distinct = ref 0 in
    Array.iteri
      (fun i l ->
        if i = 0 || l <> ids.(!distinct - 1) then begin
          ids.(!distinct) <- l;
          incr distinct
        end)
      ids;
    let slot l =
      let lo = ref 0 and hi = ref (!distinct - 1) in
      while !lo < !hi do
        let mid = (!lo + !hi) / 2 in
        if ids.(mid) < l then lo := mid + 1 else hi := mid
      done;
      !lo
    in
    (slot, !distinct)
  end

let analyze ?(config = default_config) ?iteration_of log =
  let entries = Access_log.entries log in
  let slot, nlocs = location_slots entries in
  (* Per location: the stored value, the last effective writer (-1 if
     none) with its group and offset, and the value the previous
     cross-task read observed (for the last-value predictor). *)
  let has_value = Array.make nlocs false and value = Array.make nlocs 0 in
  let writer = Array.make nlocs (-1) in
  let writer_group = Array.make nlocs None and writer_offset = Array.make nlocs 0 in
  let has_last_read = Array.make nlocs false and last_read = Array.make nlocs 0 in
  (* One edge per (src, dst, loc), the earliest read kept.  Per location,
     [top_dst] is the largest dst of its edges so far and (top_src,
     top_dst) one of them.  A log from Profile replays tasks one at a
     time in id order, so the reads of one location by one task all see
     the same writer: an edge is new exactly when its dst passes
     [top_dst], and a repeat of the top pair is a duplicate.  Anything
     else (a log that revisits a task) is decided by a scan of the edges
     found so far. *)
  let has_edge = Array.make nlocs false in
  let top_src = Array.make nlocs 0 and top_dst = Array.make nlocs 0 in
  let edges_rev = ref [] in
  let is_new i ~src ~dst ~loc =
    if (not has_edge.(i)) || dst > top_dst.(i) then begin
      has_edge.(i) <- true;
      top_src.(i) <- src;
      top_dst.(i) <- dst;
      true
    end
    else if dst = top_dst.(i) && src = top_src.(i) then false
    else not (List.exists (fun e -> e.src = src && e.dst = dst && e.loc = loc) !edges_rev)
  in
  let handle (e : Access_log.entry) =
    let i = slot e.loc in
    match e.op with
    | Access_log.Write v ->
      let silent = config.silent_stores && has_value.(i) && value.(i) = v in
      has_value.(i) <- true;
      value.(i) <- v;
      if not silent then begin
        writer.(i) <- e.task;
        writer_group.(i) <- e.group;
        writer_offset.(i) <- e.offset
      end
    | Access_log.Read ->
      let w = writer.(i) in
      if has_value.(i) && w >= 0 && w <> e.task then begin
        let v = value.(i) in
        if is_new i ~src:w ~dst:e.task ~loc:e.loc then begin
          let group =
            (* The edge lives inside a commutative group only when both
               endpoints executed under the same group: that is the
               function-internal state the annotation hides. *)
            match (writer_group.(i), e.group) with
            | Some g1, Some g2 when String.equal g1 g2 -> Some g1
            | _ -> None
          in
          let distance =
            match iteration_of with Some f -> Some (f e.task - f w) | None -> None
          in
          edges_rev :=
            {
              src = w;
              dst = e.task;
              loc = e.loc;
              group;
              silent = false;
              predicted = has_last_read.(i) && last_read.(i) = v;
              src_offset = writer_offset.(i);
              dst_offset = e.offset;
              distance;
            }
            :: !edges_rev
        end;
        has_last_read.(i) <- true;
        last_read.(i) <- v
      end
  in
  List.iter handle entries;
  List.rev !edges_rev

let cross_iteration (loop : Ir.Trace.loop) edges =
  let iter_of id = loop.Ir.Trace.tasks.(id).Ir.Task.iteration in
  List.filter (fun e -> iter_of e.src <> iter_of e.dst) edges
