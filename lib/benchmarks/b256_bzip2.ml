let block_bytes = 4096

let block_count ~scale = Study.iterations_for scale ~small:6 ~medium:9 ~large:18

let make_text scale =
  let rng = Simcore.Rng.create 256 in
  Workloads.Textgen.text rng ~bytes:(block_count ~scale * block_bytes)

(* One bzip2 block: BWT, then MTF, then RLE, then Huffman sizing.
   Work is dominated by the rotation sort, as in the real benchmark. *)
let compress_block block =
  let transformed, sort_work = Workloads.Bwt.transform_with_work block in
  let mtf = Workloads.Bwt.move_to_front transformed.Workloads.Bwt.data in
  let rle = Workloads.Bwt.run_length mtf in
  let freqs =
    let tbl = Hashtbl.create 64 in
    List.iter
      (fun (sym, _) ->
        Hashtbl.replace tbl sym (1 + Option.value ~default:0 (Hashtbl.find_opt tbl sym)))
      rle;
    Hashtbl.fold (fun s f acc -> (s, f) :: acc) tbl [] |> List.sort compare
  in
  let bits =
    match Workloads.Huffman.build freqs with
    | None -> 0
    | Some tree ->
      let lengths = Workloads.Huffman.code_lengths tree in
      Workloads.Huffman.encoded_bits lengths (List.map fst rle)
  in
  let work = (sort_work / 4) + (2 * List.length mtf) + (4 * List.length rle) in
  (bits, work)

let run ~scale =
  let text = make_text scale in
  let p = Profiling.Profile.create ~name:"256.bzip2" in
  let in_ptr = Profiling.Profile.loc p "input_stream" in
  let out_stream = Profiling.Profile.loc p "output_stream" in
  Profiling.Profile.serial_work p 500;
  Profiling.Profile.begin_loop p "compressStream";
  let n = String.length text in
  let blocks = (n + block_bytes - 1) / block_bytes in
  for i = 0 to blocks - 1 do
    let start = i * block_bytes in
    let len = min block_bytes (n - start) in
    let block = String.sub text start len in
    (* Phase A: read the block; the block buffer is privatized by the
       TLS memory subsystem. *)
    ignore (Profiling.Profile.begin_task p ~iteration:i ~phase:Ir.Task.A ());
    Profiling.Profile.read p in_ptr;
    Profiling.Profile.work p (len / 8);
    Profiling.Profile.write p in_ptr (start + len);
    Profiling.Profile.end_task p;
    (* Phase B: the reversible transformation + move-to-front coding. *)
    ignore (Profiling.Profile.begin_task p ~iteration:i ~phase:Ir.Task.B ());
    let bits, work = compress_block block in
    Profiling.Profile.work p work;
    Profiling.Profile.end_task p;
    (* Phase C: writes are buffered until their position is known. *)
    ignore (Profiling.Profile.begin_task p ~iteration:i ~phase:Ir.Task.C ());
    Profiling.Profile.read p out_stream;
    Profiling.Profile.work p (max 1 (bits / 512));
    Profiling.Profile.write p out_stream i;
    Profiling.Profile.end_task p
  done;
  Profiling.Profile.end_loop p;
  Profiling.Profile.serial_work p 200;
  p

let pdg () =
  let g = Ir.Pdg.create "256.bzip2 compressStream" in
  let read = Ir.Pdg.add_node g ~label:"read_block" ~weight:0.05 () in
  let transform =
    Ir.Pdg.add_node g ~label:"transform_and_code" ~weight:0.92 ~replicable:true ()
  in
  let write = Ir.Pdg.add_node g ~label:"write_output" ~weight:0.03 () in
  Ir.Pdg.add_edge g ~src:read ~dst:transform ~kind:Ir.Dep.Memory ();
  Ir.Pdg.add_edge g ~src:transform ~dst:write ~kind:Ir.Dep.Memory ();
  Ir.Pdg.add_edge g ~src:read ~dst:read ~kind:Ir.Dep.Register ~loop_carried:true ();
  Ir.Pdg.add_edge g ~src:write ~dst:write ~kind:Ir.Dep.Memory ~loop_carried:true ();
  g

let study =
  {
    Study.spec_name = "256.bzip2";
    description = "Burrows-Wheeler block compression; blocks are independent so \
                   DSWP with a replicated transform stage extracts the parallelism";
    loops =
      [ { Study.li_function = "compressStream"; li_location = "bzip2.c:2870-2919"; li_exec_time = "100%" } ];
    lines_changed_all = 0;
    lines_changed_model = 0;
    techniques = [ "TLS Memory"; "DSWP" ];
    paper_speedup = 6.72;
    paper_threads = 12;
    run;
    plan = Speculation.Spec_plan.make ();
    baseline_plan = None;
    pdg;
    pdg_expected_parallel = [ "transform_and_code" ];
    flow_body = None;
  }
