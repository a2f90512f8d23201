let words =
  [|
    "the"; "quick"; "brown"; "fox"; "jumps"; "over"; "lazy"; "dog"; "compiler";
    "extracts"; "threads"; "from"; "sequential"; "programs"; "speculation"; "breaks";
    "dependences"; "pipeline"; "stage"; "executes"; "iterations"; "in"; "parallel";
    "memory"; "versioned"; "hardware"; "queue"; "core"; "processor"; "performance";
    "benchmark"; "measures"; "speedup"; "annotation"; "commutative"; "branch";
    "dictionary"; "compression"; "random"; "number"; "generator"; "search"; "tree";
    "network"; "simplex"; "database"; "transaction"; "grammar"; "sentence"; "parser";
  |]

let sentence rng ~min_words ~max_words =
  let n = Simcore.Rng.int_in rng min_words max_words in
  let buf = Buffer.create 64 in
  for i = 0 to n - 1 do
    let w = Simcore.Rng.pick rng words in
    let w = if i = 0 then String.capitalize_ascii w else w in
    if i > 0 then Buffer.add_char buf ' ';
    Buffer.add_string buf w
  done;
  Buffer.add_char buf '.';
  Buffer.contents buf

let text rng ~bytes =
  let buf = Buffer.create (bytes + 128) in
  while Buffer.length buf < bytes do
    Buffer.add_string buf (sentence rng ~min_words:4 ~max_words:12);
    Buffer.add_char buf ' '
  done;
  Buffer.contents buf

let repetitive_text rng ~bytes ~redundancy =
  if redundancy < 0.0 || redundancy > 1.0 then
    invalid_arg "Textgen.repetitive_text: redundancy must be in [0,1]";
  let buf = Buffer.create (bytes + 128) in
  (* Redundancy is local — a sliding window of recent sentences — the way
     natural text repeats within a compressor's match window.  Long-range
     repetition would unfairly penalize block-split compression. *)
  let window = 16 in
  (* The last [window] sentences in a ring; [held] of them are filled and
     the [k]th newest sits at [newest - k].  A reuse draws [k] as a pick
     from the newest-first list. *)
  let history = Array.make window "" in
  let held = ref 0 and newest = ref (window - 1) in
  let emit s =
    Buffer.add_string buf s;
    Buffer.add_char buf ' '
  in
  while Buffer.length buf < bytes do
    let reuse = !held > 0 && Simcore.Rng.chance rng redundancy in
    if reuse then begin
      let k = Simcore.Rng.int rng !held in
      emit history.((!newest - k + window) mod window)
    end
    else begin
      let s = sentence rng ~min_words:4 ~max_words:12 in
      newest := (!newest + 1) mod window;
      history.(!newest) <- s;
      if !held < window then incr held;
      emit s
    end
  done;
  Buffer.contents buf
