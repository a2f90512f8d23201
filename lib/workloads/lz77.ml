type token = Literal of char | Match of { distance : int; length : int }

type result = { tokens : token list; compressed_bits : int; work : int }

let window_size = 32768

let min_match = 3

let max_match = 258

let hash_buckets = 4096

(* Callers guarantee [i + 2 < String.length s]. *)
let[@inline] bucket s i =
  ((Char.code (String.unsafe_get s i) * 131 * 131)
  + (Char.code (String.unsafe_get s (i + 1)) * 131)
  + Char.code (String.unsafe_get s (i + 2)))
  land (hash_buckets - 1)

type level = Fast | Best

(* Hash chains in the style of zlib: [head.(h)] is the newest position in
   bucket [h] (-1 when empty) and [prev.(p)] the next older position in
   p's bucket.  A probe reads at most the 16 newest positions of a bucket,
   so chains are never truncated: nothing past the 16th link is ever
   seen.  The last probe's best match is left in [m_dist]/[m_len].  One
   set per domain, reset per call; [prev] grows to the largest block. *)
type chains = {
  head : int array;
  mutable prev : int array;
  mutable m_dist : int;
  mutable m_len : int;
}

let new_chains prev = { head = Array.make hash_buckets (-1); prev; m_dist = 0; m_len = 0 }

let chains_key = Domain.DLS.new_key (fun () -> new_chains [||])

(* Inputs longer than this get chains of their own, so that one huge
   input does not pin a huge [prev] in every domain that saw it. *)
let max_kept_prev = 1 lsl 16

let chains_for n =
  if n > max_kept_prev then new_chains (Array.make n 0)
  else begin
    let c = Domain.DLS.get chains_key in
    Array.fill c.head 0 hash_buckets (-1);
    if Array.length c.prev < n then c.prev <- Array.make n 0;
    c
  end

(* Best match at position [i] against the current dictionary, without
   inserting [i]: walks at most [max_chain] links newest first and keeps
   the first strictly longest match.  Positions fall along a chain, so the
   first one outside the window ends the walk.  Returns the work spent. *)
let find_match c input n window max_chain i =
  if i + min_match > n then begin
    c.m_dist <- 0;
    c.m_len <- 0;
    0
  end
  else begin
    let prev = c.prev in
    let limit = if n - i < max_match then n - i else max_match in
    let work = ref 1 and best_dist = ref 0 and best_len = ref 0 in
    let j = ref c.head.(bucket input i) and links = ref 0 in
    while !links < max_chain && !j >= 0 && i - !j <= window do
      let cand = !j in
      let k = ref 0 in
      while
        !k < limit && String.unsafe_get input (cand + !k) = String.unsafe_get input (i + !k)
      do
        incr k
      done;
      work := !work + !k + 1;
      if !k > !best_len then begin
        best_dist := i - cand;
        best_len := !k
      end;
      j := Array.unsafe_get prev cand;
      incr links
    done;
    c.m_dist <- !best_dist;
    c.m_len <- !best_len;
    !work
  end

(* Link position [i] (with [i + min_match <= n]) into its bucket. *)
let insert c input i =
  let h = bucket input i in
  c.prev.(i) <- c.head.(h);
  c.head.(h) <- i

let literals = Array.init 256 (fun k -> Literal (Char.chr k))

(* Cost model: each hash probe costs 1, each byte compared costs 1, each
   emitted token costs 2.  This tracks how deflate's effort scales with
   match-finding difficulty. *)
let compress ?(window = window_size) ?(level = Best) input =
  let max_chain = match level with Fast -> 4 | Best -> 16 in
  let lazy_matching = level = Best in
  let n = String.length input in
  let c = chains_for n in
  let tokens = ref [] and bits = ref 0 and work = ref 0 in
  (* Lazy matching's lookahead at [ahead_pos].  When it wins, the next
     step probes that same position against an unchanged dictionary, so
     the step replays the lookahead's result and work instead. *)
  let ahead_pos = ref (-1) and ahead_dist = ref 0 and ahead_len = ref 0 and ahead_work = ref 0 in
  let pos = ref 0 in
  while !pos < n do
    let i = !pos in
    if !ahead_pos = i then begin
      c.m_dist <- !ahead_dist;
      c.m_len <- !ahead_len;
      work := !work + !ahead_work
    end
    else work := !work + find_match c input n window max_chain i;
    let distance = c.m_dist and length = c.m_len in
    if i + min_match <= n then begin
      insert c input i;
      incr work
    end;
    (* Lazy matching (deflate only): when the next position matches
       longer, emit a literal now and take the longer match there. *)
    let take_lazy =
      length >= min_match && lazy_matching
      && i + 1 + min_match <= n
      &&
      let w = find_match c input n window max_chain (i + 1) in
      work := !work + w;
      ahead_pos := i + 1;
      ahead_dist := c.m_dist;
      ahead_len := c.m_len;
      ahead_work := w;
      c.m_len > length
    in
    if length >= min_match && not take_lazy then begin
      tokens := Match { distance; length } :: !tokens;
      bits := !bits + 20;
      let last = min (i + length - 1) (n - min_match) in
      for k = i + 1 to last do
        insert c input k
      done;
      work := !work + 2 + max 0 (last - i);
      pos := i + length
    end
    else begin
      tokens := literals.(Char.code (String.unsafe_get input i)) :: !tokens;
      bits := !bits + 9;
      work := !work + 2;
      pos := i + 1
    end
  done;
  { tokens = List.rev !tokens; compressed_bits = !bits; work = !work }

let decompress tokens =
  let buf = Buffer.create 1024 in
  List.iter
    (function
      | Literal c -> Buffer.add_char buf c
      | Match { distance; length } ->
        if distance <= 0 || distance > Buffer.length buf then
          invalid_arg "Lz77.decompress: bad distance";
        for _ = 1 to length do
          let c = Buffer.nth buf (Buffer.length buf - distance) in
          Buffer.add_char buf c
        done)
    tokens;
  Buffer.contents buf

let compressed_ratio ~original r =
  let orig_bits = 8 * String.length original in
  if orig_bits = 0 then 1.0 else float_of_int r.compressed_bits /. float_of_int orig_bits
