type transformed = { data : string; primary : int }

(* Sort the rotations of [s] once, counting comparison steps: a
   comparison that first differs at offset [k] counts [k + 1], one between
   equal rotations counts [n].  Rotation [i] is [doubled.[i .. i + n - 1]],
   so the comparator never takes a modulus. *)
let transform_with_work s =
  let n = String.length s in
  if n = 0 then ({ data = ""; primary = 0 }, 0)
  else begin
    let doubled = s ^ s in
    let count = ref 0 in
    let compare_rotations i j =
      let k = ref 0 in
      while !k < n && String.unsafe_get doubled (i + !k) = String.unsafe_get doubled (j + !k) do
        incr k
      done;
      if !k = n then begin
        count := !count + n;
        0
      end
      else begin
        count := !count + !k + 1;
        Char.code (String.unsafe_get doubled (i + !k))
        - Char.code (String.unsafe_get doubled (j + !k))
      end
    in
    let idx = Array.init n Fun.id in
    Array.sort compare_rotations idx;
    let data = Bytes.create n in
    let primary = ref 0 in
    Array.iteri
      (fun row i ->
        if i = 0 then primary := row;
        Bytes.unsafe_set data row (String.unsafe_get doubled (i + n - 1)))
      idx;
    ({ data = Bytes.unsafe_to_string data; primary = !primary }, !count)
  end

let transform s = fst (transform_with_work s)

let inverse { data; primary } =
  let n = String.length data in
  if n = 0 then ""
  else begin
    (* Standard BWT inversion via the LF mapping. *)
    let counts = Array.make 256 0 in
    String.iter (fun c -> counts.(Char.code c) <- counts.(Char.code c) + 1) data;
    let firsts = Array.make 256 0 in
    let acc = ref 0 in
    for c = 0 to 255 do
      firsts.(c) <- !acc;
      acc := !acc + counts.(c)
    done;
    let occ = Array.make 256 0 in
    let lf = Array.make n 0 in
    String.iteri
      (fun i c ->
        let c = Char.code c in
        lf.(i) <- firsts.(c) + occ.(c);
        occ.(c) <- occ.(c) + 1)
      data;
    let out = Bytes.create n in
    let row = ref primary in
    for k = n - 1 downto 0 do
      Bytes.set out k data.[!row];
      row := lf.(!row)
    done;
    Bytes.to_string out
  end

let move_to_front s =
  let table = Array.init 256 Fun.id in
  let encode c =
    let c = Char.code c in
    let rec find i = if table.(i) = c then i else find (i + 1) in
    let pos = find 0 in
    for k = pos downto 1 do
      table.(k) <- table.(k - 1)
    done;
    table.(0) <- c;
    pos
  in
  List.init (String.length s) (fun i -> encode s.[i])

let move_to_front_inverse codes =
  let table = Array.init 256 Fun.id in
  let buf = Buffer.create (List.length codes) in
  List.iter
    (fun pos ->
      let c = table.(pos) in
      Buffer.add_char buf (Char.chr c);
      for k = pos downto 1 do
        table.(k) <- table.(k - 1)
      done;
      table.(0) <- c)
    codes;
  Buffer.contents buf

let run_length codes =
  let rec go acc = function
    | [] -> List.rev acc
    | c :: rest ->
      let rec take n = function
        | c' :: r when c' = c -> take (n + 1) r
        | r -> (n, r)
      in
      let n, rest = take 1 rest in
      go ((c, n) :: acc) rest
  in
  go [] codes

let run_length_inverse pairs =
  List.concat_map (fun (c, n) -> List.init n (fun _ -> c)) pairs
