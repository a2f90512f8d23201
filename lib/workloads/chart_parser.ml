type category = S | NP | VP | PP | N | V | P | Det | Adj

let categories = [ S; NP; VP; PP; N; V; P; Det; Adj ]

type grammar = {
  binary : (category * (category * category)) list;  (* lhs -> rhs pair *)
  lexicon : (string * category list) list;
}

let english_like =
  {
    binary =
      [
        (S, (NP, VP));
        (NP, (Det, N));
        (NP, (NP, PP));
        (NP, (Adj, N));
        (VP, (V, NP));
        (VP, (VP, PP));
        (PP, (P, NP));
        (N, (Adj, N));
      ];
    lexicon =
      [
        ("the", [ Det ]);
        ("a", [ Det ]);
        ("dog", [ N ]);
        ("cat", [ N ]);
        ("compiler", [ N ]);
        ("thread", [ N ]);
        ("queue", [ N ]);
        ("core", [ N ]);
        ("telescope", [ N ]);
        ("park", [ N ]);
        ("sees", [ V ]);
        ("builds", [ V ]);
        ("extracts", [ V ]);
        ("schedules", [ V ]);
        ("walks", [ V ]);
        ("in", [ P ]);
        ("with", [ P ]);
        ("over", [ P ]);
        ("fast", [ Adj ]);
        ("lazy", [ Adj ]);
        ("parallel", [ Adj ]);
        ("speculative", [ Adj ]);
      ];
  }

type parse_result = { grammatical : bool; chart_entries : int; work : int }

let parse g words =
  let n = List.length words in
  if n = 0 then { grammatical = false; chart_entries = 0; work = 0 }
  else begin
    let words = Array.of_list words in
    let work = ref 0 in
    (* chart.(i).(j) = categories spanning words i..i+j (length j+1). *)
    let chart = Array.make_matrix n n [] in
    let entries = ref 0 in
    let add i j cat =
      if not (List.mem cat chart.(i).(j)) then begin
        chart.(i).(j) <- cat :: chart.(i).(j);
        incr entries
      end
    in
    for i = 0 to n - 1 do
      incr work;
      match List.assoc_opt words.(i) g.lexicon with
      | Some cats -> List.iter (add i 0) cats
      | None -> ()
    done;
    for len = 2 to n do
      for i = 0 to n - len do
        for split = 1 to len - 1 do
          let left = chart.(i).(split - 1) in
          let right = chart.(i + split).(len - split - 1) in
          List.iter
            (fun (lhs, (r1, r2)) ->
              incr work;
              if List.mem r1 left && List.mem r2 right then add i (len - 1) lhs)
            g.binary
        done
      done
    done;
    { grammatical = List.mem S chart.(0).(n - 1); chart_entries = !entries; work = !work }
  end

let lexicon_words g cat =
  List.filter_map (fun (w, cs) -> if List.mem cat cs then Some w else None) g.lexicon

let sentence_of_length rng target =
  let g = english_like in
  let pick cat = Simcore.Rng.pick rng (Array.of_list (lexicon_words g cat)) in
  let np () = [ pick Det; pick N ] in
  let pp () = [ pick P ] @ np () in
  let base = np () @ [ pick V ] @ np () in
  let rec extend acc =
    if List.length acc >= target then acc else extend (acc @ pp ())
  in
  extend base

let scramble rng words =
  let arr = Array.of_list words in
  Simcore.Rng.shuffle rng arr;
  Array.to_list arr
