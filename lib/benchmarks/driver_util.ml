let rng_value seed = (seed * 1103515245) + 12345

(* Indices past [family_limit] (none in the registry) are interned at
   every use rather than grow the array to them. *)
let family_limit = 1 lsl 16

let loc_family p name =
  let ids = ref [||] in
  fun i ->
    if i < 0 || i >= family_limit then Profiling.Profile.loc p (name i)
    else begin
      let known = !ids in
      if i >= Array.length known then begin
        let grown = Array.make (max (i + 1) (2 * Array.length known)) (-1) in
        Array.blit known 0 grown 0 (Array.length known);
        ids := grown
      end;
      let id = !ids.(i) in
      if id >= 0 then id
      else begin
        let id = Profiling.Profile.loc p (name i) in
        !ids.(i) <- id;
        id
      end
    end
