(* One list of open batches, shared by every domain of the pool.  A
   batch's items are claimed one at a time through an atomic counter.
   A submitter appends its batch, claims from it until none is left,
   then helps the oldest open batch until its own has finished; a
   spawned domain does the same until shutdown.  One mutex/condition
   pair covers the list, sleeping and waking: every pool item runs for
   milliseconds, so the lock is held for a sliver of the time spent
   outside it. *)

(* One fan-out.  [run_item] must not raise — callers wrap their function
   and stash the first exception instead. *)
type batch = {
  total : int;
  next : int Atomic.t;  (* next unclaimed index; may overshoot [total] *)
  remaining : int Atomic.t;  (* items not yet completed *)
  run_item : int -> unit;
}

type t = {
  lock : Mutex.t;
  wake : Condition.t;
  mutable batches : batch list;  (* oldest first; guarded by [lock] *)
  mutable shutting_down : bool;
  mutable domains : unit Domain.t array;
  size : int;
}

let size t = t.size

(* Under [lock]: forget the batches whose items are all claimed and
   return the oldest that still has one. *)
let oldest_open t =
  t.batches <- List.filter (fun b -> Atomic.get b.next < b.total) t.batches;
  match t.batches with [] -> None | b :: _ -> Some b

(* Claim and run [b]'s items until none is left.  The domain that
   completes the last item broadcasts under [lock], where the batch's
   submitter checks [remaining] before it sleeps, so the wake-up cannot
   fall between that check and the wait. *)
let rec drain t b =
  let i = Atomic.fetch_and_add b.next 1 in
  if i < b.total then begin
    b.run_item i;
    if Atomic.fetch_and_add b.remaining (-1) = 1 then begin
      Mutex.lock t.lock;
      Condition.broadcast t.wake;
      Mutex.unlock t.lock
    end;
    drain t b
  end

(* Run open batches' items until [stop ()] holds.  [stop] is read under
   [lock], and each change it depends on (shutdown, a batch's last
   completion) is broadcast under [lock], as is each new batch. *)
let rec help t ~stop =
  Mutex.lock t.lock;
  let rec next () =
    if stop () then None
    else
      match oldest_open t with
      | Some _ as b -> b
      | None ->
        Condition.wait t.wake t.lock;
        next ()
  in
  let b = next () in
  Mutex.unlock t.lock;
  match b with
  | None -> ()
  | Some b ->
    drain t b;
    help t ~stop

let create ~domains =
  let size = max 1 domains in
  let t =
    {
      lock = Mutex.create ();
      wake = Condition.create ();
      batches = [];
      shutting_down = false;
      domains = [||];
      size;
    }
  in
  t.domains <-
    Array.init (size - 1) (fun _ ->
        Domain.spawn (fun () -> help t ~stop:(fun () -> t.shutting_down)));
  t

(* A shut-down pool has no other domain left, so the submitter claims
   every item itself, in index order. *)
let run_batch t ~total ~run_item =
  let b = { total; next = Atomic.make 0; remaining = Atomic.make total; run_item } in
  Mutex.lock t.lock;
  t.batches <- t.batches @ [ b ];
  Condition.broadcast t.wake;
  Mutex.unlock t.lock;
  drain t b;
  help t ~stop:(fun () -> Atomic.get b.remaining = 0)

let reraise (e, bt) = Printexc.raise_with_backtrace e bt

(* Run [body 0 .. n-1] as one batch; the first exception any item raised
   is re-raised once the batch has drained. *)
let run_all t ~n body =
  let error = Atomic.make None in
  let run_item i =
    try body i
    with e ->
      let bt = Printexc.get_raw_backtrace () in
      ignore (Atomic.compare_and_set error None (Some (e, bt)))
  in
  run_batch t ~total:n ~run_item;
  Option.iter reraise (Atomic.get error)

let map t f arr =
  let n = Array.length arr in
  if t.size <= 1 || n <= 1 then Array.map f arr
  else begin
    let results = Array.make n None in
    run_all t ~n (fun i -> results.(i) <- Some (f arr.(i)));
    Array.map Option.get results
  end

let map_list t f l = Array.to_list (map t f (Array.of_list l))

let parallel_for t ~n body =
  if t.size <= 1 || n <= 1 then
    for i = 0 to n - 1 do
      body i
    done
  else run_all t ~n body

let shutdown t =
  Mutex.lock t.lock;
  let first = not t.shutting_down in
  t.shutting_down <- true;
  Condition.broadcast t.wake;
  Mutex.unlock t.lock;
  if first then begin
    Array.iter Domain.join t.domains;
    t.domains <- [||]
  end

let with_pool ~domains f =
  let t = create ~domains in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)

let default_domains () =
  match Sys.getenv_opt "REPRO_JOBS" with
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some n when n >= 1 -> n
    | Some _ | None -> Domain.recommended_domain_count ())
  | None -> Domain.recommended_domain_count ()
