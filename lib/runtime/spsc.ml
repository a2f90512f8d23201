exception Poisoned

(* Snapshot cells live at index 0 of 16-word int arrays so the
   producer-written snapshot and the consumer-written snapshot sit on
   different cache lines (a 16-word OCaml float-free array spans at
   least one 64-byte line on 64-bit).  The head/tail atomics are boxed
   and separately allocated, which keeps them off each other's line as
   well. *)
let pad = 16

type 'a t = {
  buf : 'a option array;
  mask : int;
  head : int Atomic.t;  (* next index to pop *)
  tail : int Atomic.t;  (* next index to push *)
  head_snap : int array;  (* producer's cached view of head *)
  tail_snap : int array;  (* consumer's cached view of tail *)
  closed : bool Atomic.t;
  poisoned : bool Atomic.t;
}

let rec pow2 n k = if k >= n then k else pow2 n (k * 2)

let create ?(capacity = 64) () =
  let cap = pow2 (max 1 capacity) 1 in
  {
    buf = Array.make cap None;
    mask = cap - 1;
    head = Atomic.make 0;
    tail = Atomic.make 0;
    head_snap = Array.make pad 0;
    tail_snap = Array.make pad 0;
    closed = Atomic.make false;
    poisoned = Atomic.make false;
  }

let capacity t = t.mask + 1

let length t = max 0 (Atomic.get t.tail - Atomic.get t.head)

let check_poison t = if Atomic.get t.poisoned then raise Poisoned

let try_push t x =
  check_poison t;
  let tail = Atomic.get t.tail in
  let full snap = tail - snap > t.mask in
  let fresh =
    if full t.head_snap.(0) then begin
      t.head_snap.(0) <- Atomic.get t.head;
      t.head_snap.(0)
    end
    else t.head_snap.(0)
  in
  if full fresh then false
  else begin
    t.buf.(tail land t.mask) <- Some x;
    (* Release: publishes the buffer store above to the consumer. *)
    Atomic.set t.tail (tail + 1);
    true
  end

(* Bounded spin, then sleep: on a machine with fewer free cores than
   domains a pure [cpu_relax] loop burns the whole OS timeslice the
   peer needs to make progress. *)
let backoff k =
  if k < 512 then Domain.cpu_relax () else Unix.sleepf 5e-5

let push t x =
  let rec go k =
    if not (try_push t x) then begin
      backoff k;
      go (k + 1)
    end
  in
  go 0

let try_pop t =
  check_poison t;
  let head = Atomic.get t.head in
  let empty snap = head >= snap in
  let fresh =
    if empty t.tail_snap.(0) then begin
      t.tail_snap.(0) <- Atomic.get t.tail;
      t.tail_snap.(0)
    end
    else t.tail_snap.(0)
  in
  if empty fresh then
    if Atomic.get t.closed && Atomic.get t.tail = head then `Closed else `Empty
  else begin
    let i = head land t.mask in
    let v = t.buf.(i) in
    (* Drop the reference so the cell doesn't keep the item live until
       the ring wraps. *)
    t.buf.(i) <- None;
    Atomic.set t.head (head + 1);
    match v with Some x -> `Item x | None -> assert false
  end

let pop t =
  let rec go k =
    match try_pop t with
    | `Item x -> Some x
    | `Closed -> None
    | `Empty ->
      backoff k;
      go (k + 1)
  in
  go 0

let close t = Atomic.set t.closed true

let poison t = Atomic.set t.poisoned true
