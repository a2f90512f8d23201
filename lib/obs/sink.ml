type t = { enabled : bool; emit : Event.t -> unit }

let null = { enabled = false; emit = ignore }

let make emit = { enabled = true; emit }

let emit t e = if t.enabled then t.emit e

let enabled t = t.enabled

let offset base inner =
  if (not inner.enabled) || base = 0 then inner
  else { enabled = true; emit = (fun e -> inner.emit (Event.shift base e)) }

type recorder = { mutable rev_events : Event.t list; mutable count : int }

let recorder () = { rev_events = []; count = 0 }

let record r =
  make (fun e ->
      r.rev_events <- e :: r.rev_events;
      r.count <- r.count + 1)

let events r = List.rev r.rev_events

let count r = r.count

let clear r =
  r.rev_events <- [];
  r.count <- 0
