type t = { cores : int; queue_capacity : int; comm_latency : int }

(* The paper's queue budget (Section 3.1).  The model only prints it:
   no plan comes near it. *)
let queue_count = 256

let make ~cores ?(queue_capacity = 32) ?(comm_latency = 1) () =
  if cores < 1 then invalid_arg "Config.make: cores must be >= 1";
  if queue_capacity < 1 then invalid_arg "Config.make: queue_capacity must be >= 1";
  if comm_latency < 0 then invalid_arg "Config.make: negative latency";
  { cores; queue_capacity; comm_latency }

let default ~cores = make ~cores ()

let pp ppf t =
  Format.fprintf ppf "%d cores, %d queues x %d entries, latency %d" t.cores queue_count
    t.queue_capacity t.comm_latency
