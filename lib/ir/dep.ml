type kind = Register | Memory | Control

let kind_to_string = function
  | Register -> "reg"
  | Memory -> "mem"
  | Control -> "ctl"

type t = { src : int; dst : int; kind : kind; loc : int }

let make ~src ~dst ~kind ?(loc = -1) () =
  if src = dst then invalid_arg "Dep.make: self edge";
  { src; dst; kind; loc }

let pp ppf e = Format.fprintf ppf "%d-%s->%d" e.src (kind_to_string e.kind) e.dst

type action = Synchronize | Speculate | Remove

type resolved = { edge : t; action : action }
