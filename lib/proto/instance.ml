type net_stats = {
  sent : int;
  delivered : int;
  wire_sent : int;
  wire_delivered : int;
  wire_lost : int;
  wire_cut : int;
  retransmits : int;
  acks : int;
  duplicated : int;
  reordered : int;
}

let overhead_factor s =
  if s.sent = 0 then 1.0 else float_of_int s.wire_sent /. float_of_int s.sent

type 'v t = {
  name : string;
  n : int;
  f : int;
  update : int -> 'v -> unit;
  scan : int -> 'v option array;
  crash : int -> unit;
  crash_during_next_broadcast : int -> deliver_to:int list -> unit;
  crash_on_next_value : ?writer:int -> int -> deliver_to:int list -> unit;
  is_crashed : int -> bool;
  on_crash : (int -> unit) -> unit;
  restart : int -> unit;
  is_recovering : int -> bool;
  on_restart : (int -> unit) -> unit;
  messages : unit -> int;
  partition : int list list -> unit;
  heal : unit -> unit;
  set_link_faults : Chan.faults -> unit;
  net_stats : unit -> net_stats;
  metrics : unit -> Obs.Metrics.snapshot;
  dump_net : Format.formatter -> unit;
}
