let net_stats net () =
  let s = Sim.Network.stats net in
  {
    Instance.sent = s.sent;
    delivered = s.delivered;
    wire_sent = s.wire_sent;
    wire_delivered = s.wire_delivered;
    wire_lost = s.wire_lost;
    wire_cut = s.wire_cut;
    retransmits = s.retransmits;
    acks = s.acks;
    duplicated = s.duplicated;
    reordered = s.reordered;
  }

let no_persistence _ =
  invalid_arg
    "Instance.restart: this algorithm has no persistence layer (only the \
     EQ-ASO and SSO deployments write a lattice log to recover from)"

let instance ?(restart = no_persistence) ?(is_recovering = fun _ -> false)
    ~name ~f ~update ~scan ~net ~value_match () =
  {
    Instance.name;
    n = Sim.Network.size net;
    f;
    update;
    scan;
    crash = (fun i -> Sim.Network.crash net i);
    crash_during_next_broadcast =
      (fun i ~deliver_to ->
        Sim.Network.crash_during_next_broadcast net i ~deliver_to);
    crash_on_next_value =
      (fun ?writer i ~deliver_to ->
        Sim.Network.crash_during_next_broadcast_matching net i
          ~match_:(value_match ~writer) ~deliver_to);
    is_crashed = (fun i -> Sim.Network.is_crashed net i);
    on_crash = (fun cb -> Sim.Network.on_crash net cb);
    restart;
    is_recovering;
    on_restart = (fun cb -> Sim.Network.on_restart net cb);
    messages = (fun () -> Sim.Network.messages_sent net);
    partition = (fun groups -> Sim.Network.partition net groups);
    heal = (fun () -> Sim.Network.heal net);
    set_link_faults = Sim.Network.set_link_faults net;
    net_stats = net_stats net;
    metrics = (fun () -> Obs.Metrics.snapshot (Sim.Network.metrics net));
    dump_net = (fun ppf -> Sim.Network.pp_state ppf net);
  }
