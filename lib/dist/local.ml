type t = {
  cfg : int -> Node_main.config;
  seed : int option;
  nodes : Node_main.t array;
  threads : Thread.t array;
  up : bool Atomic.t array;
  eps : Conn.endpoint array;
  log : Supervisor.log;
  metrics : Obs.Metrics.t;
}

let start ?chaos ?seed ?(wal = false) ~algo ~n ~f ~dir () =
  (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let eps =
    Array.init n (fun i ->
        Conn.Unix_ep (Filename.concat dir (Printf.sprintf "node-%d.sock" i)))
  in
  let cfg i =
    {
      Node_main.me = i;
      eps;
      f;
      algo;
      wal =
        (if wal then Some (Filename.concat dir (Printf.sprintf "node-%d.wal" i))
         else None);
      recover = false;
      chaos;
    }
  in
  let nodes = Array.init n (fun i -> Node_main.start ?seed (cfg i)) in
  let threads = Array.map (fun nd -> Thread.create Node_main.run nd) nodes in
  {
    cfg;
    seed;
    nodes;
    threads;
    up = Array.init n (fun _ -> Atomic.make true);
    eps;
    log = Supervisor.log ();
    metrics = Obs.Metrics.create ();
  }

let net t i = Node_main.net t.nodes.(i)

let halt t i =
  Node_main.request_stop t.nodes.(i);
  Thread.join t.threads.(i);
  Node_main.shutdown t.nodes.(i)

let crash t i =
  Atomic.set t.up.(i) false;
  halt t i

let restart t i =
  if (t.cfg i).wal = None then
    invalid_arg "Dist.Local.restart: the cluster was started without WALs";
  t.nodes.(i) <-
    Node_main.start ?seed:t.seed { (t.cfg i) with recover = true };
  t.threads.(i) <- Thread.create Node_main.run t.nodes.(i);
  Atomic.set t.up.(i) true

let deployment t =
  {
    Load.n = Array.length t.nodes;
    up = (fun i -> Atomic.get t.up.(i));
    session = (fun _ -> Supervisor.session t.log t.eps);
    crash = crash t;
    restart = restart t;
    halted = (fun () -> false);
    metrics = t.metrics;
  }

let history t = Supervisor.merge_history (Supervisor.records t.log)

let stop t =
  Array.iteri (fun i up -> if Atomic.get up then halt t i) t.up
