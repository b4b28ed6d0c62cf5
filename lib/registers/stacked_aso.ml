type 'v payload = { value : 'v; embedded : 'v payload Reg_store.vector }

type 'v t = { abd : 'v payload Abd.t; n : int; f : int; obs : Obs.Trace.t }

let create engine ~n ~f ~delay =
  { abd = Abd.create engine ~n ~f ~delay; n; f;
    obs = Sim.Engine.trace engine }

let span t ~pid =
  Obs.Trace.span t.obs ~pid ~cat:"op" ~now:(fun () ->
      Sim.Engine.now (Sim.Network.engine (Abd.net t.abd)))

(* Afek et al.'s scan: repeated collects; a clean double collect returns
   directly, a writer seen moving twice is borrowed from. Identical
   helping logic to Sc_aso — the difference under measurement is purely
   the cost of a collect (ABD read-all: 4 delays). *)
let scan_vector t node =
  let moved = Array.make t.n 0 in
  let last = Array.make t.n None in
  let note vector =
    let borrow = ref None in
    for writer = 0 to t.n - 1 do
      let ts = Reg_store.ts_of vector ~writer in
      (match (last.(writer), ts) with
      | Some prev, Some now when not (Timestamp.equal prev now) ->
          moved.(writer) <- moved.(writer) + 1;
          if moved.(writer) >= 2 then
            Option.iter (fun e -> borrow := Some e) vector.(writer)
      | _ -> ());
      if ts <> None then last.(writer) <- ts
    done;
    !borrow
  in
  let rec stabilise previous =
    let current = Abd.read_all t.abd ~node in
    match note current with
    | Some (entry : 'v payload Reg_store.entry) -> entry.value.embedded
    | None ->
        if Reg_store.equal_ts previous current then current
        else stabilise current
  in
  let first = Abd.read_all t.abd ~node in
  let _ = note first in
  stabilise first

let scan t ~node =
  span t ~pid:node "SCAN" @@ fun () ->
  Array.map
    (Option.map (fun (p : 'v payload) -> p.value))
    (Reg_store.extract (scan_vector t node))

let update t ~node v =
  span t ~pid:node "UPDATE" @@ fun () ->
  let embedded = scan_vector t node in
  Abd.write t.abd ~node { value = v; embedded }

let instance t =
  Aso_core.Wiring.instance ~name:"stacked-aso" ~f:t.f
    ~update:(fun node v -> update t ~node v)
    ~scan:(fun node -> scan t ~node)
    ~net:(Abd.net t.abd)
    ~value_match:(fun ~writer -> function
      | Abd.Msg.Write { entry; _ } ->
          Option.fold ~none:true
            ~some:(Int.equal (Timestamp.writer entry.Reg_store.ts))
            writer
      | _ -> false)
    ()
