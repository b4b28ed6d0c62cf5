type chain = { updater : int; relays : int list; final : int }

type t =
  | No_faults
  | Crash_at of (float * int) list
  | Crash_restart_at of (float * int * float) list
  | Crash_k_random of { k : int; window : float }
  | Chains of chain list
  | Lossy of Chan.faults
  | Partition of { groups : int list list; from_ : float; until : float }
  | Compose of t list

let arm_chain (instance : _ Instance.t) { updater; relays; final } =
  (* Every member crashes specifically while relaying the chain's own
     value (writer = updater): forwarding a bystander's value must not
     burn the armed crash. *)
  let rec hops src = function
    | [] -> instance.crash_on_next_value ~writer:updater src ~deliver_to:[ final ]
    | next :: rest ->
        instance.crash_on_next_value ~writer:updater src ~deliver_to:[ next ];
        hops next rest
  in
  hops updater relays

let rec apply t ~rng ~engine instance =
  match t with
  | No_faults -> ()
  | Crash_at crashes ->
      List.iter
        (fun (time, node) ->
          Sim.Engine.schedule ~label:(Sim.Label.Crash node) engine ~delay:time
            (fun () -> instance.Instance.crash node))
        crashes
  | Crash_restart_at specs ->
      List.iter
        (fun (crash_time, node, restart_time) ->
          if restart_time <= crash_time then
            invalid_arg "Adversary: restart not after the crash";
          Sim.Engine.schedule ~label:(Sim.Label.Crash node) engine
            ~delay:crash_time (fun () -> instance.Instance.crash node);
          Sim.Engine.schedule ~label:(Sim.Label.Restart node) engine
            ~delay:restart_time (fun () ->
              (* The node may have burnt a different fault in between
                 (e.g. a composed chain crash) — restart only what is
                 actually down. *)
              if instance.Instance.is_crashed node then
                instance.Instance.restart node))
        specs
  | Crash_k_random { k; window } ->
      let n = instance.Instance.n in
      if k > n then invalid_arg "Adversary: k > n";
      (* Reservoir-free sampling of k distinct nodes. *)
      let picked = Array.make n false in
      let remaining = ref k in
      while !remaining > 0 do
        let node = Sim.Rng.int rng n in
        if not picked.(node) then begin
          picked.(node) <- true;
          decr remaining;
          let time = Sim.Rng.float rng window in
          Sim.Engine.schedule ~label:(Sim.Label.Crash node) engine ~delay:time
            (fun () -> instance.Instance.crash node)
        end
      done
  | Chains chains -> List.iter (arm_chain instance) chains
  | Lossy faults ->
      (* Immediate: the link is faulty from t = 0. Requires the lossy
         substrate (Instance.set_link_faults raises on Ideal). *)
      instance.Instance.set_link_faults faults
  | Partition { groups; from_; until } ->
      if until < from_ then invalid_arg "Adversary: partition heals before it starts";
      Sim.Engine.schedule engine ~delay:from_ (fun () ->
          instance.Instance.partition groups);
      Sim.Engine.schedule engine ~delay:until (fun () ->
          instance.Instance.heal ())
  | Compose parts ->
      (* Each part gets an independent RNG stream so adding a part never
         perturbs its siblings' random choices. *)
      List.iter
        (fun part -> apply part ~rng:(Sim.Rng.split rng) ~engine instance)
        parts

let chains_for_budget ?(min_len = 1) ~n ~k ~scanner () =
  if k > n - 2 then invalid_arg "Adversary.chains_for_budget: k > n - 2";
  (* Faulty node pool: everyone but the scanner, lowest ids first. *)
  let pool = List.filter (fun i -> i <> scanner) (List.init n Fun.id) in
  let rec take acc pool = function
    | 0 -> (List.rev acc, pool)
    | m -> (
        match pool with
        | [] -> (List.rev acc, [])
        | x :: rest -> take (x :: acc) rest (m - 1))
  in
  (* Increasing lengths min_len, min_len+1, ...: one fresh exposure per
     interval with no gaps (Lemma 7 forces disjoint chains, so this
     packing is the budget-optimal delay). Leftover budget smaller than
     the next length is dropped — a longer last chain would leave a
     quiet gap in the exposure train, during which the victim's
     equivalence predicate comes true and the operation escapes. *)
  let rec build chains pool budget len =
    if budget < len || len <= 0 then List.rev chains
    else begin
      let members, pool = take [] pool len in
      match members with
      | [] -> List.rev chains
      | updater :: relays ->
          let chain = { updater; relays; final = scanner } in
          build (chain :: chains) pool (budget - len) (len + 1)
    end
  in
  let chains = build [] pool k min_len in
  if chains = [] && k > 0 then
    (* Budget below min_len: one short chain is the best available. *)
    match take [] pool k with
    | updater :: relays, _ -> [ { updater; relays; final = scanner } ]
    | [], _ -> []
  else chains

let rec faulty_nodes = function
  | No_faults -> []
  | Crash_at crashes -> List.sort_uniq Int.compare (List.map snd crashes)
  | Crash_restart_at specs ->
      List.sort_uniq Int.compare (List.map (fun (_, node, _) -> node) specs)
  | Crash_k_random _ -> []
  | Chains chains ->
      List.sort_uniq Int.compare
        (List.concat_map (fun c -> c.updater :: c.relays) chains)
  (* Link faults and healed partitions delay messages; they crash no one. *)
  | Lossy _ | Partition _ -> []
  | Compose parts ->
      List.sort_uniq Int.compare (List.concat_map faulty_nodes parts)
