type 'v t = {
  n : int;
  me : int;
  forward : Timestamp.t -> 'v -> unit;
  changed : Backend.condition;
  v : View.t array;
  store : (Timestamp.t, 'v) Hashtbl.t;
  (* The pending [await_eq] calls (at most one on a sequential node):
     [add_to_view] bumps their per-view counts directly, so the
     predicate, run once per delivered message, never recounts. *)
  mutable waiting : waiter list;
}

(* [counts.(j)] is [|V.(j)^{<=bound}|], kept current by [add_to_view]. *)
and waiter = { counts : int array; bound : int }

let create ~n ~me ~forward ~changed =
  {
    n;
    me;
    forward;
    changed;
    v = Array.make n View.empty;
    store = Hashtbl.create 64;
    waiting = [];
  }

let me t = t.me

(* Bumps view [j]'s count in every pending await whose bound admits
   [tag]; top-level, so an insert builds no closure. *)
let rec bump j tag = function
  | [] -> ()
  | w :: rest ->
      if tag <= w.bound then w.counts.(j) <- w.counts.(j) + 1;
      bump j tag rest

let add_to_view t j ts =
  let v = View.add ts t.v.(j) in
  (* [add] hands back its argument when [ts] is already a member. *)
  if v != t.v.(j) then begin
    t.v.(j) <- v;
    bump j (Timestamp.tag ts) t.waiting
  end

let local_insert t ts value = Hashtbl.replace t.store ts value

let receive t ~src ts value =
  let fresh = not (Hashtbl.mem t.store ts) in
  if fresh then Hashtbl.replace t.store ts value;
  add_to_view t src ts;
  add_to_view t t.me ts;
  if fresh then t.forward ts value

let view t j = t.v.(j)
let my_view t = t.v.(t.me)
let value_of t ts = Hashtbl.find t.store ts
let knows t ts = Hashtbl.mem t.store ts

let restricted v max_tag =
  match max_tag with None -> v | Some r -> View.restrict v ~max_tag:r

let eq_holds t ~quorum ~max_tag =
  let mine = restricted t.v.(t.me) max_tag in
  let matching = ref 0 in
  for j = 0 to t.n - 1 do
    if View.equal (restricted t.v.(j) max_tag) mine then incr matching
  done;
  !matching >= quorum

(* Top-level, so the predicate below, run once per delivered message,
   builds no closure. *)
let rec mem_all v = function
  | [] -> true
  | ts :: rest -> View.mem ts v && mem_all v rest

(* [w] out of the pending list; it is the head unless awaits nest. *)
let rec unregister w = function
  | [] -> []
  | x :: rest when x == w -> rest
  | x :: rest -> x :: unregister w rest

let await_eq ?(must_contain = []) t ~quorum ~max_tag =
  (* Since V.(j) ⊆ V.(me), set equality below the tag bound is exactly
     cardinality equality. The starting counts are cheap [count_le]
     calls; from then on [add_to_view] keeps them current. *)
  let bound = Option.value max_tag ~default:max_int in
  let counts = Array.make t.n 0 in
  for j = 0 to t.n - 1 do
    counts.(j) <- View.count_le t.v.(j) ~max_tag:bound
  done;
  let w = { counts; bound } in
  let predicate () =
    mem_all t.v.(t.me) must_contain
    &&
    let mine = counts.(t.me) in
    let matching = ref 0 in
    for j = 0 to t.n - 1 do
      if counts.(j) = mine then incr matching
    done;
    !matching >= quorum
  in
  t.waiting <- w :: t.waiting;
  (match t.changed.Backend.await predicate with
  | () -> t.waiting <- unregister w t.waiting
  | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      t.waiting <- unregister w t.waiting;
      Printexc.raise_with_backtrace e bt);
  restricted t.v.(t.me) max_tag
