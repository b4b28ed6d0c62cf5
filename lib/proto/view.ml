(* A view is stored per writer, writers in ascending id order in two
   parallel arrays. A writer's tags are a sorted run plus a set of
   stragglers:

   - the run is a prefix of an int array shared by the successive
     versions that extended it. A version sees cells [0, len); a later
     insert only ever writes the cell at the shared [used] mark, which
     no existing version can see, so a version handed out never sees a
     later insert. Only the version whose [len] equals [used] claims
     that cell (by a CAS, so two holders of one version cannot both
     claim it); any other version copies the run first. Inserting a
     writer's next larger tag into the newest version is thus a fresh
     entry, a copy of the entries array and a view record: O(writers)
     words, independent of the history.
   - [extra] holds the tags inserted below the run's last one (a
     recovery push replays a writer's older values after its newer
     ones), in the persistent set form, until they grow numerous enough
     to merge into a fresh run ([insert]).

   [card] caches [len + |extra|], [total] the sum of the cards. [bound]
   is the lazy tag bound that [restrict] lowers: the view's members are
   exactly the stored timestamps with tag [<= bound], and [max_int]
   means unbounded.

   Invariant: no entry is empty. A bounded view may still store writers
   all of whose tags lie above the bound; [materialise] drops them. *)

module Tags = Set.Make (Int)

type run = { tags : int array; used : int Atomic.t }

type entry = {
  run : run;
  len : int;  (* this version's prefix of [run.tags] *)
  extra : Tags.t;  (* members outside the run *)
  card : int;
}

type t = { ws : int array; es : entry array; total : int; bound : int }

let unbounded = max_int
let empty = { ws = [||]; es = [||]; total = 0; bound = unbounded }

(* The first index in [lo, hi] whose cell is above [b], given that
   cell [hi] is. Top-level, as are the other searches here, so that a
   query allocates no closure. *)
let rec first_above a b lo hi =
  if lo >= hi then lo
  else
    let mid = (lo + hi) lsr 1 in
    if a.(mid) <= b then first_above a b (mid + 1) hi
    else first_above a b lo mid

(* The run cells of [e] with tag [<= b]. *)
let run_le e b =
  let a = e.run.tags in
  if e.len = 0 || a.(e.len - 1) <= b then e.len
  else first_above a b 0 (e.len - 1)

(* Members of [extra] above [b], stepping from [b] upwards: one
   O(log H) descent per member above the bound plus one, nothing
   allocated per member below it. *)
let extra_above extra b =
  let rec step b k =
    match Tags.find_first_opt (fun x -> x > b) extra with
    | None -> k
    | Some x -> step x (k + 1)
  in
  if Tags.is_empty extra then 0 else step b 0

let entry_count_le e b =
  if b = unbounded then e.card
  else run_le e b + (e.card - e.len) - extra_above e.extra b

let entry_mem e tag =
  let k = run_le e tag in
  (k > 0 && e.run.tags.(k - 1) = tag) || Tags.mem tag e.extra

(* Largest member [<= b]; [min_int] when there is none. *)
let entry_max_le e b =
  let k = run_le e b in
  let r = if k > 0 then e.run.tags.(k - 1) else min_int in
  if Tags.is_empty e.extra then r
  else
    match Tags.find_last_opt (fun x -> x <= b) e.extra with
    | Some x when x > r -> x
    | _ -> r

let entry_min e =
  let r = if e.len > 0 then e.run.tags.(0) else max_int in
  if Tags.is_empty e.extra then r else min r (Tags.min_elt e.extra)

let rec search ws w lo hi =
  if lo >= hi then -1 - lo
  else
    let mid = (lo + hi) lsr 1 in
    let x = ws.(mid) in
    if x = w then mid
    else if x < w then search ws w (mid + 1) hi
    else search ws w lo mid

(* Index of writer [w] in [v.ws], or [-1 - i] when absent and [i] is
   where it would go. *)
let find v w = search v.ws w 0 (Array.length v.ws)

let count_le v ~max_tag =
  let b = min v.bound max_tag in
  if b = unbounded then v.total
  else Array.fold_left (fun k e -> k + entry_count_le e b) 0 v.es

let cardinal v = count_le v ~max_tag:v.bound

let is_empty v =
  v.total = 0
  || (v.bound <> unbounded
     && Array.for_all (fun e -> entry_min e > v.bound) v.es)

let restrict v ~max_tag =
  if max_tag >= v.bound then v else { v with bound = max_tag }

(* [e] cut to its members [<= b]: the run prefix needs no copy. *)
let entry_cut e b =
  let len = run_le e b in
  let extra =
    if Tags.is_empty e.extra || Tags.max_elt e.extra <= b then e.extra
    else
      let below, present, _ = Tags.split b e.extra in
      if present then Tags.add b below else below
  in
  if len = e.len && extra == e.extra then e
  else
    { e with len; extra; card = len + (e.card - e.len) - extra_above e.extra b }

(* The unbounded view with the same members: O(writers · log H), plus
   the stragglers cut off to recount. *)
let materialise v =
  if v.bound = unbounded then v
  else
    let kept =
      Array.to_list v.ws
      |> List.mapi (fun i w -> (w, entry_cut v.es.(i) v.bound))
      |> List.filter (fun (_, e) -> e.card > 0)
    in
    {
      ws = Array.of_list (List.map fst kept);
      es = Array.of_list (List.map snd kept);
      total = List.fold_left (fun k (_, e) -> k + e.card) 0 kept;
      bound = unbounded;
    }

let mem ts v =
  let tag = Timestamp.tag ts in
  tag <= v.bound
  &&
  let i = find v (Timestamp.writer ts) in
  i >= 0 && entry_mem v.es.(i) tag

let fresh_run tags len = { tags; used = Atomic.make len }

(* [e] plus a tag above its run's last cell: in place when this version
   owns the run's tail and there is room, else onto a copy with room to
   double. *)
let append e tag =
  let r = e.run and len = e.len in
  if len < Array.length r.tags && Atomic.compare_and_set r.used len (len + 1)
  then begin
    r.tags.(len) <- tag;
    { e with len = len + 1; card = e.card + 1 }
  end
  else begin
    let tags = Array.make (max 8 (2 * (len + 1))) 0 in
    Array.blit r.tags 0 tags 0 len;
    tags.(len) <- tag;
    { e with run = fresh_run tags (len + 1); len = len + 1; card = e.card + 1 }
  end

(* [e]'s members ascending, as an array and a length: the run itself
   when there are no stragglers. *)
let sorted e =
  if Tags.is_empty e.extra then (e.run.tags, e.len)
  else begin
    let out = Array.make e.card 0 and k = ref 0 and i = ref 0 in
    let a = e.run.tags in
    let emit x =
      while !i < e.len && a.(!i) < x do
        out.(!k) <- a.(!i);
        incr k;
        incr i
      done;
      out.(!k) <- x;
      incr k
    in
    Tags.iter emit e.extra;
    Array.blit a !i out !k (e.len - !i);
    (out, e.card)
  end

(* A straggler joins the set; once the stragglers outnumber an eighth of
   the run (plus a few), all members merge into one fresh run. A
   recovery push delivers a writer's older values after newer ones, so
   without this a rejoined node's views would hold most members as
   stragglers, and every whole-set walk over them would pay O(log H) per
   member. The merges grow the run geometrically: O(1) words per
   straggler, amortized. *)
let insert e tag =
  if e.len > 0 && tag < e.run.tags.(e.len - 1) then begin
    let e = { e with extra = Tags.add tag e.extra; card = e.card + 1 } in
    if e.card - e.len <= 8 + (e.len / 8) then e
    else
      let tags, len = sorted e in
      { run = fresh_run tags len; len; extra = Tags.empty; card = len }
  end
  else append e tag

let add ts v =
  let tag = Timestamp.tag ts in
  let v = if tag > v.bound then materialise v else v in
  let w = Timestamp.writer ts in
  let i = find v w in
  if i >= 0 then begin
    let e = v.es.(i) in
    if entry_mem e tag then v
    else
      let es = Array.copy v.es in
      es.(i) <- insert e tag;
      { v with es; total = v.total + 1 }
  end
  else
    let i = -1 - i and m = Array.length v.ws in
    let splice a x =
      Array.init (m + 1) (fun k ->
          if k < i then a.(k) else if k = i then x else a.(k - 1))
    in
    let e =
      { run = fresh_run (Array.make 8 tag) 1; len = 1; extra = Tags.empty;
        card = 1 }
    in
    { v with ws = splice v.ws w; es = splice v.es e; total = v.total + 1 }

(* ---- whole-set operations: O(H) merge walks ------------------------- *)

(* Every run cell of [a] below [la], from [i] on, is a member of the
   entry whose run is [b] below [lb] (from [j] on) and whose stragglers
   are [extra]: a merge walk, with a set lookup for a cell the other run
   lacks. *)
let rec run_within a la i b lb j extra =
  i = la
  ||
  if j < lb && b.(j) < a.(i) then run_within a la i b lb (j + 1) extra
  else if j < lb && b.(j) = a.(i) then run_within a la (i + 1) b lb (j + 1) extra
  else Tags.mem a.(i) extra && run_within a la (i + 1) b lb j extra

(* Both sides unbounded. The protocol's views mostly extend one
   another's runs, so a shared run settles it without a walk; otherwise
   the runs merge-walk, O(H), and the stragglers are looked up. Nothing
   is allocated. *)
let entry_subset ea eb =
  ea.card <= eb.card
  &&
  if
    ea.run == eb.run && ea.len <= eb.len
    && (Tags.is_empty ea.extra || ea.extra == eb.extra)
  then true
  else
    run_within ea.run.tags ea.len 0 eb.run.tags eb.len 0 eb.extra
    && Tags.for_all (entry_mem eb) ea.extra

let entry_equal ea eb =
  ea.card = eb.card && entry_subset ea eb

let entry_union ea eb =
  if entry_subset eb ea then ea
  else if entry_subset ea eb then eb
  else begin
    let a, la = sorted ea and b, lb = sorted eb in
    let out = Array.make (la + lb) 0 in
    let rec walk i j k =
      if i = la && j = lb then k
      else if j = lb || (i < la && a.(i) < b.(j)) then begin
        out.(k) <- a.(i);
        walk (i + 1) j (k + 1)
      end
      else if i = la || b.(j) < a.(i) then begin
        out.(k) <- b.(j);
        walk i (j + 1) (k + 1)
      end
      else begin
        out.(k) <- a.(i);
        walk (i + 1) (j + 1) (k + 1)
      end
    in
    let len = walk 0 0 0 in
    { run = fresh_run out len; len; extra = Tags.empty; card = len }
  end

(* A view usually absorbs one it already contains, or one that contains
   it (SSO merges every good view it hears of into the local one): such
   writers keep their entry, and only incomparable writers pay for a
   fresh run. *)
let union a b =
  let a = materialise a and b = materialise b in
  let rec merge i j acc =
    let na = Array.length a.ws and nb = Array.length b.ws in
    if i = na && j = nb then List.rev acc
    else if j = nb || (i < na && a.ws.(i) < b.ws.(j)) then
      merge (i + 1) j ((a.ws.(i), a.es.(i)) :: acc)
    else if i = na || b.ws.(j) < a.ws.(i) then
      merge i (j + 1) ((b.ws.(j), b.es.(j)) :: acc)
    else merge (i + 1) (j + 1) ((a.ws.(i), entry_union a.es.(i) b.es.(j)) :: acc)
  in
  let all = merge 0 0 [] in
  {
    ws = Array.of_list (List.map fst all);
    es = Array.of_list (List.map snd all);
    total = List.fold_left (fun k (_, e) -> k + e.card) 0 all;
    bound = unbounded;
  }

let subset a b =
  let a = materialise a and b = materialise b in
  a.total <= b.total
  &&
  let ok = ref true in
  Array.iteri
    (fun i w ->
      if !ok then
        let j = find b w in
        ok := j >= 0 && entry_subset a.es.(i) b.es.(j))
    a.ws;
  !ok

let equal a b =
  let a = materialise a and b = materialise b in
  a.total = b.total
  && Array.length a.ws = Array.length b.ws
  && Array.for_all2 Int.equal a.ws b.ws
  && Array.for_all2 entry_equal a.es b.es

let comparable a b = subset a b || subset b a

(* Ascending (tag, writer) order — the order of the timestamp set this
   representation replaced, which every iteration-driven schedule
   (state transfer, lattice-agreement decisions) depends on. Each
   writer's members are already tag-ordered; the writers merge. *)
let elements v =
  let acc = ref [] in
  Array.iteri
    (fun i w ->
      let e = v.es.(i) in
      let a, _ = sorted e in
      let mine = ref [] in
      for k = entry_count_le e v.bound - 1 downto 0 do
        mine := Timestamp.make ~tag:a.(k) ~writer:w :: !mine
      done;
      acc := List.merge Timestamp.compare !mine !acc)
    v.ws;
  !acc

let of_list l = List.fold_left (fun v ts -> add ts v) empty l
let fold f v acc = List.fold_left (fun acc ts -> f ts acc) acc (elements v)
let iter f v = List.iter f (elements v)

let max_tag v =
  Array.fold_left (fun m e -> max m (entry_max_le e v.bound)) 0 v.es

let latest_per_writer v ~n =
  let out = Array.make n None in
  Array.iteri
    (fun i w ->
      if w >= 0 && w < n then
        let tag = entry_max_le v.es.(i) v.bound in
        if tag > min_int then out.(w) <- Some (Timestamp.make ~tag ~writer:w))
    v.ws;
  out

let extract v ~n ~value_of =
  Array.map (Option.map value_of) (latest_per_writer v ~n)

let pp ppf v =
  Format.fprintf ppf "{%a}"
    (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf ",") Timestamp.pp)
    (elements v)
