type t = { tag : int; writer : int }

let make ~tag ~writer = { tag; writer }

let compare a b =
  match Int.compare a.tag b.tag with
  | 0 -> Int.compare a.writer b.writer
  | c -> c

let equal a b = a.tag = b.tag && a.writer = b.writer
let tag t = t.tag
let writer t = t.writer

let pp ppf t = Format.fprintf ppf "<%d,%d>" t.tag t.writer
let to_string t = Format.asprintf "%a" pp t
