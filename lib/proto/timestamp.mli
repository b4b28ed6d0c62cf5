(** Timestamps [(tag, writer)] identifying UPDATE operations.

    Every value written by an UPDATE carries one (Definition 8). Since a
    node runs one operation at a time and tags increase, timestamps are
    globally unique, so a timestamp {e is} the identity of an UPDATE:
    views and bases are sets of timestamps. The order is lexicographic by
    tag then writer, which makes "all timestamps with tag <= r" a prefix
    — the [V^{<=r}] restriction of Algorithm 1. *)

type t = { tag : int; writer : int }

val make : tag:int -> writer:int -> t
val compare : t -> t -> int
val equal : t -> t -> bool
val tag : t -> int
val writer : t -> int

val pp : Format.formatter -> t -> unit
val to_string : t -> string
