(** Cache-line padding for long-lived hot blocks (OCaml 5.1 has no
    [Atomic.make_contended]). *)

val copy_as_padded : 'a -> 'a
(** A copy of the block in a fresh block two cache lines long, so no
    other hot value shares its lines; field 0 keeps its meaning.
    Immediates, no-scan blocks and blocks already that large come back
    unchanged. Pad an [Atomic.t] as [copy_as_padded (Atomic.make v)]. *)
