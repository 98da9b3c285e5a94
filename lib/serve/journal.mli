(** Warm-state journal for {!Server}: an append-only, checksummed,
    bounded log of the instances the daemon answered (full application
    text), replayed on (re)start to pre-warm the handle
    cache in the background.

    Durability discipline (the same as {!Rtfmt.Checkpoint}): every
    record carries a checksum recomputed on load; a record that fails
    to parse or verify — or a torn final line from an append cut short
    by a crash — is dropped together with everything after it, and the
    clean prefix is rewritten atomically.  A corrupt tail is never
    trusted, so the journal can only lose warmth, never correctness.

    The file is log-structured: appends are single [O_APPEND] writes,
    duplicates only move in the in-memory recency order, and the file
    is compacted (rewritten through {!Rtfmt.Atomic_io} with just the
    live entries) once it exceeds twice the capacity.  Thread-safe.

    Records written while the daemon still had an [engine] switch carry
    an ["engine"] tag of ["record"] or ["soa"] inside their checksum.
    They still verify and replay, under the same key as the untagged
    text, so both tags of one instance load as a single entry. *)

type t

val open_ : ?tracer:Rtlb_obs.Tracer.t -> capacity:int -> string -> t
(** Open (or create) the journal at a path, validating any existing
    content line by line and repairing in place if anything had to be
    dropped or trimmed.
    @raise Invalid_argument when [capacity < 1].
    @raise Unix.Unix_error when the path cannot be created at all. *)

val record : t -> app:string -> unit
(** Note that an instance just produced a successful analyze/what-if
    reply.  Duplicate of the current head: no-op.  Known digest: moved
    to the front of the recency order.  New digest: appended (possibly
    evicting the oldest from the live set).  Write errors are swallowed
    — journaling never fails a request. *)

val entries : t -> string list
(** Live application texts, most recently used first — the replay
    order. *)

val length : t -> int

val dropped_tail : t -> int
(** Lines dropped as corrupt/torn when the journal was opened. *)

val path : t -> string

val close : t -> unit
(** Close the append descriptor (entries stay readable). *)
