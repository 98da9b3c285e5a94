(** Fingerprint-keyed LRU cache of warm {!Rtlb.Incremental} handles.

    Checkout/checkin discipline: {!checkout} {e removes} the handle, so
    at most one request ever touches a handle (the analysis engine mutates
    packed arrays in place); {!checkin} reinserts it most-recently-used
    and evicts the least-recently-used entries beyond [capacity]
    (bumping the [Evictions] counter).  A request that crashes mid-use
    never checks its handle back in — crash isolation by construction:
    the cache cannot hold a half-mutated handle. *)

type t

val create : ?tracer:Rtlb_obs.Tracer.t -> capacity:int -> unit -> t
(** [capacity] may be [0] (caching disabled: every checkin evicts).
    @raise Invalid_argument when [capacity < 0]. *)

val capacity : t -> int

val length : t -> int
(** Entries currently resident (checked-out handles are not counted). *)

val key : Rtlb.System.t -> Rtlb.App.t -> string
(** Cache key: {!Rtlb.Incremental.instance_fingerprint}. *)

val mem : t -> string -> bool
(** Is a handle for this key resident right now?  Advisory only — a
    concurrent {!checkout} can win the race; used for warm/cold
    priority classification, where a stale answer merely misfiles one
    request. *)

val checkout : t -> string -> Rtlb.Incremental.t option
(** Remove and return the handle for a key, if resident. *)

val checkin : t -> string -> Rtlb.Incremental.t -> unit
(** Insert (or reinsert) as most-recently-used; evicts beyond capacity.
    Never check in a handle whose base analysis is partial — budget-cut
    results must not serve later requests as if exhaustive. *)

val discard : t -> unit
(** Record a crash-isolation drop (a checked-out handle that will not
    be checked back in) in the [Evictions] counter. *)
