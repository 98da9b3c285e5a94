(** Structure-of-arrays analysis engine — the production engine behind
    {!Analysis.run}, {!Incremental} and {!Validate.check_windows}.

    [pack] compiles an instance once into contiguous [Bigarray] int
    arrays — per-task scalars, CSR successor/predecessor adjacency with
    message weights, and a per-resource member table — and the EST/LCT
    merge-search sweep, the Section-5 partition and the Theta prefix-sum
    interval scan all iterate over those arrays with no per-task
    allocation.  Results (windows, bounds, witnesses, partitions) are
    bit-identical to the record test oracles ({!Est_lct.compute},
    {!Lower_bound.for_resource}); the only divergence is that merge
    sets and {e traces} are left empty.

    The interval scan adds {e candidate-interval dominance pruning}: an
    O(n log n) precomputation bounds the kernel total for every left
    endpoint, and intervals whose ceiling density upper bound falls
    strictly below the block's incumbent are skipped.  Pruning is
    strict-inequality only and incumbents are per partition block, so
    the earliest winning witness of the exhaustive fold always survives
    — on the sequential and the {!Rtlb_par.Pool} path alike.  Set
    [RTLB_SOA_NO_PRUNE] in the environment (or pass [~prune:false]) to
    force the exhaustive scan. *)

type t
(** A packed instance.  The window arrays ([est]/[lct]) live inside and
    are computed / updated in place. *)

val pack : System.t -> App.t -> t
(** Compile an instance into packed arrays.  Window arrays start
    uninitialised; call {!compute_windows}.  Any number of node types is
    accepted: each task's host mask spans as many words as the
    catalogue needs. *)

val unpack : t -> App.t
(** Rebuild the application from the packed arrays alone (names, task
    scalars, demands from the resource table, edges from the CSR).
    [unpack (pack s app)] is structurally equal to [app]. *)

val compute_windows : t -> unit
(** Run the full EST/LCT merge-search sweep over the packed arrays, in
    place; values are bit-identical to [Est_lct.compute]. *)

val recompute_windows : t -> est_dirty:bool array -> lct_dirty:bool array -> unit
(** Re-run the sweep for the marked tasks only, in the same topological
    orders, against the current in-place values.  The caller must mark
    dirty sets closed under dependency: [est_dirty] must contain every
    descendant of a task whose release or compute time changed,
    [lct_dirty] every ancestor of a task whose deadline or compute time
    changed (the edited tasks included).  Under that contract the values
    equal a full {!compute_windows}. *)

val set_release : t -> int -> int -> unit
val set_deadline : t -> int -> int -> unit

val set_compute : t -> int -> int -> unit
(** In-place scalar edits (task id, new value).  No validation: callers
    are expected to hold values a [Task.t] already accepted. *)

val copy_base : t -> t
(** Snapshot the mutable arrays (scalars and windows) for later
    {!restore_from}.  Shares all immutable structure. *)

val restore_from : t -> base:t -> unit
(** Blit the snapshot's scalars and windows back, undoing in-place
    edits. *)

val windows : t -> Est_lct.t
(** The windows as the record type: values copied from the packed
    arrays; the merge-set and trace arrays are empty ([[||]]). *)

val bounds :
  ?prune:bool ->
  ?pool:Rtlb_par.Pool.t ->
  ?deadline_ns:int64 ->
  ?tracer:Rtlb_obs.Tracer.t ->
  t ->
  Lower_bound.bound list * Lower_bound.completeness
(** The per-resource lower bounds from the current windows, via the
    packed partition + pruned interval scan.  One work item per (resource,
    partition block, left endpoint), folded in that order with
    {!Lower_bound.merge_scans}, so the pool path is bit-identical to the
    sequential one.  [Candidate_intervals] counts the planned intervals;
    [Tasks_scanned] and [Theta_evals] count the kernels built and the
    evaluations executed, so pruning lowers them.  Under an expired
    [?deadline_ns] the unclaimed items fold as "no improvement" and the
    result is [`Partial] with the executed fraction.  [prune] defaults
    to [true] unless [RTLB_SOA_NO_PRUNE] is set. *)

val scan_from :
  t ->
  resource:string ->
  int list ->
  int array ->
  int ->
  int * Lower_bound.witness option
(** [scan_from t ~resource tasks pts a]: one left endpoint of one block
    against the current packed windows, unpruned: the densest interval
    starting at [pts.(a)].  The unit of the incremental engine's live
    block scans. *)

val default_prune : unit -> bool
(** [true] unless [RTLB_SOA_NO_PRUNE] is set in the environment. *)
