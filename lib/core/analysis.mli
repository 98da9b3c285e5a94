(** End-to-end lower-bound analysis: the paper's four steps in one call,
    on the packed {!Soa} engine (pack, EST/LCT sweep, partition and
    pruned Theta scan, cost).  The record modules {!Est_lct.compute} and
    {!Lower_bound.for_resource} compute the same values and serve as the
    test oracles. *)

type t = {
  app : App.t;
  system : System.t;
  windows : Est_lct.t;
      (** Step 1: EST/LCT values.  The merge-set and trace arrays are
          empty ([[||]]); only the {!Est_lct.compute} oracle records
          them. *)
  bounds : Lower_bound.bound list;
      (** Steps 2 and 3: per-resource partitions and bounds, in [RES]
          order. *)
  cost : Cost.outcome;  (** Step 4. *)
  completeness : Lower_bound.completeness;
      (** [`Complete] unless a [?deadline_ns] budget expired mid-scan, in
          which case the bounds (and the cost derived from them) are
          best-so-far: still valid lower bounds, possibly below the
          exhaustive values. *)
}

val run :
  ?pool:Rtlb_par.Pool.t ->
  ?deadline_ns:int64 ->
  ?tracer:Rtlb_obs.Tracer.t ->
  System.t -> App.t -> t
(** Runs all four steps.  With [?pool], the Step 3 bound scans are
    distributed across the pool's domains ({!Soa.bounds}); the result is
    bit-identical to the sequential run.  With [?deadline_ns]
    ({!Rtlb_par.Pool.now_ns} base) the Step 3 scans stop claiming work
    at the deadline and the result is tagged [`Partial] with its
    coverage fraction — bit-identical to the full result whenever the
    budget is not hit.

    With [?tracer] ({!Rtlb_obs.Tracer}) the run is instrumented: an
    ["analyze"] root span with ["pack"] / ["est_lct"] / ["lower_bounds"]
    / ["cost"] phase children, the scan-level spans and counters of
    {!Soa.bounds}, and per-worker chunk accounting from the pool.  The default is the zero-cost no-op tracer, and a traced run
    returns bit-identical results — tracing is observation only.
    @raise Invalid_argument when the system model cannot host some task
      (see {!System.validate_for}); run {!Validate.check} first to get
      diagnostics instead of an exception. *)

val windows : System.t -> App.t -> Est_lct.t
(** Step 1 alone: the production EST/LCT windows (values as in
    {!Est_lct.compute}; merge-set and trace arrays empty) for callers
    that need no bounds — priorities, demand profiles, validation.
    @raise Invalid_argument as {!run}. *)

val is_partial : t -> bool
val coverage : t -> float
(** Fraction of interval scans that ran ([1.0] when complete). *)

val bound_for : t -> string -> int
(** [LB_r] by resource name.  @raise Not_found for a resource outside
    [RES]. *)

val total_processors : t -> int
(** Sum of [LB_p] over the processor types that occur in the application —
    a quick headline number for benchmarks. *)

val is_infeasible : t -> bool
(** True when the analysis already proves no system of this model can meet
    the constraints (some task window is smaller than its computation
    time). *)

val pp : Format.formatter -> t -> unit
(** Multi-line report: windows, partitions, bounds and cost; partial
    results are flagged. *)
