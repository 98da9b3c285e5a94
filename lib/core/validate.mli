(** Exhaustive validation of applications and system models, producing
    structured diagnostics instead of the first [Invalid_argument] /
    [Failure] / [Dag.Cycle] a constructor happens to raise.

    The paper's analysis rests on well-formedness assumptions it never
    states as checks: the precedence relation is acyclic (Section 2.1),
    every task window can hold its computation (Section 3, the Theorem 1
    precondition [E_i + C_i <= L_i]), and every referenced processor or
    resource exists in the system model.  The feasibility-test literature
    (Bonifaci et al.; Kermia) treats this as a first-class analysis step;
    this module is that step.  Unlike the smart constructors — which
    fail fast and therefore report only the first problem, with no
    location — validation visits {e everything} and returns a list.

    Diagnostic codes are stable (golden tests and downstream tooling key
    on them; see [docs/DIAGNOSTICS.md]):

    - [E100] file does not parse / application cannot be built
    - [E101] precedence cycle (including self-loops)
    - [E102] infeasible window: task-level ([rel + C > D]) or after the
      EST/LCT propagation ([E + C > L])
    - [E103] dangling reference: edge endpoint not declared, or a
      processor/resource the system model does not provide
    - [E104] invalid quantity: negative compute/release/deadline/message,
      non-positive period, offset outside [\[0, period)], zero resource
      units, empty name, a processor type among its own resources
    - [E105] duplicate task name or duplicate edge
    - [E106] mixed periodic and one-shot tasks
    - [E107] magnitudes outside the integer contract ({!magnitude_limit})
    - [W201] zero-compute task
    - [W202] resource in the system model used by no task
    - [W203] zero-slack task after EST/LCT (no scheduling freedom)
    - [W204] empty application (no tasks) *)

type severity = Error | Warning

type diag = {
  d_code : string;  (** Stable code, ["E101"] ... ["W203"]. *)
  d_severity : severity;
  d_subject : string;  (** Offending task/edge/resource, or ["application"]. *)
  d_message : string;
  d_line : int option;  (** 1-based source line when validated from a file. *)
}

(** Pre-construction view of a task: what an application file declares,
    before [Task.make]/[App.make] get a chance to reject it.  Produced by
    [Rtfmt.Appfile]'s scanner (with source lines) or {!spec_of_app}. *)
type task_spec = {
  ts_name : string;
  ts_compute : int;
  ts_release : int;  (** Offset when [ts_period] is set. *)
  ts_deadline : int;  (** Relative to the period when [ts_period] is set. *)
  ts_proc : string;
  ts_demands : (string * int) list;  (** Units per resource. *)
  ts_preemptive : bool;
  ts_period : int option;
  ts_line : int option;
}

type edge_spec = {
  es_src : string;
  es_dst : string;
  es_message : int;
  es_line : int option;
}

val spec_of_app : App.t -> task_spec list * edge_spec list
(** A constructed application re-expressed as specs (no source lines) —
    the bridge that lets {!check_spec} run over [App.t] values and lets
    tests corrupt valid applications into invalid specs. *)

(** {2 Magnitude contract}

    Every engine computes in native [int], so the inputs must keep each
    intermediate below [max_int].  One number bounds them all:

    {[ magnitude = W * H * (1 + K) <= magnitude_limit = max_int / 16 ]}

    - [H], the horizon: the largest release or deadline, plus the sum of
      all compute times and message sizes.
    - [W], the weight: one unit per task (its processor) plus all its
      resource units.  It bounds every per-resource weight sum.
    - [K]: the sum of the model's costs ([CostR] or [CostN]); without a
      model, the size of RES (the uniform model prices each at 1).

    Derivation.  Every EST lies in [\[0, H\]] and every LCT in
    [\[-H, H\]]: a window moves from its boundary by at most one
    path's compute and message sum.  The merge search's message bounds
    stay inside that range, and its sequential [ect]/[lst] folds add at
    most the compute sum, so stay within [2H].  In the Theta scan, a
    left endpoint is an EST or LCT, a member's kernel start lies within
    [\[-2H, 3H\]] and its end within [4H], so each weighted event term
    is at most [4 w H] and every cumulative slope, intercept and
    evaluated demand is at most [8 W H]; the pruning bound [theta_max]
    is at most [5 W H], and [ceil_div] adds less than [2H].  All of them
    are below [16 W H <= max_int].  A task overlaps an interval by at
    most the interval's length, so [LB_r <= W] and the shared cost
    [sum CostR * LB_r] is at most [K W].  The dedicated cost runs its
    covering program in overflow-checked rationals ({!Rat}), which raise
    rather than wrap.

    The check saturates instead of wrapping, so it is itself safe on any
    input.  It runs in {!check_resolved} (one-shot declarations) and in
    {!check_windows} (constructed applications, periodic ones after
    unrolling); [Rtfmt.Appfile.parse] runs the first, and the second's
    magnitude check on unrolled periodic files.  A violation is [E107]. *)

val magnitude_limit : int
(** [max_int / 16] ([2^58 - 1] with 63-bit ints). *)

val check_magnitude : system:System.t option -> App.t -> diag option
(** [E107] when the application breaks the contract above under the
    given model ([None]: the uniform model over RES). *)

(** Declarations keyed by int: what {!check_resolved} judges.  Task [i]
    is [r_tasks.(i)]; edge [e] joins [r_src.(e)] to [r_dst.(e)]. *)
type resolved = {
  r_tasks : task_spec array;
  r_first : int array;
      (** [r_first.(i)]: the first task declared under [r_tasks.(i)]'s
          name — [i] itself unless task [i] redeclares it. *)
  r_src : int array;
      (** Edge endpoints: a declared name is the index of its first
          declaration, an undeclared one the id [n + k] (with [n] tasks),
          named by [r_undeclared.(k)]. *)
  r_dst : int array;
  r_message : int array;
  r_line : int -> int option;
      (** The 1-based source line of an edge, when known.  Asked only
          for edges a diagnostic names or that lie on the reported
          cycle, in edge order within each. *)
  r_undeclared : string array;
}

val check_resolved : system:System.t option -> resolved -> diag list
(** Every spec-level check ([E101]-[E107], [W201], [W202], [W204]),
    exhaustively: one diagnostic per offence, sorted by source line
    (unlocated ones last).  Tasks and edges are keyed by int, never by
    a hashed name; the cycle comes from {!Dag.find_cycle}.  An empty
    result (or warnings only) means [Task.make] + [Dag.of_arrays] +
    [App.of_graph] (or [Periodic.ptask] + [unroll]) will accept the
    input — only unrolling can still fail, on an overflowing
    hyperperiod. *)

val check_spec :
  system:System.t option -> tasks:task_spec list -> edges:edge_spec list -> diag list
(** {!check_resolved} on declarations whose edges name their endpoints:
    the names are resolved first. *)

val check_windows :
  ?line_of:(string -> int option) -> system:System.t -> App.t -> diag list
(** The post-construction phase: checks the magnitude contract
    ([E107]; the propagation is skipped when it fails), then runs the
    Section 4 EST/LCT propagation ({!Analysis.windows}) and reports
    [E102] for every task whose window cannot hold its computation under
    any assignment, and [W203] for zero-slack tasks.
    [line_of] maps a task name back to a source line.  Assumes the system
    can host every task (run {!check_spec} first); if it cannot, returns
    the [E103]s instead of raising. *)

val check : ?system:System.t -> App.t -> diag list
(** {!check_spec} on {!spec_of_app}, then — when that found no errors —
    {!check_windows}.  [system] defaults to a uniform shared model over
    the application's own resource set (which makes the system-reference
    checks vacuous but keeps the window checks meaningful). *)

val errors : diag list -> diag list
val has_errors : diag list -> bool

val to_string : ?file:string -> diag -> string
(** One stable line per diagnostic, compiler style:
    ["FILE:LINE: CODE subject: message"] (the [FILE:LINE:] prefix
    shrinks to what is known). *)

val pp_diag : Format.formatter -> diag -> unit
