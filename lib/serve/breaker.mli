(** Per-instance circuit breakers for {!Server}.

    One breaker per instance fingerprint (the same app-text digest
    the warm cache and the coalescer key on).  [threshold] consecutive
    analysis failures (S302/S305) trip the fingerprint's breaker open;
    while open, admission fast-fails matching requests with
    [S308 circuit_open] and a [retry_after_ms] hint instead of queueing
    them.  After [cooldown_ms], exactly one request is let through as a
    half-open probe: its success closes the breaker, its failure
    re-opens it for a fresh cooldown.

    Transitions land on the tracer as [breaker_opens] /
    [breaker_probes].  Thread-safe; the clock is injectable for
    fake-time tests (the same idiom as {!Quota}). *)

type t

val create :
  ?now:(unit -> int64) ->
  ?tracer:Rtlb_obs.Tracer.t ->
  threshold:int ->
  cooldown_ms:int ->
  unit ->
  t
(** [now] is a monotonic nanosecond clock (default
    {!Rtlb_obs.Clock.monotonic}).
    @raise Invalid_argument when [threshold < 1] or [cooldown_ms < 1]. *)

type verdict =
  | Proceed  (** Breaker closed — admit normally. *)
  | Probe
      (** Cooldown elapsed; this request is the single half-open probe.
          Admit it, and report its outcome with {!success}/{!failure}. *)
  | Fast_fail of { retry_after_ms : int }
      (** Breaker open (or a probe already in flight): reject with
          [S308] without queueing.  [retry_after_ms] is clamped to
          [\[1, 60_000\]]. *)

val check : t -> string -> verdict
(** Admission-side consultation for one fingerprint. *)

val success : t -> string -> unit
(** The fingerprint produced a successful reply: close its breaker and
    forget its failure streak. *)

val failure : t -> string -> unit
(** The fingerprint failed analysis (S302/S305): extend its streak,
    trip the breaker at [threshold], re-open on a failed probe. *)

val open_count : t -> int
(** Fingerprints currently open or half-open — [> 0] degrades the
    daemon's [health] report. *)
