(** The bound-query daemon: a long-lived, multi-tenant server answering
    [analyze] / [whatif] / [sensitivity] / [check] requests over
    JSON-lines ({!Protocol}), built for fault tolerance:

    - {e admission control}: a bounded request queue; a full queue
      rejects with [S303 overloaded] and a [retry_after_ms] hint rather
      than building unbounded backlog.
    - {e per-tenant quotas}: an optional token bucket ({!Quota}) keyed
      by the request's ["tenant"] field; an empty bucket rejects with
      [S307 quota_exceeded] and a [retry_after_ms] hint — one noisy
      tenant cannot starve the rest.
    - {e priority admission}: two queues.  Explicit ["priority"] wins;
      otherwise [check] requests and requests whose instance digest has
      been warm before go high, cold analyses go low — a 40-task
      warm-cache what-if is never stuck behind a million-task cold
      build.
    - {e what-if coalescing}: compatible queued [whatif] requests (same
      application text) are batched onto one worker pass —
      they share one parse and run back-to-back against the same warm
      handle, while keeping the solo execution path per job, so replies
      are byte-identical to sequential one-shot execution.
    - {e warm handles}: per-instance {!Rtlb.Incremental} handles in a
      fingerprint-keyed LRU ({!Cache}), so repeat tenants skip the cold
      analysis.
    - {e isolation}: every request failure — malformed frame, invalid
      application, crash inside the analysis — becomes a structured
      error reply on its own connection; worker threads never unwind
      and cached handles are never poisoned.
    - {e supervision}: request bodies run under
      {!Rtlb_par.Supervisor.supervise}; transient crashes retry with
      backoff, a killed pool domain heals through the
      full → reduced → sequential ladder, and anything less than a
      clean run is flagged ["degraded": true] (the answer itself stays
      bit-identical to the one-shot CLI).
    - {e anytime budgets}: a request [deadline_ms] bounds its analysis
      from admission; an expired budget returns a valid reply flagged
      [partial], never nothing.  Partial results are never cached.
    - {e bounded buffering}: request frames are capped at
      [max_frame_bytes] {e as they are buffered} ({!Line_reader}) — a
      client streaming an endless line without a newline is refused
      with [S300] and dropped before it can balloon the daemon's heap.
    - {e graceful drain}: {!serve_stdio} / {!serve} finish in-flight
      requests, refuse new frames with [S306], and return (the CLI then
      exits 0).

    Counters ([requests_admitted], [requests_rejected],
    [quota_rejections], [coalesced_queries], [evictions],
    [degraded_replies]) land on the configured tracer; the [stats] op
    snapshots them for clients. *)

type config = {
  cache_capacity : int;  (** Warm handles kept (default 8). *)
  queue_capacity : int;
      (** Admission bound over {e both} priority queues (default 64). *)
  workers : int;
      (** Worker threads (default 2).  [0] starts none — requests queue
          until {!run_pending} runs them on the calling thread
          (deterministic tests). *)
  jobs : int;
      (** Pool domains per worker (default 2); [<= 1] runs requests on
          the worker thread itself — no heal/degrade ladder. *)
  policy : Rtlb_par.Supervisor.policy;
  tracer : Rtlb_obs.Tracer.t;
  quota : Quota.t option;  (** [None] (default): no rate limiting. *)
  coalesce : bool;  (** What-if coalescing (default [true]). *)
  max_frame_bytes : int;  (** Frame/buffer cap (default 8 MiB). *)
  journal : Journal.t option;
      (** Warm-state journal: successful analyze/what-if instances are
          logged, and {!create} pre-warms the cache from it in the
          background (low priority).  [None] (default): no journal —
          a restart serves cold. *)
  breaker : Breaker.t option;
      (** Per-fingerprint circuit breakers: repeated S302/S305 failures
          fast-fail with [S308 circuit_open] at admission.  [None]
          (default): never fast-fail. *)
  health_file : string option;
      (** Atomically rewritten [ready]/[draining] on transitions
          ({!Health}); [None] (default): no file. *)
  generation : int;
      (** Watchdog restart generation (0 for the first child or an
          unsupervised daemon); reported as the [server_restarts]
          counter so [stats] shows restarts across process boundaries. *)
  die : unit -> unit;
      (** How a [killserver@I] chaos directive terminates the process
          (default [Unix._exit 70]); tests substitute a marker. *)
}

val default_config : config

val max_frame_bytes : int
(** Default frame cap: frames (and buffered newline-free bytes) beyond
    this many bytes are rejected with [S300]. *)

type t

val create : ?config:config -> unit -> t
(** Starts the worker threads immediately.  With a journal configured,
    also queues one low-priority internal analyze per journaled
    instance (newest first, capped at the cache capacity) — background
    rehydration that client traffic naturally outranks. *)

val cache : t -> Cache.t

val stats_snapshot : t -> Rtfmt.Json.t
(** The [stats] op's payload: every tracer counter plus [uptime_ms],
    [cache_entries], [journal_entries], [breaker_open], queue depths,
    quota tenant count and the draining flag. *)

val health_snapshot : t -> Rtfmt.Json.t
(** The [health] op's payload: [status] ([ready]/[draining]/[degraded]
    — degraded when any breaker is open), [uptime_ms], [generation],
    [journal_entries], [breaker_open]. *)

val submit : t -> string -> (string -> unit) -> unit
(** [submit t line reply] processes one request frame.  Parse errors,
    protocol errors, quota rejections, drain refusals and overload
    rejections are answered synchronously; [ping] and [stats] are
    answered inline; anything else is enqueued and [reply] is called
    later (possibly from a worker thread) with the single-line reply.
    [reply] must be thread-safe; {!serve_stdio} and {!serve} wrap each
    sink in {!locked_writer}. *)

val run_pending : t -> unit
(** Drain both queues on the calling thread (batching/coalescing
    exactly as a worker would), returning when they are empty.  For
    deterministic tests with [workers = 0]; safe but pointless
    alongside live workers. *)

val retry_hint_ms : workers:int -> depth:int -> int
(** The [retry_after_ms] hint sent with [S303]: scales with the standing
    queue depth per worker and is clamped to [\[1, 30_000\]] — never
    zero or negative, even for a drained queue. *)

val drain : t -> unit
(** Stop admitting ([S306] from now on); queued requests still run. *)

val shutdown : t -> unit
(** {!drain}, then join the worker threads — returns once every
    admitted request has been answered. *)

val locked_writer : Unix.file_descr -> string -> unit
(** A thread-safe frame writer: appends ["\n"] and writes the whole
    frame under a per-writer mutex, looping on short writes and waiting
    out [EAGAIN]/[EWOULDBLOCK] on non-blocking or slow descriptors — a
    frame is never truncated or torn across another thread's frame.  A
    write error (peer gone) drops the frame silently. *)

val serve_stdio : t -> stop:(unit -> bool) -> unit
(** Serve request lines from stdin, replies to stdout, until EOF or
    [stop ()] turns true (polled at least every 200 ms); then drains
    and returns.  Used by [rtlb serve --stdio] and the tests. *)

(** A listening endpoint: a Unix-domain socket path, or a TCP
    host/port ([Tcp (host, 0)] binds an ephemeral port — retrieve it
    via [on_ready]). *)
type endpoint = Unix_path of string | Tcp of string * int

val serve :
  t ->
  ?on_ready:(Unix.sockaddr list -> unit) ->
  endpoints:endpoint list ->
  stop:(unit -> bool) ->
  unit ->
  unit
(** Listen on every endpoint simultaneously (one acceptor thread each,
    one thread per connection), until [stop ()] turns true; then
    refuses new frames, finishes in-flight requests (replies flush to
    their still-open connections), closes the listeners, removes Unix
    socket files and returns.  [on_ready] fires once, after every
    endpoint is bound and listening, with their actual addresses (in
    [endpoints] order — ephemeral TCP ports resolved).
    @raise Invalid_argument on an empty [endpoints] list or an
    unresolvable TCP host. *)

val bind_endpoints : endpoint list -> (Unix.file_descr * string option) list
(** Bind and listen on every endpoint, returning the listening sockets
    paired with the Unix socket path to unlink at cleanup (if any).
    Used by the watchdog ({!Watchdog}) to hold the endpoints itself
    and hand them to each forked child.
    @raise Invalid_argument on an empty list or unresolvable host. *)

val serve_bound :
  t ->
  ?on_ready:(Unix.sockaddr list -> unit) ->
  ?cleanup:bool ->
  sockets:(Unix.file_descr * string option) list ->
  stop:(unit -> bool) ->
  unit ->
  unit
(** {!serve} over sockets already bound with {!bind_endpoints}.
    [cleanup] (default [true]) closes the sockets and unlinks the paths
    on return; a watchdog child passes [false] — the parent owns the
    descriptors, which is exactly why a child crash never drops the
    endpoint. *)

val serve_socket : t -> path:string -> stop:(unit -> bool) -> unit
(** [serve t ~endpoints:[Unix_path path]] — the single-socket case. *)
