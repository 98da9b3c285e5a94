(** JSON-lines request/reply protocol for {!Server}.

    One request object per line; the reply (one line, compact JSON)
    echoes the request's ["id"] verbatim so clients may pipeline and
    match replies out of order.  Request shape:

    {v
    {"id": 7, "op": "analyze", "app": "task T1 compute=3 deadline=36 ...",
     "deadline_ms": 50}
    {"id": 8, "op": "whatif", "app": "...",
     "edits": [{"task": 0, "deadline": 40}]}
    {"id": 9, "op": "sensitivity", "app": "...", "factors": ["0.5", 1, "1.5"]}
    {"id": 10, "op": "check", "app": "..."}
    {"id": 11, "op": "ping"}
    {"id": 12, "op": "health"}
    v}

    Unknown fields, unknown ops and malformed payloads are rejected —
    never silently ignored (the same contract the [RTLB_CHAOS] parser
    keeps).  The one exception is the retired ["engine"] field:
    ["record"] and ["soa"] are still accepted, as a no-op, for one
    release; other strings and non-strings are rejected.  Every failure carries a stable [S3xx] code alongside the
    validation codes E100–E106; see docs/ROBUSTNESS.md for the table. *)

type op = Analyze | Whatif | Sensitivity | Check | Ping | Stats | Health

val op_name : op -> string
val op_of_name : string -> op option

(** Stable error codes: [S300] bad_frame (not JSON / frame too large),
    [S301] bad_request (bad shape or fields, invalid edit target),
    [S302] invalid_app (application text fails to parse or host),
    [S303] overloaded (admission queue full; reply carries
    [retry_after_ms]), [S304] deadline_expired (reserved — an expired
    [deadline_ms] budget returns a partial {e result}, not an error),
    [S305] internal (request crashed even after supervised retries),
    [S306] draining (daemon is shutting down), [S307] quota_exceeded
    (the tenant's token bucket is empty; reply carries
    [retry_after_ms]), [S308] circuit_open (the instance fingerprint's
    circuit breaker is open after repeated analysis failures; reply
    carries [retry_after_ms] — retry later or fix the application). *)
type code =
  | Bad_frame
  | Bad_request
  | Invalid_app
  | Overloaded
  | Deadline_expired
  | Internal
  | Draining
  | Quota_exceeded
  | Circuit_open

val code_id : code -> string
(** ["S300"] .. ["S308"]. *)

val code_name : code -> string

val code_of_id : string -> code option
(** Inverse of {!code_id}; [None] for codes this build does not know —
    forward-compatible clients must treat those as generic server
    errors, never crash on them ({!Client.decode_reply}). *)

val all_codes : code list
(** Every code, in [S300..] order. *)

exception Reject of code * string
(** Raised by request executors to fail with a specific code; never
    escapes {!Server} (it becomes the structured error reply). *)

(** Two-level admission priority.  Explicit ["priority"] wins; without
    it the server classifies: [check] requests and requests whose
    instance is already warm in the handle cache go [High], cold
    analyses go [Low] — so cheap warm-cache queries are never stuck
    behind a cold million-task analysis. *)
type priority = High | Low

val priority_name : priority -> string

type request = {
  id : Rtfmt.Json.t;  (** Echoed verbatim in the reply; [Null] when absent. *)
  op : op;
  app : string;  (** Application file text ({!Rtfmt.Appfile} format). *)
  deadline_ms : int option;
      (** Per-request budget, measured from admission; an expired budget
          yields a reply flagged [partial], never an empty one. *)
  tenant : string option;
      (** Token-bucket quota key; requests without it share the
          anonymous bucket (when a quota is configured at all). *)
  priority : priority option;
  edits : Rtlb.Incremental.edit list;  (** [whatif] only. *)
  factors : float list;  (** [sensitivity] only. *)
}

val request_of_json : Rtfmt.Json.t -> (request, string) result
(** Strict: unknown fields, wrong types, empty edit/factor lists and
    op/field mismatches are all [Error] with a message naming the
    offending field. *)

val error_reply :
  id:Rtfmt.Json.t -> code -> ?retry_after_ms:int -> string -> Rtfmt.Json.t

val ok_reply :
  id:Rtfmt.Json.t -> op:op -> ?degraded:bool -> Rtfmt.Json.t -> Rtfmt.Json.t
(** [degraded] (default false) marks replies whose supervised execution
    fell back to the retry/heal/degrade ladder yet still produced the
    exact answer. *)

val json_of_sample : Rtlb.Sensitivity.sample -> Rtfmt.Json.t
(** Factor as a decimal string ({!Rtfmt.Json} has no float). *)

val json_of_diag : Rtlb.Validate.diag -> Rtfmt.Json.t

val to_line : Rtfmt.Json.t -> string
(** Compact (single-line) rendering — the wire format. *)
