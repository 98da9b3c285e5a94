(** A small line-oriented text format for applications and system models,
    used by the CLI and the examples.

    {v
    # comment / blank lines are ignored
    task T1 compute=3 deadline=36 proc=P1 res=r1          # release=0 default
    task T2 compute=6 release=2 deadline=36 proc=P1 res=r1,r2 preemptive
    edge T1 T2 4                                          # message size 4
    shared P1=5 P2=4 r1=3                                 # shared model costs
    node N1 proc=P1 res=r1 cost=10                        # or dedicated nodes
    node N2 proc=P1 cost=6
    v}

    A file may declare either one [shared] line or one or more [node]
    lines (not both).  Task ids are assigned in declaration order.
    Spaces, tabs and carriage returns all separate words (CRLF files read
    like LF ones); a [task] or [node] line may give each key it reads
    only once.  [docs/FILE_FORMAT.md] has the full rules.

    Reading is one scan of the text: words are index ranges, only the
    names a declaration keeps are copied, edge endpoints are resolved
    against the task names without a copy, and the graph is built once
    by {!Dag.of_arrays}. *)

type t = { app : Rtlb.App.t; system : Rtlb.System.t option }

exception Parse_error of int * string
(** Line number (1-based) and message. *)

val parse : string -> t
(** Parse the full text of an application file.  The declarations go
    through the same spec phase as {!check}, so [parse] rejects exactly
    the files [check] reports an error for (other than an EST/LCT-phase
    [E102], which the analysis reports as an infeasible window).
    @raise Parse_error on a syntax error (a repeated key included), with
      the message {!check} shows as [E100]; otherwise at the first error
      of the spec phase in source order, as [(line, "CODE subject:
      message")] — the line [rtlb check] prints, without its [FILE:LINE:]
      prefix, and line 0 when the diagnostic has no line.  A periodic
      file is also held to the magnitude contract once unrolled
      ([E107]), and an unrolling that fails is an [E100] message.  Never
      raises [Dag.Cycle] or [Invalid_argument]. *)

val parse_file : string -> t
(** @raise Parse_error and [Sys_error]. *)

(** {1 Diagnostic (spec) parsing}

    [parse] fails fast: the first problem aborts with an exception.  The
    spec path instead tokenizes the file into {!Rtlb.Validate.task_spec} /
    {!Rtlb.Validate.edge_spec} declarations — keeping source lines and
    tolerating semantic errors — so {!check} can report {e every} problem
    at once. *)

type spec
(** The scanned declarations of one file and its system model. *)

val parse_spec : string -> spec
(** Tokenize without constructing the application.
    @raise Parse_error only on syntax-level problems (unknown directive,
      malformed [key=value], repeated keys, non-integer fields, missing
      required keys). *)

val parse_spec_file : string -> spec
(** @raise Parse_error and [Sys_error]. *)

val check : spec -> Rtlb.Validate.diag list
(** {!Rtlb.Validate.check_resolved} over the declarations, their names
    resolved by int; when that finds no errors, the application is built
    from the same declarations (the text is not read again) and
    {!Rtlb.Validate.check_windows} appends the EST/LCT-phase diagnostics
    (with source lines; unrolled periodic jobs [t@k] report the line of
    the declaring task).  An unrolling that fails becomes an [E100]
    diagnostic — this function never raises on any input [parse_spec]
    accepts. *)

val e100 : int -> string -> Rtlb.Validate.diag
(** [e100 line message]: the [E100] diagnostic of a [Parse_error (line,
    message)] (or of a file that cannot be read); line 0 is none. *)

val to_string : ?system:Rtlb.System.t -> Rtlb.App.t -> string
(** Render an application (and optionally a system) in the same format;
    [parse (to_string app)] reconstructs the application. *)
