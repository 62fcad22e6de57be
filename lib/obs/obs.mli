(** Spans and trace sinks — the tracing half of the observability layer
    ({!Metrics} is the aggregation half, {!Clock} the time source).

    A {e span} is a named, timed region of execution. Spans nest: the
    runtime keeps a stack, records each span's parent and depth, and
    charges child time to the parent so a span's {e self time} (time not
    covered by instrumented children) is computed for free. Closed spans
    are pushed to the current {e sink}.

    Tracing is opt-in: with the default {!null_sink}, {!span} reduces to
    one mutable-flag read plus the call to the wrapped function, so
    instrumentation can stay in hot paths permanently.

    Domain-safety: span ids are process-wide (atomic), the span stack is
    {e per domain} (spans opened on a worker domain nest among themselves
    and root at depth 0), and sink delivery is serialized by a mutex, so
    a JSONL sink receives whole lines even under the parallel engine.
    Installing/clearing a sink is a main-domain operation: do it outside
    [Step_engine.Engine.run]. *)

type attr = string * Json.t

type record = {
  r_id : int;
  r_parent : int option;
  r_depth : int;
  r_name : string;
  r_start : float;  (** Seconds, {!Clock.now} timebase. *)
  r_dur : float;  (** Seconds. Events have [r_dur = 0.]. *)
  r_self : float;  (** [r_dur] minus time spent in child spans. *)
  r_attrs : attr list;
  r_kind : [ `Span | `Event ];
}

type sink

val null_sink : sink

val callback_sink : (record -> unit) -> sink
(** Deliver every closed span / event to a callback (tests, custom
    aggregation). *)

val jsonl_sink : out_channel -> sink
(** One JSON object per line per record; see docs/OBSERVABILITY.md for the
    schema. The channel is not closed by the sink. *)

val tee_sink : sink -> sink -> sink
(** Deliver every record to both sinks (in order). Used to profile live
    ({!Profile.collector}) while also writing a JSONL trace. *)

val set_sink : sink -> unit
(** Install a sink. Anything but {!null_sink} enables tracing. *)

val clear_sink : unit -> unit
(** Back to {!null_sink}; tracing disabled. *)

val tracing : unit -> bool

val span : ?attrs:attr list -> string -> (unit -> 'a) -> 'a
(** [span name f] runs [f] inside a span. Exceptions propagate; the span
    is closed (and recorded) either way. When tracing is disabled this is
    just [f ()]. *)

val add_attr : string -> Json.t -> unit
(** Attach an attribute to the innermost open span (no-op when tracing is
    disabled or no span is open). *)

val event : ?attrs:attr list -> string -> unit
(** A point-in-time record under the current span. *)

val with_sink : sink -> (unit -> 'a) -> 'a
(** [with_sink s f]: install [s], run [f], then restore the previous sink
    — also on exceptions. Callers of the engine use this to scope a
    per-run trace sink. *)

val with_trace_file : string -> (unit -> 'a) -> 'a
(** [with_trace_file path f]: open [path], install a {!jsonl_sink}, run
    [f], then restore the previous sink and close the file — also on
    exceptions. *)
