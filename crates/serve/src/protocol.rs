//! The explorer serving protocol: typed requests/responses and their
//! line-delimited JSON wire form.
//!
//! One connection carries any number of requests; each request is one
//! `\n`-terminated JSON object and produces exactly one
//! `\n`-terminated JSON object in reply, in order. Both the daemon
//! ([`crate::server`]) and the client ([`crate::client`]) use this
//! module, so encode/decode cannot drift apart.
//!
//! Requests (`"type"` selects the operation):
//!
//! ```text
//! {"type":"eval","point":{...}}          evaluate one design point
//! {"type":"sweep","spec":{...}}          evaluate a SweepSpec grid
//! {"type":"tune","space":{...},"mix":{...},"budget":{...},...}
//!                                        budget-constrained search
//! {"type":"tune_frontier",...,"sweep":{"axis":"max_system_mw","values":[...]}}
//!                                        budget-axis sweep, streamed
//! {"type":"frontier","dims":2|3}         Pareto frontier of the whole cache
//! {"type":"frontier","dims":3,"axes":"sqnr"}
//!                                        accuracy variant: fps × mW × SQNR
//! {"type":"frontier","dims":3,"stream":true}
//!                                        one entry per line + a done line
//! {"type":"stats"}                       cache/server counters
//! {"type":"metrics"}                     full observability snapshot
//! {"type":"metrics_history"}             windowed rates/quantiles (1s/10s/60s)
//! {"type":"watch","samples":5}           one sample line per interval, streamed
//! {"type":"shutdown"}                    drain, flush, exit
//! ```
//!
//! Most requests produce exactly one reply line. The **streaming**
//! requests (`tune_frontier`, `frontier` with `"stream":true`, and
//! `watch`) instead produce N result lines followed by one terminal
//! `done` line, each flushed as it is produced — see
//! `docs/PROTOCOL.md` for the framing rule.
//!
//! # Example
//!
//! The typed codec round-trips every shape; this is the entry point
//! both sides share:
//!
//! ```
//! use chain_nn_serve::protocol::{Request, Response};
//!
//! let request = Request::decode(r#"{"type":"eval","point":{"pes":288}}"#).unwrap();
//! let Request::Eval(point) = &request else { panic!("not an eval") };
//! assert_eq!(point.pes, 288);
//! assert_eq!(Request::decode(&request.encode()).unwrap(), request);
//!
//! let reply = Response::decode(r#"{"ok":false,"error":"busy","active":16,"capacity":16}"#);
//! assert!(matches!(reply.unwrap(), Response::Busy { active: 16, capacity: 16 }));
//! ```
//!
//! The complete wire reference — every request/response shape, the
//! `sqnr` fields, `busy` backpressure and the `tune` admission-slot
//! semantics — lives in `docs/PROTOCOL.md`.
//!
//! A `tune` request's fields are all optional: `space` defaults to the
//! default exploration grid, `mix` (an object of `net: weight` pairs,
//! or a `"net:w,net:w"` string) to single-AlexNet, `budget`
//! (`max_system_mw` / `max_gates_k` / `min_fps` / `min_sqnr_db`) to
//! unconstrained, `objective` (a metric name, an array of names for
//! lexicographic order, or `{"scalarized":{name: weight}}`) to
//! fps-then-power-then-gates, `strategy` to `"halving"`, `seed` to 0.
//!
//! A `point` object may omit any field, which then defaults to the
//! paper's AlexNet configuration; a `spec` object's axes default to the
//! single paper point per axis, and each axis accepts either a scalar
//! or an array. Responses always carry `"ok"` (`true`/`false`); `ok:
//! false` responses are either `"busy"` (backpressure — retry later) or
//! `"error"` (the request is at fault).

use std::fmt;

use chain_nn_dse::pareto::Objectives;
use chain_nn_dse::{
    DesignPoint, MixEntry, MixResult, PointOutcome, PointResult, SweepPart, SweepSpec, WorkloadMix,
};
use chain_nn_obs::trace::{SpanRecord, TraceContext};
use chain_nn_obs::{HistogramSummary, MetricEntry, MetricValue, Snapshot};
use chain_nn_tuner::{
    Budget, BudgetAxis, BudgetSweep, FrontierStep, FrontierTuneRequest, Metric, Objective,
    StrategyKind, TuneRequest, Tuned,
};

use crate::json::{mistyped, Doc, JsonWriter, Node, Wire};

/// Malformed wire data (unparseable JSON, missing/mistyped fields).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtocolError(pub String);

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "protocol error: {}", self.0)
    }
}

impl std::error::Error for ProtocolError {}

fn bad(msg: impl Into<String>) -> ProtocolError {
    ProtocolError(msg.into())
}

/// One client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Evaluate one design point.
    Eval(DesignPoint),
    /// Evaluate an explicit list of design points in one round trip,
    /// returning outcomes aligned with the list. This is the cluster
    /// coordinator's scatter-gather primitive: a tune round's expanded
    /// points are hash-partitioned, each shard evaluates its slice as
    /// one `eval_batch`, and the replies reassemble in order.
    EvalBatch(Vec<DesignPoint>),
    /// Evaluate a whole sweep grid.
    Sweep(SweepSpec),
    /// Budget-constrained search of a grid for a workload mix (boxed:
    /// a tune request carries a full spec plus mix/budget/objective).
    Tune(Box<TuneRequest>),
    /// Budget-axis sweep returning the whole constrained frontier — a
    /// **streaming** request: one [`Response::TuneFrontierStep`] line
    /// per budget step as it completes, then one
    /// [`Response::TuneFrontierDone`] line.
    TuneFrontier(Box<FrontierTuneRequest>),
    /// The Pareto frontier over everything the daemon has cached.
    Frontier {
        /// 2 (fps × power) or 3 (fps × power × area).
        dims: u8,
        /// With `dims == 3`: swap the area axis for measured SQNR
        /// (fps × power × accuracy). Wire form: `"axes":"sqnr"`.
        sqnr: bool,
        /// Stream the frontier as one [`Response::FrontierStreamEntry`]
        /// line per entry plus a [`Response::FrontierStreamDone`] line,
        /// instead of one aggregate reply. Wire form: `"stream":true`.
        stream: bool,
    },
    /// Cache and server counters.
    Stats,
    /// Full observability snapshot: every counter/gauge/histogram of
    /// the daemon's registry (request latencies, scheduler batches,
    /// DSE executor, tuner rounds), with p50/p95/p99 per histogram.
    Metrics,
    /// Windowed view of the daemon's sampled metric history: per-type
    /// request rates and latency quantiles over the last 1s/10s/60s,
    /// derived from counter and histogram deltas.
    MetricsHistory,
    /// Subscribe to the sampler: a **streaming** request producing one
    /// [`Response::WatchSample`] line per sampler tick, then one
    /// [`Response::WatchDone`] line after `samples` ticks (or on
    /// daemon shutdown).
    Watch {
        /// Sample lines to stream before the done line; `0` streams
        /// until the client disconnects or the daemon shuts down.
        samples: u64,
    },
    /// The span tree of one trace: every span the daemon's ring still
    /// holds for the given trace id (see the `"trace"` request field).
    TraceQuery {
        /// The trace id to look up.
        id: u64,
    },
    /// Flight-recorder dump: write the span ring's recent spans plus a
    /// current metrics snapshot to `<trace-log>.flight.json` for
    /// post-mortem forensics (errors when the daemon has no trace log).
    Dump,
    /// Drain in-flight work, flush the cache file, stop the daemon.
    Shutdown,
}

/// What one sweep did, without shipping every outcome back: sizes,
/// cache traffic and the Pareto-optimal indices into the grid's
/// deterministic point order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SweepSummary {
    /// Points in the grid.
    pub points: usize,
    /// Feasible points.
    pub feasible: usize,
    /// Cache hits this sweep.
    pub cache_hits: u64,
    /// Fresh evaluations this sweep.
    pub cache_misses: u64,
    /// Server-side wall time, milliseconds.
    pub wall_ms: f64,
    /// Indices of 3D-Pareto-optimal points (grid order, ascending).
    pub frontier_3d: Vec<usize>,
    /// Indices of fps × power × SQNR non-dominated points (grid order,
    /// ascending) — the accuracy variant of the frontier.
    pub frontier_sqnr: Vec<usize>,
    /// Frontier candidates with their objective vectors, only present
    /// on partitioned sub-sweep replies (`spec.part` set): the union of
    /// this shard's `frontier_3d`/`frontier_sqnr` points as
    /// `(global grid index, objectives)` pairs, ascending. The
    /// coordinator concatenates shard candidate lists, sorts by index
    /// and re-filters to reproduce the single-daemon frontier exactly
    /// ([`chain_nn_dse::pareto::merge_candidates`]). Empty — and absent
    /// on the wire — for ordinary sweeps.
    pub candidates: Vec<(usize, Objectives)>,
    /// Set by the coordinator when one or more shards were lost
    /// mid-sweep and the summary covers only the surviving partitions.
    /// Absent on the wire when false, so non-degraded replies are
    /// byte-identical to single-daemon ones.
    pub degraded: bool,
}

/// One frontier entry: the point and its model results.
#[derive(Debug, Clone, PartialEq)]
pub struct FrontierEntry {
    /// The design point.
    pub point: DesignPoint,
    /// Its evaluation.
    pub result: PointResult,
}

/// What one tune did: the winner (if any configuration was feasible)
/// plus the evaluation-count accounting proving search ≪ sweep.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TuneSummary {
    /// The chosen configuration, its aggregated workload metrics and
    /// whether it satisfies the budget; `None` when every visited
    /// configuration was model-infeasible.
    pub best: Option<Tuned>,
    /// Distinct configurations the search evaluated.
    pub evaluations: u64,
    /// Underlying `(configuration, network)` lookups answered from the
    /// shared cache.
    pub cache_hits: u64,
    /// Underlying lookups that ran the model stack.
    pub cache_misses: u64,
    /// Evaluator round trips.
    pub rounds: usize,
    /// Configurations an exhaustive sweep of the space would evaluate.
    pub exhaustive_points: usize,
    /// Set by the coordinator when shard loss forced rerouting during
    /// the tune (results are still exact — any shard computes the same
    /// pure models — but cache locality was lost). Absent on the wire
    /// when false.
    pub degraded: bool,
}

/// One budget step of a streaming frontier tune
/// ([`Response::TuneFrontierStep`]): the tuner's step result framed
/// with its position in the sweep. Wrapping [`FrontierStep`] (rather
/// than mirroring its fields) keeps the wire and the tuner from
/// drifting: a field added to the step type shows up here by
/// construction.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FrontierStepSummary {
    /// Zero-based step index, in sweep order.
    pub step: usize,
    /// Total steps the sweep will run.
    pub steps: usize,
    /// The step itself: budget value, winner (never worse than a
    /// standalone tune at this budget), evaluation accounting.
    pub result: FrontierStep,
}

/// Terminal line of a streaming frontier tune
/// ([`Response::TuneFrontierDone`]): the frontier across the steps and
/// the sweep-wide accounting.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FrontierDoneSummary {
    /// Steps the sweep ran (= step lines that preceded this line).
    pub steps: usize,
    /// Step indices on the tuned frontier (deduplicated, Pareto-kept).
    pub frontier: Vec<usize>,
    /// Distinct configurations evaluated across the whole sweep.
    pub evaluations: u64,
    /// What standalone tunes at every step would have evaluated.
    pub standalone_evaluations: u64,
    /// Sweep-wide cache hits.
    pub cache_hits: u64,
    /// Sweep-wide fresh model-stack lookups.
    pub cache_misses: u64,
    /// Configurations in the full grid.
    pub exhaustive_points: usize,
}

/// The transport envelope of one decoded request line: the optional
/// propagated `"trace"` context plus the optional pipelining id
/// `"req"`. When a client sends `"req"`, the daemon echoes it on
/// *every* reply line of that request (streamed lines included), which
/// is what lets a pipelining client discard stale lines of an
/// abandoned stream instead of misattributing them to the next
/// request.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RequestMeta {
    /// Propagated trace context, if present.
    pub trace: Option<TraceContext>,
    /// Pipelining correlation id, if present.
    pub req_id: Option<u64>,
}

/// Health of one cluster shard as seen by the coordinator, reported in
/// coordinator [`Request::Stats`] replies.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardStat {
    /// The shard's `host:port` address.
    pub addr: String,
    /// Requests the coordinator sent this shard.
    pub requests: u64,
    /// Transport/busy failures talking to this shard.
    pub errors: u64,
    /// Whether the shard is currently marked degraded (unreachable or
    /// persistently busy at last contact).
    pub degraded: bool,
}

/// Daemon-side counters reported by [`Request::Stats`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ServerStats {
    /// Distinct points in the shared cache.
    pub cached_points: usize,
    /// Cache hits since daemon start (including loaded-file hits).
    pub hits: u64,
    /// Cache misses since daemon start.
    pub misses: u64,
    /// `hits / (hits + misses)`, 0 before any lookup.
    pub hit_rate: f64,
    /// Requests served (all types, including rejected ones).
    pub requests: u64,
    /// Jobs admitted and not yet finished.
    pub active_jobs: usize,
    /// Admission bound ([`Response::Busy`] beyond it).
    pub queue_capacity: usize,
    /// Sessions currently open.
    pub open_connections: usize,
    /// Connection bound (`busy` at the accept loop beyond it).
    pub max_connections: usize,
    /// Worker threads evaluating points.
    pub threads: usize,
    /// Entries replayed from the cache file at startup.
    pub loaded_from_disk: usize,
    /// Whether a cache file is attached.
    pub persistent: bool,
    /// Seconds since the daemon started (0 from daemons predating the
    /// observability layer).
    pub uptime_s: f64,
    /// Requests currently being handled (parsing, queued or
    /// executing) across all connections.
    pub inflight_requests: usize,
    /// Remaining **points** across admitted unfinished jobs right now
    /// (0 from daemons predating the temporal-observability layer).
    /// Work-assisting daemons report the actual point backlog; older
    /// daemons reported whole queued jobs (`docs/PROTOCOL.md` records
    /// the semantics change).
    pub queue_depth: usize,
    /// Latency SLOs the daemon was configured with (0 when none, and
    /// from pre-SLO daemons).
    pub slos: usize,
    /// Sampler ticks on which at least one SLO was out of compliance,
    /// since daemon start (0 from pre-SLO daemons).
    pub slo_breach_ticks: u64,
    /// Per-shard health, coordinator daemons only (empty — and absent
    /// on the wire — for ordinary daemons).
    pub shards: Vec<ShardStat>,
}

/// Windowed per-request-type statistics, shared by
/// [`Response::MetricsHistory`] windows and [`Response::WatchSample`]
/// lines: the request count and latency quantiles observed for one
/// `type` label over one window.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct HistoryTypeWindow {
    /// The request type label (`eval`, `sweep`, ...).
    pub kind: String,
    /// Requests of this type completed inside the window.
    pub requests: u64,
    /// Median request latency over the window, microseconds.
    pub p50_us: f64,
    /// 99th-percentile request latency over the window, microseconds.
    pub p99_us: f64,
}

/// One aggregation window of a [`Response::MetricsHistory`] reply:
/// deltas over the trailing `window_s` seconds of sampler history.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct HistoryWindow {
    /// Nominal window length, seconds (1, 10 or 60).
    pub window_s: f64,
    /// Seconds of history actually covered (less than `window_s` on a
    /// young daemon).
    pub duration_s: f64,
    /// Sampler ticks merged into this window.
    pub samples: usize,
    /// Requests per second across all types over the window.
    pub req_per_sec: f64,
    /// Design points evaluated per second over the window.
    pub points_per_sec: f64,
    /// Per-request-type counts and latency quantiles.
    pub types: Vec<HistoryTypeWindow>,
}

/// The [`Request::MetricsHistory`] reply: the sampler's windowed view.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsHistory {
    /// Sampler tick interval, seconds.
    pub interval_s: f64,
    /// Samples taken since daemon start (monotone; the ring only
    /// retains the most recent `capacity`).
    pub samples: u64,
    /// Ring-buffer capacity in samples.
    pub capacity: usize,
    /// Trailing windows, shortest first (1s/10s/60s).
    pub windows: Vec<HistoryWindow>,
}

/// One sample line of a streaming [`Request::Watch`]: the live
/// dashboard row the `chain-nn top` command renders.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WatchSample {
    /// Sampler sequence number (monotone since daemon start).
    pub seq: u64,
    /// Seconds the sampled interval actually covered.
    pub interval_s: f64,
    /// Seconds the trailing rate/quantile window covered (~1s).
    pub window_s: f64,
    /// Requests per second over the window.
    pub req_per_sec: f64,
    /// Design points evaluated per second over the window.
    pub points_per_sec: f64,
    /// Requests in flight at sample time.
    pub inflight: u64,
    /// Jobs admitted and not yet finished at sample time.
    pub active_jobs: u64,
    /// Remaining points across admitted unfinished jobs at sample
    /// time (whole queued jobs from pre-engine daemons).
    pub queue_depth: u64,
    /// Since-boot cache hit rate at sample time.
    pub cache_hit_rate: f64,
    /// Requests served since daemon start (cumulative, so a watcher
    /// can reconcile the stream against its own tally).
    pub requests_total: u64,
    /// 99th-percentile scheduler queue wait over the window, µs.
    pub queue_wait_p99_us: f64,
    /// 99th-percentile batch execute time over the window, µs.
    pub execute_p99_us: f64,
    /// Per-request-type counts and latency quantiles over the window.
    pub types: Vec<HistoryTypeWindow>,
}

/// One daemon reply.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Echo of the evaluated point plus its outcome.
    Eval {
        /// The point as the daemon understood it (defaults filled in).
        point: DesignPoint,
        /// Feasible result or infeasibility reason.
        outcome: PointOutcome,
    },
    /// Outcomes of an [`Request::EvalBatch`], aligned with the request's
    /// point list.
    EvalBatch {
        /// One outcome per requested point, in request order.
        outcomes: Vec<PointOutcome>,
        /// Cache hits among the batch's lookups.
        cache_hits: u64,
        /// Fresh evaluations the batch ran.
        cache_misses: u64,
    },
    /// Sweep summary.
    Sweep(SweepSummary),
    /// Tune summary.
    Tune(TuneSummary),
    /// One budget step of a streaming frontier tune (N of these lines,
    /// flushed as each step completes, then one
    /// [`Response::TuneFrontierDone`]).
    TuneFrontierStep(FrontierStepSummary),
    /// Terminal line of a streaming frontier tune.
    TuneFrontierDone(FrontierDoneSummary),
    /// One entry line of a streaming whole-cache frontier (N of these,
    /// then one [`Response::FrontierStreamDone`]).
    FrontierStreamEntry {
        /// The non-dominated `(point, result)` pair.
        entry: FrontierEntry,
    },
    /// Terminal line of a streaming whole-cache frontier.
    FrontierStreamDone {
        /// Objective dimensionality the frontier was taken in.
        dims: u8,
        /// Entry lines that preceded this line.
        entries: usize,
        /// Coordinator only: the frontier covers surviving shards only.
        degraded: bool,
    },
    /// Frontier of the whole cache, canonically ordered.
    Frontier {
        /// Objective dimensionality the frontier was taken in.
        dims: u8,
        /// Non-dominated `(point, result)` pairs.
        entries: Vec<FrontierEntry>,
        /// Coordinator only: the frontier covers surviving shards only.
        /// Absent on the wire when false.
        degraded: bool,
    },
    /// Counter snapshot.
    Stats(ServerStats),
    /// Observability snapshot: the daemon's whole metric registry.
    Metrics {
        /// Every metric instance, sorted by `(name, labels)`.
        snapshot: Snapshot,
    },
    /// Windowed sampler history ([`Request::MetricsHistory`] reply).
    MetricsHistory(Box<MetricsHistory>),
    /// One sample line of a streaming watch (N of these, flushed as
    /// the sampler ticks, then one [`Response::WatchDone`]).
    WatchSample(Box<WatchSample>),
    /// Terminal line of a streaming watch.
    WatchDone {
        /// Sample lines that preceded this line.
        samples: u64,
    },
    /// The span tree for one trace id ([`Request::TraceQuery`] reply).
    Trace {
        /// The queried trace id.
        id: u64,
        /// Spans the ring has dropped (overwritten) since daemon
        /// start — non-zero means the tree below may be incomplete.
        dropped: u64,
        /// The trace's spans, ordered by start time; parent ids encode
        /// the tree.
        spans: Vec<SpanRecord>,
    },
    /// Flight-recorder dump written ([`Request::Dump`] reply).
    Dump {
        /// Where the flight file landed.
        path: String,
        /// Spans written into it.
        spans: usize,
        /// Ring drop counter at dump time.
        dropped: u64,
    },
    /// Shutdown acknowledged; the daemon exits after this reply.
    Shutdown,
    /// Backpressure: the admission queue is full, retry later.
    Busy {
        /// Jobs currently admitted.
        active: usize,
        /// The admission bound.
        capacity: usize,
    },
    /// The request was understood to be at fault.
    Error {
        /// Human-readable reason.
        message: String,
    },
}

// ---------------------------------------------------------------- codec

/// A wire shape whose members continue an enclosing object: a record is
/// written flat into a reply line, or nested as one member's object.
pub(crate) trait Record: Sized {
    /// Writes the members into an open object.
    fn put_members(&self, w: &mut JsonWriter<'_>);

    /// Reads the members from the object `v`.
    fn take_members(v: Node<'_>) -> Result<Self, ProtocolError>;
}

impl<T: Record> Record for Box<T> {
    fn put_members(&self, w: &mut JsonWriter<'_>) {
        (**self).put_members(w);
    }

    fn take_members(v: Node<'_>) -> Result<Self, ProtocolError> {
        T::take_members(v).map(Box::new)
    }
}

/// `v`, when it is an object.
fn object<'d>(v: Node<'d>, key: &str) -> Result<Node<'d>, ProtocolError> {
    if v.is_obj() {
        Ok(v)
    } else {
        Err(mistyped(key, "an object"))
    }
}

fn missing(key: &str) -> ProtocolError {
    bad(format!("missing '{key}'"))
}

/// The value of member `key`, which must be present.
fn present<'d>(v: Node<'d>, key: &str) -> Result<Node<'d>, ProtocolError> {
    v.get(key).ok_or_else(|| missing(key))
}

/// The string member `key`, which must be present; borrowed, as the
/// heads of lines and metric kinds are only matched on.
fn tag<'d>(v: Node<'d>, key: &str) -> Result<&'d str, ProtocolError> {
    present(v, key)?
        .as_str()
        .ok_or_else(|| mistyped(key, "a string"))
}

fn is_default<T: Default + PartialEq>(value: &T) -> bool {
    *value == T::default()
}

/// The default member codec: the field's own [`Wire`] form.
struct Plain;

impl Plain {
    fn put<T: Wire>(w: &mut JsonWriter<'_>, key: &str, value: &T) {
        w.field(key, value);
    }

    fn take<T: Wire>(v: Node<'_>, key: &str) -> Result<T, ProtocolError> {
        T::take(v, key)
    }
}

/// Writes (`put`) or reads (`take`) the members of one object, in wire
/// order, at the places the tokens in brackets prefix. Each entry is:
///
/// - `"key" => place`: a stored member. Absent on decode, the place
///   keeps its initial value; mistyped, it is an error naming the key.
/// - `"key" => place required`: absent is an error too.
/// - `"key" => place if_set`: left off the wire while the place holds
///   its `Default`.
/// - `"key" => place ... = value`: absent on decode, the place is set to
///   `value`, which is only built then (a variant's bindings start
///   unset).
/// - `"key": Codec => place ...`: written and read by `Codec::put` and
///   `Codec::take` instead of the field's own [`Wire`] form.
/// - `"key" => method()`: derived from the value; encode only.
/// - `"key" = "text"`: a constant; encode only.
/// - `..place`: a [`Record`] whose members continue this object.
///
/// `take` walks the object's members once, keeping each stored key's
/// last occurrence in a slot, then reads every slot: it collects one
/// match arm and one read per entry and emits them at the end.
macro_rules! members {
    (put $w:ident [$($at:tt)*]) => {};
    (put $w:ident [$($at:tt)*] ..$f:tt $(, $($rest:tt)*)?) => {
        Record::put_members(&$($at)*$f, $w);
        members!(put $w [$($at)*] $($($rest)*)?);
    };
    (put $w:ident [$($at:tt)*] $key:literal = $text:literal $(, $($rest:tt)*)?) => {
        $w.field($key, $text);
        members!(put $w [$($at)*] $($($rest)*)?);
    };
    (put $w:ident [$($at:tt)*] $key:literal => $f:ident() $(, $($rest:tt)*)?) => {
        $w.field($key, &$($at)*$f());
        members!(put $w [$($at)*] $($($rest)*)?);
    };
    (put $w:ident [$($at:tt)*]
        $key:literal $(: $codec:ident)? => $f:tt $($mark:ident)? $(= $default:expr)? $(, $($rest:tt)*)?
    ) => {
        members!(@put $w $key [$($codec)? Plain] $($at)*$f $(, $mark)?);
        members!(put $w [$($at)*] $($($rest)*)?);
    };
    // The codec is the first name in brackets: the entry's, else `Plain`.
    (@put $w:ident $key:literal [$codec:ident $($plain:ident)?] $p:expr, if_set) => {
        if !is_default(&$p) {
            $codec::put($w, $key, &$p);
        }
    };
    (@put $w:ident $key:literal [$codec:ident $($plain:ident)?] $p:expr $(, required)?) => {
        $codec::put($w, $key, &$p);
    };
    (take $v:ident [$($at:tt)*] $($body:tt)*) => {
        members!(@take $v [$($at)*] slots [] [] [] $($body)*);
    };
    (@take $v:ident $at:tt $slots:ident $n:tt [] [$($reads:tt)*]) => {
        $($reads)*
    };
    (@take $v:ident $at:tt $slots:ident [$($n:tt)*] [$($arms:tt)*] [$($reads:tt)*]) => {
        let mut $slots: [Option<Node<'_>>; 0 $($n)*] = [None; 0 $($n)*];
        for (key, node) in $v.fields() {
            // A later duplicate replaces an earlier one.
            $slots[match key {
                $($arms)*
                _ => continue,
            }] = Some(node);
        }
        $($reads)*
    };
    (@take $v:ident [$($at:tt)*] $slots:ident $n:tt $arms:tt [$($reads:tt)*]
        ..$f:tt $(, $($rest:tt)*)?
    ) => {
        members!(@take $v [$($at)*] $slots $n $arms [
            $($reads)*
            $($at)*$f = Record::take_members($v)?;
        ] $($($rest)*)?);
    };
    (@take $v:ident $at:tt $slots:ident $n:tt $arms:tt $reads:tt
        $key:literal $(= $text:literal)? $(=> $f:ident())? $(, $($rest:tt)*)?
    ) => {
        members!(@take $v $at $slots $n $arms $reads $($($rest)*)?);
    };
    (@take $v:ident [$($at:tt)*] $slots:ident [$($n:tt)*] [$($arms:tt)*] [$($reads:tt)*]
        $key:literal $(: $codec:ident)? => $f:tt $($mark:ident)? $(= $default:expr)? $(, $($rest:tt)*)?
    ) => {
        members!(@take $v [$($at)*] $slots [$($n)* +1] [$($arms)* $key => 0 $($n)*,] [
            $($reads)*
            members!(@read ($slots[0 $($n)*]) $key [$($codec)? Plain] $($at)*$f $(, $mark)? $(; $default)?);
        ] $($($rest)*)?);
    };
    (@read $node:tt $key:literal [$codec:ident $($plain:ident)?] $p:expr $(, $mark:ident)?; $default:expr) => {
        $p = match $node {
            Some(node) => $codec::take(node, $key)?,
            None => $default,
        };
    };
    (@read $node:tt $key:literal [$codec:ident $($plain:ident)?] $p:expr, required) => {
        $p = $codec::take($node.ok_or_else(|| missing($key))?, $key)?;
    };
    (@read $node:tt $key:literal [$codec:ident $($plain:ident)?] $p:expr $(, if_set)?) => {
        if let Some(node) = $node {
            $p = $codec::take(node, $key)?;
        }
    };
}

/// Declares the wire table of one record: its type, the value a decode
/// starts from, optionally a check the decoded value must pass, then
/// its members (see `members!`). Expands to its [`Record`] impl and to
/// a [`Wire`] impl that nests it as one object.
macro_rules! wire_record {
    (@object $ty:ty) => {
        impl Wire for $ty {
            fn put(&self, w: &mut JsonWriter<'_>) {
                w.obj(|w| self.put_members(w));
            }

            fn take(v: Node<'_>, key: &str) -> Result<Self, ProtocolError> {
                object(v, key).and_then(Self::take_members)
            }
        }
    };
    ($ty:ty = $base:expr $(, check $check:expr)?; $($body:tt)*) => {
        impl Record for $ty {
            fn put_members(&self, w: &mut JsonWriter<'_>) {
                members!(put w [self.] $($body)*);
            }

            // A flattened member first assigns right after the base.
            #[allow(clippy::field_reassign_with_default)]
            fn take_members(v: Node<'_>) -> Result<Self, ProtocolError> {
                let mut x: $ty = $base;
                members!(take v [x.] $($body)*);
                $(($check)(&x)?;)?
                Ok(x)
            }
        }

        wire_record!(@object $ty);
    };
}

/// Declares the variant table of a message enum. Per variant: the head
/// of its line (`type "tag"` on a success line; `error "tag"`, or
/// `error binding` for the line's own message, on a failure line), an
/// optional `if "flag"` for a variant told apart from others of its tag
/// by `"flag":true` (written first), the variant with its bindings
/// (unset until a member reads them, unless given `= value`), its
/// members in brackets (see `members!`), and an optional `then` block
/// that checks or completes the decoded bindings. A flagged variant comes before
/// the others of its tag. Expands to `put_body` and `from_head`, plus
/// `TYPES` and `kind` (`types`) or `head` (`head`).
macro_rules! wire_enum {
    ($enum:ident, $what:literal, $extra:ident; $($table:tt)*) => {
        wire_enum!(@$extra $enum; $($table)*);
        wire_enum!(@codec $enum, $what; $($table)*);
    };
    (@types $enum:ident; $(
        type $tag:literal => $var:ident $(($($tb:tt)*))? $({$($sb:tt)*})? [$($body:tt)*]
        $(then $then:block)?
    ),* $(,)?) => {
        impl $enum {
            /// Every request `type` on the wire, in declaration order.
            pub const TYPES: [&'static str; [$($tag),*].len()] = [$($tag),*];

            /// This request's wire `type` (one of [`Request::TYPES`]),
            /// which is also its metric label.
            pub fn kind(&self) -> &'static str {
                match self {
                    $(Self::$var { .. } => $tag,)*
                }
            }
        }
    };
    (@head $enum:ident; $(
        $hk:ident $tag:tt $(if $flag:literal)? => $var:ident
        $(($tb:ident $(= $tdef:expr)?))? $({$($sb:ident $(= $sdef:expr)?),* $(,)?})?
        [$($body:tt)*] $(then $then:block)?
    ),* $(,)?) => {
        impl $enum {
            /// The wire `type` of a success line, or the `error` of a
            /// failure line.
            #[allow(unused_variables)]
            fn head(&self) -> Result<&'static str, &str> {
                match self {
                    $(Self::$var $(($tb))? $({$($sb),*})? => wire_enum!(@head_of $hk $tag),)*
                }
            }
        }
    };
    (@head_of type $tag:literal) => { Ok($tag) };
    (@head_of error $tag:literal) => { Err($tag) };
    (@head_of error $message:ident) => { Err($message.as_str()) };
    (@pat type $tag:literal) => { Ok($tag) };
    (@pat error $tag:literal) => { Err($tag) };
    (@pat error $message:ident) => { Err($message) };
    (@codec $enum:ident, $what:literal; $(
        $hk:ident $tag:tt $(if $flag:literal)? => $var:ident
        $(($tb:ident $(= $tdef:expr)?))? $({$($sb:ident $(= $sdef:expr)?),* $(,)?})?
        [$($body:tt)*] $(then $then:block)?
    ),* $(,)?) => {
        impl $enum {
            #[allow(unused_variables)]
            fn put_body(&self, w: &mut JsonWriter<'_>) {
                match self {
                    $(Self::$var $(($tb))? $({$($sb),*})? => {
                        $(w.field($flag, &true);)?
                        members!(put w [*] $($body)*);
                    })*
                }
            }

            /// Reads the body of a line whose head is `head` (see
            /// `head`): the first variant of that head whose flag, if
            /// any, the line sets.
            #[allow(unused_assignments, unused_mut, unused_variables)]
            fn from_head(v: Node<'_>, head: Result<&str, &str>) -> Result<Self, ProtocolError> {
                // Flags that tell variants apart read leniently.
                let flag = |key: &str| v.get(key).and_then(Node::as_bool) == Some(true);
                Ok(match head {
                    $(wire_enum!(@pat $hk $tag) if true $(&& flag($flag))? => {
                        $(let mut $tb $(= $tdef)?;)?
                        $($(let mut $sb $(= $sdef)?;)*)?
                        members!(take v [] $($body)*);
                        $($then)?
                        Self::$var $(($tb))? $({$($sb),*})?
                    })*
                    #[allow(unreachable_patterns)]
                    Ok(other) | Err(other) => {
                        return Err(bad(format!(concat!("unknown ", $what, " type '{}'"), other)))
                    }
                })
            }
        }
    };
}

// ---------------------------------------------------------------- records

wire_record! {
    DesignPoint = DesignPoint::paper_alexnet();
    "net" => net,
    "pes" => pes,
    "freq_mhz" => freq_mhz,
    "kmem_depth" => kmem_depth,
    "imem_kb" => imem_kb,
    "omem_kb" => omem_kb,
    "word_bits" => word_bits,
    "batch" => batch,
}

wire_record! {
    PointResult = PointResult::default();
    "fps" => fps required,
    "achieved_gops" => achieved_gops required,
    "peak_gops" => peak_gops required,
    "chip_mw" => chip_mw required,
    "dram_mw" => dram_mw required,
    "system_mw" => system_mw(),
    "gops_per_watt" => gops_per_watt(),
    "gates_k" => gates_k required,
    "sram_kb" => sram_kb required,
    "sqnr_db" => sqnr_db required,
}

wire_record! {
    MixResult = MixResult::default();
    "fps" => fps required,
    "chip_mw" => chip_mw required,
    "dram_mw" => dram_mw required,
    "system_mw" => system_mw(),
    "peak_gops" => peak_gops required,
    "gops_per_watt" => gops_per_watt(),
    "gates_k" => gates_k required,
    "sram_kb" => sram_kb required,
    "sqnr_db" => sqnr_db required,
}

/// An outcome: `"status":"ok"` and the result's members, or
/// `"status":"infeasible"` and the reason.
impl Record for PointOutcome {
    fn put_members(&self, w: &mut JsonWriter<'_>) {
        match self {
            PointOutcome::Feasible(r) => {
                w.field("status", "ok");
                r.put_members(w);
            }
            PointOutcome::Infeasible(reason) => {
                w.field("status", "infeasible").field("reason", reason);
            }
        }
    }

    fn take_members(v: Node<'_>) -> Result<Self, ProtocolError> {
        match v.get("status").and_then(Node::as_str) {
            Some("ok") => PointResult::take_members(v).map(PointOutcome::Feasible),
            Some("infeasible") => Ok(PointOutcome::Infeasible(
                v.get("reason")
                    .and_then(Node::as_str)
                    .unwrap_or("unspecified")
                    .to_owned(),
            )),
            _ => Err(bad("missing or unknown 'status'")),
        }
    }
}

wire_record!(@object PointOutcome);

wire_record! {
    FrontierEntry = FrontierEntry {
        point: DesignPoint::paper_alexnet(),
        result: PointResult::default(),
    };
    "point" => point required,
    "status" = "ok",
    ..result,
}

wire_record! {
    Objectives = Objectives::default();
    "fps" => fps,
    "system_mw" => system_mw,
    "gates_k" => gates_k,
    "sqnr_db" => sqnr_db,
}

// A sub-sweep's frontier candidate: its global grid index `i` and its
// objectives.
wire_record! {
    (usize, Objectives) = Default::default();
    "i" => 0 required,
    ..1,
}

wire_record! {
    SweepSummary = SweepSummary::default();
    "points" => points,
    "feasible" => feasible,
    "cache_hits" => cache_hits,
    "cache_misses" => cache_misses,
    "wall_ms" => wall_ms,
    "frontier_3d" => frontier_3d required,
    "frontier_sqnr" => frontier_sqnr required,
    "candidates" => candidates if_set,
    "degraded" => degraded if_set,
}

wire_record! {
    Tuned = Tuned {
        point: DesignPoint::paper_alexnet(),
        result: MixResult::default(),
        admitted: false,
    };
    "admitted" => admitted,
    "point" => point required,
    ..result,
}

/// A search's winner, when there is one: `"found"` says which.
impl Record for Option<Tuned> {
    fn put_members(&self, w: &mut JsonWriter<'_>) {
        w.field("found", &self.is_some());
        if let Some(tuned) = self {
            tuned.put_members(w);
        }
    }

    fn take_members(v: Node<'_>) -> Result<Self, ProtocolError> {
        if bool::take(present(v, "found")?, "found")? {
            Tuned::take_members(v).map(Some)
        } else {
            Ok(None)
        }
    }
}

wire_record! {
    TuneSummary = TuneSummary::default();
    ..best,
    "evaluations" => evaluations,
    "cache_hits" => cache_hits,
    "cache_misses" => cache_misses,
    "rounds" => rounds,
    "exhaustive_points" => exhaustive_points,
    "degraded" => degraded if_set,
}

wire_record! {
    FrontierStep = FrontierStep::default();
    // Required, not defaulted: a NaN budget would poison every
    // PartialEq on the step downstream.
    "budget_value" => budget_value required,
    ..best,
    "evaluations" => evaluations,
    "fresh_evaluations" => fresh_evaluations,
    "cache_hits" => cache_hits,
    "cache_misses" => cache_misses,
    "rounds" => rounds,
}

wire_record! {
    FrontierStepSummary = FrontierStepSummary::default();
    "step" => step,
    "steps" => steps,
    ..result,
}

wire_record! {
    FrontierDoneSummary = FrontierDoneSummary::default();
    "steps" => steps,
    "frontier" => frontier required,
    "evaluations" => evaluations,
    "standalone_evaluations" => standalone_evaluations,
    "cache_hits" => cache_hits,
    "cache_misses" => cache_misses,
    "exhaustive_points" => exhaustive_points,
}

wire_record! {
    ShardStat = ShardStat {
        addr: String::new(),
        requests: 0,
        errors: 0,
        degraded: false,
    };
    "addr" => addr required,
    "requests" => requests,
    "errors" => errors,
    "degraded" => degraded if_set,
}

wire_record! {
    ServerStats = ServerStats::default();
    "cached_points" => cached_points,
    "hits" => hits,
    "misses" => misses,
    "hit_rate" => hit_rate,
    "requests" => requests,
    "active_jobs" => active_jobs,
    "queue_capacity" => queue_capacity,
    "open_connections" => open_connections,
    "max_connections" => max_connections,
    "threads" => threads,
    "loaded_from_disk" => loaded_from_disk,
    "persistent" => persistent,
    "uptime_s" => uptime_s,
    "inflight_requests" => inflight_requests,
    "queue_depth" => queue_depth,
    "slos" => slos,
    "slo_breach_ticks" => slo_breach_ticks,
    "shards" => shards if_set,
}

wire_record! {
    HistoryTypeWindow = HistoryTypeWindow::default();
    "kind" => kind required,
    "requests" => requests,
    "p50_us" => p50_us,
    "p99_us" => p99_us,
}

wire_record! {
    HistoryWindow = HistoryWindow::default();
    "window_s" => window_s,
    "duration_s" => duration_s,
    "samples" => samples,
    "req_per_sec" => req_per_sec,
    "points_per_sec" => points_per_sec,
    "types" => types required,
}

wire_record! {
    MetricsHistory = MetricsHistory::default();
    "interval_s" => interval_s,
    "samples" => samples,
    "capacity" => capacity,
    "windows" => windows required,
}

wire_record! {
    WatchSample = WatchSample::default();
    "seq" => seq required,
    "interval_s" => interval_s,
    "window_s" => window_s,
    "req_per_sec" => req_per_sec,
    "points_per_sec" => points_per_sec,
    "inflight" => inflight,
    "active_jobs" => active_jobs,
    "queue_depth" => queue_depth,
    "cache_hit_rate" => cache_hit_rate,
    "requests_total" => requests_total,
    "queue_wait_p99_us" => queue_wait_p99_us,
    "execute_p99_us" => execute_p99_us,
    "types" => types required,
}

// One span. Its trace id is not a member: a `trace` reply states it
// once, and a flight file writes it before the span's members.
wire_record! {
    SpanRecord = SpanRecord {
        trace_id: 0,
        span_id: 0,
        parent_id: 0,
        name: String::new(),
        start_us: 0,
        dur_us: 0,
        worker: None,
        points: 0,
    };
    "span" => span_id required,
    "parent" => parent_id,
    "name" => name required,
    "start_us" => start_us,
    "dur_us" => dur_us,
    "worker" => worker,
    "points" => points if_set,
}

wire_record! {
    Snapshot = Snapshot::default();
    "uptime_s" => uptime_s,
    "metrics" => entries required,
}

wire_record! {
    MetricEntry = MetricEntry {
        name: String::new(),
        labels: Vec::new(),
        value: MetricValue::Counter(0),
    };
    "name" => name required,
    "labels": Labels => labels if_set,
    ..value,
}

wire_record! {
    HistogramSummary = HistogramSummary::default();
    "count" => count,
    "sum" => sum,
    "p50" => p50,
    "p95" => p95,
    "p99" => p99,
    "max" => max,
}

/// A metric value: its `"kind"`, then the kind's members.
impl Record for MetricValue {
    fn put_members(&self, w: &mut JsonWriter<'_>) {
        match self {
            MetricValue::Counter(v) => {
                w.field("kind", "counter").field("value", v);
            }
            MetricValue::Gauge(v) => {
                w.field("kind", "gauge").field("value", v);
            }
            MetricValue::Histogram(h) => {
                w.field("kind", "histogram");
                h.put_members(w);
            }
        }
    }

    fn take_members(v: Node<'_>) -> Result<Self, ProtocolError> {
        Ok(match tag(v, "kind")? {
            "counter" => MetricValue::Counter(u64::take(present(v, "value")?, "value")?),
            "gauge" => {
                MetricValue::Gauge(v.get("value").map_or(Ok(0.0), |n| f64::take(n, "value"))?)
            }
            "histogram" => MetricValue::Histogram(HistogramSummary::take_members(v)?),
            other => return Err(bad(format!("unknown metric kind '{other}'"))),
        })
    }
}

/// Metric labels: one object of string values, in label order.
struct Labels;

impl Labels {
    fn put(w: &mut JsonWriter<'_>, key: &str, labels: &[(String, String)]) {
        w.key(key).obj(|w| {
            for (name, value) in labels {
                w.field(name, value);
            }
        });
    }

    fn take(v: Node<'_>, key: &str) -> Result<Vec<(String, String)>, ProtocolError> {
        object(v, key)?
            .fields()
            .map(|(name, value)| Ok((name.to_owned(), String::take(value, name)?)))
            .collect()
    }
}

wire_record! {
    SweepPart = SweepPart { index: 0, of: 0 },
    check |part: &SweepPart| match part.of {
        0 => Err(bad("'part' needs a positive 'of'")),
        _ => Ok(()),
    };
    "index" => index,
    "of" => of,
}

wire_record! {
    SweepSpec = SweepSpec::paper_point();
    "nets": Axis => nets,
    "pes": Axis => pes,
    "freqs_mhz": Axis => freqs_mhz,
    "kmem_depths": Axis => kmem_depths,
    "imem_kb": Axis => imem_kb,
    "omem_kb": Axis => omem_kb,
    "word_bits": Axis => word_bits,
    "batches": Axis => batches,
    "part" => part,
}

/// A sweep axis: an array of values, or one scalar for a one-value axis.
struct Axis;

impl Axis {
    fn put<T: Wire>(w: &mut JsonWriter<'_>, key: &str, values: &[T]) {
        w.field(key, values);
    }

    fn take<T: Wire>(v: Node<'_>, key: &str) -> Result<Vec<T>, ProtocolError> {
        match v.items() {
            Some(_) => Vec::take(v, key),
            None => T::take(v, key).map(|value| vec![value]),
        }
    }
}

wire_record! {
    Budget = Budget::default();
    "max_system_mw" => max_system_mw,
    "max_gates_k" => max_gates_k,
    "min_fps" => min_fps,
    "min_sqnr_db" => min_sqnr_db,
}

// The shared body of `tune` and `tune_frontier` requests. Seeds ride
// the JSON number; above 2^53 they would lose precision, which the
// decoder rejects rather than silently aliasing.
wire_record! {
    TuneRequest = TuneRequest::default();
    "space" => space,
    "mix" => mix,
    "budget" => budget,
    "objective" => objective,
    "strategy" => strategy,
    "seed" => seed,
}

wire_record! {
    FrontierTuneRequest = FrontierTuneRequest::default();
    ..base,
    "sweep": SweepForm => sweep required,
}

wire_record! {
    BudgetSweep = BudgetSweep {
        axis: BudgetAxis::MaxSystemMw,
        values: Vec::new(),
    },
    check |sweep: &BudgetSweep| sweep.validate().map_err(ProtocolError);
    "axis" => axis required,
    "values" => values required,
}

/// A budget sweep: its object, or the CLI string form
/// (`"max-mw=300..=900:50"`). Either way the sweep is validated
/// (non-empty, strictly increasing, legal bounds).
struct SweepForm;

impl SweepForm {
    fn put(w: &mut JsonWriter<'_>, key: &str, sweep: &BudgetSweep) {
        w.field(key, sweep);
    }

    fn take(v: Node<'_>, key: &str) -> Result<BudgetSweep, ProtocolError> {
        match v.as_str() {
            Some(text) => BudgetSweep::parse(text).map_err(ProtocolError),
            None => BudgetSweep::take(v, key),
        }
    }
}

wire_record! {
    TraceContext = TraceContext { id: 0, parent: 0 },
    check |ctx: &TraceContext| match ctx.id {
        0 => Err(bad("'trace' id must be non-zero")),
        _ => Ok(()),
    };
    "id" => id required,
    "parent" => parent if_set,
}

wire_record! {
    RequestMeta = RequestMeta::default();
    "trace" => trace,
    "req" => req_id,
}

// ---------------------------------------------------------------- grammars

/// Names on the wire: a search strategy, a budget axis, a metric.
macro_rules! wire_by_name {
    ($($t:ty),+) => {$(
        impl Wire for $t {
            fn put(&self, w: &mut JsonWriter<'_>) {
                self.name().put(w);
            }

            fn take(v: Node<'_>, key: &str) -> Result<Self, ProtocolError> {
                v.as_str()
                    .ok_or_else(|| mistyped(key, "a string"))?
                    .parse()
                    .map_err(ProtocolError)
            }
        }
    )+};
}

wire_by_name!(StrategyKind, BudgetAxis, Metric);

/// A mix: an object of `net: weight` pairs, or the CLI string form
/// (`"alexnet:0.7,vgg16:0.3"`).
impl Wire for WorkloadMix {
    fn put(&self, w: &mut JsonWriter<'_>) {
        w.obj(|w| {
            for e in self.entries() {
                w.field(&e.net, &e.weight);
            }
        });
    }

    fn take(v: Node<'_>, key: &str) -> Result<Self, ProtocolError> {
        let mix = match v.as_str() {
            Some(text) => WorkloadMix::parse(text),
            None if v.is_obj() => WorkloadMix::new(
                v.fields()
                    .map(|(net, weight)| {
                        Ok(MixEntry {
                            net: net.to_owned(),
                            weight: f64::take(weight, net)?,
                        })
                    })
                    .collect::<Result<_, ProtocolError>>()?,
            ),
            None => return Err(mistyped(key, "an object of net: weight pairs or a string")),
        };
        mix.map_err(|e| bad(e.to_string()))
    }
}

/// An objective: a metric name or an array of names (lexicographic
/// order), or `{"scalarized":{name: weight}}`.
impl Wire for Objective {
    fn put(&self, w: &mut JsonWriter<'_>) {
        match self {
            Objective::Lexicographic(metrics) => metrics.put(w),
            Objective::Scalarized(terms) => {
                w.obj(|w| {
                    w.key("scalarized").obj(|w| {
                        for (metric, weight) in terms {
                            w.field(metric.name(), weight);
                        }
                    });
                });
            }
        }
    }

    fn take(v: Node<'_>, key: &str) -> Result<Self, ProtocolError> {
        let objective = if let Some(text) = v.as_str() {
            return Objective::parse(text).map_err(ProtocolError);
        } else if v.is_obj() {
            let terms = v
                .get("scalarized")
                .filter(|t| t.is_obj())
                .ok_or_else(|| bad("objective object needs a 'scalarized' object"))?;
            Objective::Scalarized(
                terms
                    .fields()
                    .map(|(name, weight)| {
                        Ok((
                            name.parse::<Metric>().map_err(ProtocolError)?,
                            f64::take(weight, name)?,
                        ))
                    })
                    .collect::<Result<_, ProtocolError>>()?,
            )
        } else {
            Objective::Lexicographic(Vec::take(v, key)?)
        };
        objective.validate().map_err(ProtocolError)?;
        Ok(objective)
    }
}

/// The frontier's third axis: `"sqnr"` swaps area for measured SQNR;
/// `"gates"`, the default, is left off the wire.
struct FrontierAxes;

impl FrontierAxes {
    fn put(w: &mut JsonWriter<'_>, key: &str, sqnr: &bool) {
        if *sqnr {
            w.field(key, "sqnr");
        }
    }

    fn take(v: Node<'_>, key: &str) -> Result<bool, ProtocolError> {
        match v.as_str() {
            Some("gates") => Ok(false),
            Some("sqnr") => Ok(true),
            _ => Err(mistyped(key, "\"gates\" or \"sqnr\"")),
        }
    }
}

// ---------------------------------------------------------------- messages

wire_enum! {
    Request, "request", types;
    type "eval" => Eval(point) ["point" => point = DesignPoint::paper_alexnet()],
    type "eval_batch" => EvalBatch(points) ["points" => points required],
    type "sweep" => Sweep(spec) ["spec" => spec required],
    type "tune" => Tune(request) [..request],
    type "tune_frontier" => TuneFrontier(request) [..request],
    type "frontier" => Frontier { dims, sqnr, stream } [
        "dims" => dims = 3,
        "axes": FrontierAxes => sqnr = false,
        "stream" => stream if_set = false,
    ] then {
        if !(dims == 2 || dims == 3) {
            return Err(bad("'dims' must be 2 or 3"));
        }
        if sqnr && dims != 3 {
            return Err(bad("the sqnr frontier is 3-dimensional; use dims 3"));
        }
    },
    type "stats" => Stats [],
    type "metrics" => Metrics [],
    type "metrics_history" => MetricsHistory [],
    type "watch" => Watch { samples } ["samples" => samples = 0],
    type "trace_query" => TraceQuery { id } ["id" => id required],
    type "dump" => Dump [],
    type "shutdown" => Shutdown [],
}

wire_enum! {
    Response, "response", head;
    type "eval" => Eval { point, outcome } ["point" => point required, ..outcome],
    type "eval_batch" => EvalBatch { outcomes, cache_hits, cache_misses } [
        "cache_hits" => cache_hits = 0,
        "cache_misses" => cache_misses = 0,
        "outcomes" => outcomes required,
    ],
    type "sweep" => Sweep(summary) [..summary],
    type "tune" => Tune(summary) [..summary],
    type "tune_frontier" if "done" => TuneFrontierDone(summary) [..summary],
    type "tune_frontier" => TuneFrontierStep(summary) [..summary],
    type "frontier" if "done" => FrontierStreamDone { dims, entries, degraded } [
        "dims" => dims = 3,
        "entries" => entries = 0,
        "degraded" => degraded if_set = false,
    ],
    type "frontier" if "stream" => FrontierStreamEntry { entry } [..entry],
    type "frontier" => Frontier { dims, entries, degraded } [
        "dims" => dims = 3,
        "entries" => entries required,
        "degraded" => degraded if_set = false,
    ],
    type "stats" => Stats(stats) [..stats],
    type "metrics" => Metrics { snapshot } [..snapshot],
    type "metrics_history" => MetricsHistory(history) [..history],
    type "watch" if "done" => WatchDone { samples } ["samples" => samples = 0],
    type "watch" => WatchSample(sample) [..sample],
    // `spans` starts typed, as the `then` block walks it.
    type "trace" => Trace { id, dropped, spans = Vec::<SpanRecord>::new() } [
        "id" => id required,
        "dropped" => dropped = 0,
        "spans" => spans required,
    ] then {
        // The reply states its trace id once, for every span.
        for span in &mut spans {
            span.trace_id = id;
        }
    },
    type "dump" => Dump { path, spans, dropped } [
        "path" => path required,
        "spans" => spans = 0,
        "dropped" => dropped = 0,
    ],
    type "shutdown" => Shutdown [],
    error "busy" => Busy { active, capacity } [
        "active" => active = 0,
        "capacity" => capacity = 0,
    ],
    error message => Error { message = message.to_owned() } [],
}

/// Starting capacity of a freshly encoded line: an eval reply is about
/// 450 bytes, so the common lines are written without regrowing.
const LINE_CAPACITY: usize = 512;

/// Parses one wire line; a syntax error becomes the protocol error.
fn parse(line: &str) -> Result<Doc<'_>, ProtocolError> {
    Doc::parse(line).map_err(|e| bad(e.to_string()))
}

impl Request {
    /// Whether this request streams its reply (N result lines followed
    /// by one `done` line) instead of answering one line.
    pub fn is_streaming(&self) -> bool {
        matches!(
            self,
            Request::TuneFrontier(_)
                | Request::Frontier { stream: true, .. }
                | Request::Watch { .. }
        )
    }

    /// The single-line wire form (no trailing newline; the transport
    /// adds it).
    pub fn encode(&self) -> String {
        self.encode_with_meta(None, None)
    }

    /// The wire form with a transport envelope: an optional propagated
    /// trace context (`"trace":{"id":...,"parent":...}`, `parent`
    /// omitted when 0) and an optional pipelining request id
    /// (`"req":N`). A daemon echoes the id on **every** reply line for
    /// the request — including streamed lines and the terminal `done`
    /// line — so a pipelining client can match replies to requests
    /// instead of assuming strict request/reply alternation. Daemons
    /// predating either field ignore it.
    pub fn encode_with_meta(&self, ctx: Option<TraceContext>, req_id: Option<u64>) -> String {
        let mut out = String::with_capacity(LINE_CAPACITY);
        self.encode_into(RequestMeta { trace: ctx, req_id }, &mut out);
        out
    }

    /// Appends the wire line (no newline) to `out`: `"type"`, then the
    /// envelope's `"trace"` and `"req"` when present, then the body.
    /// Sessions reuse one `out` buffer per connection.
    pub(crate) fn encode_into(&self, meta: RequestMeta, out: &mut String) {
        JsonWriter::new(out).obj(|w| {
            w.field("type", self.kind());
            meta.put_members(w);
            self.put_body(w);
        });
    }

    /// Parses one request line, ignoring its envelope.
    ///
    /// # Errors
    ///
    /// [`ProtocolError`] on unparseable JSON, a missing/unknown
    /// `"type"`, or mistyped fields.
    pub fn decode(line: &str) -> Result<Request, ProtocolError> {
        Request::from_node(parse(line)?.root())
    }

    /// Parses one request line together with its transport envelope:
    /// the optional propagated `"trace"` context and the optional
    /// pipelining id `"req"`. Both front ends' request handlers use this
    /// so they can echo `"req"` on every reply line belonging to the
    /// request (and the daemon can tag every span of it).
    ///
    /// # Errors
    ///
    /// Everything [`Request::decode`] rejects, plus a malformed
    /// `"trace"` object (missing/zero `id`, mistyped fields) or a
    /// non-integer `"req"`.
    pub fn decode_with_meta(line: &str) -> Result<(Request, RequestMeta), ProtocolError> {
        let doc = parse(line)?;
        let meta = RequestMeta::take_members(doc.root())?;
        Ok((Request::from_node(doc.root())?, meta))
    }

    fn from_node(v: Node<'_>) -> Result<Request, ProtocolError> {
        Request::from_head(v, Ok(tag(v, "type")?))
    }
}

impl Response {
    /// An error reply carrying `message`.
    pub(crate) fn error(message: impl ToString) -> Response {
        Response::Error {
            message: message.to_string(),
        }
    }

    /// The single-line wire form (no trailing newline).
    pub fn encode(&self) -> String {
        self.encode_with_req(None)
    }

    /// The wire form echoing a pipelining request id: the same line
    /// [`Response::encode`] produces plus `"req":N` right after
    /// `"type"` (after `"error"` on failure lines). The daemon uses
    /// this for every line it writes in reply to a request that
    /// carried `"req"`.
    pub fn encode_with_req(&self, req_id: Option<u64>) -> String {
        let mut out = String::with_capacity(LINE_CAPACITY);
        self.encode_into(req_id, &mut out);
        out
    }

    /// Appends the wire line (no newline) to `out`: the head (`"ok"`
    /// plus `"type"`, or `"error"` on failure lines), the envelope's
    /// `"req"` when present, then the body. Sessions reuse one `out`
    /// buffer per connection, so a reply allocates nothing.
    pub(crate) fn encode_into(&self, req_id: Option<u64>, out: &mut String) {
        JsonWriter::new(out).obj(|w| {
            match self.head() {
                Ok(kind) => w.field("ok", &true).field("type", kind),
                Err(error) => w.field("ok", &false).field("error", error),
            };
            w.field("req", &req_id);
            self.put_body(w);
        });
    }

    /// Parses one response line.
    ///
    /// # Errors
    ///
    /// [`ProtocolError`] on unparseable JSON or a malformed reply.
    pub fn decode(line: &str) -> Result<Response, ProtocolError> {
        Ok(Response::decode_with_req(line)?.0)
    }

    /// Parses one response line together with its echoed pipelining id
    /// (`"req"`), if any. Pipelining clients use this to match reply
    /// lines to the requests that produced them.
    ///
    /// # Errors
    ///
    /// Everything [`Response::decode`] rejects, plus a non-integer
    /// `"req"`.
    pub fn decode_with_req(line: &str) -> Result<(Response, Option<u64>), ProtocolError> {
        let doc = parse(line)?;
        let v = doc.root();
        let req = v.get("req").map(|r| u64::take(r, "req")).transpose()?;
        let head = if bool::take(present(v, "ok")?, "ok")? {
            Ok(tag(v, "type")?)
        } else {
            Err(v
                .get("error")
                .and_then(Node::as_str)
                .unwrap_or("unspecified"))
        };
        Ok((Response::from_head(v, head)?, req))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper_result() -> PointResult {
        match chain_nn_dse::evaluate(&DesignPoint::paper_alexnet()).unwrap() {
            PointOutcome::Feasible(r) => r,
            PointOutcome::Infeasible(why) => panic!("paper point infeasible: {why}"),
        }
    }

    #[test]
    fn requests_round_trip() {
        let requests = vec![
            Request::Eval(DesignPoint::paper_alexnet()),
            Request::Sweep(SweepSpec {
                pes: vec![288, 576],
                freqs_mhz: vec![350.0, 700.0],
                nets: vec!["alexnet".into(), "vgg16".into()],
                ..SweepSpec::paper_point()
            }),
            Request::Frontier {
                dims: 2,
                sqnr: false,
                stream: false,
            },
            Request::Frontier {
                dims: 3,
                sqnr: false,
                stream: false,
            },
            Request::Frontier {
                dims: 3,
                sqnr: true,
                stream: false,
            },
            Request::Frontier {
                dims: 3,
                sqnr: false,
                stream: true,
            },
            Request::Frontier {
                dims: 3,
                sqnr: true,
                stream: true,
            },
            Request::Stats,
            Request::Metrics,
            Request::MetricsHistory,
            Request::Watch { samples: 0 },
            Request::Watch { samples: 5 },
            Request::TraceQuery { id: 4242 },
            Request::Dump,
            Request::Shutdown,
        ];
        for req in requests {
            let line = req.encode();
            assert!(!line.contains('\n'), "wire form must be one line");
            assert_eq!(Request::decode(&line).unwrap(), req, "{line}");
        }
    }

    #[test]
    fn stats_reply_without_observability_fields_still_decodes() {
        // A daemon predating the observability layer omits `uptime_s`
        // and `inflight_requests`; one predating the temporal layer
        // additionally omits `queue_depth` and the SLO counters. The
        // decoder must default every one of them.
        let legacy = r#"{"ok":true,"type":"stats","cached_points":10,"hits":7,"misses":3,"hit_rate":0.7,"requests":42,"active_jobs":1,"queue_capacity":16,"open_connections":3,"max_connections":64,"threads":4,"loaded_from_disk":6,"persistent":true}"#;
        match Response::decode(legacy).unwrap() {
            Response::Stats(st) => {
                assert_eq!(st.cached_points, 10);
                assert_eq!(st.requests, 42);
                assert_eq!(st.uptime_s, 0.0);
                assert_eq!(st.inflight_requests, 0);
                assert_eq!(st.queue_depth, 0);
                assert_eq!(st.slos, 0);
                assert_eq!(st.slo_breach_ticks, 0);
            }
            other => panic!("expected stats, got {other:?}"),
        }
    }

    #[test]
    fn metrics_reply_without_uptime_still_decodes() {
        // Pre-temporal daemons omit the snapshot-level `uptime_s`.
        let legacy = r#"{"ok":true,"type":"metrics","metrics":[]}"#;
        match Response::decode(legacy).unwrap() {
            Response::Metrics { snapshot } => {
                assert_eq!(snapshot.uptime_s, 0.0);
                assert!(snapshot.entries.is_empty());
            }
            other => panic!("expected metrics, got {other:?}"),
        }
    }

    #[test]
    fn responses_round_trip() {
        let responses = vec![
            Response::Eval {
                point: DesignPoint::paper_alexnet(),
                outcome: PointOutcome::Feasible(paper_result()),
            },
            Response::Eval {
                point: DesignPoint::paper_alexnet(),
                outcome: PointOutcome::Infeasible("chain too short".into()),
            },
            Response::Sweep(SweepSummary {
                points: 6,
                feasible: 5,
                cache_hits: 2,
                cache_misses: 4,
                wall_ms: 1.25,
                frontier_3d: vec![0, 3, 5],
                frontier_sqnr: vec![0, 5],
                candidates: Vec::new(),
                degraded: false,
            }),
            // A partitioned shard reply: frontier candidates attached,
            // and the degraded marker set.
            Response::Sweep(SweepSummary {
                points: 3,
                feasible: 3,
                cache_hits: 0,
                cache_misses: 3,
                wall_ms: 0.5,
                frontier_3d: vec![1, 4],
                frontier_sqnr: vec![1],
                candidates: vec![
                    (
                        1,
                        Objectives {
                            fps: 100.5,
                            system_mw: 820.25,
                            gates_k: 1024.0,
                            sqnr_db: 60.125,
                        },
                    ),
                    (
                        4,
                        Objectives {
                            fps: 55.0,
                            system_mw: 410.0,
                            gates_k: 512.5,
                            sqnr_db: 72.0,
                        },
                    ),
                ],
                degraded: true,
            }),
            Response::EvalBatch {
                outcomes: vec![
                    PointOutcome::Feasible(paper_result()),
                    PointOutcome::Infeasible("chain too short".into()),
                ],
                cache_hits: 1,
                cache_misses: 1,
            },
            Response::Frontier {
                dims: 3,
                entries: vec![FrontierEntry {
                    point: DesignPoint::paper_alexnet(),
                    result: paper_result(),
                }],
                degraded: false,
            },
            Response::Stats(ServerStats {
                cached_points: 10,
                hits: 7,
                misses: 3,
                hit_rate: 0.7,
                requests: 42,
                active_jobs: 1,
                queue_capacity: 16,
                open_connections: 3,
                max_connections: 64,
                threads: 4,
                loaded_from_disk: 6,
                persistent: true,
                uptime_s: 12.5,
                inflight_requests: 2,
                queue_depth: 1,
                slos: 2,
                slo_breach_ticks: 3,
                shards: vec![
                    ShardStat {
                        addr: "127.0.0.1:7001".into(),
                        requests: 12,
                        errors: 0,
                        degraded: false,
                    },
                    ShardStat {
                        addr: "127.0.0.1:7002".into(),
                        requests: 9,
                        errors: 2,
                        degraded: true,
                    },
                ],
            }),
            Response::Metrics {
                snapshot: Snapshot {
                    entries: vec![
                        MetricEntry {
                            name: "serve_request_ns".into(),
                            labels: vec![("type".into(), "eval".into())],
                            value: MetricValue::Histogram(HistogramSummary {
                                count: 12,
                                sum: 49152,
                                p50: 4096.0,
                                p95: 4096.0,
                                p99: 4096.0,
                                max: 4096.0,
                            }),
                        },
                        MetricEntry {
                            name: "serve_inflight_requests".into(),
                            labels: vec![],
                            value: MetricValue::Gauge(1.0),
                        },
                        MetricEntry {
                            name: "serve_requests_total".into(),
                            labels: vec![("type".into(), "eval".into())],
                            value: MetricValue::Counter(12),
                        },
                    ],
                    uptime_s: 42.5,
                },
            },
            Response::Metrics {
                snapshot: Snapshot::default(),
            },
            Response::MetricsHistory(Box::new(MetricsHistory {
                interval_s: 0.25,
                samples: 120,
                capacity: 256,
                windows: vec![
                    HistoryWindow {
                        window_s: 1.0,
                        duration_s: 1.0,
                        samples: 4,
                        req_per_sec: 12.0,
                        points_per_sec: 512.0,
                        types: vec![HistoryTypeWindow {
                            kind: "eval".into(),
                            requests: 10,
                            p50_us: 250.0,
                            p99_us: 750.5,
                        }],
                    },
                    HistoryWindow {
                        window_s: 10.0,
                        duration_s: 8.5,
                        samples: 34,
                        req_per_sec: 2.5,
                        points_per_sec: 64.0,
                        types: vec![],
                    },
                ],
            })),
            Response::WatchSample(Box::new(WatchSample {
                seq: 7,
                interval_s: 0.25,
                window_s: 1.0,
                req_per_sec: 48.0,
                points_per_sec: 2048.0,
                inflight: 3,
                active_jobs: 2,
                queue_depth: 1,
                cache_hit_rate: 0.75,
                requests_total: 420,
                queue_wait_p99_us: 125.5,
                execute_p99_us: 850.0,
                types: vec![HistoryTypeWindow {
                    kind: "sweep".into(),
                    requests: 2,
                    p50_us: 1500.0,
                    p99_us: 9000.0,
                }],
            })),
            Response::WatchDone { samples: 7 },
            Response::Trace {
                id: 4242,
                dropped: 3,
                spans: vec![
                    SpanRecord {
                        trace_id: 4242,
                        span_id: 10,
                        parent_id: 0,
                        name: "sweep".into(),
                        start_us: 100,
                        dur_us: 950,
                        worker: None,
                        points: 500,
                    },
                    SpanRecord {
                        trace_id: 4242,
                        span_id: 11,
                        parent_id: 10,
                        name: "batch".into(),
                        start_us: 200,
                        dur_us: 40,
                        worker: Some(1),
                        points: 32,
                    },
                ],
            },
            Response::Trace {
                id: 7,
                dropped: 0,
                spans: vec![],
            },
            Response::Dump {
                path: "/tmp/trace.jsonl.flight.json".into(),
                spans: 128,
                dropped: 0,
            },
            Response::Shutdown,
            Response::Busy {
                active: 16,
                capacity: 16,
            },
            Response::Error {
                message: "unknown network 'squeezenet'".into(),
            },
        ];
        for resp in responses {
            let line = resp.encode();
            assert!(!line.contains('\n'));
            assert_eq!(Response::decode(&line).unwrap(), resp, "{line}");
        }
    }

    #[test]
    fn tune_requests_round_trip() {
        let requests = vec![
            Request::Tune(Box::default()),
            Request::Tune(Box::new(TuneRequest {
                mix: WorkloadMix::parse("alexnet:0.7,vgg16:0.3").unwrap(),
                budget: Budget {
                    max_system_mw: Some(500.0),
                    min_fps: Some(30.0),
                    min_sqnr_db: Some(45.0),
                    ..Budget::default()
                },
                objective: Objective::Lexicographic(vec![Metric::Fps, Metric::SystemMw]),
                strategy: StrategyKind::HillClimb,
                seed: 42,
                ..TuneRequest::default()
            })),
            Request::Tune(Box::new(TuneRequest {
                objective: Objective::Scalarized(vec![(Metric::Fps, 1.0), (Metric::GatesK, 0.25)]),
                ..TuneRequest::default()
            })),
        ];
        for req in requests {
            let line = req.encode();
            assert!(!line.contains('\n'));
            assert_eq!(Request::decode(&line).unwrap(), req, "{line}");
        }
    }

    #[test]
    fn tune_request_fields_all_default() {
        let req = Request::decode(r#"{"type":"tune"}"#).unwrap();
        assert_eq!(req, Request::Tune(Box::default()));
        // The mix also accepts the CLI string form.
        let req = Request::decode(
            r#"{"type":"tune","mix":"vgg16:2,alexnet:1","budget":{"max_system_mw":500}}"#,
        )
        .unwrap();
        let Request::Tune(tune) = req else {
            panic!("not a tune")
        };
        assert_eq!(tune.mix.primary(), "vgg16");
        assert_eq!(tune.budget.max_system_mw, Some(500.0));
        assert_eq!(tune.budget.max_gates_k, None);
        assert_eq!(tune.budget.min_sqnr_db, None);
        // And the accuracy floor decodes when present.
        let req = Request::decode(r#"{"type":"tune","budget":{"min_sqnr_db":42.5}}"#).unwrap();
        let Request::Tune(tune) = req else {
            panic!("not a tune")
        };
        assert_eq!(tune.budget.min_sqnr_db, Some(42.5));
    }

    #[test]
    fn tune_responses_round_trip() {
        let found = Response::Tune(TuneSummary {
            best: Some(Tuned {
                point: DesignPoint::paper_alexnet(),
                result: MixResult::from(&paper_result()),
                admitted: true,
            }),
            evaluations: 34,
            cache_hits: 10,
            cache_misses: 58,
            rounds: 5,
            exhaustive_points: 244,
            degraded: false,
        });
        let nothing = Response::Tune(TuneSummary {
            best: None,
            evaluations: 20,
            cache_hits: 0,
            cache_misses: 20,
            rounds: 1,
            exhaustive_points: 244,
            degraded: true,
        });
        for resp in [found, nothing] {
            let line = resp.encode();
            assert!(!line.contains('\n'));
            assert_eq!(Response::decode(&line).unwrap(), resp, "{line}");
        }
    }

    #[test]
    fn tune_frontier_requests_round_trip() {
        use chain_nn_tuner::{BudgetAxis, BudgetSweep, FrontierTuneRequest};
        let requests = vec![
            Request::TuneFrontier(Box::default()),
            Request::TuneFrontier(Box::new(FrontierTuneRequest {
                base: TuneRequest {
                    mix: WorkloadMix::parse("alexnet:0.7,vgg16:0.3").unwrap(),
                    strategy: StrategyKind::HillClimb,
                    seed: 9,
                    ..TuneRequest::default()
                },
                sweep: BudgetSweep {
                    axis: BudgetAxis::MinFps,
                    values: vec![30.0, 60.5, 120.0],
                },
            })),
        ];
        for req in requests {
            let line = req.encode();
            assert!(!line.contains('\n'));
            assert!(req.is_streaming());
            assert_eq!(Request::decode(&line).unwrap(), req, "{line}");
        }
        // The sweep also decodes from its CLI string form.
        let req = Request::decode(
            r#"{"type":"tune_frontier","sweep":"max-mw=300..=400:50","budget":{"min_fps":30}}"#,
        )
        .unwrap();
        let Request::TuneFrontier(ft) = req else {
            panic!("not a tune_frontier")
        };
        assert_eq!(ft.sweep.axis, BudgetAxis::MaxSystemMw);
        assert_eq!(ft.sweep.values, vec![300.0, 350.0, 400.0]);
        assert_eq!(ft.base.budget.min_fps, Some(30.0));
        // Non-streaming requests say so; watch streams.
        assert!(!Request::Stats.is_streaming());
        assert!(!Request::MetricsHistory.is_streaming());
        assert!(!Request::Tune(Box::default()).is_streaming());
        assert!(Request::Watch { samples: 0 }.is_streaming());
    }

    #[test]
    fn watch_lines_distinguish_samples_from_the_done_line() {
        // A sample line carries `seq`; the terminal line carries
        // `done` — a line with neither is malformed, not a default.
        let headless = r#"{"ok":true,"type":"watch","req_per_sec":5}"#;
        assert!(Response::decode(headless).is_err());
        let done = r#"{"ok":true,"type":"watch","done":true,"samples":4}"#;
        assert_eq!(
            Response::decode(done).unwrap(),
            Response::WatchDone { samples: 4 }
        );
        // A negative sample budget is rejected at decode time.
        assert!(Request::decode(r#"{"type":"watch","samples":-1}"#).is_err());
    }

    #[test]
    fn malformed_tune_frontier_requests_are_rejected() {
        for bad in [
            r#"{"type":"tune_frontier"}"#,
            r#"{"type":"tune_frontier","sweep":7}"#,
            r#"{"type":"tune_frontier","sweep":{"axis":"warp","values":[1,2]}}"#,
            r#"{"type":"tune_frontier","sweep":{"axis":"max_system_mw"}}"#,
            r#"{"type":"tune_frontier","sweep":{"axis":"max_system_mw","values":[]}}"#,
            r#"{"type":"tune_frontier","sweep":{"axis":"max_system_mw","values":[500,400]}}"#,
            r#"{"type":"tune_frontier","sweep":{"axis":"max_system_mw","values":["lots"]}}"#,
            r#"{"type":"tune_frontier","sweep":"max-mw=900..=300"}"#,
        ] {
            assert!(Request::decode(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn streaming_response_lines_round_trip() {
        let step_found = Response::TuneFrontierStep(FrontierStepSummary {
            step: 0,
            steps: 13,
            result: FrontierStep {
                budget_value: 300.0,
                best: Some(Tuned {
                    point: DesignPoint::paper_alexnet(),
                    result: MixResult::from(&paper_result()),
                    admitted: true,
                }),
                evaluations: 33,
                fresh_evaluations: 33,
                cache_hits: 0,
                cache_misses: 33,
                rounds: 5,
            },
        });
        let step_nothing = Response::TuneFrontierStep(FrontierStepSummary {
            step: 3,
            steps: 13,
            result: FrontierStep {
                budget_value: 450.0,
                best: None,
                evaluations: 20,
                fresh_evaluations: 0,
                cache_hits: 20,
                cache_misses: 0,
                rounds: 1,
            },
        });
        let done = Response::TuneFrontierDone(FrontierDoneSummary {
            steps: 13,
            frontier: vec![0, 4, 7],
            evaluations: 61,
            standalone_evaluations: 429,
            cache_hits: 400,
            cache_misses: 61,
            exhaustive_points: 244,
        });
        let entry = Response::FrontierStreamEntry {
            entry: FrontierEntry {
                point: DesignPoint::paper_alexnet(),
                result: paper_result(),
            },
        };
        let stream_done = Response::FrontierStreamDone {
            dims: 3,
            entries: 7,
            degraded: false,
        };
        for resp in [step_found, step_nothing, done, entry, stream_done] {
            let line = resp.encode();
            assert!(!line.contains('\n'));
            assert_eq!(Response::decode(&line).unwrap(), resp, "{line}");
        }
        // A step line without its budget value is malformed, not NaN.
        let headless = r#"{"ok":true,"type":"tune_frontier","step":0,"steps":2,"found":false}"#;
        assert!(Response::decode(headless).is_err());
    }

    #[test]
    fn frontier_reply_dims_out_of_the_u8_range_are_rejected_not_truncated() {
        // 258 used to read back as 258 mod 256 = 2.
        for line in [
            r#"{"ok":true,"type":"frontier","done":true,"dims":258,"entries":0}"#,
            r#"{"ok":true,"type":"frontier","dims":258,"entries":[]}"#,
        ] {
            let err = Response::decode(line).expect_err(line);
            assert!(err.to_string().contains("'dims' out of range"), "{err}");
        }
        for (line, want) in [
            (
                r#"{"ok":true,"type":"frontier","done":true,"dims":255,"entries":0}"#,
                Response::FrontierStreamDone {
                    dims: 255,
                    entries: 0,
                    degraded: false,
                },
            ),
            (
                r#"{"ok":true,"type":"frontier","dims":2,"entries":[]}"#,
                Response::Frontier {
                    dims: 2,
                    entries: Vec::new(),
                    degraded: false,
                },
            ),
        ] {
            assert_eq!(Response::decode(line).expect(line), want);
        }
    }

    #[test]
    fn malformed_tune_requests_are_rejected() {
        for bad in [
            r#"{"type":"tune","mix":{"alexnet":"lots"}}"#,
            r#"{"type":"tune","mix":{"squeezenet":1}}"#,
            r#"{"type":"tune","mix":7}"#,
            r#"{"type":"tune","strategy":"warp"}"#,
            r#"{"type":"tune","objective":[]}"#,
            r#"{"type":"tune","objective":{"weights":{"fps":1}}}"#,
            r#"{"type":"tune","budget":{"max_system_mw":"cheap"}}"#,
            r#"{"type":"tune","seed":1.5}"#,
        ] {
            assert!(Request::decode(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn eval_point_fields_default_to_the_paper_point() {
        let req = Request::decode(r#"{"type":"eval","point":{"pes":288}}"#).unwrap();
        let expected = DesignPoint {
            pes: 288,
            ..DesignPoint::paper_alexnet()
        };
        assert_eq!(req, Request::Eval(expected));
        // A missing point object entirely is the paper point.
        let req = Request::decode(r#"{"type":"eval"}"#).unwrap();
        assert_eq!(req, Request::Eval(DesignPoint::paper_alexnet()));
    }

    #[test]
    fn sweep_axes_accept_scalars_and_arrays() {
        let req = Request::decode(
            r#"{"type":"sweep","spec":{"pes":[144,288],"freqs_mhz":700,"nets":"lenet"}}"#,
        )
        .unwrap();
        let Request::Sweep(spec) = req else {
            panic!("not a sweep")
        };
        assert_eq!(spec.pes, vec![144, 288]);
        assert_eq!(spec.freqs_mhz, vec![700.0]);
        assert_eq!(spec.nets, vec!["lenet".to_owned()]);
        // Unspecified axes pin to the paper point.
        assert_eq!(spec.kmem_depths, vec![256]);
    }

    #[test]
    fn malformed_requests_are_rejected() {
        for bad in [
            "",
            "not json",
            r#"{"no_type":1}"#,
            r#"{"type":"warp"}"#,
            r#"{"type":"sweep"}"#,
            r#"{"type":"sweep","spec":{"pes":["many"]}}"#,
            r#"{"type":"frontier","dims":4}"#,
            r#"{"type":"frontier","dims":2,"axes":"sqnr"}"#,
            r#"{"type":"frontier","dims":3,"axes":"warp"}"#,
            r#"{"type":"frontier","dims":3,"stream":"yes"}"#,
            r#"{"type":"eval","point":{"pes":-5}}"#,
        ] {
            assert!(Request::decode(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn trace_contexts_propagate_and_legacy_lines_decode_unchanged() {
        // Every request shape can carry a context, which decodes back.
        let ctx = TraceContext {
            id: 4242,
            parent: 17,
        };
        for req in [
            Request::Eval(DesignPoint::paper_alexnet()),
            Request::Sweep(SweepSpec::paper_point()),
            Request::Tune(Box::default()),
            Request::Stats,
            Request::TraceQuery { id: 9 },
        ] {
            let line = req.encode_with_meta(Some(ctx), None);
            let (back, got) = Request::decode_with_meta(&line).unwrap();
            assert_eq!(back, req, "{line}");
            assert_eq!(got.trace, Some(ctx), "{line}");
            // Plain decode (a pre-tracing daemon) ignores the field.
            assert_eq!(Request::decode(&line).unwrap(), req, "{line}");
        }
        // A root context omits `parent` on the wire and decodes to 0.
        let line = Request::Stats.encode_with_meta(Some(TraceContext { id: 5, parent: 0 }), None);
        assert!(!line.contains("parent"));
        let (_, got) = Request::decode_with_meta(&line).unwrap();
        assert_eq!(got.trace, Some(TraceContext { id: 5, parent: 0 }));
        // Lines without the field decode to no context.
        let (_, got) = Request::decode_with_meta(r#"{"type":"stats"}"#).unwrap();
        assert_eq!(got, RequestMeta::default());
        // Malformed contexts are rejected, not ignored.
        for bad in [
            r#"{"type":"stats","trace":7}"#,
            r#"{"type":"stats","trace":{}}"#,
            r#"{"type":"stats","trace":{"id":0}}"#,
            r#"{"type":"stats","trace":{"id":"yes"}}"#,
            r#"{"type":"stats","trace":{"id":3,"parent":-1}}"#,
        ] {
            assert!(Request::decode_with_meta(bad).is_err(), "{bad:?}");
            // The plain decoder ignores the envelope altogether.
            assert_eq!(Request::decode(bad).unwrap(), Request::Stats, "{bad:?}");
        }
        // trace_query requires its id.
        assert!(Request::decode(r#"{"type":"trace_query"}"#).is_err());
    }

    #[test]
    fn duplicate_keys_keep_the_last_value() {
        // At every level: envelope, body, nested point, reply fields.
        let line = r#"{"type":"stats","req":1,"type":"eval","point":{"pes":-5,"pes":288},"req":9}"#;
        let (req, meta) = Request::decode_with_meta(line).unwrap();
        let expected = DesignPoint {
            pes: 288,
            ..DesignPoint::paper_alexnet()
        };
        assert_eq!(req, Request::Eval(expected));
        assert_eq!(meta.req_id, Some(9));
        // A later duplicate can also be the bad one.
        assert!(Request::decode(r#"{"type":"eval","point":{"pes":288,"pes":-5}}"#).is_err());
        let (reply, req) = Response::decode_with_req(
            r#"{"ok":true,"type":"watch","done":false,"samples":1,"done":true,"samples":4,"req":2}"#,
        )
        .unwrap();
        assert_eq!(reply, Response::WatchDone { samples: 4 });
        assert_eq!(req, Some(2));
    }

    #[test]
    fn unknown_fields_are_ignored() {
        let line = r#"{"x":[1,{"y":null}],"type":"eval","future":{"a":"\u00e9"},"point":{"pes":288,"colour":"red"},"z":true}"#;
        let (req, meta) = Request::decode_with_meta(line).unwrap();
        assert_eq!(
            req,
            Request::Eval(DesignPoint {
                pes: 288,
                ..DesignPoint::paper_alexnet()
            })
        );
        assert_eq!(meta, RequestMeta::default());
        let reply = r#"{"ok":false,"error":"busy","active":3,"capacity":4,"retry_ms":50}"#;
        assert_eq!(
            Response::decode(reply).unwrap(),
            Response::Busy {
                active: 3,
                capacity: 4
            }
        );
        // Unknown fields inside a flat record: the result table skips them.
        let mut eval = Response::Eval {
            point: DesignPoint::paper_alexnet(),
            outcome: PointOutcome::Feasible(paper_result()),
        }
        .encode();
        eval.insert_str(eval.len() - 1, r#","energy_pj":[1,2],"note":"x""#);
        assert!(matches!(
            Response::decode(&eval).unwrap(),
            Response::Eval {
                outcome: PointOutcome::Feasible(r),
                ..
            } if r == paper_result()
        ));
    }

    #[test]
    fn request_kinds_cover_every_variant() {
        let every = [
            Request::Eval(DesignPoint::paper_alexnet()),
            Request::EvalBatch(vec![]),
            Request::Sweep(SweepSpec::paper_point()),
            Request::Tune(Box::default()),
            Request::TuneFrontier(Box::default()),
            Request::Frontier {
                dims: 3,
                sqnr: false,
                stream: false,
            },
            Request::Stats,
            Request::Metrics,
            Request::MetricsHistory,
            Request::Watch { samples: 0 },
            Request::TraceQuery { id: 1 },
            Request::Dump,
            Request::Shutdown,
        ];
        let kinds: Vec<&str> = every.iter().map(Request::kind).collect();
        assert_eq!(kinds, Request::TYPES);
        for request in &every {
            let line = request.encode();
            assert!(line.starts_with(&format!(r#"{{"type":"{}""#, request.kind())));
        }
    }

    #[test]
    fn float_fields_survive_bit_exactly() {
        let point = DesignPoint {
            freq_mhz: 123.456789012345,
            ..DesignPoint::paper_alexnet()
        };
        let line = Request::Eval(point.clone()).encode();
        let Request::Eval(back) = Request::decode(&line).unwrap() else {
            panic!("not eval")
        };
        assert_eq!(back.freq_mhz.to_bits(), point.freq_mhz.to_bits());
        // Content hashes therefore agree: the wire is cache-identity safe.
        assert_eq!(back.content_hash(), point.content_hash());
    }
}
