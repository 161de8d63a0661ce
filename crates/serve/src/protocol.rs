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

use crate::json::{Doc, JsonWriter, Node};

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

// ---------------------------------------------------------------- fields

/// How a wire field reads from a decoded node. A present field of the
/// wrong type is an error naming its key.
trait FromWire: Sized {
    /// Whether a message without this field is malformed rather than
    /// defaulted.
    const REQUIRED: bool = false;

    fn from_wire(v: Node<'_>, key: &str) -> Result<Self, ProtocolError>;
}

macro_rules! from_wire_int {
    ($($t:ty),+) => {$(
        impl FromWire for $t {
            fn from_wire(v: Node<'_>, key: &str) -> Result<$t, ProtocolError> {
                let n = v
                    .as_u64()
                    .ok_or_else(|| bad(format!("'{key}' must be a non-negative integer")))?;
                <$t>::try_from(n).map_err(|_| bad(format!("'{key}' out of range")))
            }
        }
    )+};
}

from_wire_int!(u64, usize, u32, u8);

impl FromWire for f64 {
    fn from_wire(v: Node<'_>, key: &str) -> Result<f64, ProtocolError> {
        v.as_f64()
            .ok_or_else(|| bad(format!("'{key}' must be a number")))
    }
}

impl FromWire for String {
    fn from_wire(v: Node<'_>, key: &str) -> Result<String, ProtocolError> {
        v.as_str()
            .map(str::to_owned)
            .ok_or_else(|| bad(format!("'{key}' must be a string")))
    }
}

/// Flags (`degraded`, `persistent`) are lenient: anything but `true`
/// reads as false.
impl FromWire for bool {
    fn from_wire(v: Node<'_>, _key: &str) -> Result<bool, ProtocolError> {
        Ok(v.as_bool() == Some(true))
    }
}

/// Index lists (frontier members) are required arrays of exact
/// non-negative integers.
impl FromWire for Vec<usize> {
    const REQUIRED: bool = true;

    fn from_wire(v: Node<'_>, key: &str) -> Result<Vec<usize>, ProtocolError> {
        v.items()
            .ok_or_else(|| bad(format!("'{key}' must be an array")))?
            .map(|i| usize::from_wire(i, key))
            .collect()
    }
}

/// Reads field `key`, whose value is `node` when present, into `slot`.
/// An absent field keeps the slot unless its type is required, or
/// unless `record` names a record whose fields all are; then absent and
/// mistyped alike are "`record` field 'key' missing".
fn take_field<T: FromWire>(
    node: Option<Node<'_>>,
    key: &str,
    slot: &mut T,
    record: Option<&str>,
) -> Result<(), ProtocolError> {
    let missing = |record: &str| bad(format!("{record} field '{key}' missing"));
    match (node, record) {
        (Some(f), None) => *slot = T::from_wire(f, key)?,
        (Some(f), Some(r)) => *slot = T::from_wire(f, key).map_err(|_| missing(r))?,
        (None, Some(r)) => return Err(missing(r)),
        (None, None) if T::REQUIRED => return Err(bad(format!("missing '{key}'"))),
        (None, None) => {}
    }
    Ok(())
}

/// Field `key` of `v`, or `default` when absent.
fn field<T: FromWire>(v: Node<'_>, key: &str, default: T) -> Result<T, ProtocolError> {
    let mut slot = default;
    take_field(v.get(key), key, &mut slot, None)?;
    Ok(slot)
}

/// Field `key` of `v`, which must be present and well-typed.
fn required<T: FromWire>(v: Node<'_>, key: &str, otherwise: &str) -> Result<T, ProtocolError> {
    v.get(key)
        .and_then(|f| T::from_wire(f, key).ok())
        .ok_or_else(|| bad(otherwise))
}

/// Writes a flag that is absent on the wire unless set.
fn put_flag(w: &mut JsonWriter<'_>, key: &str, on: bool) {
    if on {
        w.field(key, true);
    }
}

/// Declares the wire table of one flat record. Each `"key" => field`
/// entry is a stored field, each `"key" => method()` entry a derived,
/// encode-only one, and the entry order is the wire order. Expands to
/// `$put`, which writes the members into an open object, and `$take`,
/// which reads them back onto a base value: one pass over the object's
/// members matches each key (a later duplicate replaces an earlier
/// one), then [`take_field`] converts every stored field — absent ones
/// keep their base value (or are errors, when `$record` names a record
/// whose fields are all required), mistyped ones are errors.
macro_rules! wire_record {
    (@slot $field:ident) => {
        let mut $field = None;
    };
    (@slot $field:ident ()) => {};
    (@set $field:ident, $node:ident) => {
        $field = Some($node)
    };
    (@set $field:ident (), $node:ident) => {
        ()
    };
    (@take $x:ident, $record:expr, $key:literal, $field:ident) => {
        take_field($field, $key, &mut $x.$field, $record)?
    };
    (@take $x:ident, $record:expr, $key:literal, $field:ident ()) => {};
    (
        $ty:ty => $put:ident, $take:ident, $record:expr;
        $($key:literal => $field:ident $(($($call:tt)*))?,)+
    ) => {
        fn $put(x: &$ty, w: &mut JsonWriter<'_>) {
            $(w.field($key, &x.$field $(($($call)*))?);)+
        }

        fn $take(v: Node<'_>, mut x: $ty) -> Result<$ty, ProtocolError> {
            $(wire_record!(@slot $field $(($($call)*))?);)+
            for (key, node) in v.fields() {
                match key {
                    $($key => wire_record!(@set $field $(($($call)*))?, node),)+
                    _ => {}
                }
            }
            $(wire_record!(@take x, $record, $key, $field $(($($call)*))?);)+
            Ok(x)
        }
    };
}

wire_record! {
    DesignPoint => put_point, take_point, None;
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
    PointResult => put_result, take_result, Some("result");
    "fps" => fps,
    "achieved_gops" => achieved_gops,
    "peak_gops" => peak_gops,
    "chip_mw" => chip_mw,
    "dram_mw" => dram_mw,
    "system_mw" => system_mw(),
    "gops_per_watt" => gops_per_watt(),
    "gates_k" => gates_k,
    "sram_kb" => sram_kb,
    "sqnr_db" => sqnr_db,
}

wire_record! {
    MixResult => put_mix_result, take_mix_result, Some("tune result");
    "fps" => fps,
    "chip_mw" => chip_mw,
    "dram_mw" => dram_mw,
    "system_mw" => system_mw(),
    "peak_gops" => peak_gops,
    "gops_per_watt" => gops_per_watt(),
    "gates_k" => gates_k,
    "sram_kb" => sram_kb,
    "sqnr_db" => sqnr_db,
}

wire_record! {
    Objectives => put_objectives, take_objectives, None;
    "fps" => fps,
    "system_mw" => system_mw,
    "gates_k" => gates_k,
    "sqnr_db" => sqnr_db,
}

wire_record! {
    SweepSummary => put_sweep, take_sweep, None;
    "points" => points,
    "feasible" => feasible,
    "cache_hits" => cache_hits,
    "cache_misses" => cache_misses,
    "wall_ms" => wall_ms,
    "frontier_3d" => frontier_3d,
    "frontier_sqnr" => frontier_sqnr,
}

wire_record! {
    TuneSummary => put_tune_counts, take_tune_counts, None;
    "evaluations" => evaluations,
    "cache_hits" => cache_hits,
    "cache_misses" => cache_misses,
    "rounds" => rounds,
    "exhaustive_points" => exhaustive_points,
}

wire_record! {
    FrontierStepSummary => put_step_position, take_step_position, None;
    "step" => step,
    "steps" => steps,
}

wire_record! {
    FrontierStep => put_step_counts, take_step_counts, None;
    "evaluations" => evaluations,
    "fresh_evaluations" => fresh_evaluations,
    "cache_hits" => cache_hits,
    "cache_misses" => cache_misses,
    "rounds" => rounds,
}

wire_record! {
    FrontierDoneSummary => put_frontier_done, take_frontier_done, None;
    "steps" => steps,
    "frontier" => frontier,
    "evaluations" => evaluations,
    "standalone_evaluations" => standalone_evaluations,
    "cache_hits" => cache_hits,
    "cache_misses" => cache_misses,
    "exhaustive_points" => exhaustive_points,
}

wire_record! {
    ServerStats => put_stats, take_stats, None;
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
}

wire_record! {
    MetricsHistory => put_history, take_history, None;
    "interval_s" => interval_s,
    "samples" => samples,
    "capacity" => capacity,
}

wire_record! {
    HistoryWindow => put_window, take_window, None;
    "window_s" => window_s,
    "duration_s" => duration_s,
    "samples" => samples,
    "req_per_sec" => req_per_sec,
    "points_per_sec" => points_per_sec,
}

wire_record! {
    HistoryTypeWindow => put_type_window, take_type_window, None;
    "requests" => requests,
    "p50_us" => p50_us,
    "p99_us" => p99_us,
}

wire_record! {
    WatchSample => put_watch, take_watch, None;
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
}

// ---------------------------------------------------------------- encode

/// Starting capacity of a freshly encoded line: an eval reply is about
/// 450 bytes, so the common lines are written without regrowing.
const LINE_CAPACITY: usize = 512;

fn put_outcome(outcome: &PointOutcome, w: &mut JsonWriter<'_>) {
    match outcome {
        PointOutcome::Feasible(r) => put_feasible(r, w),
        PointOutcome::Infeasible(reason) => {
            w.field("status", "infeasible").field("reason", reason);
        }
    }
}

/// A frontier entry's members: the point, then its feasible result.
fn put_entry(e: &FrontierEntry, w: &mut JsonWriter<'_>) {
    w.key("point").obj(|w| put_point(&e.point, w));
    put_feasible(&e.result, w);
}

fn put_feasible(r: &PointResult, w: &mut JsonWriter<'_>) {
    w.field("status", "ok");
    put_result(r, w);
}

/// The `found`/`admitted`/`point` + mix-metric block shared by `tune`
/// replies and `tune_frontier` step lines.
fn put_tuned(best: &Option<Tuned>, w: &mut JsonWriter<'_>) {
    w.field("found", best.is_some());
    if let Some(t) = best {
        w.field("admitted", t.admitted);
        w.key("point").obj(|w| put_point(&t.point, w));
        put_mix_result(&t.result, w);
    }
}

fn put_spec(s: &SweepSpec, w: &mut JsonWriter<'_>) {
    w.field("nets", &s.nets)
        .field("pes", &s.pes)
        .field("freqs_mhz", &s.freqs_mhz)
        .field("kmem_depths", &s.kmem_depths)
        .field("imem_kb", &s.imem_kb)
        .field("omem_kb", &s.omem_kb)
        .field("word_bits", &s.word_bits)
        .field("batches", &s.batches);
    if let Some(part) = &s.part {
        w.key("part").obj(|w| {
            w.field("index", part.index).field("of", part.of);
        });
    }
}

/// The shared body of `tune` and `tune_frontier` requests.
fn put_tune_request(req: &TuneRequest, w: &mut JsonWriter<'_>) {
    w.key("space").obj(|w| put_spec(&req.space, w));
    w.key("mix").obj(|w| {
        for e in req.mix.entries() {
            w.field(&e.net, e.weight);
        }
    });
    w.key("budget").obj(|w| {
        let b = &req.budget;
        for (key, value) in [
            ("max_system_mw", b.max_system_mw),
            ("max_gates_k", b.max_gates_k),
            ("min_fps", b.min_fps),
            ("min_sqnr_db", b.min_sqnr_db),
        ] {
            if let Some(v) = value {
                w.field(key, v);
            }
        }
    });
    w.key("objective");
    match &req.objective {
        Objective::Lexicographic(metrics) => {
            w.arr(|w| {
                for m in metrics {
                    w.value(m.name());
                }
            });
        }
        Objective::Scalarized(terms) => {
            w.obj(|w| {
                w.key("scalarized").obj(|w| {
                    for (m, weight) in terms {
                        w.field(m.name(), *weight);
                    }
                });
            });
        }
    }
    // Seeds ride the JSON number; above 2^53 they would lose precision,
    // which the decoder rejects rather than silently aliasing.
    w.field("strategy", req.strategy.name())
        .field("seed", req.seed);
}

/// One span of a `trace` reply. The span's trace id is implied by the
/// reply-level `id` and not repeated per span.
pub(crate) fn put_span(s: &SpanRecord, w: &mut JsonWriter<'_>) {
    w.field("span", s.span_id)
        .field("parent", s.parent_id)
        .field("name", &s.name)
        .field("start_us", s.start_us)
        .field("dur_us", s.dur_us);
    if let Some(worker) = s.worker {
        w.field("worker", worker);
    }
    if s.points != 0 {
        w.field("points", s.points);
    }
}

pub(crate) fn put_metric_entry(entry: &MetricEntry, w: &mut JsonWriter<'_>) {
    w.field("name", &entry.name);
    if !entry.labels.is_empty() {
        w.key("labels").obj(|w| {
            for (k, v) in &entry.labels {
                w.field(k, v);
            }
        });
    }
    match &entry.value {
        MetricValue::Counter(v) => {
            w.field("kind", "counter").field("value", *v);
        }
        MetricValue::Gauge(v) => {
            w.field("kind", "gauge").field("value", *v);
        }
        MetricValue::Histogram(h) => {
            w.field("kind", "histogram")
                .field("count", h.count)
                .field("sum", h.sum)
                .field("p50", h.p50)
                .field("p95", h.p95)
                .field("p99", h.p99)
                .field("max", h.max);
        }
    }
}

fn put_type_windows(types: &[HistoryTypeWindow], w: &mut JsonWriter<'_>) {
    w.key("types").arr(|w| {
        for t in types {
            w.obj(|w| {
                w.field("kind", &t.kind);
                put_type_window(t, w);
            });
        }
    });
}

impl Request {
    /// Every request `type` on the wire, in declaration order.
    pub const TYPES: [&'static str; 13] = [
        "eval",
        "eval_batch",
        "sweep",
        "tune",
        "tune_frontier",
        "frontier",
        "stats",
        "metrics",
        "metrics_history",
        "watch",
        "trace_query",
        "dump",
        "shutdown",
    ];

    /// This request's wire `type` (one of [`Request::TYPES`]), which is
    /// also its metric label.
    pub fn kind(&self) -> &'static str {
        let index = match self {
            Request::Eval(_) => 0,
            Request::EvalBatch(_) => 1,
            Request::Sweep(_) => 2,
            Request::Tune(_) => 3,
            Request::TuneFrontier(_) => 4,
            Request::Frontier { .. } => 5,
            Request::Stats => 6,
            Request::Metrics => 7,
            Request::MetricsHistory => 8,
            Request::Watch { .. } => 9,
            Request::TraceQuery { .. } => 10,
            Request::Dump => 11,
            Request::Shutdown => 12,
        };
        Request::TYPES[index]
    }

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
            if let Some(ctx) = meta.trace {
                w.key("trace").obj(|w| {
                    w.field("id", ctx.id);
                    if ctx.parent != 0 {
                        w.field("parent", ctx.parent);
                    }
                });
            }
            if let Some(id) = meta.req_id {
                w.field("req", id);
            }
            self.put_body(w);
        });
    }

    fn put_body(&self, w: &mut JsonWriter<'_>) {
        match self {
            Request::Eval(point) => {
                w.key("point").obj(|w| put_point(point, w));
            }
            Request::EvalBatch(points) => {
                w.key("points").arr(|w| {
                    for p in points {
                        w.obj(|w| put_point(p, w));
                    }
                });
            }
            Request::Sweep(spec) => {
                w.key("spec").obj(|w| put_spec(spec, w));
            }
            Request::Tune(req) => put_tune_request(req, w),
            Request::TuneFrontier(req) => {
                put_tune_request(&req.base, w);
                w.key("sweep").obj(|w| {
                    w.field("axis", req.sweep.axis.name())
                        .field("values", &req.sweep.values);
                });
            }
            Request::Frontier { dims, sqnr, stream } => {
                w.field("dims", *dims);
                if *sqnr {
                    w.field("axes", "sqnr");
                }
                put_flag(w, "stream", *stream);
            }
            Request::Watch { samples } => {
                w.field("samples", *samples);
            }
            Request::TraceQuery { id } => {
                w.field("id", *id);
            }
            Request::Stats
            | Request::Metrics
            | Request::MetricsHistory
            | Request::Dump
            | Request::Shutdown => {}
        }
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
                Ok(kind) => w.field("ok", true).field("type", kind),
                Err(error) => w.field("ok", false).field("error", error),
            };
            if let Some(id) = req_id {
                w.field("req", id);
            }
            self.put_body(w);
        });
    }

    /// The wire `type` of a success line, or the `error` of a failure.
    fn head(&self) -> Result<&'static str, &str> {
        Ok(match self {
            Response::Eval { .. } => "eval",
            Response::EvalBatch { .. } => "eval_batch",
            Response::Sweep(_) => "sweep",
            Response::Tune(_) => "tune",
            Response::TuneFrontierStep(_) | Response::TuneFrontierDone(_) => "tune_frontier",
            Response::FrontierStreamEntry { .. }
            | Response::FrontierStreamDone { .. }
            | Response::Frontier { .. } => "frontier",
            Response::Stats(_) => "stats",
            Response::Metrics { .. } => "metrics",
            Response::MetricsHistory(_) => "metrics_history",
            Response::WatchSample(_) | Response::WatchDone { .. } => "watch",
            Response::Trace { .. } => "trace",
            Response::Dump { .. } => "dump",
            Response::Shutdown => "shutdown",
            Response::Busy { .. } => return Err("busy"),
            Response::Error { message } => return Err(message),
        })
    }

    fn put_body(&self, w: &mut JsonWriter<'_>) {
        match self {
            Response::Eval { point, outcome } => {
                w.key("point").obj(|w| put_point(point, w));
                put_outcome(outcome, w);
            }
            Response::EvalBatch {
                outcomes,
                cache_hits,
                cache_misses,
            } => {
                w.field("cache_hits", *cache_hits)
                    .field("cache_misses", *cache_misses)
                    .key("outcomes")
                    .arr(|w| {
                        for o in outcomes {
                            w.obj(|w| put_outcome(o, w));
                        }
                    });
            }
            Response::Sweep(s) => {
                put_sweep(s, w);
                if !s.candidates.is_empty() {
                    w.key("candidates").arr(|w| {
                        for (i, o) in &s.candidates {
                            w.obj(|w| {
                                w.field("i", *i);
                                put_objectives(o, w);
                            });
                        }
                    });
                }
                put_flag(w, "degraded", s.degraded);
            }
            Response::Tune(s) => {
                put_tuned(&s.best, w);
                put_tune_counts(s, w);
                put_flag(w, "degraded", s.degraded);
            }
            Response::TuneFrontierStep(s) => {
                put_step_position(s, w);
                w.field("budget_value", s.result.budget_value);
                put_tuned(&s.result.best, w);
                put_step_counts(&s.result, w);
            }
            Response::TuneFrontierDone(s) => {
                w.field("done", true);
                put_frontier_done(s, w);
            }
            Response::FrontierStreamEntry { entry } => {
                w.field("stream", true);
                put_entry(entry, w);
            }
            Response::FrontierStreamDone {
                dims,
                entries,
                degraded,
            } => {
                w.field("done", true)
                    .field("dims", *dims)
                    .field("entries", *entries);
                put_flag(w, "degraded", *degraded);
            }
            Response::Frontier {
                dims,
                entries,
                degraded,
            } => {
                w.field("dims", *dims).key("entries").arr(|w| {
                    for e in entries {
                        w.obj(|w| put_entry(e, w));
                    }
                });
                put_flag(w, "degraded", *degraded);
            }
            Response::Stats(st) => {
                put_stats(st, w);
                if !st.shards.is_empty() {
                    w.key("shards").arr(|w| {
                        for s in &st.shards {
                            w.obj(|w| {
                                w.field("addr", &s.addr)
                                    .field("requests", s.requests)
                                    .field("errors", s.errors);
                                put_flag(w, "degraded", s.degraded);
                            });
                        }
                    });
                }
            }
            Response::Metrics { snapshot } => {
                w.field("uptime_s", snapshot.uptime_s)
                    .key("metrics")
                    .arr(|w| {
                        for entry in &snapshot.entries {
                            w.obj(|w| put_metric_entry(entry, w));
                        }
                    });
            }
            Response::MetricsHistory(h) => {
                put_history(h, w);
                w.key("windows").arr(|w| {
                    for window in &h.windows {
                        w.obj(|w| {
                            put_window(window, w);
                            put_type_windows(&window.types, w);
                        });
                    }
                });
            }
            Response::WatchSample(s) => {
                w.field("seq", s.seq);
                put_watch(s, w);
                put_type_windows(&s.types, w);
            }
            Response::WatchDone { samples } => {
                w.field("done", true).field("samples", *samples);
            }
            Response::Trace { id, dropped, spans } => {
                w.field("id", *id)
                    .field("dropped", *dropped)
                    .key("spans")
                    .arr(|w| {
                        for s in spans {
                            w.obj(|w| put_span(s, w));
                        }
                    });
            }
            Response::Dump {
                path,
                spans,
                dropped,
            } => {
                w.field("path", path)
                    .field("spans", *spans)
                    .field("dropped", *dropped);
            }
            Response::Busy { active, capacity } => {
                w.field("active", *active).field("capacity", *capacity);
            }
            Response::Shutdown | Response::Error { .. } => {}
        }
    }
}

// ---------------------------------------------------------------- decode

/// Parses one wire line; a syntax error becomes the protocol error.
fn parse(line: &str) -> Result<Doc<'_>, ProtocolError> {
    Doc::parse(line).map_err(|e| bad(e.to_string()))
}

/// The envelope's optional pipelining id.
fn req_id(v: Node<'_>) -> Result<Option<u64>, ProtocolError> {
    v.get("req")
        .map(|r| {
            r.as_u64()
                .ok_or_else(|| bad("'req' must be a non-negative integer"))
        })
        .transpose()
}

/// The request envelope: the optional `"trace"` context and `"req"` id.
fn request_meta(v: Node<'_>) -> Result<RequestMeta, ProtocolError> {
    let trace = match v.get("trace") {
        None => None,
        Some(t) if t.is_obj() => {
            let id: u64 = required(t, "id", "'trace' needs an integer 'id'")?;
            if id == 0 {
                return Err(bad("'trace' id must be non-zero"));
            }
            Some(TraceContext {
                id,
                parent: field(t, "parent", 0)?,
            })
        }
        Some(_) => return Err(bad("'trace' must be an object")),
    };
    Ok(RequestMeta {
        trace,
        req_id: req_id(v)?,
    })
}

fn point_from(v: Node<'_>) -> Result<DesignPoint, ProtocolError> {
    if !v.is_obj() {
        return Err(bad("'point' must be an object"));
    }
    take_point(v, DesignPoint::paper_alexnet())
}

fn outcome_from(v: Node<'_>) -> Result<PointOutcome, ProtocolError> {
    match v.get("status").and_then(Node::as_str) {
        Some("ok") => Ok(PointOutcome::Feasible(take_result(
            v,
            PointResult::default(),
        )?)),
        Some("infeasible") => Ok(PointOutcome::Infeasible(
            v.get("reason")
                .and_then(Node::as_str)
                .unwrap_or("unspecified")
                .to_owned(),
        )),
        _ => Err(bad("missing or unknown 'status'")),
    }
}

fn entry_from(v: Node<'_>, what: &str) -> Result<FrontierEntry, ProtocolError> {
    let point = v
        .get("point")
        .ok_or_else(|| bad(format!("{what} needs 'point'")))?;
    Ok(FrontierEntry {
        point: point_from(point)?,
        result: take_result(v, PointResult::default())?,
    })
}

/// The inverse of [`put_tuned`].
fn tuned_from(v: Node<'_>) -> Result<Option<Tuned>, ProtocolError> {
    match v.get("found").and_then(Node::as_bool) {
        Some(true) => {
            let point = v
                .get("point")
                .ok_or_else(|| bad("tune response needs 'point' when found"))?;
            Ok(Some(Tuned {
                point: point_from(point)?,
                result: take_mix_result(v, MixResult::default())?,
                admitted: field(v, "admitted", false)?,
            }))
        }
        Some(false) => Ok(None),
        None => Err(bad("tune response needs a boolean 'found'")),
    }
}

/// The elements of an array field, each decoded by `item`.
fn list<T>(
    v: Node<'_>,
    key: &str,
    what: &str,
    item: impl FnMut(Node<'_>) -> Result<T, ProtocolError>,
) -> Result<Vec<T>, ProtocolError> {
    v.get(key)
        .and_then(Node::items)
        .ok_or_else(|| bad(what))?
        .map(item)
        .collect()
}

/// An axis is a scalar or an array of scalars.
fn axis<T: FromWire>(v: Node<'_>, key: &str, what: &str) -> Result<Vec<T>, ProtocolError> {
    let item =
        |n| T::from_wire(n, key).map_err(|_| bad(format!("axis '{key}' must contain {what}")));
    match v.items() {
        Some(items) => items.map(item).collect(),
        None => Ok(vec![item(v)?]),
    }
}

fn spec_from(v: Node<'_>) -> Result<SweepSpec, ProtocolError> {
    if !v.is_obj() {
        return Err(bad("'spec' must be an object"));
    }
    let ints = "non-negative integers";
    let mut spec = SweepSpec::paper_point();
    for (key, slot) in [
        ("pes", &mut spec.pes),
        ("kmem_depths", &mut spec.kmem_depths),
        ("imem_kb", &mut spec.imem_kb),
        ("omem_kb", &mut spec.omem_kb),
        ("batches", &mut spec.batches),
    ] {
        if let Some(a) = v.get(key) {
            *slot = axis(a, key, ints)?;
        }
    }
    if let Some(a) = v.get("freqs_mhz") {
        spec.freqs_mhz = axis(a, "freqs_mhz", "numbers")?;
    }
    if let Some(a) = v.get("word_bits") {
        spec.word_bits = axis::<usize>(a, "word_bits", ints)?
            .into_iter()
            .map(|b| u32::try_from(b).map_err(|_| bad("'word_bits' out of range")))
            .collect::<Result<_, _>>()?;
    }
    if let Some(nets) = v.get("nets") {
        spec.nets =
            axis(nets, "nets", "strings").map_err(|_| bad("'nets' must contain strings"))?;
    }
    if let Some(part) = v.get("part") {
        if !part.is_obj() {
            return Err(bad("'part' must be an object"));
        }
        let of = field(part, "of", 0)?;
        let index = field(part, "index", 0)?;
        if of == 0 {
            return Err(bad("'part' needs a positive 'of'"));
        }
        spec.part = Some(SweepPart { index, of });
    }
    Ok(spec)
}

fn mix_from(v: Node<'_>) -> Result<WorkloadMix, ProtocolError> {
    let mix = if let Some(text) = v.as_str() {
        WorkloadMix::parse(text)
    } else if v.is_obj() {
        WorkloadMix::new(
            v.fields()
                .map(|(net, w)| {
                    Ok(MixEntry {
                        net: net.to_owned(),
                        weight: w.as_f64().ok_or_else(|| {
                            bad(format!("mix weight for '{net}' must be a number"))
                        })?,
                    })
                })
                .collect::<Result<Vec<_>, ProtocolError>>()?,
        )
    } else {
        return Err(bad(
            "'mix' must be an object of net: weight pairs or a string",
        ));
    };
    mix.map_err(|e| bad(e.to_string()))
}

fn budget_from(v: Node<'_>) -> Result<Budget, ProtocolError> {
    if !v.is_obj() {
        return Err(bad("'budget' must be an object"));
    }
    let opt = |key| v.get(key).map(|f| f64::from_wire(f, key)).transpose();
    Ok(Budget {
        max_system_mw: opt("max_system_mw")?,
        max_gates_k: opt("max_gates_k")?,
        min_fps: opt("min_fps")?,
        min_sqnr_db: opt("min_sqnr_db")?,
    })
}

fn objective_from(v: Node<'_>) -> Result<Objective, ProtocolError> {
    let objective = if let Some(text) = v.as_str() {
        return Objective::parse(text).map_err(ProtocolError);
    } else if let Some(items) = v.items() {
        Objective::Lexicographic(
            items
                .map(|m| {
                    m.as_str()
                        .ok_or_else(|| bad("objective metrics must be strings"))?
                        .parse::<Metric>()
                        .map_err(ProtocolError)
                })
                .collect::<Result<Vec<_>, _>>()?,
        )
    } else if v.is_obj() {
        let terms = v
            .get("scalarized")
            .filter(|t| t.is_obj())
            .ok_or_else(|| bad("objective object needs a 'scalarized' object"))?;
        Objective::Scalarized(
            terms
                .fields()
                .map(|(name, w)| {
                    Ok((
                        name.parse::<Metric>().map_err(ProtocolError)?,
                        w.as_f64().ok_or_else(|| {
                            bad(format!("objective weight for '{name}' must be a number"))
                        })?,
                    ))
                })
                .collect::<Result<Vec<_>, ProtocolError>>()?,
        )
    } else {
        return Err(bad("'objective' must be a string, array or object"));
    };
    objective.validate().map_err(ProtocolError)?;
    Ok(objective)
}

fn tune_request_from(v: Node<'_>) -> Result<TuneRequest, ProtocolError> {
    let mut req = TuneRequest::default();
    if let Some(space) = v.get("space") {
        req.space = spec_from(space)?;
    }
    if let Some(mix) = v.get("mix") {
        req.mix = mix_from(mix)?;
    }
    if let Some(budget) = v.get("budget") {
        req.budget = budget_from(budget)?;
    }
    if let Some(objective) = v.get("objective") {
        req.objective = objective_from(objective)?;
    }
    if let Some(strategy) = v.get("strategy") {
        req.strategy = strategy
            .as_str()
            .ok_or_else(|| bad("'strategy' must be a string"))?
            .parse::<StrategyKind>()
            .map_err(ProtocolError)?;
    }
    req.seed = v
        .get("seed")
        .map_or(Some(0), Node::as_u64)
        .ok_or_else(|| bad("'seed' must be a non-negative integer (below 2^53)"))?;
    Ok(req)
}

/// A budget sweep is an `{"axis": ..., "values": [...]}` object or the
/// CLI string form (`"max-mw=300..=900:50"`). Either way the sweep is
/// validated (non-empty, strictly increasing, legal bounds).
fn budget_sweep_from(v: Node<'_>) -> Result<BudgetSweep, ProtocolError> {
    if let Some(text) = v.as_str() {
        return BudgetSweep::parse(text).map_err(ProtocolError);
    }
    if !v.is_obj() {
        return Err(bad("'sweep' must be an object or a string"));
    }
    let axis = v
        .get("axis")
        .and_then(Node::as_str)
        .ok_or_else(|| bad("'sweep' needs a string 'axis'"))?
        .parse::<BudgetAxis>()
        .map_err(ProtocolError)?;
    let values = list(v, "values", "'sweep' needs a 'values' array", |item| {
        item.as_f64()
            .ok_or_else(|| bad("'sweep' values must be numbers"))
    })?;
    let sweep = BudgetSweep { axis, values };
    sweep.validate().map_err(ProtocolError)?;
    Ok(sweep)
}

fn type_windows_from(v: Node<'_>) -> Result<Vec<HistoryTypeWindow>, ProtocolError> {
    list(v, "types", "windowed reply needs a 'types' array", |t| {
        let kind = required(t, "kind", "type window needs a string 'kind'")?;
        take_type_window(
            t,
            HistoryTypeWindow {
                kind,
                ..HistoryTypeWindow::default()
            },
        )
    })
}

fn span_from(trace_id: u64, v: Node<'_>) -> Result<SpanRecord, ProtocolError> {
    Ok(SpanRecord {
        trace_id,
        span_id: required(v, "span", "span entry needs an integer 'span'")?,
        parent_id: field(v, "parent", 0)?,
        name: required(v, "name", "span entry needs a string 'name'")?,
        start_us: field(v, "start_us", 0)?,
        dur_us: field(v, "dur_us", 0)?,
        worker: v
            .get("worker")
            .map(|w| {
                w.as_u64()
                    .and_then(|n| u32::try_from(n).ok())
                    .ok_or_else(|| bad("span 'worker' must be a small integer"))
            })
            .transpose()?,
        points: u32::try_from(field::<usize>(v, "points", 0)?)
            .map_err(|_| bad("span 'points' out of range"))?,
    })
}

fn metric_entry_from(v: Node<'_>) -> Result<MetricEntry, ProtocolError> {
    let name = required(v, "name", "metric entry needs a string 'name'")?;
    let labels = match v.get("labels") {
        None => Vec::new(),
        Some(pairs) if pairs.is_obj() => pairs
            .fields()
            .map(|(k, lv)| {
                lv.as_str()
                    .map(|s| (k.to_owned(), s.to_owned()))
                    .ok_or_else(|| bad("metric labels must be strings"))
            })
            .collect::<Result<_, ProtocolError>>()?,
        Some(_) => return Err(bad("'labels' must be an object")),
    };
    let kind = v
        .get("kind")
        .and_then(Node::as_str)
        .ok_or_else(|| bad("metric entry needs a string 'kind'"))?;
    let value = match kind {
        "counter" => MetricValue::Counter(required(
            v,
            "value",
            "counter metric needs an integer 'value'",
        )?),
        "gauge" => MetricValue::Gauge(field(v, "value", 0.0)?),
        "histogram" => MetricValue::Histogram(HistogramSummary {
            // Lenient, like the flags: a mistyped count reads as 0.
            count: v.get("count").and_then(Node::as_u64).unwrap_or(0),
            sum: v.get("sum").and_then(Node::as_u64).unwrap_or(0),
            p50: field(v, "p50", 0.0)?,
            p95: field(v, "p95", 0.0)?,
            p99: field(v, "p99", 0.0)?,
            max: field(v, "max", 0.0)?,
        }),
        other => return Err(bad(format!("unknown metric kind '{other}'"))),
    };
    Ok(MetricEntry {
        name,
        labels,
        value,
    })
}

impl Request {
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
        let meta = request_meta(doc.root())?;
        Ok((Request::from_node(doc.root())?, meta))
    }

    fn from_node(v: Node<'_>) -> Result<Request, ProtocolError> {
        let kind = v
            .get("type")
            .and_then(Node::as_str)
            .ok_or_else(|| bad("request needs a string 'type'"))?;
        Ok(match kind {
            "eval" => Request::Eval(match v.get("point") {
                None => DesignPoint::paper_alexnet(),
                Some(p) => point_from(p)?,
            }),
            "eval_batch" => Request::EvalBatch(list(
                v,
                "points",
                "eval_batch request needs a 'points' array",
                point_from,
            )?),
            "sweep" => Request::Sweep(spec_from(
                v.get("spec")
                    .ok_or_else(|| bad("sweep request needs a 'spec' object"))?,
            )?),
            "tune" => Request::Tune(Box::new(tune_request_from(v)?)),
            "tune_frontier" => {
                let base = tune_request_from(v)?;
                let sweep = v
                    .get("sweep")
                    .ok_or_else(|| bad("tune_frontier request needs a 'sweep'"))?;
                Request::TuneFrontier(Box::new(FrontierTuneRequest {
                    base,
                    sweep: budget_sweep_from(sweep)?,
                }))
            }
            "frontier" => {
                let dims = field(v, "dims", 3usize)?;
                if !(dims == 2 || dims == 3) {
                    return Err(bad("'dims' must be 2 or 3"));
                }
                let sqnr = match v.get("axes").map(Node::as_str) {
                    None | Some(Some("gates")) => false,
                    Some(Some("sqnr")) => true,
                    _ => return Err(bad("'axes' must be \"gates\" or \"sqnr\"")),
                };
                if sqnr && dims != 3 {
                    return Err(bad("the sqnr frontier is 3-dimensional; use dims 3"));
                }
                let stream = v
                    .get("stream")
                    .map_or(Some(false), Node::as_bool)
                    .ok_or_else(|| bad("'stream' must be a boolean"))?;
                Request::Frontier {
                    dims: dims as u8,
                    sqnr,
                    stream,
                }
            }
            "stats" => Request::Stats,
            "metrics" => Request::Metrics,
            "metrics_history" => Request::MetricsHistory,
            "watch" => Request::Watch {
                samples: field(v, "samples", 0)?,
            },
            "trace_query" => Request::TraceQuery {
                id: required(v, "id", "trace_query needs an integer 'id'")?,
            },
            "dump" => Request::Dump,
            "shutdown" => Request::Shutdown,
            other => return Err(bad(format!("unknown request type '{other}'"))),
        })
    }
}

impl Response {
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
        let req = req_id(doc.root())?;
        Ok((Response::from_node(doc.root())?, req))
    }

    fn from_node(v: Node<'_>) -> Result<Response, ProtocolError> {
        let ok = v
            .get("ok")
            .and_then(Node::as_bool)
            .ok_or_else(|| bad("response needs a boolean 'ok'"))?;
        if !ok {
            let message = v
                .get("error")
                .and_then(Node::as_str)
                .unwrap_or("unspecified");
            if message == "busy" {
                return Ok(Response::Busy {
                    active: field(v, "active", 0)?,
                    capacity: field(v, "capacity", 0)?,
                });
            }
            return Ok(Response::Error {
                message: message.to_owned(),
            });
        }
        let kind = v
            .get("type")
            .and_then(Node::as_str)
            .ok_or_else(|| bad("response needs a string 'type'"))?;
        // Streamed kinds end with a `done` line; flags read leniently.
        let done = || v.get("done").and_then(Node::as_bool) == Some(true);
        Ok(match kind {
            "eval" => {
                let point = v
                    .get("point")
                    .ok_or_else(|| bad("eval response needs 'point'"))?;
                Response::Eval {
                    point: point_from(point)?,
                    outcome: outcome_from(v)?,
                }
            }
            "eval_batch" => Response::EvalBatch {
                outcomes: list(
                    v,
                    "outcomes",
                    "eval_batch response needs 'outcomes'",
                    outcome_from,
                )?,
                cache_hits: field(v, "cache_hits", 0)?,
                cache_misses: field(v, "cache_misses", 0)?,
            },
            "sweep" => {
                let candidates = match v.get("candidates") {
                    None => Vec::new(),
                    Some(arr) => arr
                        .items()
                        .ok_or_else(|| bad("'candidates' must be an array"))?
                        .map(|c| {
                            Ok((
                                required(c, "i", "candidate needs an integer 'i'")?,
                                take_objectives(c, Objectives::default())?,
                            ))
                        })
                        .collect::<Result<_, ProtocolError>>()?,
                };
                Response::Sweep(take_sweep(
                    v,
                    SweepSummary {
                        candidates,
                        degraded: field(v, "degraded", false)?,
                        ..SweepSummary::default()
                    },
                )?)
            }
            "tune" => Response::Tune(take_tune_counts(
                v,
                TuneSummary {
                    best: tuned_from(v)?,
                    degraded: field(v, "degraded", false)?,
                    ..TuneSummary::default()
                },
            )?),
            "tune_frontier" if done() => {
                Response::TuneFrontierDone(take_frontier_done(v, FrontierDoneSummary::default())?)
            }
            "tune_frontier" => {
                // Required, not defaulted: a NaN budget would poison
                // every PartialEq on the step downstream.
                let budget_value = required(
                    v,
                    "budget_value",
                    "tune_frontier step line needs a numeric 'budget_value'",
                )?;
                let result = take_step_counts(
                    v,
                    FrontierStep {
                        budget_value,
                        best: tuned_from(v)?,
                        ..FrontierStep::default()
                    },
                )?;
                Response::TuneFrontierStep(take_step_position(
                    v,
                    FrontierStepSummary {
                        result,
                        ..FrontierStepSummary::default()
                    },
                )?)
            }
            "frontier" if done() => Response::FrontierStreamDone {
                dims: field(v, "dims", 3)?,
                entries: field(v, "entries", 0)?,
                degraded: field(v, "degraded", false)?,
            },
            "frontier" if field(v, "stream", false)? => Response::FrontierStreamEntry {
                entry: entry_from(v, "frontier stream entry")?,
            },
            "frontier" => Response::Frontier {
                dims: field(v, "dims", 3)?,
                entries: list(v, "entries", "frontier response needs 'entries'", |e| {
                    entry_from(e, "frontier entry")
                })?,
                degraded: field(v, "degraded", false)?,
            },
            "stats" => {
                let shards = match v.get("shards") {
                    None => Vec::new(),
                    Some(arr) => arr
                        .items()
                        .ok_or_else(|| bad("'shards' must be an array"))?
                        .map(|s| {
                            Ok(ShardStat {
                                addr: required(s, "addr", "shard stat needs a string 'addr'")?,
                                requests: field(s, "requests", 0)?,
                                errors: field(s, "errors", 0)?,
                                degraded: field(s, "degraded", false)?,
                            })
                        })
                        .collect::<Result<_, ProtocolError>>()?,
                };
                Response::Stats(take_stats(
                    v,
                    ServerStats {
                        shards,
                        ..ServerStats::default()
                    },
                )?)
            }
            "metrics" => Response::Metrics {
                snapshot: Snapshot {
                    entries: list(
                        v,
                        "metrics",
                        "metrics response needs 'metrics'",
                        metric_entry_from,
                    )?,
                    uptime_s: field(v, "uptime_s", 0.0)?,
                },
            },
            "metrics_history" => {
                let windows = list(
                    v,
                    "windows",
                    "metrics_history response needs 'windows'",
                    |w| {
                        let types = type_windows_from(w)?;
                        take_window(
                            w,
                            HistoryWindow {
                                types,
                                ..HistoryWindow::default()
                            },
                        )
                    },
                )?;
                Response::MetricsHistory(Box::new(take_history(
                    v,
                    MetricsHistory {
                        windows,
                        ..MetricsHistory::default()
                    },
                )?))
            }
            "watch" if done() => Response::WatchDone {
                samples: field(v, "samples", 0)?,
            },
            "watch" => {
                // A sample line carries `seq`; the terminal line carries
                // `done` — a line with neither is malformed.
                let seq = required(v, "seq", "watch sample line needs an integer 'seq'")?;
                let types = type_windows_from(v)?;
                Response::WatchSample(Box::new(take_watch(
                    v,
                    WatchSample {
                        seq,
                        types,
                        ..WatchSample::default()
                    },
                )?))
            }
            "trace" => {
                let id = required(v, "id", "trace response needs an integer 'id'")?;
                Response::Trace {
                    id,
                    dropped: field(v, "dropped", 0)?,
                    spans: list(v, "spans", "trace response needs 'spans'", |s| {
                        span_from(id, s)
                    })?,
                }
            }
            "dump" => Response::Dump {
                path: required(v, "path", "dump response needs a string 'path'")?,
                spans: field(v, "spans", 0)?,
                dropped: field(v, "dropped", 0)?,
            },
            "shutdown" => Response::Shutdown,
            other => return Err(bad(format!("unknown response type '{other}'"))),
        })
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
