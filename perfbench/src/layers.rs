//! The per-layer ladder of a traced run: the benchmark times calls into
//! each module's public functions, sampling over the workload's own
//! points, requests and replies, and records every call as a span.
//! Layer metrics are the median self time per call of those spans.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use chain_nn_core::perf::{CycleModel, PerfModel};
use chain_nn_core::ChainConfig;
use chain_nn_dse::engine::{ClaimPolicy, Engine};
use chain_nn_dse::pareto::{self, Objectives};
use chain_nn_dse::{
    accuracy, evaluate, executor, network_by_name, CacheFile, DesignPoint, MixOutcome, PointCache,
    PointOutcome, WorkloadMix,
};
use chain_nn_energy::area::AreaModel;
use chain_nn_energy::power::PowerModel;
use chain_nn_mem::traffic::TrafficModel;
use chain_nn_mem::MemoryConfig;
use chain_nn_obs::Registry;
use chain_nn_serve::protocol::{Request, Response};
use chain_nn_tuner::{tune, CacheEvaluator, MixEvaluator, TuneError, TuneReport, TuneRequest};

use crate::report::Values;
use crate::stats::median;
use crate::trace::Tracer;

/// Calls per span for the sub-microsecond layers, so the clock's own
/// cost (tens of ns per reading) stays out of the per-call figure.
const CALLS: u32 = 8;

/// Points per engine job in the ladder (the daemon's largest claim).
const JOB: usize = 32;
/// Engine jobs submitted for queue wait and execute time: enough for a
/// p99 with ten samples beyond it.
const ENGINE_JOBS: usize = 1000;

/// The kind of exchange the `serve.*` codec metrics describe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `eval` requests and their replies.
    Eval,
    /// `tune` requests and their summaries.
    Tune,
}

impl Kind {
    fn of(request: &Request) -> Kind {
        match request {
            Request::Tune(_) => Kind::Tune,
            _ => Kind::Eval,
        }
    }

    /// Span names of request encode, request decode, reply encode and
    /// reply decode for this kind.
    pub fn spans(self) -> [&'static str; 4] {
        match self {
            Kind::Eval => [
                "serve.request_encode.eval",
                "serve.request_decode.eval",
                "serve.reply_encode.eval",
                "serve.reply_decode.eval",
            ],
            Kind::Tune => [
                "serve.request_encode.tune",
                "serve.request_decode.tune",
                "serve.reply_encode.tune",
                "serve.reply_decode.tune",
            ],
        }
    }
}

/// What one workload hands the ladder: samples of its own inputs.
pub struct Input<'a> {
    /// Design points the workload evaluates or looks up.
    pub points: &'a [DesignPoint],
    /// Request/reply pairs as the workload exchanged them.
    pub exchanges: &'a [(Request, Response)],
    /// Which exchanges the `serve.*` codec metrics are taken over.
    pub codec_kind: Kind,
    /// The objectives the workload's frontier is taken over.
    pub objectives: &'a [(usize, Objectives)],
    /// Fresh cache entries of single requests, as the daemon appends
    /// them to its cache file.
    pub appends: &'a [Vec<(DesignPoint, PointOutcome)>],
    /// Scratch directory for the cache-file appends.
    pub work_dir: &'a Path,
}

/// What the ladder measured.
pub struct Ladder {
    /// Median self time per call of every span name, ns.
    pub ns: BTreeMap<&'static str, f64>,
    /// Engine queue wait per job, µs.
    pub queue_wait_us: Vec<f64>,
    /// Engine execute time per job, µs.
    pub execute_us: Vec<f64>,
}

impl Ladder {
    /// Median ns per call of `span`, 0 when the span never ran.
    pub fn ns(&self, span: &str) -> f64 {
        self.ns.get(span).copied().unwrap_or(0.0)
    }
}

/// Runs the ladder, recording spans into `tracer` and setting every
/// per-call layer metric it measures into `values`.
///
/// # Errors
///
/// A failed call or a codec round trip that does not reproduce its
/// input.
pub fn run(tracer: &mut Tracer, input: &Input<'_>, values: &mut Values) -> Result<Ladder, String> {
    model_stages(tracer, input.points)?;
    let engine = engine_jobs(tracer, input.points)?;
    if !engine.self_ns_per_point.is_empty() {
        values.set(
            "dse.engine_self_ns_per_point",
            median(&engine.self_ns_per_point),
        );
    }
    let bytes = codec(tracer, input.exchanges, input.codec_kind)?;
    if !bytes.is_empty() {
        values.set("serve.reply_bytes", median(&bytes));
    }
    labelled_lookups(tracer);
    for _ in 0..16 {
        tracer.time("dse.pareto", 0, 0, 1, || {
            (
                pareto::frontier_2d(input.objectives),
                pareto::frontier_3d(input.objectives),
                pareto::frontier_accuracy(input.objectives),
            )
        });
    }
    persist_appends(tracer, input)?;

    let ns: BTreeMap<&'static str, f64> = tracer
        .self_ns_per_call()
        .into_iter()
        .map(|(name, v)| (name, median(&v)))
        .collect();
    let [req_enc, req_dec, rep_enc, rep_dec] = input.codec_kind.spans();
    for (metric, span, scale) in [
        ("nets.lookup_ns", "nets.lookup", 1.0),
        ("core.perf_ns", "core.perf", 1.0),
        ("mem.traffic_ns", "mem.traffic", 1.0),
        ("energy.power_ns", "energy.power", 1.0),
        ("energy.area_ns", "energy.area", 1.0),
        ("dse.sqnr_memo_ns", "dse.sqnr_memo", 1.0),
        ("dse.evaluate_ns", "dse.evaluate", 1.0),
        ("dse.cache_insert_ns", "dse.cache_insert", 1.0),
        ("dse.cache_probe_ns", "dse.cache_probe", 1.0),
        ("dse.pareto_us", "dse.pareto", 1e-3),
        ("dse.persist_append_us", "dse.persist_append", 1e-3),
        ("serve.request_encode_ns", req_enc, 1.0),
        ("serve.request_decode_ns", req_dec, 1.0),
        ("serve.reply_encode_ns", rep_enc, 1.0),
        ("serve.reply_decode_ns", rep_dec, 1.0),
        ("obs.labelled_lookup_ns", "obs.labelled_lookup", 1.0),
    ] {
        if let Some(v) = ns.get(span) {
            values.set(metric, v * scale);
        }
    }
    Ok(Ladder {
        ns,
        queue_wait_us: engine.queue_wait_us,
        execute_us: engine.execute_us,
    })
}

fn chain_and_memory(p: &DesignPoint) -> Result<(ChainConfig, MemoryConfig), String> {
    let cfg = ChainConfig::builder()
        .num_pes(p.pes)
        .freq_mhz(p.freq_mhz)
        .kmemory_depth(p.kmem_depth)
        .build()
        .map_err(|e| e.to_string())?;
    let mem = MemoryConfig {
        imem_bytes: p.imem_kb * 1024,
        omem_bytes: p.omem_kb * 1024,
        word_bytes: p.word_bits as usize / 8,
    };
    Ok((cfg, mem))
}

/// Every model stage `evaluate` runs, one span each, per point.
fn model_stages(tracer: &mut Tracer, points: &[DesignPoint]) -> Result<(), String> {
    for (i, p) in points.iter().enumerate() {
        let req = i as u64;
        let parent = tracer.open("ladder.point", 0, req);
        let net = tracer
            .time("nets.lookup", parent, req, CALLS, || {
                network_by_name(&p.net)
            })
            .ok_or_else(|| format!("unknown network {}", p.net))?;
        let (cfg, mem) = chain_and_memory(p)?;
        // Infeasible points fail inside the stages; the time to find
        // that out is still the stage's cost on this point.
        tracer.time("core.perf", parent, req, CALLS, || {
            PerfModel::new(cfg)
                .network(&net, p.batch, CycleModel::PaperCalibrated)
                .is_ok()
        });
        tracer.time("mem.traffic", parent, req, CALLS, || {
            TrafficModel::new(cfg, mem)
                .network_traffic(&net, p.batch)
                .is_ok()
        });
        tracer.time("energy.power", parent, req, CALLS, || {
            PowerModel::with_operand_bits(cfg, mem, p.word_bits)
                .network_power(&net, p.batch)
                .is_ok()
        });
        tracer.time("energy.area", parent, req, CALLS, || {
            AreaModel::with_operand_bits(cfg, p.word_bits).total_gates()
        });
        tracer
            .time("dse.sqnr_memo", parent, req, CALLS, || {
                accuracy::sqnr_for(&p.net, p.word_bits)
            })
            .map_err(|e| e.to_string())?;
        let outcome = tracer
            .time("dse.evaluate", parent, req, CALLS, || evaluate(p))
            .map_err(|e| e.to_string())?;
        let caches: Vec<PointCache> = (0..CALLS).map(|_| PointCache::new()).collect();
        let mut k = 0;
        tracer.time("dse.cache_insert", parent, req, CALLS, || {
            caches[k].insert(p, outcome.clone());
            k += 1;
        });
        let hit = tracer.time("dse.cache_probe", parent, req, CALLS, || caches[0].probe(p));
        if hit.as_ref() != Some(&outcome) {
            return Err(format!(
                "cache probe of {p} did not return the inserted outcome"
            ));
        }
        tracer.close(parent);
    }
    Ok(())
}

/// The engine on jobs of [`JOB`] points. Each job once through
/// `executor::run` on a cold cache and once as a plain `evaluate` loop
/// (alternating which goes first): their difference per point is the
/// engine's own cost (claims, cache miss and insert, delivery). Then
/// [`ENGINE_JOBS`] jobs submitted to an engine, for queue wait and
/// execute time.
fn engine_jobs(tracer: &mut Tracer, points: &[DesignPoint]) -> Result<EngineSample, String> {
    let mut out = EngineSample::default();
    let chunks: Vec<&[DesignPoint]> = points.chunks(JOB).collect();
    for (j, chunk) in chunks.iter().enumerate() {
        let req = j as u64;
        let direct = |tracer: &mut Tracer| -> Result<f64, String> {
            let start = Instant::now();
            for p in *chunk {
                std::hint::black_box(evaluate(p).map_err(|e| e.to_string())?);
            }
            let end = Instant::now();
            tracer.record("dse.evaluate_loop", 0, req, start, end, chunk.len() as u32);
            Ok((end - start).as_secs_f64() * 1e9)
        };
        let engine = |tracer: &mut Tracer| -> Result<f64, String> {
            let cache = PointCache::new();
            let start = Instant::now();
            executor::run(chunk, 1, &cache).map_err(|e| e.to_string())?;
            let end = Instant::now();
            tracer.record("dse.executor_run", 0, req, start, end, chunk.len() as u32);
            Ok((end - start).as_secs_f64() * 1e9)
        };
        let (plain, run) = if j % 2 == 0 {
            let plain = direct(tracer)?;
            (plain, engine(tracer)?)
        } else {
            let run = engine(tracer)?;
            (direct(tracer)?, run)
        };
        out.self_ns_per_point
            .push((run - plain) / chunk.len() as f64);
    }
    for chunk in chunks.iter().cycle().take(ENGINE_JOBS) {
        let engine = Engine::new(1, ClaimPolicy::adaptive());
        let handle = engine
            .submit(chunk.to_vec())
            .map_err(|e| format!("{e:?}"))?;
        engine.begin_shutdown();
        engine.worker_loop(&PointCache::new());
        let job = handle.wait().map_err(|e| e.to_string())?;
        out.queue_wait_us.push(job.queue_wait.as_secs_f64() * 1e6);
        out.execute_us.push(job.execute.as_secs_f64() * 1e6);
    }
    Ok(out)
}

/// What [`engine_jobs`] measured, per job.
#[derive(Default)]
struct EngineSample {
    self_ns_per_point: Vec<f64>,
    queue_wait_us: Vec<f64>,
    execute_us: Vec<f64>,
}

/// Both directions of the wire codec on the workload's exchanges,
/// returning the reply sizes of the `kind` exchanges.
fn codec(
    tracer: &mut Tracer,
    exchanges: &[(Request, Response)],
    kind: Kind,
) -> Result<Vec<f64>, String> {
    let mut bytes = Vec::new();
    for (i, (request, response)) in exchanges.iter().enumerate() {
        let id = Some(i as u64 + 1);
        let req = i as u64;
        let this = Kind::of(request);
        let [req_enc, req_dec, rep_enc, rep_dec] = this.spans();
        let parent = tracer.open("ladder.exchange", 0, req);
        let line = tracer.time(req_enc, parent, req, CALLS, || {
            request.encode_with_meta(None, id)
        });
        let (decoded, meta) = tracer
            .time(req_dec, parent, req, CALLS, || {
                Request::decode_with_meta(&line)
            })
            .map_err(|e| e.to_string())?;
        let reply = tracer.time(rep_enc, parent, req, CALLS, || response.encode_with_req(id));
        let (echo, echo_id) = tracer
            .time(rep_dec, parent, req, CALLS, || {
                Response::decode_with_req(&reply)
            })
            .map_err(|e| e.to_string())?;
        tracer.close(parent);
        if decoded != *request || meta.req_id != id || echo != *response || echo_id != id {
            return Err(format!("wire round trip changed exchange {i}: {line}"));
        }
        if this == kind {
            bytes.push(reply.len() as f64);
        }
    }
    Ok(bytes)
}

/// `Registry::counter_with` / `histogram_with` on existing series, as
/// the daemon resolves them for every request it records.
fn labelled_lookups(tracer: &mut Tracer) {
    let registry = Registry::new();
    let labels: &[(&str, &str)] = &[("type", "eval")];
    registry.counter_with("serve_requests_total", labels);
    registry.histogram_with("serve_request_ns", labels);
    for i in 0..256 {
        let start = Instant::now();
        for _ in 0..CALLS {
            std::hint::black_box(registry.counter_with("serve_requests_total", labels));
            std::hint::black_box(registry.histogram_with("serve_request_ns", labels));
        }
        tracer.record(
            "obs.labelled_lookup",
            0,
            i,
            start,
            Instant::now(),
            2 * CALLS,
        );
    }
}

/// `CacheFile::append` of single requests' fresh entries, each synced
/// to disk as the daemon does after a request.
fn persist_appends(tracer: &mut Tracer, input: &Input<'_>) -> Result<(), String> {
    let path = input.work_dir.join("ladder.cache");
    let _ = std::fs::remove_file(&path);
    let file = CacheFile::new(&path);
    for (i, entries) in input.appends.iter().enumerate() {
        tracer
            .time("dse.persist_append", 0, i as u64, 1, || {
                file.append(entries)
            })
            .map_err(|e| e.to_string())?;
    }
    let _ = std::fs::remove_file(&path);
    Ok(())
}

/// A [`MixEvaluator`] that times every round of the evaluator it wraps.
struct TimedEvaluator<'a> {
    inner: CacheEvaluator<'a>,
    rounds: Vec<(Instant, Instant)>,
}

impl MixEvaluator for TimedEvaluator<'_> {
    fn evaluate(
        &mut self,
        mix: &WorkloadMix,
        bases: &[DesignPoint],
    ) -> Result<Vec<MixOutcome>, TuneError> {
        let start = Instant::now();
        let out = self.inner.evaluate(mix, bases);
        self.rounds.push((start, Instant::now()));
        out
    }

    fn counters(&self) -> (u64, u64) {
        self.inner.counters()
    }
}

/// One in-process tune on a fresh cache, with its evaluator's share.
pub struct Replay {
    /// The tuner's report.
    pub report: TuneReport,
    /// Whole tune, ms.
    pub total_ms: f64,
    /// Time inside the evaluator, ms.
    pub eval_ms: f64,
}

/// Replays `request` through `tuner::tune` on a fresh in-process cache,
/// recording a `tuner.tune` span with one `tuner.eval` child per round.
///
/// # Errors
///
/// The tuner's error, as text.
pub fn replay_tune(tracer: &mut Tracer, request: &TuneRequest, req: u64) -> Result<Replay, String> {
    let cache = PointCache::new();
    let mut evaluator = TimedEvaluator {
        inner: CacheEvaluator::new(&cache, 1),
        rounds: Vec::new(),
    };
    let start = Instant::now();
    let report = tune(request, &mut evaluator).map_err(|e| e.to_string())?;
    let end = Instant::now();
    let parent = tracer.record("tuner.tune", 0, req, start, end, 1);
    let mut eval = 0.0;
    for &(s, e) in &evaluator.rounds {
        tracer.record("tuner.eval", parent, req, s, e, 1);
        eval += (e - s).as_secs_f64();
    }
    Ok(Replay {
        report,
        total_ms: (end - start).as_secs_f64() * 1e3,
        eval_ms: eval * 1e3,
    })
}

/// Sets the `tuner.*` metrics from a run's replays.
pub fn tuner_metrics(replays: &[Replay], values: &mut Values) {
    if replays.is_empty() {
        return;
    }
    let pick = |f: &dyn Fn(&Replay) -> f64| median(&replays.iter().map(f).collect::<Vec<_>>());
    values.set("tuner.self_ms", pick(&|r| r.total_ms - r.eval_ms));
    values.set("tuner.eval_ms", pick(&|r| r.eval_ms));
    values.set("tuner.evaluations", pick(&|r| r.report.evaluations as f64));
    values.set("tuner.rounds", pick(&|r| r.report.rounds as f64));
}

/// Evenly spaced sample of at most `n` items.
pub fn sample<T: Clone>(items: &[T], n: usize) -> Vec<T> {
    if items.len() <= n {
        return items.to_vec();
    }
    (0..n).map(|i| items[i * items.len() / n].clone()).collect()
}

/// Objectives of the feasible outcomes, indexed by position.
pub fn objectives(outcomes: &[PointOutcome]) -> Vec<(usize, Objectives)> {
    outcomes
        .iter()
        .enumerate()
        .filter_map(|(i, o)| Some((i, Objectives::from(o.result()?))))
        .collect()
}
