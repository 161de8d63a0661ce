//! The three workloads. Each is closed loop: one client thread waits
//! for every reply before it sends the next request (the pipelined
//! phases keep a fixed window in flight on the same connection). Each
//! measures for the run's seconds, split over its phases, and checks
//! every reply against an in-process reference outside the timed
//! intervals.

use std::collections::VecDeque;
use std::path::PathBuf;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use chain_nn_dse::pareto;
use chain_nn_dse::{
    evaluate, executor, export, DesignPoint, Explorer, PointCache, PointOutcome, SweepResult,
    SweepStats,
};
use chain_nn_obs::Snapshot;
use chain_nn_serve::client::Client;
use chain_nn_serve::protocol::{Request, Response};
use chain_nn_serve::server::{Server, ServerConfig, ServerReport};
use chain_nn_tuner::{tune, CacheEvaluator, TuneReport, TuneRequest, Tuned};

use crate::inputs::{self, ColdStream, Rng};
use crate::layers::{self, Kind, Ladder, Replay};
use crate::pace::{Pace, Probe};
use crate::report::Values;
use crate::stats::{self, median, Outcome, Rate, Samples, Tally};
use crate::trace::Tracer;

/// The paper's AlexNet result at 576 PEs / 700 MHz (Table V, Fig. 10).
const PAPER_FPS: f64 = 326.2;
/// The paper's on-chip power at the same point, mW.
const PAPER_CHIP_MW: f64 = 567.5;

/// FNV-1a digests of the reference `results_csv` of the sweep grid at
/// each PE shift (seed % 4), recorded with the benchmark.
const GRID_DIGESTS: [u64; 4] = [
    0x9579_9c14_d2a6_215c,
    0x11e8_28df_c4a6_8e17,
    0x7682_ca8f_08e9_e6af,
    0xb318_86bc_d2c5_57fe,
];
/// Feasible points of the unshifted grid (seed % 4 == 0).
const GRID_FEASIBLE: usize = 2832;

/// Points per in-process engine job in `sweep_cold` and window depth
/// of the pipelined phases.
const WINDOW: usize = 32;
/// In-memory cache bound of the `serve_cold` daemon, points.
const COLD_CACHE_POINTS: usize = 8192;
/// Cold evals per tune in `serve_cold`.
const EVALS_PER_TUNE: usize = 8;
/// Pipelined replies between two host-speed probes.
const BURST: usize = 256;
/// Samples the traced run's ladder takes from a workload.
const LADDER_POINTS: usize = 192;
const LADDER_EXCHANGES: usize = 96;

/// Everything one workload run needs.
pub struct Ctx {
    /// Workload seed.
    pub seed: u64,
    /// Measured seconds, split over the workload's phases.
    pub seconds: f64,
    /// Span recorder (on in traced runs).
    pub tracer: Tracer,
    /// The daemon's worker threads: the process's CPUs before pinning.
    pub nproc: usize,
    /// Host-speed probes that scale every timing.
    pub pace: Pace,
    /// Scratch directory of this run (the ladder's cache-file appends).
    pub work_dir: PathBuf,
    /// When the process started: set-up time counts from here.
    pub started: Instant,
    /// Stop after set-up and report only its time.
    pub setup_only: bool,
}

/// One layer's share of one operation, for the "where the time goes"
/// table.
pub struct Share {
    /// Layer (span) name.
    pub layer: String,
    /// Calls per operation.
    pub calls: f64,
    /// Self time per call, ns.
    pub ns_per_call: f64,
}

/// What a workload run produced.
#[derive(Default)]
pub struct Run {
    /// Set-up time of this process, scaled to the reference host
    /// speed, s.
    pub setup_s: f64,
    /// End-to-end metrics except set-up and memory.
    pub e2e: Values,
    /// Per-layer metrics (traced runs).
    pub layers: Values,
    /// Operations attempted and failed.
    pub tally: Tally,
    /// Failed checks: any entry makes the run incorrect.
    pub problems: Vec<String>,
    /// Sample counts and other context printed with the result.
    pub notes: Vec<String>,
    /// The operation the share table divides, and its median time, µs.
    pub op: (&'static str, f64),
    /// Per-layer shares of that operation (traced runs).
    pub shares: Vec<Share>,
}

impl Run {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(what());
        }
    }

    fn count(&mut self, outcome: Outcome, what: impl FnOnce() -> String) {
        self.tally.record(outcome);
        if outcome != Outcome::Ok && self.problems.len() < 20 {
            self.problems.push(what());
        }
    }

    fn paper(&mut self, outcome: &PointOutcome) {
        match outcome.result() {
            Some(r) => {
                self.e2e.set(
                    "paper_fps_err_pct",
                    (r.fps - PAPER_FPS).abs() / PAPER_FPS * 100.0,
                );
                self.e2e.set(
                    "paper_power_err_pct",
                    (r.chip_mw - PAPER_CHIP_MW).abs() / PAPER_CHIP_MW * 100.0,
                );
            }
            None => self.problems.push("the paper point is infeasible".into()),
        }
    }

    /// rtt p50 and p99 (µs) by the run rules of [`Samples`], refusing a
    /// p99 the sample count cannot support.
    fn rtt(&mut self, rtt_us: &Samples, what: &str) {
        if rtt_us.len() == 0 {
            self.problems
                .push(format!("no {what} round trips measured"));
            return;
        }
        self.e2e.set("rtt_p50_us", rtt_us.median());
        match rtt_us.tail() {
            Ok(v) => self.e2e.set("rtt_p99_us", v),
            Err(e) => self.problems.push(format!("rtt_p99_us: {e}")),
        }
        self.notes.push(format!(
            "rtt over {} {what} round trips; raw p50 {:.3} us",
            rtt_us.len(),
            rtt_us.raw_median()
        ));
    }

    /// tune p50 and p90 (ms) by the run rules of [`Samples`], refusing a
    /// p90 the sample count cannot support.
    fn tunes(&mut self, tune_ms: &Samples, what: &str) {
        if tune_ms.len() == 0 {
            self.problems.push(format!("no {what} measured"));
            return;
        }
        self.e2e.set("tune_ms_p50", tune_ms.median());
        match tune_ms.tail() {
            Ok(v) => self.e2e.set("tune_ms_p90", v),
            Err(e) => self.problems.push(format!("tune_ms_p90: {e}")),
        }
        self.notes.push(format!(
            "tune times over {} {what}; raw p50 {:.4} ms",
            tune_ms.len(),
            tune_ms.raw_median()
        ));
    }

    fn share(&mut self, layer: &str, calls: f64, ns_per_call: f64) {
        self.shares.push(Share {
            layer: layer.to_owned(),
            calls,
            ns_per_call,
        });
    }

    /// The unattributed part of one operation, µs.
    fn unattributed_us(&self) -> f64 {
        self.op.1
            - self
                .shares
                .iter()
                .map(|s| s.calls * s.ns_per_call)
                .sum::<f64>()
                / 1e3
    }
}

/// Every phase of a workload gets its share of each round of this many
/// seconds, so each metric samples the whole run instead of one stretch
/// of it.
const ROUND_S: f64 = 0.5;

/// Ends set-up: its time from process start, scaled by `probe`.
fn setup_done(ctx: &mut Ctx, run: &mut Run, probe: Probe) -> Result<(), String> {
    let raw = ctx.started.elapsed().as_secs_f64();
    run.setup_s = raw * ctx.pace.factor(probe)?;
    run.notes
        .push(format!("raw set-up time of this process {raw:.4} s"));
    Ok(())
}

/// Rounds in a run of `seconds`.
fn rounds(seconds: f64) -> usize {
    (seconds / ROUND_S).round().max(1.0) as usize
}

/// The end of a phase's `share` of the current round.
fn deadline(share: f64) -> Instant {
    Instant::now() + Duration::from_secs_f64(ROUND_S * share)
}

fn micros(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// FNV-1a over bytes.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// What a tune reply and its replay must agree on: the winner, the
/// evaluations, and the cache hits and misses.
fn tune_fingerprint(best: &Option<Tuned>, evaluations: u64, misses: u64, hits: u64) -> u64 {
    fnv1a(format!("{best:?} {evaluations} {misses} {hits}").as_bytes())
}

/// Classifies an `eval` reply against the expected point and outcome.
fn judge_eval(
    reply: &Result<Response, chain_nn_serve::ClientError>,
    point: &DesignPoint,
    expected: &PointOutcome,
) -> Outcome {
    match reply {
        Ok(Response::Eval { point: p, outcome }) if p == point && outcome == expected => {
            Outcome::Ok
        }
        Ok(Response::Eval { .. }) => Outcome::Wrong,
        Ok(Response::Busy { .. }) => Outcome::Busy,
        _ => Outcome::Error,
    }
}

fn describe(reply: &Result<Response, chain_nn_serve::ClientError>) -> String {
    match reply {
        Ok(r) => {
            let mut line = r.encode();
            line.truncate(200);
            line
        }
        Err(e) => e.to_string(),
    }
}

/// `sweep_cold`: the `chain-nn dse` path, in process. Phases: cold
/// full-grid sweeps on a fresh `Explorer` (points/s); cold 32-point
/// engine jobs (round trip per job, points/s inside jobs); cold
/// in-process tunes (`chain-nn tune` without a daemon).
pub fn sweep_cold(ctx: &mut Ctx) -> Result<Run, String> {
    let mut run = Run::default();
    let spec = inputs::sweep_spec(ctx.seed);
    let shift = inputs::sweep_shift(ctx.seed);
    let points = spec.points();
    // The first, untimed pass builds the zoo networks and the SQNR
    // memo, and is the reference: point by point, no executor, no
    // cache.
    let reference: Vec<PointOutcome> = points
        .iter()
        .map(evaluate)
        .collect::<Result<_, _>>()
        .map_err(|e| e.to_string())?;
    let objectives = layers::objectives(&reference);
    let reference_result = SweepResult {
        points: points.clone(),
        outcomes: reference.clone(),
        frontier_2d: pareto::frontier_2d(&objectives),
        frontier_3d: pareto::frontier_3d(&objectives),
        frontier_sqnr: pareto::frontier_accuracy(&objectives),
        stats: SweepStats {
            points: points.len(),
            feasible: objectives.len(),
            cache_hits: 0,
            cache_misses: points.len() as u64,
            threads: 1,
            wall_ms: 0.0,
        },
    };
    let reference_csv = export::results_csv(&reference_result);
    let digest = fnv1a(reference_csv.as_bytes());
    run.check(digest == GRID_DIGESTS[shift], || {
        format!("reference CSV digest {digest:#018x} differs from the recorded {:#018x} (shift {shift})", GRID_DIGESTS[shift])
    });
    if shift == 0 {
        run.check(
            points.len() == 2892 && objectives.len() == GRID_FEASIBLE,
            || {
                format!(
                    "{} of {} points feasible, expected {GRID_FEASIBLE} of 2892",
                    objectives.len(),
                    points.len()
                )
            },
        );
    }
    run.paper(&evaluate(&DesignPoint::paper_alexnet()).map_err(|e| e.to_string())?);
    let mut stream = ColdStream::new(ctx.seed, 0);
    let tunes: Vec<TuneRequest> = (0..inputs::TUNE_BLOCKS * inputs::TUNE_KINDS)
        .map(|_| stream.tune())
        .collect();
    setup_done(ctx, &mut run, Probe::Compute)?;
    if ctx.setup_only {
        return Ok(run);
    }

    let chunks: Vec<(usize, &[DesignPoint])> = points
        .chunks(WINDOW)
        .enumerate()
        .map(|(i, c)| (i * WINDOW, c))
        .collect();
    let mut sweep_us = Samples::new(0.99);
    let mut last_stats = None;
    let mut job_us = Samples::new(0.99);
    let mut job_rate = Rate::default();
    let mut tune_ms = Samples::new(0.9);
    let mut winners = vec![None; tunes.len()];
    for _ in 0..rounds(ctx.seconds) {
        // Full-grid sweeps, each on a cold cache and between two
        // probes of its own.
        let until = deadline(0.7);
        loop {
            ctx.pace.mark()?;
            let start = Instant::now();
            let result = Explorer::new().run(&spec, 1).map_err(|e| e.to_string())?;
            let end = Instant::now();
            let k = sweep_us.len() as u64;
            ctx.tracer.op("op.sweep", k, start, end);
            sweep_us.push(micros(end - start));
            sweep_us.settle(ctx.pace.factor(Probe::Compute)?);
            let same = export::results_csv(&result) == reference_csv;
            run.count(if same { Outcome::Ok } else { Outcome::Wrong }, || {
                format!("sweep {k}: results_csv differs from the reference")
            });
            last_stats = Some(result.stats);
            if Instant::now() >= until {
                break;
            }
        }
        // Cold 32-point engine jobs through the grid.
        let until = deadline(0.15);
        ctx.pace.mark()?;
        loop {
            let (first, chunk) = chunks[job_us.len() % chunks.len()];
            let cache = PointCache::new();
            let start = Instant::now();
            let outcomes = executor::run(chunk, 1, &cache).map_err(|e| e.to_string())?;
            let end = Instant::now();
            ctx.tracer.op("op.job", job_us.len() as u64, start, end);
            job_us.push(micros(end - start));
            job_rate.add(chunk.len() as f64, (end - start).as_secs_f64());
            let same = outcomes[..] == reference[first..first + chunk.len()];
            run.count(if same { Outcome::Ok } else { Outcome::Wrong }, || {
                format!("engine job at point {first} differs from the reference")
            });
            // Whole passes only, so every round is over the same mix
            // of jobs.
            let done = job_us.len().is_multiple_of(chunks.len()) && Instant::now() >= until;
            if done || ctx.pace.due() {
                let f = ctx.pace.factor(Probe::Compute)?;
                job_us.settle(f);
                job_rate.settle(f);
            }
            if done {
                break;
            }
        }
        // Cold in-process tunes.
        let until = deadline(0.15);
        loop {
            let j = tune_ms.len() % tunes.len();
            let cache = PointCache::new();
            let start = Instant::now();
            let report =
                tune(&tunes[j], &mut CacheEvaluator::new(&cache, 1)).map_err(|e| e.to_string())?;
            let end = Instant::now();
            ctx.tracer.op("op.tune", tune_ms.len() as u64, start, end);
            tune_ms.push((end - start).as_secs_f64() * 1e3);
            let winner = winners[j].get_or_insert_with(|| report.best.clone());
            let same = *winner == report.best;
            run.count(if same { Outcome::Ok } else { Outcome::Wrong }, || {
                format!("tune {j} changed its winner between repetitions")
            });
            let done = tune_ms.len().is_multiple_of(tunes.len()) && end >= until;
            if done || ctx.pace.due() {
                tune_ms.settle(ctx.pace.factor(Probe::Compute)?);
            }
            if done {
                break;
            }
        }
    }
    run.e2e.set(
        "points_per_s",
        points.len() as f64 / (sweep_us.median() / 1e6),
    );
    run.notes.push(format!(
        "points_per_s over {} sweeps of {} points",
        sweep_us.len(),
        points.len()
    ));
    run.rtt(&job_us, "32-point engine job");
    run.e2e.set("pipelined_req_s", job_rate.value());
    run.tunes(&tune_ms, "in-process tunes");
    // Every winner must be what the mix aggregate of a plain
    // `evaluate` of the winning point gives.
    for (j, winner) in winners.iter().enumerate() {
        let Some(Some(best)) = winner else { continue };
        let request = &tunes[j];
        let outcomes: Vec<PointOutcome> = request
            .mix
            .points_for(&best.point)
            .iter()
            .map(evaluate)
            .collect::<Result<_, _>>()
            .map_err(|e| e.to_string())?;
        let expect = request.mix.aggregate(&outcomes);
        run.check(expect.result() == Some(&best.result), || {
            format!("tune {j}: winner's result differs from evaluate")
        });
    }
    if ctx.tracer.on() {
        // The operation the share table divides is timed next to the
        // ladder, so both see the same host speed.
        let mut probe = Vec::new();
        for _ in 0..5 {
            let start = Instant::now();
            Explorer::new().run(&spec, 1).map_err(|e| e.to_string())?;
            probe.push(micros(start.elapsed()));
        }
        let op_us = median(&probe);
        let sample = layers::sample(&points, LADDER_POINTS);
        let indices: Vec<usize> = (0..points.len()).collect();
        let exchanges: Vec<(Request, Response)> = layers::sample(&indices, LADDER_EXCHANGES)
            .into_iter()
            .map(|i| {
                let point = points[i].clone();
                let outcome = reference[i].clone();
                (
                    Request::Eval(point.clone()),
                    Response::Eval { point, outcome },
                )
            })
            .collect();
        let appends: Vec<Vec<(DesignPoint, PointOutcome)>> = chunks
            .iter()
            .step_by(chunks.len() / 16)
            .map(|(first, c)| {
                c.iter()
                    .cloned()
                    .zip(reference[*first..].iter().cloned())
                    .collect()
            })
            .collect();
        let ladder = layers::run(
            &mut ctx.tracer,
            &layers::Input {
                points: &sample,
                exchanges: &exchanges,
                codec_kind: Kind::Eval,
                objectives: &objectives,
                appends: &appends,
                work_dir: &ctx.work_dir,
            },
            &mut run.layers,
        )?;
        let replays = replay_all(&mut ctx.tracer, &layers::sample(&tunes, 32), &mut run);
        layers::tuner_metrics(&replays, &mut run.layers);
        let stats = last_stats.expect("at least one sweep");
        run.layers.set(
            "dse.feasible_ratio",
            objectives.len() as f64 / points.len() as f64,
        );
        run.layers.set(
            "dse.cache_hit_ratio",
            stats.cache_hits as f64 / (stats.cache_hits + stats.cache_misses).max(1) as f64,
        );
        engine_queue(&ladder, &mut run);
        run.layers.set("serve.busy_total", 0.0);

        // One sweep: per point, the model stages inside `evaluate` and
        // the engine's own work around it; then the frontiers once.
        run.op = ("one cold full-grid sweep", op_us);
        let n = points.len() as f64;
        let stages = [
            "nets.lookup",
            "core.perf",
            "energy.power",
            "energy.area",
            "dse.sqnr_memo",
        ];
        let staged: f64 = stages.iter().map(|s| ladder.ns(s)).sum();
        for s in stages {
            run.share(s, n, ladder.ns(s));
        }
        run.share("dse.evaluate (rest)", n, ladder.ns("dse.evaluate") - staged);
        let engine_self = run
            .layers
            .get("dse.engine_self_ns_per_point")
            .unwrap_or(0.0);
        run.share(
            "dse.engine_self (claims, cache miss + insert)",
            n,
            engine_self,
        );
        run.share("dse.pareto", 1.0, ladder.ns("dse.pareto"));
        let rest = run.unattributed_us();
        run.layers.set("serve.transport_self_us", rest);
    }
    Ok(run)
}

/// Queue wait and execute time of in-process engine jobs.
fn engine_queue(ladder: &Ladder, run: &mut Run) {
    if ladder.queue_wait_us.is_empty() {
        return;
    }
    let waits = stats::sorted(&ladder.queue_wait_us);
    run.layers
        .set("serve.queue_wait_us_p50", stats::quantile(&waits, 0.5));
    match stats::tail(&waits, 0.99) {
        Ok(v) => run.layers.set("serve.queue_wait_us_p99", v),
        Err(e) => run.problems.push(format!("serve.queue_wait_us_p99: {e}")),
    }
    run.layers
        .set("serve.execute_us_p50", median(&ladder.execute_us));
}

/// Replays tunes in process on fresh caches, in request order; a tune
/// that fails is a failed check.
fn replay_all(tracer: &mut Tracer, tunes: &[TuneRequest], run: &mut Run) -> Vec<Replay> {
    let mut out = Vec::with_capacity(tunes.len());
    for (j, request) in tunes.iter().enumerate() {
        match layers::replay_tune(tracer, request, j as u64) {
            Ok(r) => out.push(r),
            Err(e) => run.problems.push(format!("replay of tune {j}: {e}")),
        }
    }
    out
}

/// An in-process daemon with one client connection.
struct Daemon {
    client: Client,
    thread: JoinHandle<std::io::Result<ServerReport>>,
}

impl Daemon {
    fn start(threads: usize, cache_capacity: Option<usize>) -> Result<Daemon, String> {
        let server = Server::bind(ServerConfig {
            threads,
            cache_capacity,
            ..ServerConfig::default()
        })
        .map_err(|e| format!("daemon bind: {e}"))?;
        let addr = server.local_addr().map_err(|e| e.to_string())?;
        let thread = std::thread::spawn(move || server.run());
        let client = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
        Ok(Daemon { client, thread })
    }

    fn metrics(&mut self) -> Result<Snapshot, String> {
        match self.client.metrics() {
            Ok(Response::Metrics { snapshot }) => Ok(snapshot),
            other => Err(format!("metrics request failed: {}", describe(&other))),
        }
    }

    fn stop(mut self) -> Result<(), String> {
        self.client.shutdown().map_err(|e| e.to_string())?;
        self.thread
            .join()
            .map_err(|_| "daemon thread panicked".to_owned())?
            .map(drop)
            .map_err(|e| e.to_string())
    }
}

fn counter(s: &Snapshot, name: &str) -> u64 {
    s.counter(name, &[]).unwrap_or(0)
}

/// Reads the daemon's busy and hit counters of the timed phase through
/// the public `metrics` request.
fn daemon_layers(run: &mut Run, before: &Snapshot, after: &Snapshot) {
    run.layers.set(
        "serve.busy_total",
        counter(after, "serve_busy_total") as f64,
    );
    let hits = counter(after, "serve_cache_hits_total") - counter(before, "serve_cache_hits_total");
    let misses =
        counter(after, "serve_cache_misses_total") - counter(before, "serve_cache_misses_total");
    run.layers.set(
        "dse.cache_hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
    );
}

/// `eval_warm`: a daemon holding a seeded working set of 1024 points;
/// every timed request hits its cache. Phases: lockstep evals in a
/// seeded order (round trip); a window of 32 pipelined evals
/// (replies/s); in-process tunes on a cache set-up already filled.
pub fn eval_warm(ctx: &mut Ctx) -> Result<Run, String> {
    let mut run = Run::default();
    let mut daemon = Daemon::start(ctx.nproc, None)?;
    let warm = inputs::warm_set(ctx.seed, 1024);
    let reference: Vec<PointOutcome> = warm
        .iter()
        .map(evaluate)
        .collect::<Result<_, _>>()
        .map_err(|e| e.to_string())?;
    match daemon.client.eval_batch(warm.clone()) {
        Ok(Response::EvalBatch { outcomes, .. }) => run.check(outcomes == reference, || {
            "the pre-warm batch differs from in-process evaluate".into()
        }),
        other => return Err(format!("pre-warm failed: {}", describe(&other))),
    }
    // Warm tunes run in process, on a cache this pass fills: through
    // the daemon, a tune whose lookups all hit is a chain of scheduler
    // hand-offs whose cost changed by 2× between otherwise equal runs.
    let tunes = inputs::warm_tunes(ctx.seed);
    let tune_cache = PointCache::new();
    let mut expected: Vec<TuneReport> = Vec::with_capacity(tunes.len());
    for request in &tunes {
        let report = tune(request, &mut CacheEvaluator::new(&tune_cache, 1))
            .map_err(|e| format!("warm tune failed: {e}"))?;
        expected.push(report);
    }
    match daemon.client.eval(DesignPoint::paper_alexnet()) {
        Ok(Response::Eval { outcome, .. }) => run.paper(&outcome),
        other => return Err(format!("paper eval failed: {}", describe(&other))),
    }
    let mut order = Rng::new(ctx.seed, 4);
    let before = daemon.metrics()?;
    setup_done(ctx, &mut run, Probe::Compute)?;
    if ctx.setup_only {
        daemon.stop()?;
        return Ok(run);
    }

    let mut rtt_us = Samples::new(0.99);
    let mut exchanges = Vec::new();
    let (mut answered, mut piped, mut replies) = (Rate::default(), Rate::default(), 0);
    let mut tune_ms = Samples::new(0.9);
    for _ in 0..rounds(ctx.seconds) {
        // Lockstep evals in the seeded order.
        let until = deadline(0.6);
        let mut group = (rtt_us.len(), Instant::now());
        ctx.pace.mark()?;
        loop {
            let i = order.below(warm.len());
            let start = Instant::now();
            let reply = daemon.client.eval(warm[i].clone());
            let end = Instant::now();
            ctx.tracer.op("op.eval", rtt_us.len() as u64, start, end);
            rtt_us.push(micros(end - start));
            let verdict = judge_eval(&reply, &warm[i], &reference[i]);
            run.count(verdict, || {
                format!("warm eval of {}: {}", warm[i], describe(&reply))
            });
            if exchanges.len() < LADDER_EXCHANGES {
                if let Ok(r) = reply {
                    exchanges.push((Request::Eval(warm[i].clone()), r));
                }
            }
            let done = end >= until;
            if done || ctx.pace.due() {
                answered.add(
                    (rtt_us.len() - group.0) as f64,
                    group.1.elapsed().as_secs_f64(),
                );
                let f = ctx.pace.factor(Probe::Echo)?;
                rtt_us.settle(f);
                answered.settle(f);
                group = (rtt_us.len(), Instant::now());
            }
            if done {
                break;
            }
        }
        // Pipelined evals, a window of 32 in flight.
        let until = deadline(0.25);
        loop {
            let (n, secs) = pipelined(ctx, &mut run, &mut daemon.client, || {
                let i = order.below(warm.len());
                (warm[i].clone(), Ok(reference[i].clone()))
            })?;
            replies += n;
            piped.add(n as f64, secs);
            answered.add(n as f64, secs);
            let f = ctx.pace.factor(Probe::Echo)?;
            piped.settle(f);
            answered.settle(f);
            if Instant::now() >= until {
                break;
            }
        }
        // Warm in-process tunes.
        let until = deadline(0.15);
        ctx.pace.mark()?;
        loop {
            let j = tune_ms.len() % tunes.len();
            let mut evaluator = CacheEvaluator::new(&tune_cache, 1);
            let start = Instant::now();
            let report = tune(&tunes[j], &mut evaluator);
            let end = Instant::now();
            ctx.tracer.op("op.tune", tune_ms.len() as u64, start, end);
            tune_ms.push((end - start).as_secs_f64() * 1e3);
            let e = &expected[j];
            let verdict = match &report {
                Ok(r)
                    if r.best == e.best
                        && r.evaluations == e.evaluations
                        && r.rounds == e.rounds
                        && r.cache_misses == 0 =>
                {
                    Outcome::Ok
                }
                Ok(_) => Outcome::Wrong,
                Err(_) => Outcome::Error,
            };
            run.count(verdict, || format!("warm tune {j}: {report:?}"));
            // Whole passes over the request set, as in `sweep_cold`.
            let done = tune_ms.len().is_multiple_of(tunes.len()) && end >= until;
            if done || ctx.pace.due() {
                tune_ms.settle(ctx.pace.factor(Probe::Compute)?);
            }
            if done {
                break;
            }
        }
    }
    run.rtt(&rtt_us, "lockstep warm eval");
    run.e2e.set("pipelined_req_s", piped.value());
    run.e2e.set("points_per_s", answered.value());
    run.tunes(&tune_ms, "warm tunes");
    let after = daemon.metrics()?;

    let misses =
        counter(&after, "serve_cache_misses_total") - counter(&before, "serve_cache_misses_total");
    let hits =
        counter(&after, "serve_cache_hits_total") - counter(&before, "serve_cache_hits_total");
    let sent = (rtt_us.len() + replies) as u64;
    run.check(misses == 0, || {
        format!("{misses} cache misses in the warm timed phase")
    });
    run.check(hits == sent, || {
        format!("daemon counted {hits} cache hits, the benchmark sent {sent} warm lookups")
    });
    // Every warm tune winner equals an in-process tune of the request.
    let replays = replay_all(&mut ctx.tracer, &tunes, &mut run);
    for (j, r) in replays.iter().enumerate() {
        run.check(r.report.best == expected[j].best, || {
            format!("warm tune {j}: daemon winner differs from the in-process tune")
        });
    }

    if ctx.tracer.on() {
        // Timed next to the ladder, as in `sweep_cold`.
        let mut probe = Vec::new();
        for k in 0..2000 {
            let i = k % warm.len();
            let start = Instant::now();
            let reply = daemon.client.eval(warm[i].clone());
            probe.push(micros(start.elapsed()));
            run.check(
                judge_eval(&reply, &warm[i], &reference[i]) == Outcome::Ok,
                || format!("probe eval of {}: {}", warm[i], describe(&reply)),
            );
        }
        let op_us = median(&probe);
        let sample = layers::sample(&warm, LADDER_POINTS);
        let appends: Vec<Vec<(DesignPoint, PointOutcome)>> = (0..32)
            .map(|i| vec![(warm[i].clone(), reference[i].clone())])
            .collect();
        let objectives = layers::objectives(&reference);
        let ladder = layers::run(
            &mut ctx.tracer,
            &layers::Input {
                points: &sample,
                exchanges: &exchanges,
                codec_kind: Kind::Eval,
                objectives: &objectives,
                appends: &appends,
                work_dir: &ctx.work_dir,
            },
            &mut run.layers,
        )?;
        layers::tuner_metrics(&replays, &mut run.layers);
        run.layers.set(
            "dse.feasible_ratio",
            objectives.len() as f64 / warm.len() as f64,
        );
        // Hits are answered inline and never queue: the queue figures
        // come from the ladder's engine jobs, as in `sweep_cold`.
        engine_queue(&ladder, &mut run);
        daemon_layers(&mut run, &before, &after);

        // One lockstep warm eval: the client encodes, the daemon
        // decodes, probes the cache, records the request under four
        // labelled series and encodes the reply, the client decodes.
        run.op = ("one lockstep warm eval", op_us);
        let [req_enc, req_dec, rep_enc, rep_dec] = Kind::Eval.spans();
        for s in [req_enc, req_dec, "dse.cache_probe", rep_enc, rep_dec] {
            run.share(s, 1.0, ladder.ns(s));
        }
        run.share("obs.labelled_lookup", 4.0, ladder.ns("obs.labelled_lookup"));
        let rest = run.unattributed_us();
        run.layers.set("serve.transport_self_us", rest);
    }
    daemon.stop()?;
    Ok(run)
}

/// Sends a burst of [`BURST`] evals with a window of [`WINDOW`] in
/// flight, and drains it. `next()` gives the next point and its
/// expected outcome; each reply is judged as it arrives. Returns the
/// reply count and the seconds the burst took.
fn pipelined(
    ctx: &mut Ctx,
    run: &mut Run,
    client: &mut Client,
    mut next: impl FnMut() -> (DesignPoint, Result<PointOutcome, String>),
) -> Result<(usize, f64), String> {
    let started = Instant::now();
    let mut inflight = VecDeque::with_capacity(WINDOW);
    let mut send = |client: &mut Client, inflight: &mut VecDeque<_>| {
        let (point, expected) = next();
        client
            .pipeline(&Request::Eval(point.clone()))
            .map(|id| inflight.push_back((id, point, expected, Instant::now())))
            .map_err(|e| format!("pipeline send: {e}"))
    };
    for _ in 0..WINDOW {
        send(client, &mut inflight)?;
    }
    let (mut sent, mut replies) = (WINDOW, 0);
    while let Some((id, point, expected, sent_at)) = inflight.pop_front() {
        let reply = client.recv_reply(id);
        ctx.tracer.op("op.pipelined", id, sent_at, Instant::now());
        replies += 1;
        let verdict = match &expected {
            Ok(expected) => judge_eval(&reply, &point, expected),
            Err(_) => Outcome::Error,
        };
        run.count(verdict, || {
            format!("pipelined eval of {point}: {}", describe(&reply))
        });
        if sent < BURST {
            send(client, &mut inflight)?;
            sent += 1;
        }
    }
    Ok((replies, started.elapsed().as_secs_f64()))
}

/// `serve_cold`: every request misses the daemon's cache. Phases:
/// cycles of one tune over a never-seen space and eight never-seen
/// evals (tune time, eval round trip); a window of 32 pipelined
/// never-seen evals (replies/s).
///
/// The daemon has no cache file: the disk sync after every request
/// varied by more than 2× from run to run on a shared disk. The append
/// itself is timed by the traced ladder (`dse.persist_append_us`).
pub fn serve_cold(ctx: &mut Ctx) -> Result<Run, String> {
    let mut run = Run::default();
    // Bounded, so the daemon's memory is its steady footprint rather
    // than a count of how many cold points a run got through: every
    // point is new, so eviction changes no hit or miss.
    let mut daemon = Daemon::start(ctx.nproc, Some(COLD_CACHE_POINTS))?;
    // The first, untimed pass builds the zoo networks and the SQNR
    // memo the daemon's evaluations share (one process).
    for net in inputs::NETS {
        let p = DesignPoint {
            net: net.to_owned(),
            ..DesignPoint::paper_alexnet()
        };
        evaluate(&p).map_err(|e| e.to_string())?;
    }
    match daemon.client.eval(DesignPoint::paper_alexnet()) {
        Ok(Response::Eval { outcome, .. }) => run.paper(&outcome),
        other => return Err(format!("paper eval failed: {}", describe(&other))),
    }
    // Evals, tunes and pipelined evals each draw from their own lane,
    // so the tunes can be regenerated for the replay after the run.
    let mut evals = ColdStream::new(ctx.seed, 0);
    let mut tune_stream = ColdStream::new(ctx.seed, 1);
    let mut piped = ColdStream::new(ctx.seed, 2);
    let before = daemon.metrics()?;
    setup_done(ctx, &mut run, Probe::Mixed)?;
    if ctx.setup_only {
        daemon.stop()?;
        return Ok(run);
    }

    let mut rtt_us = Samples::new(0.99);
    let mut tune_ms = Samples::new(0.9);
    // Each tune reply is kept as a fingerprint of what the replay must
    // reproduce, so memory does not grow with the tunes a run gets
    // through.
    let mut tune_replies: Vec<Result<u64, (Outcome, String)>> = Vec::new();
    let mut exchanges = Vec::new();
    let mut eval_points = Vec::new();
    // Cold points answered (evals, and the misses each tune reports)
    // per second spent waiting for replies: the cycles also run the
    // in-process reference of every eval, which is not the daemon's.
    let (mut cold, mut piped_rate, mut replies) = (Rate::default(), Rate::default(), 0);
    for _ in 0..rounds(ctx.seconds) {
        // Cycles of one cold tune and eight cold evals.
        let until = deadline(0.85);
        ctx.pace.mark()?;
        loop {
            let request = tune_stream.tune();
            let start = Instant::now();
            let reply = daemon.client.tune(request.clone());
            let end = Instant::now();
            ctx.tracer.op("op.tune", tune_ms.len() as u64, start, end);
            tune_ms.push((end - start).as_secs_f64() * 1e3);
            if exchanges.len() < LADDER_EXCHANGES {
                if let Ok(r) = &reply {
                    exchanges.push((Request::Tune(Box::new(request.clone())), r.clone()));
                }
            }
            let misses = match &reply {
                Ok(Response::Tune(summary)) => summary.cache_misses as f64,
                _ => 0.0,
            };
            cold.add(misses, (end - start).as_secs_f64());
            tune_replies.push(match reply {
                Ok(Response::Tune(s)) => Ok(tune_fingerprint(
                    &s.best,
                    s.evaluations,
                    s.cache_misses,
                    s.cache_hits,
                )),
                Ok(Response::Busy { .. }) => Err((Outcome::Busy, describe(&reply))),
                other => Err((Outcome::Error, describe(&other))),
            });
            for _ in 0..EVALS_PER_TUNE {
                let point = evals.eval_point();
                let start = Instant::now();
                let reply = daemon.client.eval(point.clone());
                let end = Instant::now();
                ctx.tracer.op("op.eval", rtt_us.len() as u64, start, end);
                rtt_us.push(micros(end - start));
                cold.add(1.0, (end - start).as_secs_f64());
                let expected = evaluate(&point).map_err(|e| e.to_string())?;
                let verdict = judge_eval(&reply, &point, &expected);
                run.count(verdict, || {
                    format!("cold eval of {point}: {}", describe(&reply))
                });
                if exchanges.len() < LADDER_EXCHANGES {
                    if let Ok(r) = reply {
                        exchanges.push((Request::Eval(point.clone()), r));
                    }
                }
                if eval_points.len() < LADDER_POINTS {
                    eval_points.push(point);
                }
            }
            let done = Instant::now() >= until;
            if done || ctx.pace.due() {
                let f = ctx.pace.factor(Probe::Mixed)?;
                tune_ms.settle(f);
                rtt_us.settle(f);
                cold.settle(f);
            }
            if done {
                break;
            }
        }
        // Pipelined cold evals. The reference is computed as each
        // request is queued, while the daemon works on the window.
        let until = deadline(0.15);
        loop {
            let (n, secs) = pipelined(ctx, &mut run, &mut daemon.client, || {
                let point = piped.eval_point();
                let expected = evaluate(&point).map_err(|e| e.to_string());
                (point, expected)
            })?;
            replies += n;
            piped_rate.add(n as f64, secs);
            cold.add(n as f64, secs);
            let f = ctx.pace.factor(Probe::Mixed)?;
            piped_rate.settle(f);
            cold.settle(f);
            if Instant::now() >= until {
                break;
            }
        }
    }
    run.rtt(&rtt_us, "cold eval");
    run.tunes(&tune_ms, "cold tunes");
    run.e2e.set("pipelined_req_s", piped_rate.value());
    run.e2e.set("points_per_s", cold.value());
    let after = daemon.metrics()?;
    daemon.stop()?;

    // Every tune again, in process on a fresh cache: the same winner,
    // evaluations and misses as the daemon's.
    let mut replay_misses = 0;
    let mut replays = Vec::new();
    let mut tune_stream = ColdStream::new(ctx.seed, 1);
    let mut untraced = Tracer::new(false);
    for (j, reply) in tune_replies.iter().enumerate() {
        let request = tune_stream.tune();
        let tracer = if j < 64 {
            &mut ctx.tracer
        } else {
            &mut untraced
        };
        let replay = layers::replay_tune(tracer, &request, j as u64)?;
        replay_misses += replay.report.cache_misses;
        let r = &replay.report;
        let verdict = match reply {
            Ok(f) if *f == tune_fingerprint(&r.best, r.evaluations, r.cache_misses, 0) => {
                Outcome::Ok
            }
            Ok(_) => Outcome::Wrong,
            Err((outcome, _)) => *outcome,
        };
        run.count(verdict, || {
            format!("cold tune {j}: {reply:?} differs from the in-process tune")
        });
        if ctx.tracer.on() && replays.len() < 64 {
            replays.push(replay);
        }
    }
    let cold_sent = (rtt_us.len() + replies) as u64 + replay_misses;
    let misses =
        counter(&after, "serve_cache_misses_total") - counter(&before, "serve_cache_misses_total");
    run.check(misses == cold_sent, || {
        format!("daemon counted {misses} cache misses, the benchmark sent {cold_sent} cold points")
    });
    run.notes.push(format!(
        "{} cold tunes, {} cold evals, {replies} pipelined cold evals",
        tune_ms.len(),
        rtt_us.len()
    ));

    if ctx.tracer.on() {
        let appends: Vec<Vec<(DesignPoint, PointOutcome)>> = eval_points
            .iter()
            .take(32)
            .map(|p| Ok(vec![(p.clone(), evaluate(p)?)]))
            .collect::<Result<_, chain_nn_dse::DseError>>()
            .map_err(|e| e.to_string())?;
        let outcomes: Vec<PointOutcome> = eval_points
            .iter()
            .map(evaluate)
            .collect::<Result<_, _>>()
            .map_err(|e| e.to_string())?;
        let objectives = layers::objectives(&outcomes);
        let ladder = layers::run(
            &mut ctx.tracer,
            &layers::Input {
                points: &eval_points,
                exchanges: &exchanges,
                codec_kind: Kind::Tune,
                objectives: &objectives,
                appends: &appends,
                work_dir: &ctx.work_dir,
            },
            &mut run.layers,
        )?;
        layers::tuner_metrics(&replays, &mut run.layers);
        run.layers.set(
            "dse.feasible_ratio",
            objectives.len() as f64 / outcomes.len().max(1) as f64,
        );
        daemon_layers(&mut run, &before, &after);
        let eval: &[(&str, &str)] = &[("type", "eval")];
        if let Some(h) = after.histogram("serve_queue_wait_ns", eval) {
            run.layers.set("serve.queue_wait_us_p50", h.p50 / 1e3);
            run.layers.set("serve.queue_wait_us_p99", h.p99 / 1e3);
        }
        if let Some(h) = after.histogram("serve_execute_ns", eval) {
            run.layers.set("serve.execute_us_p50", h.p50 / 1e3);
        }

        // One cold eval: the client encodes, the daemon decodes, queues
        // the point, evaluates it, inserts it into its bounded in-memory
        // cache (which evicts: there is no cache file), records four
        // labelled series and encodes the reply.
        // As measured over the whole run, as the daemon's histograms
        // are.
        run.op = ("one cold eval", rtt_us.raw_median());
        let [req_enc, req_dec, rep_enc, rep_dec] = Kind::Eval.spans();
        let queue = run.layers.get("serve.queue_wait_us_p50").unwrap_or(0.0) * 1e3;
        let execute = run.layers.get("serve.execute_us_p50").unwrap_or(0.0) * 1e3;
        run.share(req_enc, 1.0, ladder.ns(req_enc));
        run.share(req_dec, 1.0, ladder.ns(req_dec));
        run.share("serve.queue_wait (daemon p50)", 1.0, queue);
        run.share("serve.execute (daemon p50)", 1.0, execute);
        let flush = after
            .histogram("serve_flush_ns", &[])
            .map_or(0.0, |h| h.p50);
        run.share("serve.flush (daemon p50)", 1.0, flush);
        run.share(rep_enc, 1.0, ladder.ns(rep_enc));
        run.share(rep_dec, 1.0, ladder.ns(rep_dec));
        run.share("obs.labelled_lookup", 4.0, ladder.ns("obs.labelled_lookup"));
        let rest = run.unattributed_us();
        run.layers.set("serve.transport_self_us", rest);
    }
    Ok(run)
}
