//! The one-shot sweep entry point over the work-assisting engine.
//!
//! A sweep is an embarrassingly parallel bag of independent point
//! evaluations. [`run`] submits the whole point list as a single job
//! to a private [`engine::Engine`](crate::engine::Engine) in drain
//! mode and lends it N scoped `std::thread`s: workers claim index
//! ranges off the job's atomic cursor (large claims while plenty
//! remains, shrinking near the tail so the pool finishes together)
//! and keep `(index, outcome)` pairs locally; the merged results are
//! sorted by index, so output order — and therefore every exported
//! artifact — is byte-identical regardless of thread count or
//! scheduling.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use chain_nn_obs::{Gauge, Histogram};

use crate::cache::PointCache;
use crate::engine::{ClaimPolicy, Engine, EngineMetrics, TraceRef, DEFAULT_MAX_CLAIM};
use crate::eval::{evaluate, PointOutcome};
use crate::spec::DesignPoint;
use crate::DseError;

/// A sensible worker count for this host (`available_parallelism`,
/// falling back to 1 when the host will not say).
pub fn default_threads() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Evaluates one point through `cache`: answer from memory when
/// present, otherwise evaluate and memoize, hashing the point once for
/// both steps. Also reports whether the answer came from the cache
/// (`true` = hit): callers that serve several clients off one cache
/// (the daemon) need the per-call answer, because deltas of the global
/// counters cross-contaminate between concurrent requests. This is the
/// single evaluation step of the engine, workload mixes and the tuner.
///
/// # Errors
///
/// Propagates spec-level evaluation errors (unknown network, invalid
/// chain parameters); infeasibility is data, not an error.
pub fn evaluate_cached_tracked(
    point: &DesignPoint,
    cache: &PointCache,
) -> Result<(PointOutcome, bool), DseError> {
    cache.get_or_insert_with(point, || evaluate(point))
}

/// `executor::run`'s metric handles in the global registry, resolved
/// once per process rather than per call.
struct RunMetrics {
    engine: EngineMetrics,
    run_ns: Arc<Histogram>,
    points_per_sec: Arc<Gauge>,
    cache_hit_rate: Arc<Gauge>,
}

fn run_metrics() -> &'static RunMetrics {
    static METRICS: OnceLock<RunMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let obs = chain_nn_obs::global();
        RunMetrics {
            engine: EngineMetrics::register(obs, "dse"),
            run_ns: obs.histogram("dse_run_ns"),
            points_per_sec: obs.gauge("dse_points_per_sec"),
            cache_hit_rate: obs.gauge("dse_cache_hit_rate"),
        }
    })
}

/// Evaluates every point, `threads` at a time, memoizing through
/// `cache`. Returns outcomes in point order.
///
/// # Errors
///
/// Returns the first spec-level error encountered (unknown network,
/// invalid chain parameters); model-level infeasibility is data, not an
/// error.
///
/// # Example
///
/// ```
/// use chain_nn_dse::{executor, DesignPoint, PointCache};
///
/// let points: Vec<DesignPoint> = [25usize, 50]
///     .iter()
///     .map(|&pes| DesignPoint {
///         net: "lenet".into(),
///         pes,
///         ..DesignPoint::paper_alexnet()
///     })
///     .collect();
/// let cache = PointCache::new();
/// let outcomes = executor::run(&points, 2, &cache).unwrap();
/// assert_eq!(outcomes.len(), 2); // grid order, any thread count
/// assert_eq!(cache.stats().misses, 2);
/// // The same batch again is answered entirely from the cache.
/// assert_eq!(executor::run(&points, 2, &cache).unwrap(), outcomes);
/// assert_eq!(cache.stats().hits, 2);
/// ```
pub fn run(
    points: &[DesignPoint],
    threads: usize,
    cache: &PointCache,
) -> Result<Vec<PointOutcome>, DseError> {
    let threads = threads.max(1).min(points.len().max(1));
    let metrics = run_metrics();
    // A standalone run owns its own trace: one root span for the whole
    // sweep, one `chunk` child per claim tagged with the worker that
    // executed it, so the run renders as a per-worker timeline.
    // Disabled rings skip even the id allocation.
    let spans = chain_nn_obs::trace::spans();
    let trace = spans.is_enabled().then(|| {
        (
            chain_nn_obs::trace::next_trace_id(),
            chain_nn_obs::trace::next_span_id(),
        )
    });
    let started = Instant::now();

    // One private engine in drain mode: submit the sweep as its only
    // job, shut admission, and lend it the calling thread(s) until the
    // job is fully claimed. Claim metrics land in the global registry
    // under the `dse` prefix (`dse_batch_eval_ns`, `dse_claim_points`,
    // `dse_batches_total`, `dse_points_total`).
    let engine = Engine::with_metrics(1, ClaimPolicy::adaptive(), metrics.engine.clone(), "chunk");
    let handle = engine
        .submit_with(
            points.to_vec(),
            None,
            trace.map(|(trace_id, root)| TraceRef {
                trace_id,
                parent_span: root,
            }),
        )
        .expect("a fresh engine admits its first job");
    engine.begin_shutdown();
    // A job that fits in one claim has nothing to share: spawning
    // workers for it costs more than the job itself.
    if threads == 1 || points.len() <= DEFAULT_MAX_CLAIM {
        engine.worker_loop(cache);
    } else {
        std::thread::scope(|scope| {
            for w in 0..threads {
                let engine = &engine;
                scope.spawn(move || engine.worker_loop_indexed(w as u32, cache));
            }
        });
    }
    let job = handle.wait()?;

    let elapsed = started.elapsed();
    if let Some((trace_id, root)) = trace {
        spans.record(&chain_nn_obs::trace::Span {
            trace_id,
            span_id: root,
            parent_id: 0,
            name: "dse_run",
            start: started,
            dur: elapsed,
            worker: None,
            points: points.len().min(u32::MAX as usize) as u32,
        });
    }
    metrics.run_ns.record_duration(elapsed);
    metrics
        .points_per_sec
        .set(points.len() as f64 / elapsed.as_secs_f64().max(1e-12));
    metrics.cache_hit_rate.set(cache.stats().hit_rate());
    Ok(job.outcomes)
}

/// Measures raw evaluation throughput (points evaluated per second):
/// performs `evals` uncached evaluations cycling through `points`,
/// spawning each worker exactly once so thread start-up cost is
/// amortized away. This is the honest way to compare thread counts —
/// a single sweep of a few hundred closed-form model points finishes
/// in well under a millisecond, which is below the cost of spawning
/// the workers themselves.
///
/// # Errors
///
/// Returns [`DseError::Spec`] for an empty point list or any
/// spec-level evaluation error.
pub fn throughput(points: &[DesignPoint], threads: usize, evals: usize) -> Result<f64, DseError> {
    if points.is_empty() {
        return Err(DseError::Spec("cannot measure an empty point list".into()));
    }
    let threads = threads.max(1);
    let cursor = AtomicUsize::new(0);
    let worker = || -> Result<(), DseError> {
        loop {
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            if i >= evals {
                return Ok(());
            }
            std::hint::black_box(evaluate(&points[i % points.len()])?);
        }
    };
    let start = Instant::now();
    if threads == 1 {
        worker()?;
    } else {
        // The first worker's error, in spawn order; the scope joins the
        // rest.
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads).map(|_| scope.spawn(worker)).collect();
            handles
                .into_iter()
                .try_for_each(|handle| handle.join().expect("worker thread panicked"))
        })?;
    }
    Ok(evals as f64 / start.elapsed().as_secs_f64().max(1e-12))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::SweepSpec;

    fn small_grid() -> Vec<DesignPoint> {
        SweepSpec {
            pes: vec![144, 288, 576],
            freqs_mhz: vec![350.0, 700.0],
            nets: vec!["lenet".into()],
            ..SweepSpec::paper_point()
        }
        .points()
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let points = small_grid();
        let serial = run(&points, 1, &PointCache::new()).unwrap();
        let parallel = run(&points, 4, &PointCache::new()).unwrap();
        let oversubscribed = run(&points, 64, &PointCache::new()).unwrap();
        assert_eq!(serial, parallel);
        assert_eq!(serial, oversubscribed);
        assert_eq!(serial.len(), points.len());
    }

    #[test]
    fn cache_makes_second_run_all_hits() {
        let points = small_grid();
        let cache = PointCache::new();
        let first = run(&points, 2, &cache).unwrap();
        let stats = cache.stats();
        assert_eq!(stats.misses, points.len() as u64);
        assert_eq!(stats.hits, 0);
        let second = run(&points, 2, &cache).unwrap();
        assert_eq!(first, second);
        let stats = cache.stats();
        assert_eq!(stats.hits, points.len() as u64);
        assert_eq!(stats.misses, points.len() as u64);
    }

    #[test]
    fn overlapping_sweep_is_incremental() {
        let cache = PointCache::new();
        let base = small_grid();
        run(&base, 2, &cache).unwrap();
        // A wider sweep sharing the three original PE counts.
        let wider = SweepSpec {
            pes: vec![144, 288, 576, 1152],
            freqs_mhz: vec![350.0, 700.0],
            nets: vec!["lenet".into()],
            ..SweepSpec::paper_point()
        }
        .points();
        run(&wider, 2, &cache).unwrap();
        let stats = cache.stats();
        assert_eq!(stats.hits, base.len() as u64, "shared points must hit");
        assert_eq!(
            stats.misses,
            wider.len() as u64 + base.len() as u64 - stats.hits
        );
    }

    #[test]
    fn throughput_probe_measures_and_validates() {
        let points = small_grid();
        let rate = throughput(&points, 2, 50).unwrap();
        assert!(rate > 0.0);
        assert!(throughput(&[], 2, 50).is_err());
        let mut bad = small_grid();
        bad[0].net = "notanet".into();
        assert!(throughput(&bad, 2, 50).is_err());
    }

    #[test]
    fn spec_error_propagates() {
        let mut points = small_grid();
        points[1].net = "notanet".into();
        assert!(run(&points, 2, &PointCache::new()).is_err());
    }

    #[test]
    fn empty_queue_is_fine() {
        assert_eq!(run(&[], 8, &PointCache::new()).unwrap(), vec![]);
    }
}
