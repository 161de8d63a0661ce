//! The bench-history runner: quick, machine-readable measurements of
//! the DSE engine, the serving daemon, and the mixed-traffic tail
//! latency, appended to `BENCH_dse.json` / `BENCH_serve.json` /
//! `BENCH_mixed.json` / `BENCH_cluster.json` at the repo root and
//! gated against the checked-in baselines under
//! `crates/bench/baselines/`.
//!
//! Run via `scripts/bench-history.sh` (or `cargo bench -p
//! chain-nn-bench --bench bench_history`). The process exits nonzero
//! when the regression gate trips. `CHAIN_NN_BENCH_TOLERANCE`
//! overrides the relative tolerance (default 3.0 — CI runners vary
//! wildly, so the CI gate only catches order-of-magnitude cliffs; the
//! tight-gate behavior is asserted in `history`'s unit tests).

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use chain_nn_bench::history::{self, BenchRecord};
use chain_nn_dse::engine::{ClaimPolicy, DEFAULT_MAX_CLAIM};
use chain_nn_dse::{executor, DesignPoint, PointCache, SweepSpec};
use chain_nn_serve::cluster::{ClusterConfig, Coordinator};
use chain_nn_serve::protocol::Request;
use chain_nn_serve::server::{Server, ServerConfig};
use chain_nn_serve::{Client, Response};

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("repo root resolves")
}

fn now_s() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0)
}

fn record(bench: &str, metric: &str, value: f64, unit: &str) -> BenchRecord {
    BenchRecord {
        bench: bench.to_owned(),
        metric: metric.to_owned(),
        value,
        unit: unit.to_owned(),
        timestamp_s: now_s(),
    }
}

/// DSE-engine measurements: sustained evaluation throughput and the
/// cold-cache sweep wall clock (best-of-N — noise only adds time).
fn measure_dse() -> Vec<BenchRecord> {
    let spec = SweepSpec {
        pes: (128..=512).step_by(128).collect(),
        freqs_mhz: vec![700.0],
        ..SweepSpec::paper_point()
    };
    let points = spec.points();
    let threads = executor::default_threads();
    let rate = executor::throughput(&points, threads, 5_000).expect("throughput probe");
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let cache = PointCache::new();
        let started = Instant::now();
        executor::run(&points, threads, &cache).expect("sweep runs");
        best = best.min(started.elapsed().as_secs_f64());
    }
    vec![
        record("dse/points_per_sec", "points_per_sec", rate, "points/s"),
        record("dse/sweep_wall", "best_secs", best, "secs"),
    ]
}

/// Daemon measurements over a real TCP session: cache-hit eval round
/// trips (mean µs) and a small cold sweep's wall clock.
fn measure_serve() -> Vec<BenchRecord> {
    let server = Server::bind(ServerConfig {
        threads: 2,
        ..ServerConfig::default()
    })
    .expect("bind");
    let addr = server.local_addr().expect("addr");
    let daemon = std::thread::spawn(move || server.run().expect("daemon runs"));
    let mut client = Client::connect(addr).expect("connect");

    let sweep = SweepSpec {
        pes: (64..=320).step_by(64).collect(),
        nets: vec!["lenet".to_owned()],
        ..SweepSpec::paper_point()
    };
    let started = Instant::now();
    let Response::Sweep(summary) = client.sweep(sweep).expect("sweep") else {
        panic!("expected a sweep summary");
    };
    let sweep_secs = started.elapsed().as_secs_f64();
    assert!(summary.points > 0);

    // Warm the eval path, then measure cache-hit round trips.
    let point = chain_nn_dse::DesignPoint::paper_alexnet();
    client.eval(point.clone()).expect("warmup eval");
    let rounds = 50;
    let started = Instant::now();
    for _ in 0..rounds {
        let Response::Eval { .. } = client.eval(point.clone()).expect("eval") else {
            panic!("expected an eval reply");
        };
    }
    let eval_us = started.elapsed().as_secs_f64() * 1e6 / f64::from(rounds);

    client.shutdown().expect("shutdown");
    daemon.join().expect("daemon thread");
    vec![
        record("serve/eval_round_trip", "mean_us", eval_us, "us"),
        record("serve/sweep_wall", "best_secs", sweep_secs, "secs"),
    ]
}

/// Evals one mixed-traffic round must pump before its sweeps stop: with
/// fewer samples, the p99 is little more than the sample maximum.
const MIN_PUMPED: usize = 200;

/// One mixed-traffic round: a 2-worker daemon under the given claim
/// policy serves ~2000-point cold sweeps while a client pumps fresh
/// one-point evals at them, until at least [`MIN_PUMPED`] evals raced.
/// Returns the daemon's `serve_queue_wait_ns{type=eval}` p50 and p99
/// in nanoseconds, plus the pump's eval count.
fn eval_wait_under_sweep(claim: ClaimPolicy) -> (f64, f64, usize) {
    let server = Server::bind(ServerConfig {
        threads: 2,
        claim,
        ..ServerConfig::default()
    })
    .expect("bind");
    let addr = server.local_addr().expect("addr");
    let daemon = std::thread::spawn(move || server.run().expect("daemon runs"));
    let mut pump = Client::connect(addr).expect("connect pump");

    // Fresh (cache-cold) pump points, disjoint from the sweep grid:
    // cache hits are answered inline and never queue, so only a cold
    // eval exercises the queue wait the claim policy controls.
    let pump_point = |i: usize| DesignPoint {
        pes: 40 + i,
        ..DesignPoint::paper_alexnet()
    };

    let sweeps_done = AtomicBool::new(false);
    let pumped = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        scope.spawn(|| {
            let mut sweeper = Client::connect(addr).expect("connect sweeper");
            // vgg16, the costliest zoo net. A faster model stack ends one
            // sweep before the pump has enough racing evals, so fresh
            // sweeps keep coming until it has; each runs at its own clock
            // pair, so every one of its points is cache-cold.
            // Bounded, so a failed pump ends in an error, not a hang.
            for round in 0..100u32 {
                let offset = f64::from(round);
                let grid = SweepSpec {
                    pes: (16..=1024).collect(),
                    freqs_mhz: vec![350.0 + offset, 700.0 + offset],
                    nets: vec!["vgg16".to_owned()],
                    ..SweepSpec::paper_point()
                };
                let Response::Sweep(summary) = sweeper.sweep(grid).expect("sweep") else {
                    panic!("expected a sweep summary");
                };
                assert_eq!(summary.points, 2018);
                assert_eq!(summary.cache_misses, 2018);
                if pumped.load(Ordering::SeqCst) >= MIN_PUMPED {
                    break;
                }
            }
            sweeps_done.store(true, Ordering::SeqCst);
        });
        // Wait until the first sweep is admitted and still deep before
        // pumping (stats is served inline, not queued).
        loop {
            if sweeps_done.load(Ordering::SeqCst) {
                break;
            }
            let Response::Stats(stats) = pump.stats().expect("stats") else {
                panic!("expected a stats reply");
            };
            if stats.queue_depth >= 1000 {
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        while !sweeps_done.load(Ordering::SeqCst) {
            let i = pumped.load(Ordering::SeqCst);
            let Response::Eval { .. } = pump.eval(pump_point(i)).expect("eval") else {
                panic!("expected an eval reply");
            };
            pumped.store(i + 1, Ordering::SeqCst);
        }
    });
    let pumped = pumped.into_inner();
    assert!(pumped >= MIN_PUMPED, "only {pumped} evals raced the sweeps");
    let Response::Metrics { snapshot } = pump.metrics().expect("metrics") else {
        panic!("expected a metrics reply");
    };
    pump.shutdown().expect("shutdown");
    daemon.join().expect("daemon thread");

    let wait = snapshot
        .histogram("serve_queue_wait_ns", &[("type", "eval")])
        .expect("eval queue-wait histogram");
    (wait.p50, wait.p99, pumped)
}

/// Mixed-traffic tail latency: one-point evals racing a ~2000-point
/// sweep, measured under the adaptive claim policy (the gated rows)
/// and under the fixed-batch baseline it must beat (recorded for the
/// history, not baselined — its value is the comparison printed
/// below). If adaptivity breaks, the adaptive p99 reverts to
/// fixed-batch territory (~8x) and trips the gate on its own row.
fn measure_mixed() -> Vec<BenchRecord> {
    let (_, fixed_p99, fixed_n) = eval_wait_under_sweep(ClaimPolicy::Fixed(DEFAULT_MAX_CLAIM));
    let (p50, p99, n) = eval_wait_under_sweep(ClaimPolicy::Adaptive {
        max: DEFAULT_MAX_CLAIM,
    });
    println!(
        "mixed: eval queue-wait p99 {:.1} us adaptive vs {:.1} us fixed \
         ({:.1}x better; {n} / {fixed_n} evals pumped)",
        p99 / 1e3,
        fixed_p99 / 1e3,
        fixed_p99 / p99.max(1.0),
    );
    vec![
        record("mixed/eval_wait_under_sweep", "p50_us", p50 / 1e3, "us"),
        record("mixed/eval_wait_under_sweep", "p99_us", p99 / 1e3, "us"),
        record(
            "mixed/eval_wait_fixed_batch",
            "p99_us",
            fixed_p99 / 1e3,
            "us",
        ),
    ]
}

/// Binds an `n`-shard fleet (single-worker shards, cold caches) behind
/// a coordinator and returns everything needed to drive and drain it.
#[allow(clippy::type_complexity)]
fn cluster_fleet(
    n: usize,
) -> (
    std::net::SocketAddr,
    std::thread::JoinHandle<()>,
    Vec<std::thread::JoinHandle<chain_nn_serve::server::ServerReport>>,
) {
    let mut addrs = Vec::new();
    let mut shards = Vec::new();
    for _ in 0..n {
        let server = Server::bind(ServerConfig {
            threads: 1,
            ..ServerConfig::default()
        })
        .expect("bind shard");
        addrs.push(server.local_addr().expect("addr").to_string());
        shards.push(std::thread::spawn(move || {
            server.run().expect("shard runs")
        }));
    }
    let coordinator = Coordinator::bind(ClusterConfig {
        shards: addrs,
        ..ClusterConfig::default()
    })
    .expect("bind coordinator");
    let addr = coordinator.local_addr().expect("addr");
    let handle = std::thread::spawn(move || {
        coordinator.run().expect("coordinator runs");
    });
    (addr, handle, shards)
}

/// Cluster measurements: the same cold sweep through 1/2/4/8-shard
/// fleets (hash-partitioned across single-worker shards — the scaling
/// curve is near-linear given cores to spread over and flat on a
/// single-core host, which the checked-in baseline reflects), plus
/// cache-hit eval throughput sequential vs pipelined on one daemon.
fn measure_cluster() -> Vec<BenchRecord> {
    let spec = SweepSpec {
        pes: (16..=256).step_by(8).collect(),
        freqs_mhz: vec![350.0, 700.0],
        nets: vec!["lenet".to_owned()],
        ..SweepSpec::paper_point()
    };
    let mut records = Vec::new();
    let mut one_shard_wall = f64::NAN;
    for n in [1usize, 2, 4, 8] {
        let (addr, coordinator, shards) = cluster_fleet(n);
        let mut client = Client::connect(addr).expect("connect coordinator");
        let started = Instant::now();
        let Response::Sweep(summary) = client.sweep(spec.clone()).expect("sweep") else {
            panic!("expected a sweep summary");
        };
        let wall = started.elapsed().as_secs_f64();
        assert_eq!(summary.cache_misses, spec.len() as u64);
        assert!(!summary.degraded);
        client.shutdown().expect("shutdown");
        coordinator.join().expect("coordinator thread");
        for shard in shards {
            shard.join().expect("shard thread");
        }
        records.push(record(
            &format!("cluster/sweep_wall_{n}shard"),
            "secs",
            wall,
            "secs",
        ));
        if n == 1 {
            one_shard_wall = wall;
        } else {
            println!(
                "cluster: {n}-shard sweep {:.2}x vs 1 shard ({wall:.3}s)",
                one_shard_wall / wall
            );
        }
    }

    // Pipelining vs lockstep, cache-hit evals against one shard daemon.
    let server = Server::bind(ServerConfig {
        threads: 1,
        ..ServerConfig::default()
    })
    .expect("bind");
    let addr = server.local_addr().expect("addr");
    let daemon = std::thread::spawn(move || server.run().expect("daemon runs"));
    let mut client = Client::connect(addr).expect("connect");
    let point = DesignPoint {
        net: "lenet".to_owned(),
        ..DesignPoint::paper_alexnet()
    };
    client.eval(point.clone()).expect("warmup eval");
    let rounds = 300u32;
    let started = Instant::now();
    for _ in 0..rounds {
        let Response::Eval { .. } = client.eval(point.clone()).expect("eval") else {
            panic!("expected an eval reply");
        };
    }
    let sequential = started.elapsed().as_secs_f64();
    let started = Instant::now();
    let ids: Vec<u64> = (0..rounds)
        .map(|_| {
            client
                .pipeline(&Request::Eval(point.clone()))
                .expect("pipeline")
        })
        .collect();
    for id in ids {
        client.recv_reply(id).expect("reply");
    }
    let pipelined = started.elapsed().as_secs_f64();
    client.shutdown().expect("shutdown");
    daemon.join().expect("daemon thread");
    let seq_rate = f64::from(rounds) / sequential;
    let pipe_rate = f64::from(rounds) / pipelined;
    println!(
        "cluster: pipelined evals {pipe_rate:.0}/s vs {seq_rate:.0}/s lockstep \
         ({:.1}x)",
        pipe_rate / seq_rate
    );
    records.push(record(
        "cluster/eval_lockstep",
        "requests_per_sec",
        seq_rate,
        "req/s",
    ));
    records.push(record(
        "cluster/eval_pipelined",
        "requests_per_sec",
        pipe_rate,
        "req/s",
    ));
    records
}

/// Appends one suite's records to its history file and gates them
/// against the checked-in baseline. Returns the failures.
fn run_suite(name: &str, records: Vec<BenchRecord>, root: &Path, tolerance: f64) -> Vec<String> {
    let history_path = root.join(format!("BENCH_{name}.json"));
    history::append(&history_path, &records).expect("append history");
    for r in &records {
        println!("{}/{}: {:.3} {}", r.bench, r.metric, r.value, r.unit);
    }
    let baseline_path = root.join(format!("crates/bench/baselines/BASELINE_{name}.json"));
    let baseline = history::load(&baseline_path);
    if baseline.is_empty() {
        println!("bench-history[{name}]: no baseline at {baseline_path:?}; gate skipped");
        return Vec::new();
    }
    let verdict = history::gate(&records, &baseline, tolerance);
    println!(
        "bench-history[{name}]: {} of {} baseline metrics checked, {} regressions",
        verdict.checked,
        baseline.len(),
        verdict.failures.len()
    );
    verdict.failures
}

fn main() {
    let tolerance = std::env::var("CHAIN_NN_BENCH_TOLERANCE")
        .ok()
        .and_then(|v| v.parse::<f64>().ok())
        .unwrap_or(3.0);
    let root = repo_root();
    let mut failures = Vec::new();
    failures.extend(run_suite("dse", measure_dse(), &root, tolerance));
    failures.extend(run_suite("serve", measure_serve(), &root, tolerance));
    failures.extend(run_suite("mixed", measure_mixed(), &root, tolerance));
    failures.extend(run_suite("cluster", measure_cluster(), &root, tolerance));
    // Paranoia: the freshly-appended lines must parse back — the whole
    // point of the history is machine readability.
    for name in ["dse", "serve", "mixed", "cluster"] {
        let loaded = history::load(&root.join(format!("BENCH_{name}.json")));
        assert!(!loaded.is_empty(), "BENCH_{name}.json must parse");
    }
    if !failures.is_empty() {
        eprintln!("bench-history: regression gate FAILED");
        for f in &failures {
            eprintln!("  {f}");
        }
        std::process::exit(1);
    }
    println!("bench-history: regression gate passed (tolerance {tolerance})");
}
