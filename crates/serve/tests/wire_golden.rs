//! Wire golden: the encoded line of one instance of every request and
//! response shape, checked in under `tests/fixtures/wire_golden.txt`.
//!
//! The fixture pins the wire byte for byte — key order, `req`/`trace`
//! placement, float formatting, escapes, non-finite numbers — so a codec
//! rewrite cannot drift from what deployed clients and daemons speak.
//! Each fixture line is `label<TAB>wire line`. Every case must encode to
//! exactly its line and decode back to the value it was encoded from;
//! `encode-only` cases (non-finite floats, integers above 2^53) pin the
//! encoder alone, since those values do not survive a decode.

use chain_nn_dse::pareto::Objectives;
use chain_nn_dse::{
    DesignPoint, MixResult, PointOutcome, PointResult, SweepPart, SweepSpec, WorkloadMix,
};
use chain_nn_obs::trace::{SpanRecord, TraceContext};
use chain_nn_obs::{HistogramSummary, MetricEntry, MetricValue, Snapshot};
use chain_nn_serve::protocol::{
    FrontierDoneSummary, FrontierEntry, FrontierStepSummary, HistoryTypeWindow, HistoryWindow,
    MetricsHistory, Request, RequestMeta, Response, ServerStats, ShardStat, SweepSummary,
    TuneSummary, WatchSample,
};
use chain_nn_tuner::{
    Budget, BudgetAxis, BudgetSweep, FrontierStep, FrontierTuneRequest, Metric, Objective,
    StrategyKind, TuneRequest, Tuned,
};

const FIXTURE: &str = include_str!("fixtures/wire_golden.txt");

fn point() -> DesignPoint {
    DesignPoint {
        pes: 288,
        freq_mhz: 123.456_789_012_345,
        kmem_depth: 128,
        imem_kb: 16,
        omem_kb: 48,
        word_bits: 12,
        batch: 4,
        net: "vgg16".into(),
    }
}

fn result() -> PointResult {
    PointResult {
        fps: 326.296_296_296_296_3,
        achieved_gops: 1.0 / 3.0,
        peak_gops: 806.4,
        chip_mw: 567.5,
        dram_mw: 0.1,
        gates_k: 1e-300,
        sram_kb: 352.0,
        sqnr_db: -0.0,
    }
}

fn tuned() -> Tuned {
    Tuned {
        point: DesignPoint::paper_alexnet(),
        result: MixResult::from(&result()),
        admitted: true,
    }
}

fn stats(shards: Vec<ShardStat>, hit_rate: f64) -> ServerStats {
    ServerStats {
        cached_points: 10,
        hits: 7,
        misses: 3,
        hit_rate,
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
        shards,
    }
}

fn requests() -> Vec<(&'static str, Request)> {
    let spec = SweepSpec {
        pes: vec![144, 288, 576],
        freqs_mhz: vec![350.0, 700.5],
        kmem_depths: vec![64, 256],
        imem_kb: vec![8],
        omem_kb: vec![24, 48],
        word_bits: vec![8, 16],
        batches: vec![1, 128],
        nets: vec!["alexnet".into(), "vgg16".into()],
        part: None,
    };
    let tune = TuneRequest {
        space: spec.clone(),
        mix: WorkloadMix::parse("alexnet:0.7,vgg16:0.3").unwrap(),
        budget: Budget {
            max_system_mw: Some(500.0),
            max_gates_k: Some(1024.5),
            min_fps: Some(30.0),
            min_sqnr_db: Some(45.0),
        },
        objective: Objective::Lexicographic(vec![Metric::Fps, Metric::SystemMw]),
        strategy: StrategyKind::HillClimb,
        seed: 42,
    };
    vec![
        ("eval", Request::Eval(point())),
        (
            "eval-escaped-net",
            Request::Eval(DesignPoint {
                net: "a\"b\\c\nd\te\u{1}/é🦀".into(),
                ..DesignPoint::paper_alexnet()
            }),
        ),
        (
            "eval_batch",
            Request::EvalBatch(vec![point(), DesignPoint::paper_alexnet()]),
        ),
        ("eval_batch-empty", Request::EvalBatch(vec![])),
        ("sweep", Request::Sweep(spec.clone())),
        (
            "sweep-part",
            Request::Sweep(SweepSpec {
                part: Some(SweepPart { index: 1, of: 4 }),
                ..SweepSpec::paper_point()
            }),
        ),
        ("tune-default", Request::Tune(Box::default())),
        ("tune", Request::Tune(Box::new(tune.clone()))),
        (
            "tune-scalarized",
            Request::Tune(Box::new(TuneRequest {
                objective: Objective::Scalarized(vec![(Metric::Fps, 1.0), (Metric::GatesK, 0.25)]),
                ..TuneRequest::default()
            })),
        ),
        (
            "tune_frontier-default",
            Request::TuneFrontier(Box::default()),
        ),
        (
            "tune_frontier",
            Request::TuneFrontier(Box::new(FrontierTuneRequest {
                base: tune,
                sweep: BudgetSweep {
                    axis: BudgetAxis::MinFps,
                    values: vec![30.0, 60.5, 120.0],
                },
            })),
        ),
        (
            "frontier-2d",
            Request::Frontier {
                dims: 2,
                sqnr: false,
                stream: false,
            },
        ),
        (
            "frontier-sqnr",
            Request::Frontier {
                dims: 3,
                sqnr: true,
                stream: false,
            },
        ),
        (
            "frontier-stream",
            Request::Frontier {
                dims: 3,
                sqnr: false,
                stream: true,
            },
        ),
        ("stats", Request::Stats),
        ("metrics", Request::Metrics),
        ("metrics_history", Request::MetricsHistory),
        ("watch", Request::Watch { samples: 5 }),
        ("trace_query", Request::TraceQuery { id: 4242 }),
        ("dump", Request::Dump),
        ("shutdown", Request::Shutdown),
    ]
}

fn responses() -> Vec<(&'static str, Response)> {
    let entry = FrontierEntry {
        point: point(),
        result: result(),
    };
    vec![
        (
            "eval-feasible",
            Response::Eval {
                point: point(),
                outcome: PointOutcome::Feasible(result()),
            },
        ),
        (
            "eval-infeasible",
            Response::Eval {
                point: DesignPoint::paper_alexnet(),
                outcome: PointOutcome::Infeasible("chain \"too\" short\n".into()),
            },
        ),
        (
            "eval_batch",
            Response::EvalBatch {
                outcomes: vec![
                    PointOutcome::Feasible(result()),
                    PointOutcome::Infeasible("kMemory too shallow".into()),
                ],
                cache_hits: 1,
                cache_misses: 1,
            },
        ),
        (
            "sweep",
            Response::Sweep(SweepSummary {
                points: 6,
                feasible: 5,
                cache_hits: 2,
                cache_misses: 4,
                wall_ms: 1.25,
                frontier_3d: vec![0, 3, 5],
                frontier_sqnr: vec![],
                candidates: vec![],
                degraded: false,
            }),
        ),
        (
            "sweep-partitioned-degraded",
            Response::Sweep(SweepSummary {
                points: 3,
                feasible: 3,
                cache_hits: 0,
                cache_misses: 3,
                wall_ms: 0.1,
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
        ),
        (
            "tune-found",
            Response::Tune(TuneSummary {
                best: Some(tuned()),
                evaluations: 34,
                cache_hits: 10,
                cache_misses: 58,
                rounds: 5,
                exhaustive_points: 244,
                degraded: false,
            }),
        ),
        (
            "tune-nothing-degraded",
            Response::Tune(TuneSummary {
                best: None,
                evaluations: 20,
                cache_hits: 0,
                cache_misses: 20,
                rounds: 1,
                exhaustive_points: 244,
                degraded: true,
            }),
        ),
        (
            "tune_frontier-step",
            Response::TuneFrontierStep(FrontierStepSummary {
                step: 0,
                steps: 13,
                result: FrontierStep {
                    budget_value: 300.0,
                    best: Some(Tuned {
                        admitted: false,
                        ..tuned()
                    }),
                    evaluations: 33,
                    fresh_evaluations: 33,
                    cache_hits: 0,
                    cache_misses: 33,
                    rounds: 5,
                },
            }),
        ),
        (
            "tune_frontier-step-nothing",
            Response::TuneFrontierStep(FrontierStepSummary {
                step: 3,
                steps: 13,
                result: FrontierStep {
                    budget_value: 450.5,
                    best: None,
                    evaluations: 20,
                    fresh_evaluations: 0,
                    cache_hits: 20,
                    cache_misses: 0,
                    rounds: 1,
                },
            }),
        ),
        (
            "tune_frontier-done",
            Response::TuneFrontierDone(FrontierDoneSummary {
                steps: 13,
                frontier: vec![0, 4, 7],
                evaluations: 61,
                standalone_evaluations: 429,
                cache_hits: 400,
                cache_misses: 61,
                exhaustive_points: 244,
            }),
        ),
        (
            "frontier-stream-entry",
            Response::FrontierStreamEntry {
                entry: entry.clone(),
            },
        ),
        (
            "frontier-stream-done",
            Response::FrontierStreamDone {
                dims: 3,
                entries: 7,
                degraded: false,
            },
        ),
        (
            "frontier-stream-done-degraded",
            Response::FrontierStreamDone {
                dims: 2,
                entries: 0,
                degraded: true,
            },
        ),
        (
            "frontier",
            Response::Frontier {
                dims: 3,
                entries: vec![entry.clone(), entry],
                degraded: false,
            },
        ),
        (
            "frontier-empty-degraded",
            Response::Frontier {
                dims: 2,
                entries: vec![],
                degraded: true,
            },
        ),
        ("stats", Response::Stats(stats(vec![], 0.7))),
        (
            "stats-coordinator",
            Response::Stats(stats(
                vec![
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
                0.7,
            )),
        ),
        (
            "metrics",
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
                                p95: 4096.5,
                                p99: 8191.75,
                                max: 8192.0,
                            }),
                        },
                        MetricEntry {
                            name: "serve_inflight_requests".into(),
                            labels: vec![],
                            value: MetricValue::Gauge(-1.5),
                        },
                        MetricEntry {
                            name: "serve_requests_total".into(),
                            labels: vec![
                                ("type".into(), "eval".into()),
                                ("x\"y".into(), "z".into()),
                            ],
                            value: MetricValue::Counter(12),
                        },
                    ],
                    uptime_s: 42.5,
                },
            },
        ),
        (
            "metrics-empty",
            Response::Metrics {
                snapshot: Snapshot::default(),
            },
        ),
        (
            "metrics_history",
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
        ),
        (
            "watch-sample",
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
        ),
        ("watch-done", Response::WatchDone { samples: 7 }),
        (
            "trace",
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
                        points: 0,
                    },
                ],
            },
        ),
        (
            "dump",
            Response::Dump {
                path: "/tmp/trace.jsonl.flight.json".into(),
                spans: 128,
                dropped: 0,
            },
        ),
        ("shutdown", Response::Shutdown),
        (
            "busy",
            Response::Busy {
                active: 16,
                capacity: 16,
            },
        ),
        (
            "error",
            Response::Error {
                message: "unknown network 'squeezenet'".into(),
            },
        ),
    ]
}

/// Values whose wire form does not decode back to themselves: the
/// encoder's handling of them is still part of the wire.
fn encode_only() -> Vec<(&'static str, String)> {
    vec![
        (
            "stats-nan-hit-rate",
            Response::Stats(stats(vec![], f64::NAN)).encode(),
        ),
        (
            "metrics-infinite-gauge",
            Response::Metrics {
                snapshot: Snapshot {
                    entries: vec![MetricEntry {
                        name: "g".into(),
                        labels: vec![],
                        value: MetricValue::Gauge(f64::NEG_INFINITY),
                    }],
                    uptime_s: f64::INFINITY,
                },
            }
            .encode(),
        ),
        (
            "trace_query-above-2^53",
            Request::TraceQuery { id: u64::MAX }.encode_with_meta(
                Some(TraceContext {
                    id: (1 << 53) + 1,
                    parent: 1 << 60,
                }),
                Some(u64::MAX - 1),
            ),
        ),
    ]
}

const REQ_ID: u64 = 7;
const TRACE: TraceContext = TraceContext {
    id: 4242,
    parent: 17,
};
const ROOT_TRACE: TraceContext = TraceContext { id: 99, parent: 0 };

/// Every golden case: its label, its encoding today, and a check that
/// the fixture line decodes back to the encoded value.
type Check = Box<dyn Fn(&str)>;

fn cases() -> Vec<(String, String, Option<Check>)> {
    let mut out: Vec<(String, String, Option<Check>)> = Vec::new();
    let metas = [
        ("", None, None),
        ("+req", None, Some(REQ_ID)),
        ("+trace", Some(TRACE), None),
        ("+trace+req", Some(ROOT_TRACE), Some(REQ_ID)),
    ];
    for (label, request) in requests() {
        for (suffix, trace, req_id) in metas {
            let wire = request.encode_with_meta(trace, req_id);
            let expected = request.clone();
            let meta = RequestMeta { trace, req_id };
            let check: Check = Box::new(move |line| {
                let (back, back_meta) = Request::decode_with_meta(line).unwrap();
                assert_eq!(back, expected, "{line}");
                assert_eq!(back_meta, meta, "{line}");
                assert_eq!(Request::decode(line).unwrap(), expected, "{line}");
            });
            out.push((format!("request.{label}{suffix}"), wire, Some(check)));
        }
        // The plain encoder agrees with the envelope-less form.
        assert_eq!(request.encode(), request.encode_with_meta(None, None));
    }
    for (label, response) in responses() {
        for (suffix, req_id) in [("", None), ("+req", Some(REQ_ID))] {
            let wire = response.encode_with_req(req_id);
            let expected = response.clone();
            let check: Check = Box::new(move |line| {
                let (back, back_id) = Response::decode_with_req(line).unwrap();
                assert_eq!(back, expected, "{line}");
                assert_eq!(back_id, req_id, "{line}");
                assert_eq!(Response::decode(line).unwrap(), expected, "{line}");
            });
            out.push((format!("response.{label}{suffix}"), wire, Some(check)));
        }
        assert_eq!(response.encode(), response.encode_with_req(None));
    }
    for (label, wire) in encode_only() {
        out.push((format!("encode-only.{label}"), wire, None));
    }
    out
}

#[test]
fn every_message_encodes_byte_identically_to_the_fixture_and_decodes_back() {
    let fixture: Vec<(&str, &str)> = FIXTURE
        .lines()
        .map(|line| line.split_once('\t').expect("label<TAB>line"))
        .collect();
    let cases = cases();
    let labels: Vec<&str> = cases.iter().map(|(label, _, _)| label.as_str()).collect();
    let fixture_labels: Vec<&str> = fixture.iter().map(|(label, _)| *label).collect();
    assert_eq!(labels, fixture_labels, "case list and fixture disagree");
    for ((label, wire, check), (_, golden)) in cases.iter().zip(&fixture) {
        assert_eq!(
            wire, golden,
            "{label}: encoding drifted from the golden line"
        );
        assert!(!golden.contains('\n'), "{label}: one line");
        if let Some(check) = check {
            check(golden);
        }
    }
}
