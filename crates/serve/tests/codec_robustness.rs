//! Robustness of the wire codec: round-trip properties over random
//! values of every request and response variant (extreme integers,
//! escaped strings, arbitrary finite floats), and a fuzz of random and
//! mutated lines against both decoders, which must never panic.

use chain_nn_dse::pareto::Objectives;
use chain_nn_dse::{
    DesignPoint, MixEntry, MixResult, PointOutcome, PointResult, SweepPart, SweepSpec, WorkloadMix,
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
use proptest::prelude::*;

/// Integers at the edges of what the wire carries exactly (up to 2^53).
fn extreme(rng: &mut TestRng) -> u64 {
    const EDGES: [u64; 8] = [
        0,
        1,
        255,
        u32::MAX as u64,
        1 << 32,
        (1 << 53) - 1,
        1 << 53,
        576,
    ];
    match rng.next_u64() % 3 {
        0 => EDGES[(rng.next_u64() % EDGES.len() as u64) as usize],
        1 => rng.next_u64() % 4096,
        _ => rng.next_u64() >> 11, // uniform below 2^53
    }
}

/// Any finite double: raw bit patterns cover subnormals, negative zero,
/// huge exponents and long mantissas.
fn finite(rng: &mut TestRng) -> f64 {
    loop {
        let x = f64::from_bits(rng.next_u64());
        if x.is_finite() {
            return x;
        }
    }
}

/// Network names drawn from characters that stress the escaper.
fn odd_string(rng: &mut TestRng) -> String {
    const PALETTE: [char; 14] = [
        'a', 'Z', '0', ' ', '"', '\\', '/', '\n', '\t', '\u{1}', '\u{1f}', '\u{7f}', 'é', '🦀',
    ];
    let len = rng.next_u64() % 12;
    (0..len)
        .map(|_| PALETTE[(rng.next_u64() % PALETTE.len() as u64) as usize])
        .collect()
}

fn point(rng: &mut TestRng) -> DesignPoint {
    DesignPoint {
        pes: extreme(rng) as usize,
        freq_mhz: finite(rng),
        kmem_depth: extreme(rng) as usize,
        imem_kb: extreme(rng) as usize,
        omem_kb: extreme(rng) as usize,
        word_bits: (extreme(rng) % (u64::from(u32::MAX) + 1)) as u32,
        batch: extreme(rng) as usize,
        net: odd_string(rng),
    }
}

fn outcome(rng: &mut TestRng) -> PointOutcome {
    if rng.next_u64().is_multiple_of(4) {
        return PointOutcome::Infeasible(odd_string(rng));
    }
    PointOutcome::Feasible(PointResult {
        fps: finite(rng),
        achieved_gops: finite(rng),
        peak_gops: finite(rng),
        // Small enough that the derived `system_mw` stays finite.
        chip_mw: finite(rng).clamp(-1e300, 1e300),
        dram_mw: finite(rng).clamp(-1e300, 1e300),
        gates_k: finite(rng),
        sram_kb: finite(rng),
        sqnr_db: finite(rng),
    })
}

fn bits_of(p: &DesignPoint) -> u64 {
    p.freq_mhz.to_bits()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn random_points_and_outcomes_round_trip_bit_exactly(seed in 0u64..u64::MAX,) {
        let mut rng = TestRng::deterministic(&seed.to_string());
        let p = point(&mut rng);
        let o = outcome(&mut rng);
        let meta = RequestMeta {
            trace: rng.next_u64().is_multiple_of(2).then(|| TraceContext {
                id: extreme(&mut rng).max(1),
                parent: extreme(&mut rng),
            }),
            req_id: rng.next_u64().is_multiple_of(2).then(|| extreme(&mut rng)),
        };

        let request = Request::Eval(p.clone());
        let line = request.encode_with_meta(meta.trace, meta.req_id);
        prop_assert!(!line.contains('\n'), "{line}");
        let (back, back_meta) = Request::decode_with_meta(&line).unwrap();
        prop_assert_eq!(&back, &request, "{}", line);
        prop_assert_eq!(back_meta, meta);
        let Request::Eval(back_point) = back else { unreachable!() };
        prop_assert_eq!(bits_of(&back_point), bits_of(&p), "{}", line);

        let batch = Request::EvalBatch(vec![p.clone(), point(&mut rng)]);
        prop_assert_eq!(Request::decode(&batch.encode()).unwrap(), batch);

        let reply = Response::Eval { point: p.clone(), outcome: o.clone() };
        let line = reply.encode_with_req(meta.req_id);
        prop_assert!(!line.contains('\n'), "{line}");
        let (back, back_id) = Response::decode_with_req(&line).unwrap();
        prop_assert_eq!(&back, &reply, "{}", line);
        prop_assert_eq!(back_id, meta.req_id);
        if let (
            Response::Eval { outcome: PointOutcome::Feasible(a), .. },
            PointOutcome::Feasible(b),
        ) = (&back, &o)
        {
            prop_assert_eq!(a.sqnr_db.to_bits(), b.sqnr_db.to_bits());
            prop_assert_eq!(a.fps.to_bits(), b.fps.to_bits());
        }

        let batch = Response::EvalBatch {
            outcomes: vec![o, outcome(&mut rng)],
            cache_hits: extreme(&mut rng),
            cache_misses: extreme(&mut rng),
        };
        prop_assert_eq!(Response::decode(&batch.encode()).unwrap(), batch);
    }
}

fn pick<T: Copy>(rng: &mut TestRng, from: &[T]) -> T {
    from[(rng.next_u64() % from.len() as u64) as usize]
}

fn coin(rng: &mut TestRng) -> bool {
    rng.next_u64().is_multiple_of(2)
}

/// Up to `max` items drawn by `item`.
fn list<T>(rng: &mut TestRng, max: u64, mut item: impl FnMut(&mut TestRng) -> T) -> Vec<T> {
    let len = rng.next_u64() % (max + 1);
    (0..len).map(|_| item(rng)).collect()
}

/// A finite, strictly positive double (weights must be).
fn positive(rng: &mut TestRng) -> f64 {
    let x = finite(rng).abs();
    if x > 0.0 {
        x
    } else {
        1.0
    }
}

fn usize_of(rng: &mut TestRng) -> usize {
    extreme(rng) as usize
}

fn u32_of(rng: &mut TestRng) -> u32 {
    (extreme(rng) % (u64::from(u32::MAX) + 1)) as u32
}

fn spec(rng: &mut TestRng) -> SweepSpec {
    SweepSpec {
        pes: list(rng, 4, usize_of),
        freqs_mhz: list(rng, 4, finite),
        kmem_depths: list(rng, 4, usize_of),
        imem_kb: list(rng, 4, usize_of),
        omem_kb: list(rng, 4, usize_of),
        word_bits: list(rng, 4, u32_of),
        batches: list(rng, 4, usize_of),
        nets: list(rng, 3, odd_string),
        part: coin(rng).then(|| SweepPart {
            index: usize_of(rng),
            of: usize_of(rng).max(1),
        }),
    }
}

const METRICS: [Metric; 5] = [
    Metric::Fps,
    Metric::SystemMw,
    Metric::GatesK,
    Metric::GopsPerWatt,
    Metric::SqnrDb,
];

fn tune_request(rng: &mut TestRng) -> TuneRequest {
    // A mix names distinct zoo networks with positive weights.
    let mut mix = Vec::new();
    for net in ["alexnet", "vgg16", "lenet"] {
        if coin(rng) || (mix.is_empty() && net == "lenet") {
            mix.push(MixEntry {
                net: net.into(),
                weight: positive(rng),
            });
        }
    }
    let optional = |rng: &mut TestRng| coin(rng).then(|| finite(rng));
    let budget = Budget {
        max_system_mw: optional(rng),
        max_gates_k: optional(rng),
        min_fps: optional(rng),
        min_sqnr_db: optional(rng),
    };
    let objective = if coin(rng) {
        Objective::Lexicographic(
            (0..=rng.next_u64() % 4)
                .map(|_| pick(rng, &METRICS))
                .collect(),
        )
    } else {
        Objective::Scalarized(
            (0..=rng.next_u64() % 4)
                .map(|_| (pick(rng, &METRICS), positive(rng)))
                .collect(),
        )
    };
    TuneRequest {
        space: spec(rng),
        mix: WorkloadMix::new(mix).unwrap(),
        budget,
        objective,
        strategy: pick(rng, &[StrategyKind::Halving, StrategyKind::HillClimb]),
        seed: extreme(rng),
    }
}

fn budget_sweep(rng: &mut TestRng) -> BudgetSweep {
    // Strictly increasing and positive: legal on every axis.
    let mut value = 0.0;
    let values = (0..=rng.next_u64() % 5)
        .map(|_| {
            value += 1.0 + (rng.next_u64() % 4096) as f64 / 8.0;
            value
        })
        .collect();
    let axes = [
        BudgetAxis::MaxSystemMw,
        BudgetAxis::MaxGatesK,
        BudgetAxis::MinFps,
        BudgetAxis::MinSqnrDb,
    ];
    BudgetSweep {
        axis: pick(rng, &axes),
        values,
    }
}

/// One random value of every request variant, in `Request::TYPES` order.
fn every_request(rng: &mut TestRng) -> Vec<Request> {
    let dims = pick(rng, &[2, 3]);
    vec![
        Request::Eval(point(rng)),
        Request::EvalBatch(list(rng, 3, point)),
        Request::Sweep(spec(rng)),
        Request::Tune(Box::new(tune_request(rng))),
        Request::TuneFrontier(Box::new(FrontierTuneRequest {
            base: tune_request(rng),
            sweep: budget_sweep(rng),
        })),
        Request::Frontier {
            dims,
            // The sqnr frontier is three-dimensional only.
            sqnr: dims == 3 && coin(rng),
            stream: coin(rng),
        },
        Request::Stats,
        Request::Metrics,
        Request::MetricsHistory,
        Request::Watch {
            samples: extreme(rng),
        },
        Request::TraceQuery { id: extreme(rng) },
        Request::Dump,
        Request::Shutdown,
    ]
}

fn mix_result(rng: &mut TestRng) -> MixResult {
    let PointOutcome::Feasible(r) = feasible(rng) else {
        unreachable!()
    };
    MixResult::from(&r)
}

fn feasible(rng: &mut TestRng) -> PointOutcome {
    loop {
        if let o @ PointOutcome::Feasible(_) = outcome(rng) {
            return o;
        }
    }
}

fn result_of(rng: &mut TestRng) -> PointResult {
    let PointOutcome::Feasible(r) = feasible(rng) else {
        unreachable!()
    };
    r
}

fn tuned(rng: &mut TestRng) -> Option<Tuned> {
    coin(rng).then(|| Tuned {
        point: point(rng),
        result: mix_result(rng),
        admitted: coin(rng),
    })
}

fn entry(rng: &mut TestRng) -> FrontierEntry {
    FrontierEntry {
        point: point(rng),
        result: result_of(rng),
    }
}

fn objectives(rng: &mut TestRng) -> Objectives {
    Objectives {
        fps: finite(rng),
        system_mw: finite(rng),
        gates_k: finite(rng),
        sqnr_db: finite(rng),
    }
}

fn type_window(rng: &mut TestRng) -> HistoryTypeWindow {
    HistoryTypeWindow {
        kind: odd_string(rng),
        requests: extreme(rng),
        p50_us: finite(rng),
        p99_us: finite(rng),
    }
}

fn metric_entry(rng: &mut TestRng) -> MetricEntry {
    let value = match rng.next_u64() % 3 {
        0 => MetricValue::Counter(extreme(rng)),
        1 => MetricValue::Gauge(finite(rng)),
        _ => MetricValue::Histogram(HistogramSummary {
            count: extreme(rng),
            sum: extreme(rng),
            p50: finite(rng),
            p95: finite(rng),
            p99: finite(rng),
            max: finite(rng),
        }),
    };
    MetricEntry {
        name: odd_string(rng),
        labels: list(rng, 3, |rng| (odd_string(rng), odd_string(rng))),
        value,
    }
}

fn span(rng: &mut TestRng, trace_id: u64) -> SpanRecord {
    SpanRecord {
        trace_id,
        span_id: extreme(rng),
        parent_id: extreme(rng),
        name: odd_string(rng),
        start_us: extreme(rng),
        dur_us: extreme(rng),
        worker: coin(rng).then(|| u32_of(rng)),
        points: u32_of(rng),
    }
}

/// One random value of every response variant.
fn every_response(rng: &mut TestRng) -> Vec<Response> {
    let trace_id = extreme(rng);
    // An error reply whose message is "busy" is left out: it encodes to
    // the `busy` backpressure line, which decodes as `Busy { 0, 0 }`.
    // The palette of `odd_string` cannot spell it, and the filter keeps
    // it that way.
    let message = Some(odd_string(rng))
        .filter(|m| m != "busy")
        .unwrap_or_default();
    vec![
        Response::Eval {
            point: point(rng),
            outcome: outcome(rng),
        },
        Response::EvalBatch {
            outcomes: list(rng, 3, outcome),
            cache_hits: extreme(rng),
            cache_misses: extreme(rng),
        },
        Response::Sweep(SweepSummary {
            points: usize_of(rng),
            feasible: usize_of(rng),
            cache_hits: extreme(rng),
            cache_misses: extreme(rng),
            wall_ms: finite(rng),
            frontier_3d: list(rng, 4, usize_of),
            frontier_sqnr: list(rng, 4, usize_of),
            candidates: list(rng, 3, |rng| (usize_of(rng), objectives(rng))),
            degraded: coin(rng),
        }),
        Response::Tune(TuneSummary {
            best: tuned(rng),
            evaluations: extreme(rng),
            cache_hits: extreme(rng),
            cache_misses: extreme(rng),
            rounds: usize_of(rng),
            exhaustive_points: usize_of(rng),
            degraded: coin(rng),
        }),
        Response::TuneFrontierStep(FrontierStepSummary {
            step: usize_of(rng),
            steps: usize_of(rng),
            result: FrontierStep {
                budget_value: finite(rng),
                best: tuned(rng),
                evaluations: extreme(rng),
                fresh_evaluations: extreme(rng),
                cache_hits: extreme(rng),
                cache_misses: extreme(rng),
                rounds: usize_of(rng),
            },
        }),
        Response::TuneFrontierDone(FrontierDoneSummary {
            steps: usize_of(rng),
            frontier: list(rng, 4, usize_of),
            evaluations: extreme(rng),
            standalone_evaluations: extreme(rng),
            cache_hits: extreme(rng),
            cache_misses: extreme(rng),
            exhaustive_points: usize_of(rng),
        }),
        Response::FrontierStreamEntry { entry: entry(rng) },
        Response::FrontierStreamDone {
            dims: extreme(rng) as u8,
            entries: usize_of(rng),
            degraded: coin(rng),
        },
        Response::Frontier {
            dims: extreme(rng) as u8,
            entries: list(rng, 2, entry),
            degraded: coin(rng),
        },
        Response::Stats(ServerStats {
            cached_points: usize_of(rng),
            hits: extreme(rng),
            misses: extreme(rng),
            hit_rate: finite(rng),
            requests: extreme(rng),
            active_jobs: usize_of(rng),
            queue_capacity: usize_of(rng),
            open_connections: usize_of(rng),
            max_connections: usize_of(rng),
            threads: usize_of(rng),
            loaded_from_disk: usize_of(rng),
            persistent: coin(rng),
            uptime_s: finite(rng),
            inflight_requests: usize_of(rng),
            queue_depth: usize_of(rng),
            slos: usize_of(rng),
            slo_breach_ticks: extreme(rng),
            shards: list(rng, 3, |rng| ShardStat {
                addr: odd_string(rng),
                requests: extreme(rng),
                errors: extreme(rng),
                degraded: coin(rng),
            }),
        }),
        Response::Metrics {
            snapshot: Snapshot {
                entries: list(rng, 4, metric_entry),
                uptime_s: finite(rng),
            },
        },
        Response::MetricsHistory(Box::new(MetricsHistory {
            interval_s: finite(rng),
            samples: extreme(rng),
            capacity: usize_of(rng),
            windows: list(rng, 3, |rng| HistoryWindow {
                window_s: finite(rng),
                duration_s: finite(rng),
                samples: usize_of(rng),
                req_per_sec: finite(rng),
                points_per_sec: finite(rng),
                types: list(rng, 3, type_window),
            }),
        })),
        Response::WatchSample(Box::new(WatchSample {
            seq: extreme(rng),
            interval_s: finite(rng),
            window_s: finite(rng),
            req_per_sec: finite(rng),
            points_per_sec: finite(rng),
            inflight: extreme(rng),
            active_jobs: extreme(rng),
            queue_depth: extreme(rng),
            cache_hit_rate: finite(rng),
            requests_total: extreme(rng),
            queue_wait_p99_us: finite(rng),
            execute_p99_us: finite(rng),
            types: list(rng, 3, type_window),
        })),
        Response::WatchDone {
            samples: extreme(rng),
        },
        Response::Trace {
            id: trace_id,
            dropped: extreme(rng),
            // A reply's spans all belong to the queried trace.
            spans: list(rng, 3, |rng| span(rng, trace_id)),
        },
        Response::Dump {
            path: odd_string(rng),
            spans: usize_of(rng),
            dropped: extreme(rng),
        },
        Response::Shutdown,
        Response::Busy {
            active: usize_of(rng),
            capacity: usize_of(rng),
        },
        Response::Error { message },
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn every_message_round_trips_and_re_encodes_identically(seed in 0u64..u64::MAX,) {
        let mut rng = TestRng::deterministic(&seed.to_string());
        let requests = every_request(&mut rng);
        let kinds: Vec<&str> = requests.iter().map(Request::kind).collect();
        prop_assert_eq!(kinds, Request::TYPES);
        for request in requests {
            let trace = coin(&mut rng).then(|| TraceContext {
                id: extreme(&mut rng).max(1),
                parent: extreme(&mut rng),
            });
            let req_id = coin(&mut rng).then(|| extreme(&mut rng));
            for (trace, req_id) in [(None, None), (trace, req_id)] {
                let line = request.encode_with_meta(trace, req_id);
                prop_assert!(!line.contains('\n'), "{line}");
                let (back, meta) = Request::decode_with_meta(&line).unwrap();
                prop_assert_eq!(&back, &request, "{}", line);
                prop_assert_eq!(meta, RequestMeta { trace, req_id }, "{}", line);
                prop_assert_eq!(back.encode_with_meta(meta.trace, meta.req_id), line);
            }
        }
        let req_id = coin(&mut rng).then(|| extreme(&mut rng));
        for response in every_response(&mut rng) {
            for req_id in [None, req_id] {
                let line = response.encode_with_req(req_id);
                prop_assert!(!line.contains('\n'), "{line}");
                let (back, id) = Response::decode_with_req(&line).unwrap();
                prop_assert_eq!(&back, &response, "{}", line);
                prop_assert_eq!(id, req_id, "{}", line);
                prop_assert_eq!(back.encode_with_req(id), line);
            }
        }
    }
}

/// Valid lines of many shapes: the mutation fuzz's starting points.
fn seeds() -> Vec<String> {
    let mut rng = TestRng::deterministic("fuzz seeds");
    let mut lines: Vec<String> = include_str!("fixtures/wire_golden.txt")
        .lines()
        .filter_map(|l| l.split_once('\t').map(|(_, wire)| wire.to_owned()))
        .collect();
    for _ in 0..16 {
        lines.push(Request::Eval(point(&mut rng)).encode_with_meta(None, Some(3)));
        lines.push(
            Response::Eval {
                point: point(&mut rng),
                outcome: outcome(&mut rng),
            }
            .encode_with_req(Some(3)),
        );
    }
    lines
}

/// One random edit of `line`'s bytes: delete, duplicate or overwrite a
/// span, or insert bytes from a JSON-heavy alphabet. The result is made
/// valid UTF-8 lossily, as a decoder's input always is.
fn mutate(line: &str, rng: &mut TestRng) -> String {
    const ALPHABET: &[u8] = b"{}[]:,\"\\-+.0123456789eEtruefalsnl \tu\x01\xff";
    let mut bytes = line.as_bytes().to_vec();
    for _ in 0..=rng.next_u64() % 3 {
        let len = bytes.len().max(1) as u64;
        let at = (rng.next_u64() % len) as usize;
        let span = 1 + (rng.next_u64() % 8) as usize;
        let end = (at + span).min(bytes.len());
        match rng.next_u64() % 4 {
            0 => {
                bytes.drain(at.min(end)..end);
            }
            1 => {
                let copy = bytes[at.min(end)..end].to_vec();
                bytes.splice(at.min(end)..at.min(end), copy);
            }
            2 => {
                for b in &mut bytes[at.min(end)..end] {
                    *b = ALPHABET[(rng.next_u64() % ALPHABET.len() as u64) as usize];
                }
            }
            _ => {
                let insert: Vec<u8> = (0..span)
                    .map(|_| ALPHABET[(rng.next_u64() % ALPHABET.len() as u64) as usize])
                    .collect();
                let at = at.min(bytes.len());
                bytes.splice(at..at, insert);
            }
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

/// Decodes `line` both ways. Neither decoder may panic; whatever one
/// accepts must re-encode to a line that decodes to the same value —
/// unless a number overflowed to infinity on the way in (`1e999`
/// parses, as it always has), which the encoder writes as `null`.
fn decode_both(line: &str) -> (bool, bool) {
    let request = Request::decode_with_meta(line);
    if let Ok((req, meta)) = &request {
        let again = req.encode_with_meta(meta.trace, meta.req_id);
        if !again.contains("null") {
            let back = Request::decode_with_meta(&again);
            assert_eq!(back.as_ref(), Ok(&(req.clone(), *meta)), "{line}");
        }
    }
    let response = Response::decode_with_req(line);
    if let Ok((resp, id)) = &response {
        let again = resp.encode_with_req(*id);
        if !again.contains("null") {
            let back = Response::decode_with_req(&again);
            assert_eq!(back.as_ref(), Ok(&(resp.clone(), *id)), "{line}");
        }
    }
    (request.is_ok(), response.is_ok())
}

#[test]
fn random_bytes_are_rejected_without_panicking() {
    let mut rng = TestRng::deterministic("random bytes");
    for _ in 0..20_000 {
        let len = (rng.next_u64() % 64) as usize;
        let bytes: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
        let line = String::from_utf8_lossy(&bytes);
        let (request, response) = decode_both(&line);
        assert!(!request && !response, "junk decoded: {line:?}");
    }
}

#[test]
fn mutated_valid_lines_never_panic_either_decoder() {
    let mut rng = TestRng::deterministic("mutations");
    let seeds = seeds();
    let (mut accepted, mut rejected) = (0, 0);
    for _ in 0..40_000 {
        let seed = &seeds[(rng.next_u64() % seeds.len() as u64) as usize];
        let line = mutate(seed, &mut rng);
        let (request, response) = decode_both(&line);
        if request || response {
            accepted += 1;
        } else {
            rejected += 1;
            // Junk is a protocol error, with a message.
            let err = Request::decode_with_meta(&line).unwrap_err();
            assert!(!err.0.is_empty());
        }
    }
    // Both outcomes occur, so the fuzz reaches past the JSON syntax.
    assert!(
        accepted > 1000 && rejected > 1000,
        "{accepted} accepted, {rejected} rejected"
    );
}

#[test]
fn inserted_unknown_fields_and_earlier_duplicates_change_nothing() {
    let mut rng = TestRng::deterministic("unknown fields");
    for seed in seeds() {
        let Some(body) = seed.strip_prefix('{') else {
            continue;
        };
        let junk = ["null", "[1,{\"a\":[]}]", "\"\\u00e9\"", "-0.5e3", "{}"];
        let value = junk[(rng.next_u64() % junk.len() as u64) as usize];
        let unknown = format!("{{\"zz_unknown\":{value},{body}");
        assert_eq!(
            Request::decode_with_meta(&unknown),
            Request::decode_with_meta(&seed),
            "{unknown}"
        );
        assert_eq!(
            Response::decode_with_req(&unknown),
            Response::decode_with_req(&seed),
            "{unknown}"
        );
        // An earlier duplicate of any member is overridden by the
        // original, which comes later.
        for key in ["type", "ok", "req", "point", "status", "fps", "error"] {
            let dup = format!("{{\"{key}\":{value},{body}");
            if seed.contains(&format!("\"{key}\":")) {
                assert_eq!(
                    Request::decode_with_meta(&dup),
                    Request::decode_with_meta(&seed),
                    "{dup}"
                );
                assert_eq!(
                    Response::decode_with_req(&dup),
                    Response::decode_with_req(&seed),
                    "{dup}"
                );
            }
        }
    }
}

/// A nesting-depth bound only by the line cap: a 20 KB line of nested
/// brackets used to overflow a session thread's stack and abort the
/// daemon.
#[test]
fn deeply_nested_lines_decode_without_overflowing_the_stack() {
    let depth = 1 << 17;
    let nested = format!(
        r#"{{"type":"stats","x":{}{}}}"#,
        "[".repeat(depth),
        "]".repeat(depth)
    );
    let decoded = std::thread::spawn(move || Request::decode_with_meta(&nested))
        .join()
        .expect("no stack overflow");
    assert_eq!(decoded.unwrap().0, Request::Stats);
    let deep = format!("{}{}", "[".repeat(depth), "]".repeat(depth));
    assert!(Request::decode_with_meta(&deep).is_err());
    let open = format!(r#"{{"type":"stats","x":{}"#, r#"{"a":"#.repeat(depth));
    assert!(Response::decode_with_req(&open).is_err());
}
