//! Seeded input generation. The workload seed is the only source of
//! variation: the same seed gives the same grid, working set, request
//! order and tune requests, and the program under test only ever sees
//! the generated inputs.

use chain_nn_dse::{DesignPoint, SweepSpec, WorkloadMix};
use chain_nn_tuner::{Budget, Metric, Objective, StrategyKind, TuneRequest};

/// The three networks every workload spreads its points over.
pub const NETS: [&str; 3] = ["alexnet", "vgg16", "resnet18"];

/// SplitMix64: tiny, fast and fully determined by its seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream` so two uses of
    /// one seed do not replay each other's draws.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`; the modulo bias is irrelevant here).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// The `sweep_cold` grid: the three networks × PEs 64..=1024 step 4 ×
/// {350, 700} MHz × batch {1, 4} at the paper SRAM and kMemory sizes
/// (2892 points). The seed shifts the PE axis by 0–3 PEs, which keeps
/// the point count.
pub fn sweep_spec(seed: u64) -> SweepSpec {
    let shift = sweep_shift(seed);
    SweepSpec {
        pes: (64 + shift..=1024 + shift).step_by(4).collect(),
        freqs_mhz: vec![350.0, 700.0],
        batches: vec![1, 4],
        nets: NETS.iter().map(|n| (*n).to_owned()).collect(),
        ..SweepSpec::paper_point()
    }
}

/// How far the seed shifts the sweep's PE axis.
pub fn sweep_shift(seed: u64) -> usize {
    (seed % 4) as usize
}

/// Every point a warm working set is drawn from: the three networks ×
/// PEs 128..=1024 step 4 × two clocks × two batches at the paper SRAM
/// sizes. 128 PEs fit every kernel of the three networks, so every
/// candidate is feasible.
fn warm_candidates() -> Vec<DesignPoint> {
    SweepSpec {
        pes: (128..=1024).step_by(4).collect(),
        freqs_mhz: vec![350.0, 700.0],
        batches: vec![1, 4],
        nets: NETS.iter().map(|n| (*n).to_owned()).collect(),
        ..SweepSpec::paper_point()
    }
    .points()
}

/// The `eval_warm` working set: `n` distinct points, seeded.
pub fn warm_set(seed: u64, n: usize) -> Vec<DesignPoint> {
    let mut points = warm_candidates();
    Rng::new(seed, 1).shuffle(&mut points);
    points.truncate(n);
    points
}

/// [`TUNE_BLOCKS`] tunes of every kind, with spaces at the paper SRAM
/// sizes, so a set-up pass can warm every point they visit.
pub fn warm_tunes(seed: u64) -> Vec<TuneRequest> {
    let mut rng = Rng::new(seed, 2);
    let mut out = Vec::with_capacity(TUNE_BLOCKS * TUNE_KINDS);
    for _ in 0..TUNE_BLOCKS {
        let mut kinds: Vec<usize> = (0..TUNE_KINDS).collect();
        rng.shuffle(&mut kinds);
        out.extend(
            kinds
                .into_iter()
                .map(|kind| tune_request(&mut rng, kind, 32, 25)),
        );
    }
    out
}

/// Independent cold streams one seed provides.
pub const LANES: usize = 3;

/// A stream of never-repeating cold inputs. Every eval point and every
/// tune space draws its own value of a monotone salt, which sets the
/// iMemory/oMemory sizes, so no two requests share a point. Each lane
/// takes every [`LANES`]-th salt, so the lanes of one seed never share
/// a point either, and each can be replayed on its own. Salted sizes
/// start at 40 KB, above the paper's 32 + 25 KB, so the paper point
/// never collides with a stream.
#[derive(Debug, Clone)]
pub struct ColdStream {
    rng: Rng,
    lane: usize,
    drawn: usize,
    kinds: Vec<usize>,
}

impl ColdStream {
    /// Lane `lane` (below [`LANES`]) of the streams for `seed`.
    pub fn new(seed: u64, lane: usize) -> ColdStream {
        assert!(lane < LANES, "lane {lane} out of range");
        ColdStream {
            rng: Rng::new(seed, 3 + lane as u64),
            lane,
            drawn: 0,
            kinds: Vec::new(),
        }
    }

    fn next_salt(&mut self) -> (usize, usize) {
        let s = self.drawn * LANES + self.lane;
        self.drawn += 1;
        (40 + s % 1024, 40 + s / 1024)
    }

    /// A never-seen eval point (always feasible: at least 128 PEs).
    pub fn eval_point(&mut self) -> DesignPoint {
        let (imem_kb, omem_kb) = self.next_salt();
        DesignPoint {
            pes: 128 + 4 * self.rng.below(225),
            freq_mhz: [350.0, 700.0][self.rng.below(2)],
            batch: [1, 4][self.rng.below(2)],
            imem_kb,
            omem_kb,
            net: NETS[self.rng.below(NETS.len())].to_owned(),
            ..DesignPoint::paper_alexnet()
        }
    }

    /// A tune over a space no earlier request of the stream touched.
    /// Every block of [`TUNE_KINDS`] tunes has each kind once, in a
    /// seeded order, so the mix of tune kinds does not vary with the
    /// seed.
    pub fn tune(&mut self) -> TuneRequest {
        if self.kinds.is_empty() {
            self.kinds = (0..TUNE_KINDS).collect();
            self.rng.shuffle(&mut self.kinds);
        }
        let kind = self.kinds.pop().expect("refilled above");
        let (imem_kb, omem_kb) = self.next_salt();
        tune_request(&mut self.rng, kind, imem_kb, omem_kb)
    }
}

/// Tune kinds: 3 networks × 2 strategies × 4 objectives × 3 budgets.
pub const TUNE_KINDS: usize = 72;

/// Blocks of every kind in a fixed tune set. Each tune's seeded PE
/// range sets its cost; four of each kind keep the set's quantiles
/// from hanging on one draw per kind.
pub const TUNE_BLOCKS: usize = 4;

/// One tune of `kind` (a network, a strategy, an objective and a
/// budget) over 16 seeded PE counts × two clocks × two batches (64
/// configurations) at the given SRAM sizes.
fn tune_request(rng: &mut Rng, kind: usize, imem_kb: usize, omem_kb: usize) -> TuneRequest {
    let net = NETS[kind % 3];
    let strategy = [StrategyKind::Halving, StrategyKind::HillClimb][kind / 3 % 2];
    let objective = match kind / 6 % 4 {
        0 => Objective::default(),
        1 => Objective::Lexicographic(vec![Metric::SystemMw, Metric::Fps]),
        2 => Objective::Scalarized(vec![(Metric::Fps, 1.0), (Metric::SystemMw, 0.5)]),
        _ => Objective::Lexicographic(vec![Metric::GopsPerWatt, Metric::Fps]),
    };
    let budget = Budget {
        max_system_mw: [None, Some(600.0), Some(900.0)][kind / 24],
        ..Budget::default()
    };
    let first = 128 + 4 * rng.below(32);
    TuneRequest {
        space: SweepSpec {
            pes: (0..16).map(|i| first + 48 * i).collect(),
            freqs_mhz: vec![350.0, 700.0],
            batches: vec![1, 4],
            imem_kb: vec![imem_kb],
            omem_kb: vec![omem_kb],
            ..SweepSpec::paper_point()
        },
        mix: WorkloadMix::single(net).expect("zoo network"),
        budget,
        objective,
        strategy,
        // The wire carries integers below 2^53.
        seed: rng.next_u64() >> 11,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn the_same_seed_gives_the_same_inputs() {
        assert_eq!(sweep_spec(7), sweep_spec(7));
        assert_eq!(warm_set(7, 1024), warm_set(7, 1024));
        assert_eq!(warm_tunes(7), warm_tunes(7));
        let (mut a, mut b) = (ColdStream::new(7, 1), ColdStream::new(7, 1));
        for _ in 0..100 {
            assert_eq!(a.tune(), b.tune());
            assert_eq!(a.eval_point(), b.eval_point());
        }
        assert_ne!(warm_set(7, 1024), warm_set(8, 1024));
        assert_ne!(ColdStream::new(7, 0).tune(), ColdStream::new(8, 0).tune());
    }

    #[test]
    fn every_seed_keeps_the_sweep_size() {
        for seed in 0..8 {
            assert_eq!(sweep_spec(seed).len(), 2892);
        }
        assert_eq!(sweep_spec(0).pes.first(), Some(&64));
        assert_eq!(sweep_spec(0).pes.last(), Some(&1024));
    }

    #[test]
    fn every_block_of_tunes_has_each_kind_once() {
        let kind =
            |t: &TuneRequest| format!("{} {} {} {:?}", t.mix, t.strategy, t.objective, t.budget);
        assert_eq!(warm_tunes(5).len(), TUNE_BLOCKS * TUNE_KINDS);
        let warm: HashSet<String> = warm_tunes(5)[..TUNE_KINDS].iter().map(kind).collect();
        assert_eq!(warm.len(), TUNE_KINDS);
        let mut stream = ColdStream::new(5, 2);
        for _ in 0..3 {
            let block: HashSet<String> = (0..TUNE_KINDS).map(|_| kind(&stream.tune())).collect();
            assert_eq!(block, warm);
        }
    }

    #[test]
    fn the_warm_set_is_distinct() {
        let set = warm_set(3, 1024);
        assert_eq!(set.len(), 1024);
        let distinct: HashSet<Vec<u8>> = set.iter().map(|p| p.canonical_bytes()).collect();
        assert_eq!(distinct.len(), 1024);
    }

    #[test]
    fn cold_points_and_tune_spaces_never_repeat() {
        let mut lanes: Vec<ColdStream> = (0..LANES).map(|l| ColdStream::new(11, l)).collect();
        let mut seen = HashSet::new();
        let paper = DesignPoint::paper_alexnet().canonical_bytes();
        seen.insert(paper);
        for _ in 0..2000 {
            let tune = lanes[1].tune();
            let mut space = tune.space.clone();
            space.nets = vec![tune.mix.primary().to_owned()];
            for p in space.points() {
                assert!(seen.insert(p.canonical_bytes()), "tune space repeats {p}");
            }
            for lane in [0, 0, 0, 0, 2, 2, 2, 2] {
                let p = lanes[lane].eval_point();
                assert!(seen.insert(p.canonical_bytes()), "eval point repeats {p}");
            }
        }
    }
}
