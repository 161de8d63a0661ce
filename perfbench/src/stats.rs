//! Order statistics and failure accounting shared by every workload.

use crate::inputs::Rng;

/// Sorts a copy of `values` ascending (timings are finite; NaN sorts
/// last under `total_cmp` and would show up as a visible outlier).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Nearest-rank quantile of an ascending slice: the value of rank
/// `ceil(q·n)`, so every reported figure is a measured sample.
///
/// # Panics
///
/// On an empty slice (a caller bug: every workload checks its sample
/// counts first).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let n = sorted.len();
    // The epsilon keeps `0.99 * 1000` at rank 990 despite rounding.
    let rank = ((q * n as f64 - 1e-9).ceil() as usize).clamp(1, n);
    sorted[rank - 1]
}

/// Median of unsorted values.
pub fn median(values: &[f64]) -> f64 {
    quantile(&sorted(values), 0.5)
}

/// The highest quantile of `n` samples that still has at least ten
/// samples beyond it, or `None` when `n ≤ 10`.
pub fn highest_supported_quantile(n: usize) -> Option<f64> {
    (n > 10).then(|| (n - 10) as f64 / n as f64)
}

/// How many samples quantile `q` needs to have ten beyond it
/// (p99 → 1000, p90 → 100).
pub fn samples_needed(q: f64) -> usize {
    (10.0 / (1.0 - q)).round() as usize
}

/// Quantile `q` of an ascending slice, refused when the sample count
/// does not leave ten samples beyond it.
///
/// # Errors
///
/// A message naming the sample count the percentile needs.
pub fn tail(sorted: &[f64], q: f64) -> Result<f64, String> {
    match highest_supported_quantile(sorted.len()) {
        Some(top) if q <= top + 1e-12 => Ok(quantile(sorted, q)),
        _ => Err(format!(
            "p{} needs at least {} samples, the run has {}",
            q * 100.0,
            samples_needed(q),
            sorted.len()
        )),
    }
}

/// Samples a series keeps at most. Past that, a seeded reservoir keeps
/// a uniform sample of the whole run, so a run's memory does not grow
/// with the operations it gets through.
pub const KEEP: usize = 1 << 15;

/// Timings of one kind of operation over a whole run. Each timing
/// waits until the host-speed probe after it ([`crate::pace`]) gives
/// the factor that scales it to the reference speed.
#[derive(Debug, Clone)]
pub struct Samples {
    /// The tail quantile this series reports.
    q: f64,
    pending: Vec<f64>,
    /// (scaled, raw) pairs.
    kept: Vec<(f64, f64)>,
    settled: usize,
    rng: Rng,
}

impl Samples {
    /// An empty series that will report tail quantile `q`.
    pub fn new(q: f64) -> Samples {
        Samples {
            q,
            pending: Vec::new(),
            kept: Vec::new(),
            settled: 0,
            rng: Rng::new(0x5eed, 7),
        }
    }

    /// Adds a raw timing, to be scaled by the next [`Samples::settle`].
    pub fn push(&mut self, raw: f64) {
        self.pending.push(raw);
    }

    /// Scales the timings taken since the last settle by `factor` and
    /// adds them to the run.
    pub fn settle(&mut self, factor: f64) {
        for raw in std::mem::take(&mut self.pending) {
            let sample = (raw * factor, raw);
            self.settled += 1;
            if self.kept.len() < KEEP {
                self.kept.push(sample);
            } else {
                let j = self.rng.below(self.settled);
                if j < KEEP {
                    self.kept[j] = sample;
                }
            }
        }
    }

    /// Samples taken so far.
    pub fn len(&self) -> usize {
        self.settled + self.pending.len()
    }

    fn scaled(&self) -> Vec<f64> {
        assert!(self.pending.is_empty(), "timings left unscaled");
        sorted(&self.kept.iter().map(|s| s.0).collect::<Vec<_>>())
    }

    /// The run's median, scaled.
    pub fn median(&self) -> f64 {
        quantile(&self.scaled(), 0.5)
    }

    /// The run's median as measured, unscaled.
    pub fn raw_median(&self) -> f64 {
        median(&self.kept.iter().map(|s| s.1).collect::<Vec<_>>())
    }

    /// The run's tail quantile, scaled.
    ///
    /// # Errors
    ///
    /// When the run has too few samples for the quantile.
    pub fn tail(&self) -> Result<f64, String> {
        tail(&self.scaled(), self.q)
    }
}

/// Work done over the time it took, scaled as [`Samples`] are.
#[derive(Debug, Clone, Default)]
pub struct Rate {
    pending: (f64, f64),
    total: (f64, f64),
}

impl Rate {
    /// Adds `count` units of work done in `secs`, to be scaled by the
    /// next [`Rate::settle`].
    pub fn add(&mut self, count: f64, secs: f64) {
        self.pending.0 += count;
        self.pending.1 += secs;
    }

    /// Scales the time spent since the last settle by `factor`.
    pub fn settle(&mut self, factor: f64) {
        self.total.0 += self.pending.0;
        self.total.1 += self.pending.1 * factor;
        self.pending = (0.0, 0.0);
    }

    /// The run's work per scaled second (0 when no time was spent).
    pub fn value(&self) -> f64 {
        assert!(self.pending.1 == 0.0, "time left unscaled");
        if self.total.1 > 0.0 {
            self.total.0 / self.total.1
        } else {
            0.0
        }
    }
}

/// How one attempted operation ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Answered, and the answer equals the in-process reference.
    Ok,
    /// A transport failure or an `error` reply.
    Error,
    /// Refused with `busy`.
    Busy,
    /// Answered, but the answer differs from the reference.
    Wrong,
}

/// Operations attempted and failed. Errors, `busy` refusals and wrong
/// results all count as failures.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that did not end in [`Outcome::Ok`].
    pub failed: u64,
}

impl Tally {
    /// Counts one operation.
    pub fn record(&mut self, outcome: Outcome) {
        self.attempted += 1;
        if outcome != Outcome::Ok {
            self.failed += 1;
        }
    }

    /// Failed operations over attempted ones (0 when nothing ran).
    pub fn failed_ratio(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_rule_keeps_ten_samples_beyond() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        // p99 of 1000 samples is rank 990: exactly ten lie beyond it.
        assert_eq!(tail(&v, 0.99).unwrap(), 990.0);
        assert_eq!(v.iter().filter(|&&x| x > 990.0).count(), 10);
        // 999 samples cannot support p99.
        assert!(tail(&v[..999], 0.99).is_err());
        // The highest supported percentile of n samples is (n-10)/n.
        assert_eq!(highest_supported_quantile(1000), Some(0.99));
        assert_eq!(highest_supported_quantile(100), Some(0.9));
        assert_eq!(highest_supported_quantile(10), None);
        assert_eq!(tail(&v[..100], 0.9).unwrap(), 90.0);
        assert!(tail(&v[..99], 0.9).is_err());
        assert_eq!(samples_needed(0.99), 1000);
        assert_eq!(samples_needed(0.9), 100);
    }

    #[test]
    fn quantiles_are_measured_samples() {
        let v = sorted(&[5.0, 1.0, 3.0, 2.0, 4.0]);
        assert_eq!(quantile(&v, 0.5), 3.0);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 5.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
    }

    #[test]
    fn run_figures_are_scaled_quantiles_of_the_whole_run() {
        let mut s = Samples::new(0.9);
        // Two stretches: the second at half the host speed, so its raw
        // timings are doubled and its factor halves them back.
        for i in 0..100 {
            s.push(f64::from(i));
        }
        s.settle(1.0);
        for i in 0..100 {
            s.push(2.0 * f64::from(i));
        }
        assert_eq!(s.len(), 200);
        s.settle(0.5);
        assert_eq!(s.median(), 49.0);
        assert_eq!(s.tail().unwrap(), 89.0);
        assert_eq!(s.raw_median(), 66.0);

        let mut r = Rate::default();
        r.add(100.0, 1.0);
        r.settle(1.0);
        r.add(100.0, 2.0);
        r.settle(0.5);
        assert_eq!(r.value(), 100.0);
        assert_eq!(Rate::default().value(), 0.0);
    }

    #[test]
    fn a_long_run_keeps_a_uniform_sample_of_bounded_size() {
        let mut s = Samples::new(0.99);
        let n = 4 * KEEP;
        for i in 0..n {
            s.push(i as f64);
            if i % 64 == 63 {
                s.settle(1.0);
            }
        }
        assert_eq!(s.len(), n);
        assert_eq!(s.kept.len(), KEEP);
        // The kept samples spread over the whole run: their median
        // stays within 2 % of n of n/2.
        let m = s.median();
        assert!((m - n as f64 / 2.0).abs() < 0.02 * n as f64, "median {m}");
        assert!(Samples::new(0.9).tail().is_err());
    }

    #[test]
    fn failed_ratio_counts_busy_errors_and_wrong_results() {
        let mut t = Tally::default();
        for o in [
            Outcome::Ok,
            Outcome::Busy,
            Outcome::Ok,
            Outcome::Wrong,
            Outcome::Error,
        ] {
            t.record(o);
        }
        assert_eq!(t.attempted, 5);
        assert_eq!(t.failed, 3);
        assert!((t.failed_ratio() - 0.6).abs() < 1e-12);
        assert_eq!(Tally::default().failed_ratio(), 0.0);
    }
}
