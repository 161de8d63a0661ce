//! Frontier tuning: sweep one budget axis and return the whole
//! budget-constrained Pareto frontier.
//!
//! A single [`crate::tune`] answers one budget with one point. The
//! design question the paper actually poses is a *frontier*: which
//! accelerators are optimal as the power (or area, throughput,
//! accuracy) budget slides? [`tune_frontier`] runs one constrained
//! tune per step of a [`BudgetSweep`] and reports every step's
//! optimum plus the deduplicated, Pareto-filtered frontier across
//! them — for little more than the cost of the hardest single step:
//!
//! * **Pooled evaluations.** Every step's candidate evaluations go
//!   through one sweep-wide pool (on top of the shared
//!   [`chain_nn_dse::PointCache`]), so a configuration visited by any
//!   step is free to every later step. Each step's *search trajectory*
//!   is byte-identical to a standalone [`crate::tune`] at that budget
//!   — the pool is an evaluation backend, invisible to the strategy —
//!   so a frontier step finds the exact constrained optimum wherever
//!   the standalone tune does.
//! * **Carried incumbents (warm start).** After each step's search,
//!   the winners of all previous steps are folded in under the current
//!   step's budget (ceiling sweeps run tight → loose, so an earlier
//!   winner stays admissible). A step's reported optimum is therefore
//!   never worse than its standalone tune, and best-objective values
//!   are monotone along a loosening sweep.
//! * **Streaming.** `on_step` fires as each budget step completes, in
//!   sweep order — the hook the serving daemon uses to stream one
//!   result line per step before the sweep finishes.
//!
//! Determinism: the sweep is a pure function of `(request, seed)` at
//! any thread count, inheriting the per-step guarantee from
//! [`crate::strategy`].
//!
//! # Example
//!
//! ```
//! use chain_nn_dse::PointCache;
//! use chain_nn_tuner::frontier::{tune_frontier, BudgetSweep, FrontierTuneRequest};
//! use chain_nn_tuner::CacheEvaluator;
//!
//! let request = FrontierTuneRequest {
//!     sweep: BudgetSweep::parse("max-mw=400..=600:100").unwrap(),
//!     ..FrontierTuneRequest::default()
//! };
//! let cache = PointCache::new();
//! let report = tune_frontier(&request, &mut CacheEvaluator::new(&cache, 2), |_, _| Ok(()))
//!     .unwrap();
//! assert_eq!(report.steps.len(), 3); // 400, 500, 600 mW
//! for step in &report.steps {
//!     let best = step.best.as_ref().unwrap();
//!     assert!(best.result.system_mw() <= step.budget_value);
//! }
//! // The whole sweep reuses evaluations across steps:
//! assert!(report.evaluations < report.standalone_evaluations);
//! ```

use std::cmp::Ordering;
use std::collections::HashMap;
use std::fmt;
use std::str::FromStr;

use chain_nn_dse::{DesignPoint, MixOutcome, MixResult, WorkloadMix};

use crate::budget::Budget;
use crate::evaluator::MixEvaluator;
use crate::objective::Objective;
use crate::{tune, StrategyKind, TuneError, TuneRequest, Tuned};

/// Upper bound on budget steps per sweep — a typo guard
/// (`max-mw=300..=900:0.001` would otherwise queue 600k tunes).
pub const MAX_SWEEP_STEPS: usize = 10_000;

/// The budget axis a frontier sweep slides. Each variant maps onto one
/// field of [`Budget`] and one measured metric of a [`MixResult`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BudgetAxis {
    /// `Budget::max_system_mw` — worst-case system power ceiling.
    MaxSystemMw,
    /// `Budget::max_gates_k` — chain logic area ceiling.
    MaxGatesK,
    /// `Budget::min_fps` — mix throughput floor.
    MinFps,
    /// `Budget::min_sqnr_db` — measured accuracy (SQNR) floor.
    MinSqnrDb,
}

impl BudgetAxis {
    /// The wire name (matches the [`Budget`] field).
    pub fn name(&self) -> &'static str {
        match self {
            BudgetAxis::MaxSystemMw => "max_system_mw",
            BudgetAxis::MaxGatesK => "max_gates_k",
            BudgetAxis::MinFps => "min_fps",
            BudgetAxis::MinSqnrDb => "min_sqnr_db",
        }
    }

    /// The CLI flag spelling (`--sweep-budget max-mw=...`), matching
    /// the corresponding fixed-budget `chain-nn tune` flag.
    pub fn cli_name(&self) -> &'static str {
        match self {
            BudgetAxis::MaxSystemMw => "max-mw",
            BudgetAxis::MaxGatesK => "max-gates-k",
            BudgetAxis::MinFps => "min-fps",
            BudgetAxis::MinSqnrDb => "min-sqnr-db",
        }
    }

    /// Whether the axis is a ceiling (`max-*`: larger values loosen the
    /// budget) rather than a floor (`min-*`: larger values tighten it).
    pub fn is_ceiling(&self) -> bool {
        matches!(self, BudgetAxis::MaxSystemMw | BudgetAxis::MaxGatesK)
    }

    /// `base` with this axis set to `value` (the other axes untouched).
    pub fn apply(&self, base: &Budget, value: f64) -> Budget {
        let mut budget = *base;
        match self {
            BudgetAxis::MaxSystemMw => budget.max_system_mw = Some(value),
            BudgetAxis::MaxGatesK => budget.max_gates_k = Some(value),
            BudgetAxis::MinFps => budget.min_fps = Some(value),
            BudgetAxis::MinSqnrDb => budget.min_sqnr_db = Some(value),
        }
        budget
    }

    /// Whether `base` already fixes this axis (a sweep over it would
    /// silently override the fixed bound — refused at validation).
    pub fn is_set_in(&self, base: &Budget) -> bool {
        match self {
            BudgetAxis::MaxSystemMw => base.max_system_mw.is_some(),
            BudgetAxis::MaxGatesK => base.max_gates_k.is_some(),
            BudgetAxis::MinFps => base.min_fps.is_some(),
            BudgetAxis::MinSqnrDb => base.min_sqnr_db.is_some(),
        }
    }

    /// The measured value of this axis' metric on `r` — what the
    /// Pareto filter compares step winners on.
    pub fn measured(&self, r: &MixResult) -> f64 {
        match self {
            BudgetAxis::MaxSystemMw => r.system_mw(),
            BudgetAxis::MaxGatesK => r.gates_k,
            BudgetAxis::MinFps => r.fps,
            BudgetAxis::MinSqnrDb => r.sqnr_db,
        }
    }
}

impl FromStr for BudgetAxis {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        match s.trim().to_ascii_lowercase().as_str() {
            "max-mw" | "max_system_mw" | "max-system-mw" => Ok(BudgetAxis::MaxSystemMw),
            "max-gates-k" | "max_gates_k" => Ok(BudgetAxis::MaxGatesK),
            "min-fps" | "min_fps" => Ok(BudgetAxis::MinFps),
            "min-sqnr-db" | "min_sqnr_db" => Ok(BudgetAxis::MinSqnrDb),
            other => Err(format!(
                "unknown budget axis '{other}' \
                 (expected max-mw | max-gates-k | min-fps | min-sqnr-db)"
            )),
        }
    }
}

impl fmt::Display for BudgetAxis {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.cli_name())
    }
}

/// One budget axis plus the strictly increasing values to sweep it
/// over. Ceiling axes therefore sweep tight → loose and floor axes
/// loose → tight, which is what makes carried incumbents sound (see
/// the module docs).
#[derive(Debug, Clone, PartialEq)]
pub struct BudgetSweep {
    /// The swept axis.
    pub axis: BudgetAxis,
    /// The budget value per step, strictly increasing.
    pub values: Vec<f64>,
}

impl BudgetSweep {
    /// Parses the CLI form `axis=lo..=hi:step` (inclusive range; the
    /// `:step` suffix defaults to 1) or `axis=v1,v2,...` (an explicit
    /// ascending list), e.g. `max-mw=300..=900:50`.
    ///
    /// # Errors
    ///
    /// A human-readable message for an unknown axis, malformed values,
    /// a non-positive step, or anything [`BudgetSweep::validate`]
    /// rejects.
    pub fn parse(text: &str) -> Result<Self, String> {
        let Some((axis_text, values_text)) = text.split_once('=') else {
            return Err(format!(
                "budget sweep '{text}' needs the form axis=lo..=hi:step or axis=v1,v2,..."
            ));
        };
        let axis: BudgetAxis = axis_text.parse()?;
        let parse_f64 = |t: &str| -> Result<f64, String> {
            t.trim()
                .parse::<f64>()
                .map_err(|_| format!("cannot parse budget value '{t}' in sweep '{text}'"))
        };
        let values = if let Some((lo_text, rest)) = values_text.split_once("..=") {
            let lo = parse_f64(lo_text)?;
            let (hi_text, step_text) = match rest.split_once(':') {
                Some((hi, step)) => (hi, Some(step)),
                None => (rest, None),
            };
            let hi = parse_f64(hi_text)?;
            let step = match step_text {
                Some(t) => parse_f64(t)?,
                None => 1.0,
            };
            if !(step.is_finite() && step > 0.0) {
                return Err(format!("budget sweep step {step} must be positive"));
            }
            if !(lo.is_finite() && hi.is_finite() && lo <= hi) {
                return Err(format!(
                    "budget sweep range {lo}..={hi} is empty or not finite"
                ));
            }
            // Index arithmetic, not accumulation: `lo + i*step` keeps
            // long sweeps from drifting and the epsilon admits an
            // endpoint that is an exact multiple of the step.
            let count = ((hi - lo) / step + 1e-9).floor() + 1.0;
            if count > MAX_SWEEP_STEPS as f64 {
                return Err(format!(
                    "budget sweep has {count:.0} steps; the cap is {MAX_SWEEP_STEPS}"
                ));
            }
            (0..count as usize).map(|i| lo + i as f64 * step).collect()
        } else {
            values_text
                .split(',')
                .map(parse_f64)
                .collect::<Result<Vec<_>, _>>()?
        };
        let sweep = BudgetSweep { axis, values };
        sweep.validate()?;
        Ok(sweep)
    }

    /// Validates the sweep: at least one value, at most
    /// [`MAX_SWEEP_STEPS`], strictly increasing, and every value legal
    /// for the axis' [`Budget`] field.
    ///
    /// # Errors
    ///
    /// A human-readable message naming the problem.
    pub fn validate(&self) -> Result<(), String> {
        if self.values.is_empty() {
            return Err("budget sweep has no values".into());
        }
        if self.values.len() > MAX_SWEEP_STEPS {
            return Err(format!(
                "budget sweep has {} steps; the cap is {MAX_SWEEP_STEPS}",
                self.values.len()
            ));
        }
        for w in self.values.windows(2) {
            // partial_cmp so a NaN (incomparable) fails the check too.
            if w[0].partial_cmp(&w[1]) != Some(Ordering::Less) {
                return Err(format!(
                    "budget sweep values must be strictly increasing ({} then {})",
                    w[0], w[1]
                ));
            }
        }
        for &v in &self.values {
            self.axis.apply(&Budget::default(), v).validate()?;
        }
        Ok(())
    }
}

impl fmt::Display for BudgetSweep {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let first = self.values.first().copied().unwrap_or(f64::NAN);
        let last = self.values.last().copied().unwrap_or(f64::NAN);
        write!(
            f,
            "{} {first}..{last} ({} steps)",
            self.axis,
            self.values.len()
        )
    }
}

/// Everything one frontier tune needs: a base tune request (space,
/// mix, the *fixed* budget axes, objective, strategy, seed) plus the
/// swept axis.
#[derive(Debug, Clone, PartialEq)]
pub struct FrontierTuneRequest {
    /// The per-step tune parameters. `base.budget` holds the axes that
    /// stay fixed across the sweep; it must not set the swept axis.
    pub base: TuneRequest,
    /// The budget axis to slide and its step values.
    pub sweep: BudgetSweep,
}

impl Default for FrontierTuneRequest {
    /// The default tune request swept over 300..=900 mW system power
    /// in 50 mW steps.
    fn default() -> Self {
        FrontierTuneRequest {
            base: TuneRequest::default(),
            sweep: BudgetSweep {
                axis: BudgetAxis::MaxSystemMw,
                values: (0..=12).map(|i| 300.0 + 50.0 * i as f64).collect(),
            },
        }
    }
}

impl FrontierTuneRequest {
    /// Validates the base request, the sweep, and their combination
    /// (the swept axis must not also be fixed in the base budget).
    ///
    /// # Errors
    ///
    /// [`TuneError::Spec`] naming the problem.
    pub fn validate(&self) -> Result<(), TuneError> {
        self.base.validate()?;
        self.sweep.validate().map_err(TuneError::Spec)?;
        if self.sweep.axis.is_set_in(&self.base.budget) {
            return Err(TuneError::Spec(format!(
                "budget axis {} is both swept and fixed; drop the fixed bound",
                self.sweep.axis
            )));
        }
        Ok(())
    }
}

/// One completed budget step of a frontier tune.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FrontierStep {
    /// The swept axis' value at this step.
    pub budget_value: f64,
    /// The step's constrained optimum (never worse than a standalone
    /// tune at this budget), or `None` when every visited configuration
    /// was model-infeasible.
    pub best: Option<Tuned>,
    /// Configurations the step's search visited — exactly what a
    /// standalone tune at this budget visits.
    pub evaluations: u64,
    /// Of those, configurations no earlier step had visited — what the
    /// step actually paid for.
    pub fresh_evaluations: u64,
    /// This step's `(configuration, network)` cache hits.
    pub cache_hits: u64,
    /// This step's fresh model-stack lookups.
    pub cache_misses: u64,
    /// Evaluator round trips this step.
    pub rounds: usize,
}

/// What one frontier tune did: every step, the frontier across them,
/// and the accounting proving the sweep cost much less than the sum of
/// standalone tunes.
#[derive(Debug, Clone, PartialEq)]
pub struct FrontierTuneReport {
    /// One entry per sweep value, in sweep order.
    pub steps: Vec<FrontierStep>,
    /// Indices into `steps` of the tuned frontier: admitted step
    /// winners, deduplicated by configuration and Pareto-filtered on
    /// (objective, swept-axis metric).
    pub frontier: Vec<usize>,
    /// Distinct configurations evaluated across the whole sweep.
    pub evaluations: u64,
    /// What standalone tunes at every step would have evaluated in
    /// total (the sum of [`FrontierStep::evaluations`]).
    pub standalone_evaluations: u64,
    /// Sweep-wide `(configuration, network)` cache hits.
    pub cache_hits: u64,
    /// Sweep-wide fresh model-stack lookups.
    pub cache_misses: u64,
    /// Configurations in the full grid (per step; the sweep shares one
    /// space).
    pub exhaustive_points: usize,
    /// The strategy every step ran.
    pub strategy: StrategyKind,
    /// The seed every step ran with.
    pub seed: u64,
}

impl FrontierTuneReport {
    /// Fraction of the standalone-tune evaluation total the sweep
    /// avoided by pooling (0 when nothing was shared).
    pub fn reuse_fraction(&self) -> f64 {
        reuse_fraction(self.evaluations, self.standalone_evaluations)
    }
}

/// Fraction of `standalone_evaluations` a sweep avoided when it only
/// performed `evaluations` distinct ones — the one definition of
/// "warm-start reuse", shared by [`FrontierTuneReport`] and consumers
/// that hold the two counters without a report (the CLI's daemon
/// path). 0 when there was nothing to reuse against.
pub fn reuse_fraction(evaluations: u64, standalone_evaluations: u64) -> f64 {
    if standalone_evaluations == 0 {
        return 0.0;
    }
    1.0 - evaluations as f64 / standalone_evaluations as f64
}

/// The sweep-wide evaluation pool: a [`MixEvaluator`] wrapper answering
/// any base configuration some earlier step already evaluated without
/// touching the inner evaluator. The pool is keyed on the base point's
/// canonical bytes, which is sound because the mix is fixed across the
/// sweep.
struct PooledEvaluator<'a, E: MixEvaluator> {
    inner: &'a mut E,
    pool: &'a mut HashMap<Vec<u8>, MixOutcome>,
}

impl<E: MixEvaluator> MixEvaluator for PooledEvaluator<'_, E> {
    fn evaluate(
        &mut self,
        mix: &WorkloadMix,
        bases: &[DesignPoint],
    ) -> Result<Vec<MixOutcome>, TuneError> {
        let mut out: Vec<Option<MixOutcome>> = vec![None; bases.len()];
        let mut unknown: Vec<DesignPoint> = Vec::new();
        let mut unknown_at: Vec<(usize, Vec<u8>)> = Vec::new();
        for (i, base) in bases.iter().enumerate() {
            let key = base.canonical_bytes();
            match self.pool.get(&key) {
                Some(outcome) => out[i] = Some(outcome.clone()),
                None => {
                    unknown.push(base.clone());
                    unknown_at.push((i, key));
                }
            }
        }
        if !unknown.is_empty() {
            let fresh = self.inner.evaluate(mix, &unknown)?;
            if fresh.len() != unknown.len() {
                return Err(TuneError::Backend(format!(
                    "evaluator returned {} outcomes for {} candidates",
                    fresh.len(),
                    unknown.len()
                )));
            }
            for ((i, key), outcome) in unknown_at.into_iter().zip(fresh) {
                self.pool.insert(key, outcome.clone());
                out[i] = Some(outcome);
            }
        }
        Ok(out
            .into_iter()
            .map(|o| o.expect("every slot filled"))
            .collect())
    }

    fn counters(&self) -> (u64, u64) {
        self.inner.counters()
    }
}

/// The tuner's total candidate order restricted to feasible
/// candidates, mirrored from `strategy::Session::compare`: admitted
/// beats violating; admitted rank by objective, violating by smaller
/// violation; exact ties break on content hash then canonical bytes.
/// `Greater` means `a` is the better candidate.
fn compare_tuned(budget: &Budget, objective: &Objective, a: &Tuned, b: &Tuned) -> Ordering {
    let class = |t: &Tuned| u8::from(budget.admits(&t.result));
    let by_class = class(a).cmp(&class(b));
    if by_class != Ordering::Equal {
        return by_class;
    }
    let by_value = if budget.admits(&a.result) {
        objective.compare(&a.result, &b.result)
    } else {
        budget
            .violation(&b.result)
            .total_cmp(&budget.violation(&a.result))
    };
    if by_value != Ordering::Equal {
        return by_value;
    }
    match b.point.content_hash().cmp(&a.point.content_hash()) {
        Ordering::Equal => b.point.canonical_bytes().cmp(&a.point.canonical_bytes()),
        other => other,
    }
}

/// Whether frontier candidate `b` dominates `a`: no worse on the
/// objective *and* on the swept axis' measured metric, strictly better
/// on at least one.
fn dominates(axis: BudgetAxis, objective: &Objective, b: &Tuned, a: &Tuned) -> bool {
    let by_objective = objective.compare(&b.result, &a.result);
    let (ma, mb) = (axis.measured(&a.result), axis.measured(&b.result));
    let (axis_no_worse, axis_better) = if axis.is_ceiling() {
        (mb <= ma, mb < ma)
    } else {
        (mb >= ma, mb > ma)
    };
    by_objective != Ordering::Less
        && axis_no_worse
        && (by_objective == Ordering::Greater || axis_better)
}

/// The tuned frontier over the finished steps: admitted winners,
/// deduplicated by configuration (first step wins), Pareto-filtered on
/// (objective, swept-axis metric). Returns step indices in sweep order.
fn extract_frontier(steps: &[FrontierStep], axis: BudgetAxis, objective: &Objective) -> Vec<usize> {
    let mut unique: Vec<(usize, &Tuned)> = Vec::new();
    for (i, step) in steps.iter().enumerate() {
        if let Some(best) = step.best.as_ref().filter(|t| t.admitted) {
            if !unique.iter().any(|(_, t)| t.point == best.point) {
                unique.push((i, best));
            }
        }
    }
    unique
        .iter()
        .filter(|(i, t)| {
            !unique
                .iter()
                .any(|(j, u)| j != i && dominates(axis, objective, u, t))
        })
        .map(|(i, _)| *i)
        .collect()
}

/// Runs one frontier tune against `evaluator`, invoking `on_step` with
/// each step's index and result as it completes (the streaming hook —
/// an error from the callback aborts the sweep and is passed through).
///
/// # Errors
///
/// [`TuneError::Spec`] for an invalid request; evaluator and callback
/// failures are passed through.
pub fn tune_frontier<E: MixEvaluator>(
    request: &FrontierTuneRequest,
    evaluator: &mut E,
    mut on_step: impl FnMut(usize, &FrontierStep) -> Result<(), TuneError>,
) -> Result<FrontierTuneReport, TuneError> {
    request.validate()?;
    let (hits_start, misses_start) = evaluator.counters();
    let mut pool: HashMap<Vec<u8>, MixOutcome> = HashMap::new();
    let mut carried: Vec<Tuned> = Vec::new();
    let mut steps: Vec<FrontierStep> = Vec::with_capacity(request.sweep.values.len());
    let mut exhaustive_points = 0;

    for (i, &value) in request.sweep.values.iter().enumerate() {
        let budget = request.sweep.axis.apply(&request.base.budget, value);
        let step_request = TuneRequest {
            budget,
            ..request.base.clone()
        };
        let fresh_before = pool.len();
        let (hits_before, misses_before) = evaluator.counters();
        let mut pooled = PooledEvaluator {
            inner: evaluator,
            pool: &mut pool,
        };
        let step_started = std::time::Instant::now();
        let report = tune(&step_request, &mut pooled)?;
        let obs = chain_nn_obs::global();
        obs.histogram("tuner_frontier_step_ns")
            .record_duration(step_started.elapsed());
        obs.counter("tuner_frontier_steps_total").inc();
        let (hits_after, misses_after) = evaluator.counters();
        exhaustive_points = report.exhaustive_points;

        // Warm start: fold the previous steps' winners in under this
        // step's budget. The step result can only improve — and on a
        // loosening sweep the best objective value becomes monotone.
        let mut best = report.best.clone();
        for prior in &carried {
            let candidate = Tuned {
                point: prior.point.clone(),
                result: prior.result,
                admitted: budget.admits(&prior.result),
            };
            best = Some(match best {
                None => candidate,
                Some(current) => {
                    if compare_tuned(&budget, &request.base.objective, &candidate, &current)
                        == Ordering::Greater
                    {
                        candidate
                    } else {
                        current
                    }
                }
            });
        }
        let best = best.map(|mut t| {
            t.admitted = budget.admits(&t.result);
            t
        });
        if let Some(standalone) = report.best {
            if !carried.iter().any(|c| c.point == standalone.point) {
                carried.push(standalone);
            }
        }

        let step = FrontierStep {
            budget_value: value,
            best,
            evaluations: report.evaluations,
            fresh_evaluations: (pool.len() - fresh_before) as u64,
            cache_hits: hits_after - hits_before,
            cache_misses: misses_after - misses_before,
            rounds: report.rounds,
        };
        on_step(i, &step)?;
        steps.push(step);
    }

    let frontier = extract_frontier(&steps, request.sweep.axis, &request.base.objective);
    let (hits_end, misses_end) = evaluator.counters();
    Ok(FrontierTuneReport {
        evaluations: pool.len() as u64,
        standalone_evaluations: steps.iter().map(|s| s.evaluations).sum(),
        cache_hits: hits_end - hits_start,
        cache_misses: misses_end - misses_start,
        exhaustive_points,
        strategy: request.base.strategy,
        seed: request.base.seed,
        steps,
        frontier,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CacheEvaluator;
    use chain_nn_dse::PointCache;

    #[test]
    fn sweep_parse_forms() {
        let sweep = BudgetSweep::parse("max-mw=300..=900:50").unwrap();
        assert_eq!(sweep.axis, BudgetAxis::MaxSystemMw);
        assert_eq!(sweep.values.len(), 13);
        assert_eq!(sweep.values[0], 300.0);
        assert_eq!(*sweep.values.last().unwrap(), 900.0);

        let sweep = BudgetSweep::parse("min-fps=30,60,120").unwrap();
        assert_eq!(sweep.axis, BudgetAxis::MinFps);
        assert_eq!(sweep.values, vec![30.0, 60.0, 120.0]);

        // No step suffix: step 1.
        let sweep = BudgetSweep::parse("max-gates-k=100..=102").unwrap();
        assert_eq!(sweep.values, vec![100.0, 101.0, 102.0]);

        // A range whose span is not a step multiple keeps the last
        // in-range value.
        let sweep = BudgetSweep::parse("max-mw=300..=390:50").unwrap();
        assert_eq!(sweep.values, vec![300.0, 350.0]);

        // The SQNR floor accepts the wire spelling too.
        assert_eq!(
            BudgetSweep::parse("min_sqnr_db=30..=60:15").unwrap().axis,
            BudgetAxis::MinSqnrDb
        );
    }

    #[test]
    fn sweep_parse_rejects_nonsense() {
        for bad in [
            "max-mw",                  // no values
            "warp=1..=2",              // unknown axis
            "max-mw=900..=300:50",     // descending range
            "max-mw=300..=900:0",      // zero step
            "max-mw=300..=900:-50",    // negative step
            "max-mw=fast..=900",       // unparseable bound
            "max-mw=500,400",          // descending list
            "max-mw=500,500",          // not strictly increasing
            "max-mw=-100..=-50:10",    // negative power bound
            "max-mw=300..=9000000:.1", // step cap
        ] {
            assert!(BudgetSweep::parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn request_rejects_a_doubly_constrained_axis() {
        let request = FrontierTuneRequest {
            base: TuneRequest {
                budget: Budget {
                    max_system_mw: Some(500.0),
                    ..Budget::default()
                },
                ..TuneRequest::default()
            },
            ..FrontierTuneRequest::default()
        };
        assert!(matches!(request.validate(), Err(TuneError::Spec(_))));
        // Sweeping one axis with a different fixed axis is fine.
        let request = FrontierTuneRequest {
            base: TuneRequest {
                budget: Budget {
                    max_gates_k: Some(4000.0),
                    ..Budget::default()
                },
                ..TuneRequest::default()
            },
            ..FrontierTuneRequest::default()
        };
        assert!(request.validate().is_ok());
    }

    #[test]
    fn steps_stream_in_order_and_match_the_report() {
        let request = FrontierTuneRequest {
            sweep: BudgetSweep::parse("max-mw=450..=650:100").unwrap(),
            ..FrontierTuneRequest::default()
        };
        let cache = PointCache::new();
        let mut streamed: Vec<(usize, FrontierStep)> = Vec::new();
        let report = tune_frontier(&request, &mut CacheEvaluator::new(&cache, 2), |i, step| {
            streamed.push((i, step.clone()));
            Ok(())
        })
        .unwrap();
        assert_eq!(streamed.len(), report.steps.len());
        for (i, (streamed_i, step)) in streamed.iter().enumerate() {
            assert_eq!(*streamed_i, i);
            assert_eq!(step, &report.steps[i]);
        }
        // A callback error aborts the sweep.
        let err = tune_frontier(&request, &mut CacheEvaluator::new(&cache, 2), |_, _| {
            Err(TuneError::Backend("sink closed".into()))
        });
        assert!(matches!(err, Err(TuneError::Backend(_))));
    }

    #[test]
    fn frontier_is_deduplicated_and_pareto_filtered() {
        // Consecutive loose budgets choose the same configuration; the
        // frontier keeps it once.
        let request = FrontierTuneRequest {
            sweep: BudgetSweep::parse("max-mw=800..=1000:50").unwrap(),
            ..FrontierTuneRequest::default()
        };
        let cache = PointCache::new();
        let report =
            tune_frontier(&request, &mut CacheEvaluator::new(&cache, 2), |_, _| Ok(())).unwrap();
        let frontier_points: Vec<_> = report
            .frontier
            .iter()
            .map(|&i| report.steps[i].best.as_ref().unwrap().point.clone())
            .collect();
        let mut deduped = frontier_points.clone();
        deduped.dedup();
        assert_eq!(frontier_points.len(), deduped.len());
        assert!(!report.frontier.is_empty());
        assert!(report.frontier.len() <= report.steps.len());
        // Frontier entries are mutually non-dominated on (fps, mW).
        for &i in &report.frontier {
            for &j in &report.frontier {
                if i == j {
                    continue;
                }
                let a = report.steps[i].best.as_ref().unwrap();
                let b = report.steps[j].best.as_ref().unwrap();
                assert!(
                    !dominates(BudgetAxis::MaxSystemMw, &request.base.objective, b, a),
                    "step {j} dominates step {i}"
                );
            }
        }
    }

    #[test]
    fn infeasible_floor_steps_report_their_best_effort() {
        // fps floors beyond the grid's reach: the later steps cannot be
        // admitted, but each still reports the least-violating point.
        let request = FrontierTuneRequest {
            sweep: BudgetSweep::parse("min-fps=100,100000").unwrap(),
            ..FrontierTuneRequest::default()
        };
        let cache = PointCache::new();
        let report =
            tune_frontier(&request, &mut CacheEvaluator::new(&cache, 2), |_, _| Ok(())).unwrap();
        let feasible = report.steps[0].best.as_ref().unwrap();
        assert!(feasible.admitted);
        let hopeless = report.steps[1].best.as_ref().unwrap();
        assert!(!hopeless.admitted);
        // Only the admitted step can be on the frontier.
        assert_eq!(report.frontier, vec![0]);
    }
}
