//! Pareto-frontier extraction over the sweep objectives.
//!
//! Objectives: maximize throughput (fps), minimize system power
//! (on-chip + DRAM interface, mW), minimize logic area (kilo-gates),
//! and maximize measured accuracy (SQNR, dB). A point is dominated when
//! some other point is at least as good on every objective and strictly
//! better on at least one. Three frontiers are extracted: the classic
//! 3D fps × power × area, its 2D fps × power projection, and the
//! accuracy variant fps × power × SQNR (which is what keeps 16-bit
//! points alive against cooler 8-bit ones).
//!
//! # Example
//!
//! ```
//! use chain_nn_dse::pareto::{frontier_3d, Objectives};
//!
//! let obj = |fps, mw, gates| Objectives { fps, system_mw: mw, gates_k: gates, sqnr_db: 60.0 };
//! let points = vec![
//!     (0, obj(10.0, 100.0, 50.0)),
//!     (1, obj(10.0, 120.0, 50.0)), // dominated by 0
//!     (2, obj(20.0, 180.0, 90.0)),
//! ];
//! assert_eq!(frontier_3d(&points), vec![0, 2]);
//! ```

use std::cmp::Ordering;

use crate::eval::PointResult;

/// The objective vector of one feasible point.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Objectives {
    /// Throughput, maximized.
    pub fps: f64,
    /// System power (chip + DRAM interface) in mW, minimized.
    pub system_mw: f64,
    /// Logic area in kilo-gates, minimized.
    pub gates_k: f64,
    /// Measured quantization SQNR in dB, maximized.
    pub sqnr_db: f64,
}

impl From<&PointResult> for Objectives {
    fn from(r: &PointResult) -> Self {
        Objectives {
            fps: r.fps,
            system_mw: r.system_mw(),
            gates_k: r.gates_k,
            sqnr_db: r.sqnr_db,
        }
    }
}

/// Whether `a` dominates `b` in the 3D (fps, power, area) sense.
pub fn dominates_3d(a: &Objectives, b: &Objectives) -> bool {
    let no_worse = a.fps >= b.fps && a.system_mw <= b.system_mw && a.gates_k <= b.gates_k;
    let better = a.fps > b.fps || a.system_mw < b.system_mw || a.gates_k < b.gates_k;
    no_worse && better
}

/// Whether `a` dominates `b` ignoring area (fps × power).
pub fn dominates_2d(a: &Objectives, b: &Objectives) -> bool {
    let no_worse = a.fps >= b.fps && a.system_mw <= b.system_mw;
    let better = a.fps > b.fps || a.system_mw < b.system_mw;
    no_worse && better
}

/// Whether `a` dominates `b` in the accuracy sense: fps × power ×
/// SQNR, with the area axis swapped out for measured precision.
pub fn dominates_accuracy(a: &Objectives, b: &Objectives) -> bool {
    let no_worse = a.fps >= b.fps && a.system_mw <= b.system_mw && a.sqnr_db >= b.sqnr_db;
    let better = a.fps > b.fps || a.system_mw < b.system_mw || a.sqnr_db > b.sqnr_db;
    no_worse && better
}

/// Sort-then-filter frontier extraction. `axes` maps a point to the
/// relation's own axes, each oriented so that smaller is better (a
/// maximized objective is negated).
///
/// Sorting lexicographically on those axes puts every dominator before
/// the points it dominates: at the first axis where the two differ, the
/// dominator is the better. Dominance is a strict partial order, so
/// every dominated point has a dominator that is itself non-dominated;
/// that one sorted earlier and was accepted. Testing each candidate
/// against the frontier accepted so far is therefore exact. For the
/// order to agree with the `>=`/`<=` dominance tests, `-0.0` sorts as
/// `0.0`; a NaN axis compares false both ways, so a point with one
/// neither dominates nor is dominated and stays on the frontier
/// wherever it sorts.
fn frontier_by<const N: usize>(
    objectives: &[(usize, Objectives)],
    axes: impl Fn(&Objectives) -> [f64; N],
    dominates: impl Fn(&Objectives, &Objectives) -> bool,
) -> Vec<usize> {
    let mut sorted: Vec<([f64; N], &(usize, Objectives))> = objectives
        .iter()
        .map(|entry| (axes(&entry.1).map(|v| v + 0.0), entry))
        .collect();
    sorted.sort_by(|(a, _), (b, _)| {
        a.iter()
            .zip(b)
            .map(|(x, y)| x.total_cmp(y))
            .find(|o| o.is_ne())
            .unwrap_or(Ordering::Equal)
    });
    let mut frontier: Vec<&(usize, Objectives)> = Vec::new();
    for (_, candidate) in sorted {
        if !frontier.iter().any(|f| dominates(&f.1, &candidate.1)) {
            frontier.push(candidate);
        }
    }
    let mut indices: Vec<usize> = frontier.iter().map(|(i, _)| *i).collect();
    indices.sort_unstable();
    indices
}

/// Indices (into the caller's list) of the 3D-non-dominated points.
/// Input is `(index, objectives)` for every *feasible* point; the
/// returned indices are ascending.
pub fn frontier_3d(objectives: &[(usize, Objectives)]) -> Vec<usize> {
    frontier_by(
        objectives,
        |o| [-o.fps, o.system_mw, o.gates_k],
        dominates_3d,
    )
}

/// Indices of the 2D-non-dominated points (fps × power).
pub fn frontier_2d(objectives: &[(usize, Objectives)]) -> Vec<usize> {
    frontier_by(objectives, |o| [-o.fps, o.system_mw], dominates_2d)
}

/// Indices of the accuracy-non-dominated points (fps × power × SQNR).
pub fn frontier_accuracy(objectives: &[(usize, Objectives)]) -> Vec<usize> {
    frontier_by(
        objectives,
        |o| [-o.fps, o.system_mw, -o.sqnr_db],
        dominates_accuracy,
    )
}

/// Merges per-partition frontier candidate lists into one canonically
/// ordered candidate set: concatenate and sort ascending by index.
/// This is the cluster coordinator's merge step — each shard reports
/// the frontier of *its* hash-partition with global grid indices, and
/// re-filtering the merged set reproduces the frontier of the union.
///
/// Why that works: dominance is a strict partial order, so in a finite
/// set every dominated point is dominated by some non-dominated point.
/// A point on the union's frontier is also on its own partition's
/// frontier (a subset has fewer dominators), so the merged candidate
/// set always contains the union's entire frontier; and every merged
/// candidate *not* on the union's frontier is dominated by a point that
/// is — which is also in the set — so one more filtering pass removes
/// exactly the impostors. Hence for any dominance relation `d`:
/// `frontier(merge(parts)) == frontier(union)`, independent of how the
/// points were partitioned (associative and commutative in the parts).
pub fn merge_candidates(parts: &[Vec<(usize, Objectives)>]) -> Vec<(usize, Objectives)> {
    let mut all: Vec<(usize, Objectives)> = parts.concat();
    all.sort_by_key(|(i, _)| *i);
    all
}

/// The 3D frontier of merged per-partition candidates (ascending
/// global indices — identical to running [`frontier_3d`] on the union).
pub fn merge_frontier_3d(parts: &[Vec<(usize, Objectives)>]) -> Vec<usize> {
    frontier_3d(&merge_candidates(parts))
}

/// The accuracy frontier of merged per-partition candidates.
pub fn merge_frontier_accuracy(parts: &[Vec<(usize, Objectives)>]) -> Vec<usize> {
    frontier_accuracy(&merge_candidates(parts))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The all-pairs scan that sort-then-filter replaced, kept as the
    /// reference the property below compares against.
    fn all_pairs(
        objectives: &[(usize, Objectives)],
        dominates: impl Fn(&Objectives, &Objectives) -> bool,
    ) -> Vec<usize> {
        objectives
            .iter()
            .filter(|(i, oi)| !objectives.iter().any(|(j, oj)| j != i && dominates(oj, oi)))
            .map(|(i, _)| *i)
            .collect()
    }

    fn obj(fps: f64, mw: f64, gates: f64) -> Objectives {
        Objectives {
            fps,
            system_mw: mw,
            gates_k: gates,
            sqnr_db: 60.0,
        }
    }

    /// Hand-checked 3x3 grid: fps grows with "size", power grows with
    /// size and a "waste" knob. Exactly the non-wasteful diagonal plus
    /// the area-payoff point survive.
    #[test]
    fn hand_checked_tiny_frontier() {
        // (fps, mW, gates_k)
        let pts = vec![
            (0, obj(10.0, 100.0, 50.0)),  // small, efficient
            (1, obj(10.0, 120.0, 50.0)),  // small, wasteful  -> dominated by 0
            (2, obj(10.0, 100.0, 60.0)),  // small, larger    -> dominated by 0
            (3, obj(20.0, 180.0, 90.0)),  // medium, efficient
            (4, obj(20.0, 200.0, 90.0)),  // medium, wasteful -> dominated by 3
            (5, obj(20.0, 180.0, 80.0)),  // medium, smaller  -> dominates 3
            (6, obj(40.0, 400.0, 200.0)), // large, efficient
            (7, obj(40.0, 400.0, 190.0)), // large, smaller   -> dominates 6
            (8, obj(5.0, 500.0, 500.0)),  // bad at everything -> dominated
        ];
        assert_eq!(frontier_3d(&pts), vec![0, 5, 7]);
        // In 2D the area axis stops mattering: points tied on (fps,
        // power) — 0/2, 3/5 and 6/7 — no longer dominate each other.
        assert_eq!(frontier_2d(&pts), vec![0, 2, 3, 5, 6, 7]);
    }

    #[test]
    fn single_point_is_its_own_frontier() {
        let pts = vec![(7, obj(1.0, 1.0, 1.0))];
        assert_eq!(frontier_3d(&pts), vec![7]);
        assert_eq!(frontier_2d(&pts), vec![7]);
    }

    #[test]
    fn identical_points_all_survive() {
        let pts = vec![(0, obj(1.0, 1.0, 1.0)), (1, obj(1.0, 1.0, 1.0))];
        assert_eq!(frontier_3d(&pts), vec![0, 1]);
    }

    #[test]
    fn ties_on_every_objective_keep_both_points() {
        // Dominance requires strictly-better somewhere: exact ties are
        // mutually non-dominating, so equal-objective points must all
        // stay on the frontier, in both dimensionalities — and a third
        // genuinely better point must not be dragged down by them.
        let a = obj(10.0, 100.0, 50.0);
        assert!(!dominates_3d(&a, &a) && !dominates_2d(&a, &a));
        let pts = vec![
            (0, a),
            (1, a),
            (2, a),
            (3, obj(20.0, 100.0, 50.0)), // dominates the tied trio
        ];
        assert_eq!(frontier_3d(&pts), vec![3]);
        assert_eq!(frontier_2d(&pts), vec![3]);
        // Without the dominator the tied trio survives intact.
        assert_eq!(frontier_3d(&pts[..3]), vec![0, 1, 2]);
        assert_eq!(frontier_2d(&pts[..3]), vec![0, 1, 2]);
    }

    #[test]
    fn partial_ties_resolve_on_the_remaining_axis() {
        // Tied on (fps, power): the area axis decides 3D dominance but
        // is invisible to the 2D projection, where the pair ties.
        let small = obj(10.0, 100.0, 40.0);
        let large = obj(10.0, 100.0, 60.0);
        assert!(dominates_3d(&small, &large));
        assert!(!dominates_3d(&large, &small));
        assert!(!dominates_2d(&small, &large));
        assert!(!dominates_2d(&large, &small));
        let pts = vec![(0, large), (1, small)];
        assert_eq!(frontier_3d(&pts), vec![1]);
        assert_eq!(frontier_2d(&pts), vec![0, 1]);
    }

    #[test]
    fn accuracy_frontier_keeps_precise_points_the_area_frontier_drops() {
        // An 8-bit-style point (cool, small, imprecise) and a
        // 16-bit-style point (hotter, larger, precise) at equal fps.
        let narrow = Objectives {
            fps: 100.0,
            system_mw: 400.0,
            gates_k: 300.0,
            sqnr_db: 30.0,
        };
        let wide = Objectives {
            fps: 100.0,
            system_mw: 600.0,
            gates_k: 500.0,
            sqnr_db: 75.0,
        };
        // Under fps × power × area the wide point is dominated...
        assert!(dominates_3d(&narrow, &wide));
        let pts = vec![(0, narrow), (1, wide)];
        assert_eq!(frontier_3d(&pts), vec![0]);
        // ...but the accuracy frontier keeps both: precision is an axis.
        assert!(!dominates_accuracy(&narrow, &wide));
        assert!(!dominates_accuracy(&wide, &narrow));
        assert_eq!(frontier_accuracy(&pts), vec![0, 1]);
        // Equal SQNR reduces the accuracy frontier to fps × power.
        let same = Objectives {
            sqnr_db: 30.0,
            ..wide
        };
        assert!(dominates_accuracy(&narrow, &same));
    }

    /// `precise` dominates `coarse` on fps × power × SQNR but is the
    /// larger design. An order shared with the 3D frontier (fps, power,
    /// area) would test `coarse` first, accept it, and never drop it.
    #[test]
    fn accuracy_frontier_sorts_on_its_own_axes() {
        let coarse = Objectives {
            fps: 10.0,
            system_mw: 100.0,
            gates_k: 50.0,
            sqnr_db: 40.0,
        };
        let precise = Objectives {
            gates_k: 60.0,
            sqnr_db: 70.0,
            ..coarse
        };
        let pts = vec![(0, coarse), (1, precise)];
        assert_eq!(frontier_accuracy(&pts), vec![1]);
        assert_eq!(frontier_3d(&pts), vec![0]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Sort-then-filter equals the all-pairs scan on every relation.
        /// Axis values come from a pool of `width` values, so duplicate
        /// points and ties on one or two axes are common; the pool holds
        /// both zeros, and one draw in 16 is NaN.
        #[test]
        fn frontiers_match_the_all_pairs_scan(
            n in 0usize..48,
            width in 1usize..6,
            seed in 0u64..u64::MAX,
        ) {
            let pool = [0.0, -0.0, 1.0, 2.0, -1.0, 3.5];
            let mut rng = TestRng::deterministic(&seed.to_string());
            let mut value = || match rng.next_u64() % 16 {
                0 => f64::NAN,
                r => pool[r as usize % width],
            };
            let pts: Vec<(usize, Objectives)> = (0..n)
                .map(|i| {
                    let o = Objectives {
                        fps: value(),
                        system_mw: value(),
                        gates_k: value(),
                        sqnr_db: value(),
                    };
                    (i, o)
                })
                .collect();
            prop_assert_eq!(frontier_2d(&pts), all_pairs(&pts, dominates_2d));
            prop_assert_eq!(frontier_3d(&pts), all_pairs(&pts, dominates_3d));
            prop_assert_eq!(
                frontier_accuracy(&pts),
                all_pairs(&pts, dominates_accuracy)
            );
        }
    }

    #[test]
    fn dominance_is_strict_somewhere() {
        let a = obj(10.0, 100.0, 50.0);
        assert!(!dominates_3d(&a, &a));
        assert!(dominates_3d(&obj(11.0, 100.0, 50.0), &a));
        assert!(dominates_2d(&obj(10.0, 99.0, 999.0), &a));
        assert!(!dominates_3d(&obj(10.0, 99.0, 999.0), &a));
    }
}
