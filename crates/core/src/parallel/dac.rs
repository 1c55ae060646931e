//! The O(log n)-time, n-processor divide-and-conquer hull — the
//! Atallah–Goodrich role in the paper: both the §4.1-step-3 fallback
//! ("solve the problem using any O(log n) time, n processor algorithm,
//! e.g. the algorithm of Atallah and Goodrich") and the
//! non-output-sensitive baseline the T4 crossover table compares Theorem 5
//! against.
//!
//! Structure: sort (for unsorted input, charged at Cole's O(log n) time /
//! O(n log n) work — a cited substrate, see DESIGN.md), then a binary
//! merge tree: log n levels of pairwise hull merges, each O(1) time with
//! n processors ([`crate::parallel::merge`]).

use ipch_geom::point::argsort_xy;
use ipch_geom::{Point2, UpperHull};
use ipch_pram::{Machine, ModelClass, ModelContract, RaceExpectation, Shm};

use super::merge::merge_groups;
use crate::{assign_edges_pram, HullOutput};

/// How unsorted input gets ordered before the merge tree.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum SortMode {
    /// Host sort charged at Cole's published bound (O(log n) steps,
    /// O(n log n) work) — the cited-substrate default.
    #[default]
    ChargedCole,
    /// Batcher's bitonic network, fully executed on the simulator:
    /// O(log² n) steps, every compare-exchange measured.
    ExecutedBitonic,
}

/// Concurrency contract: EREW — pairwise merges partition reads and
/// writes, so no cell is ever touched by two processors in one step.
pub const DAC_CONTRACT: ModelContract = ModelContract {
    algorithm: "hull2d/dac",
    class: ModelClass::Erew,
    races: RaceExpectation::Forbidden,
};

/// Upper hull by pairwise-merge divide and conquer. If `presorted` is
/// false the input is sorted per `sort` (see [`SortMode`]).
pub fn upper_hull_dac_with(
    m: &mut Machine,
    shm: &mut Shm,
    points: &[Point2],
    presorted: bool,
    sort: SortMode,
) -> HullOutput {
    m.declare_contract(&DAC_CONTRACT);
    let n = points.len();
    if n == 0 {
        return HullOutput {
            hull: UpperHull::new(vec![]),
            edge_above: vec![],
        };
    }
    let order: Vec<usize> = if presorted {
        (0..n).collect()
    } else {
        match sort {
            SortMode::ChargedCole => {
                let logn = (n.max(2) as f64).log2().ceil() as u64;
                m.charge(logn, n as u64 * logn); // Cole's parallel mergesort
                argsort_xy(points)
            }
            SortMode::ExecutedBitonic => {
                // sort by the order-isomorphic i64 image of x, carrying the
                // point id as payload; equal-x runs are then put into
                // y-order host-side (the network is not stable; ties are
                // rare outside the torture inputs) at one charged step
                let pairs: Vec<(i64, i64)> = ipch_geom::soa::x_keys(points)
                    .into_iter()
                    .enumerate()
                    .map(|(i, k)| (k, i as i64))
                    .collect();
                let sorted = ipch_pram::sort::sort_pairs(m, shm, &pairs);
                let mut order: Vec<usize> = sorted.into_iter().map(|v| v as usize).collect();
                m.charge(1, n as u64);
                let mut i = 0;
                while i < order.len() {
                    let mut j = i + 1;
                    while j < order.len() && points[order[j]].x == points[order[i]].x {
                        j += 1;
                    }
                    order[i..j].sort_by(|&a, &b| points[a].cmp_xy(&points[b]));
                    i = j;
                }
                order
            }
        }
    };
    let order = crate::column_tops_pram(m, shm, points, &order);
    let mut hulls: Vec<Vec<usize>> = order.iter().map(|&i| vec![i]).collect();
    while hulls.len() > 1 {
        hulls = merge_groups(m, shm, points, &hulls, 2);
    }
    let hull = UpperHull::new(hulls.pop().unwrap_or_default());
    let edge_above = assign_edges_pram(m, shm, points, &hull);
    HullOutput { hull, edge_above }
}

/// [`upper_hull_dac_with`] at the default (charged-Cole) sort mode.
pub fn upper_hull_dac(
    m: &mut Machine,
    shm: &mut Shm,
    points: &[Point2],
    presorted: bool,
) -> HullOutput {
    upper_hull_dac_with(m, shm, points, presorted, SortMode::default())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipch_geom::generators::{collinear_on_line, grid, on_circle, uniform_disk, uniform_square};
    use ipch_geom::hull_chain::verify_upper_hull;

    #[test]
    fn matches_oracle_on_everything() {
        let cases: Vec<Vec<Point2>> = vec![
            uniform_disk(500, 1),
            uniform_square(500, 2),
            on_circle(200, 3),
            grid(100),
            collinear_on_line(64, 0.5, 1.0, 4),
            vec![],
            vec![Point2::new(1.0, 1.0)],
            vec![Point2::new(0.0, 0.0), Point2::new(1.0, 1.0)],
        ];
        for (i, pts) in cases.iter().enumerate() {
            let mut m = Machine::new(i as u64);
            let mut shm = Shm::new();
            let out = upper_hull_dac(&mut m, &mut shm, pts, false);
            verify_upper_hull(pts, &out.hull).unwrap_or_else(|e| panic!("case {i}: {e}"));
            assert_eq!(out.hull, UpperHull::of(pts), "case {i}");
            out.verify_pointers(pts)
                .unwrap_or_else(|e| panic!("case {i}: {e}"));
        }
    }

    #[test]
    fn logarithmic_time() {
        let mut steps = Vec::new();
        for n in [256usize, 1024, 4096, 16384] {
            let pts = uniform_disk(n, 7);
            let mut m = Machine::new(1);
            let mut shm = Shm::new();
            upper_hull_dac(&mut m, &mut shm, &pts, false);
            steps.push(m.metrics.total_steps());
        }
        // doubling n twice adds a constant number of levels
        for w in steps.windows(2) {
            assert!(w[1] - w[0] <= 16, "steps jumped: {steps:?}");
        }
        // and total time is Θ(log n), not Θ(n)
        assert!(*steps.last().unwrap() < 400, "{steps:?}");
    }

    #[test]
    fn work_is_n_log_n_scale_not_output_sensitive() {
        // same n, tiny vs huge h: work should NOT differ much (this is the
        // baseline the output-sensitive algorithm beats)
        use ipch_geom::generators::circle_plus_interior;
        let n = 8192;
        let small_h = circle_plus_interior(8, n, 5);
        let big_h = on_circle(n, 5);
        let mut m1 = Machine::new(2);
        let mut shm1 = Shm::new();
        upper_hull_dac(&mut m1, &mut shm1, &small_h, false);
        let mut m2 = Machine::new(2);
        let mut shm2 = Shm::new();
        upper_hull_dac(&mut m2, &mut shm2, &big_h, false);
        let (w1, w2) = (m1.metrics.total_work(), m2.metrics.total_work());
        assert!(w2 < 4 * w1, "{w1} vs {w2}: unexpectedly output-sensitive");
    }

    #[test]
    fn presorted_skips_sort_charge() {
        let pts = ipch_geom::point::sorted_by_x(&uniform_disk(512, 8));
        let mut m = Machine::new(3);
        let mut shm = Shm::new();
        upper_hull_dac(&mut m, &mut shm, &pts, true);
        let sorted_charge = m.metrics.charged_work;
        let mut m2 = Machine::new(3);
        let mut shm2 = Shm::new();
        upper_hull_dac(&mut m2, &mut shm2, &pts, false);
        assert!(m2.metrics.charged_work > sorted_charge);
    }

    #[test]
    fn bitonic_mode_matches_charged_mode() {
        for (i, pts) in [uniform_disk(300, 9), grid(64), on_circle(150, 10)]
            .iter()
            .enumerate()
        {
            let mut m1 = Machine::new(i as u64);
            let mut s1 = Shm::new();
            let a = upper_hull_dac_with(&mut m1, &mut s1, pts, false, SortMode::ChargedCole);
            let mut m2 = Machine::new(i as u64);
            let mut s2 = Shm::new();
            let b = upper_hull_dac_with(&mut m2, &mut s2, pts, false, SortMode::ExecutedBitonic);
            assert_eq!(a.hull, b.hull, "case {i}");
            // the executed network must cost strictly more steps than the
            // charged bound (log^2 vs log)
            assert!(
                m2.metrics.steps > m1.metrics.steps,
                "bitonic {} !> charged {}",
                m2.metrics.steps,
                m1.metrics.steps
            );
        }
    }

    #[test]
    fn bitonic_step_count_is_log_squared() {
        let n = 1024usize;
        let pts = uniform_disk(n, 11);
        let mut m = Machine::new(3);
        let mut shm = Shm::new();
        upper_hull_dac_with(&mut m, &mut shm, &pts, false, SortMode::ExecutedBitonic);
        let lg = (n as f64).log2() as u64;
        // network layers = lg(lg+1)/2 plus the merge tree and pointer steps
        assert!(m.metrics.steps >= lg * (lg + 1) / 2);
        assert!(m.metrics.steps <= lg * (lg + 1) / 2 + 40 * lg);
    }
}
