//! The folklore time/processor trade-off (paper Lemma 2.4).
//!
//! *For any integer k ≥ 1, one can find the upper hull of n points in the
//! plane in time O(k) using n^{1+1/k} processors, deterministically, on a
//! CRCW PRAM.* The paper defers the construction to its (never published)
//! full version; we supply the standard one: a ⌈n^{1/(2k)}⌉-ary merge tree
//! over the sorted points — 2k levels of group merges, each level O(1)
//! time ([`crate::parallel::merge`]) with Σverts·g² ≤ n^{1+1/k} processors.
//!
//! This is the deterministic engine the presorted O(1)-time algorithm
//! (§2.2) runs on its sub-log³n nodes with k = 3.

use ipch_geom::{Point2, UpperHull};
use ipch_pram::{Machine, ModelClass, ModelContract, RaceExpectation, Shm};

use super::merge::merge_groups;
use crate::{assign_edges_pram, HullOutput};

/// Concurrency contract: Common-CRCW — the merge-tree steps only race on
/// constant kill/mark writes, so concurrent writers always agree.
pub const FOLKLORE_CONTRACT: ModelContract = ModelContract {
    algorithm: "hull2d/folklore",
    class: ModelClass::Crcw,
    races: RaceExpectation::SameValue,
};

/// Upper hull of the contiguous presorted slice `ids` (indices into
/// `points`, which must be x-sorted along `ids`). Runs in O(k) executed +
/// charged steps with ≤ |ids|^{1+1/k} work per step.
pub fn upper_hull_folklore(
    m: &mut Machine,
    shm: &mut Shm,
    points: &[Point2],
    ids: &[usize],
    k: usize,
) -> UpperHull {
    m.declare_contract(&FOLKLORE_CONTRACT);
    assert!(k >= 1);
    let ids = crate::column_tops_pram(m, shm, points, ids);
    let n = ids.len();
    if n == 0 {
        return UpperHull::new(vec![]);
    }
    let levels = 2 * k;
    let g = ((n as f64).powf(1.0 / levels as f64).ceil() as usize).max(2);
    let mut hulls: Vec<Vec<usize>> = ids.iter().map(|&i| vec![i]).collect();
    while hulls.len() > 1 {
        hulls = merge_groups(m, shm, points, &hulls, g);
    }
    UpperHull::new(hulls.pop().unwrap_or_default())
}

/// Lemma 2.4 on the whole (presorted) input, with per-point edge pointers.
pub fn upper_hull_folklore_full(
    m: &mut Machine,
    shm: &mut Shm,
    points: &[Point2],
    k: usize,
) -> HullOutput {
    let ids: Vec<usize> = (0..points.len()).collect();
    let hull = upper_hull_folklore(m, shm, points, &ids, k);
    let edge_above = assign_edges_pram(m, shm, points, &hull);
    HullOutput { hull, edge_above }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipch_geom::generators::{circle_plus_interior, uniform_disk};
    use ipch_geom::hull_chain::verify_upper_hull;
    use ipch_geom::point::sorted_by_x;

    fn sorted(n: usize, seed: u64) -> Vec<Point2> {
        sorted_by_x(&uniform_disk(n, seed))
    }

    #[test]
    fn matches_oracle_for_various_k() {
        for k in 1..=4 {
            for seed in 0..4 {
                let pts = sorted(300, seed);
                let mut m = Machine::new(seed);
                let mut shm = Shm::new();
                let ids: Vec<usize> = (0..pts.len()).collect();
                let h = upper_hull_folklore(&mut m, &mut shm, &pts, &ids, k);
                verify_upper_hull(&pts, &h).unwrap_or_else(|e| panic!("k={k} seed={seed}: {e}"));
                assert_eq!(h, UpperHull::of(&pts), "k={k} seed={seed}");
            }
        }
    }

    #[test]
    fn time_scales_with_k_not_n() {
        // steps for fixed k must be bounded regardless of n
        for k in [1usize, 2, 3] {
            let mut steps = Vec::new();
            for n in [256usize, 1024, 4096] {
                let pts = sorted(n, 9);
                let mut m = Machine::new(1);
                let mut shm = Shm::new();
                let ids: Vec<usize> = (0..n).collect();
                upper_hull_folklore(&mut m, &mut shm, &pts, &ids, k);
                steps.push(m.metrics.total_steps());
            }
            // merge-tree depth is fixed by k: step counts equal across n
            assert!(
                steps.windows(2).all(|w| w[1] <= w[0] + 3),
                "k={k}: steps {steps:?} grow with n"
            );
        }
    }

    #[test]
    fn work_processor_tradeoff() {
        // larger k ⇒ more time, less peak work per step
        let n = 4096;
        let pts = sorted(n, 3);
        let ids: Vec<usize> = (0..n).collect();
        let mut peaks = Vec::new();
        let mut steps = Vec::new();
        for k in [1usize, 2, 4] {
            let mut m = Machine::new(2);
            let mut shm = Shm::new();
            upper_hull_folklore(&mut m, &mut shm, &pts, &ids, k);
            peaks.push(m.metrics.peak_processors);
            steps.push(m.metrics.total_steps());
        }
        assert!(steps[0] < steps[2], "more k, more steps: {steps:?}");
        assert!(peaks[0] > peaks[2], "more k, smaller peak: {peaks:?}");
    }

    #[test]
    fn hull_heavy_input() {
        let pts = sorted_by_x(&circle_plus_interior(64, 400, 5));
        let mut m = Machine::new(4);
        let mut shm = Shm::new();
        let ids: Vec<usize> = (0..pts.len()).collect();
        let h = upper_hull_folklore(&mut m, &mut shm, &pts, &ids, 3);
        assert_eq!(h, UpperHull::of(&pts));
    }

    #[test]
    fn slice_semantics_and_full_output() {
        let pts = sorted(200, 6);
        let mut m = Machine::new(5);
        let mut shm = Shm::new();
        // middle slice only
        let ids: Vec<usize> = (50..150).collect();
        let h = upper_hull_folklore(&mut m, &mut shm, &pts, &ids, 2);
        let sub: Vec<Point2> = pts[50..150].to_vec();
        let expect: Vec<usize> = UpperHull::of(&sub)
            .vertices
            .iter()
            .map(|&i| i + 50)
            .collect();
        assert_eq!(h.vertices, expect);

        let out = upper_hull_folklore_full(&mut m, &mut shm, &pts, 2);
        out.verify_pointers(&pts).unwrap();
    }

    #[test]
    fn tiny_inputs() {
        let mut m = Machine::new(7);
        let mut shm = Shm::new();
        let empty: Vec<usize> = vec![];
        assert!(upper_hull_folklore(&mut m, &mut shm, &[], &empty, 2).is_empty());
        let one = vec![Point2::new(0.0, 0.0)];
        let h = upper_hull_folklore(&mut m, &mut shm, &one, &[0], 2);
        assert_eq!(h.vertices, vec![0]);
    }
}
