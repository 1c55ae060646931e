//! The O(log* n)-time algorithm for presorted input (paper §2.5–§2.6,
//! Theorem 2).
//!
//! The recursion of §2.5:
//!
//! 1. Split the n sorted points into n/⌈log^b n⌉ contiguous groups of
//!    ⌈log^b n⌉ points and solve each *recursively, in parallel*, within a
//!    time budget; a group whose recursive call fails is a **failure**.
//! 2. Failure-sweep: compact the failed group ids with Ragde's algorithm
//!    and re-solve each failure with the brute-force constant-time hull
//!    (Observation 2.3, super-linear processors).
//! 3. Combine the group hulls with the constant-time *point-hull-invariant*
//!    algorithm (Lemma 2.6, [`super::invariant::hull_of_hulls`]), the
//!    groups' hulls acting as points.
//!
//! Group sizes shrink as log^b, so the recursion depth is O(log* n); each
//! level costs O(1) (combine) and the processor count stays O(n). The §2.6
//! refinement (two-level arrays + early halt, giving n/log* n processors)
//! changes only the *scheduling*, which Lemma 7 ([`ipch_pram::schedule`])
//! accounts for — experiment T2 reports both the raw metrics and the
//! Lemma-7 simulation at p = n/log* n.
//!
//! Per-point output pointers: in the paper they are produced inside the
//! recursion (each point learns its edge as it is covered); we charge that
//! distributed assignment at its stated cost (O(1) steps, O(n) work) and
//! produce the pointers host-side. All hull computation itself runs on the
//! simulator.

use ipch_geom::{Point2, UpperHull};
use ipch_inplace::sweep::failure_sweep;
use ipch_pram::{Machine, ModelClass, ModelContract, RaceExpectation, RunError, Shm};

use super::brute::upper_hull_brute;
use super::folklore::upper_hull_folklore;
use super::invariant::hull_of_hulls;
use crate::HullOutput;

/// Group-size exponent b: groups of ⌈(log₂ m)^b⌉ points. The paper's
/// confidence analysis wants large b; the recursion works for any b ≥ 2.
pub const GROUP_EXPONENT: i32 = 2;

/// Below this size a node is solved deterministically (Lemma 2.4, k = 2).
pub const CUTOFF: usize = 32;

/// Options of the log* recursion.
#[derive(Clone, Copy, Debug, Default)]
pub struct LogstarParams {
    /// Probability of an *injected* group failure, the only way a test
    /// reaches the failure sweep: honest groups never fail. 0.0 for normal
    /// runs.
    pub inject_failure: f64,
}

/// Diagnostics for experiment T2/T9.
#[derive(Clone, Debug, Default)]
pub struct LogstarReport {
    /// Recursion depth reached.
    pub depth: usize,
    /// Groups swept by the brute-force oracle (over all levels).
    pub swept: usize,
    /// Combine failures swept inside [`hull_of_hulls`].
    pub combine_failures: usize,
}

/// Concurrency contract: Common-CRCW — concurrent writers always agree
/// (constant kill marks and duplicate hull-vertex stores).
pub const LOGSTAR_CONTRACT: ModelContract = ModelContract {
    algorithm: "hull2d/logstar",
    class: ModelClass::Crcw,
    races: RaceExpectation::SameValue,
};

/// The O(log* n) algorithm. `points` must be sorted by [`Point2::cmp_xy`].
///
/// Fails with a typed [`RunError`] when a group is still unsolved after the
/// failure sweep or the combine loses a boundary bridge — both impossible
/// on honest runs but reachable under the fault plane, and formerly
/// `unwrap()` panics.
pub fn upper_hull_logstar(
    m: &mut Machine,
    shm: &mut Shm,
    points: &[Point2],
    params: &LogstarParams,
) -> Result<(HullOutput, LogstarReport), RunError> {
    m.declare_contract(&LOGSTAR_CONTRACT);
    let n = points.len();
    let mut report = LogstarReport::default();
    if n == 0 {
        return Ok((
            HullOutput {
                hull: UpperHull::new(vec![]),
                edge_above: vec![],
            },
            report,
        ));
    }
    let all: Vec<usize> = (0..n).collect();
    let ids = crate::column_tops_pram(m, shm, points, &all);
    let hull = recurse(m, shm, points, &ids, params, 0, &mut report)?;

    // pointer assignment, charged at the paper's distributed cost
    m.charge(1, n as u64);
    let mut edge_above = vec![usize::MAX; n];
    if hull.num_edges() > 0 {
        for (i, p) in points.iter().enumerate() {
            if let Some(e) = edge_index_over(points, &hull, p.x) {
                edge_above[i] = e;
            }
        }
    }
    Ok((HullOutput { hull, edge_above }, report))
}

fn edge_index_over(points: &[Point2], hull: &UpperHull, x: f64) -> Option<usize> {
    let vs = &hull.vertices;
    if vs.len() < 2 || x < points[vs[0]].x || x > points[vs[vs.len() - 1]].x {
        return None;
    }
    let (mut lo, mut hi) = (0usize, vs.len() - 1);
    while lo + 1 < hi {
        let mid = (lo + hi) / 2;
        if points[vs[mid]].x <= x {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    Some(lo)
}

fn recurse(
    m: &mut Machine,
    shm: &mut Shm,
    points: &[Point2],
    ids: &[usize],
    params: &LogstarParams,
    depth: usize,
    report: &mut LogstarReport,
) -> Result<UpperHull, RunError> {
    report.depth = report.depth.max(depth);
    let n = ids.len();
    if n <= CUTOFF {
        return Ok(upper_hull_folklore(m, shm, points, ids, 2));
    }
    let q = ((n.max(2) as f64).log2().powi(GROUP_EXPONENT).ceil() as usize).clamp(CUTOFF, n);

    // 1. recursive group solves, in parallel, with failure injection; an
    // Err stops the groups, keeping the accounting of every group that ran
    let mut rng = m.host_rng(depth as u64 ^ 0x105);
    let mut hulls: Vec<Option<UpperHull>> = m.fork_join_seq(
        ids.chunks(q).enumerate(),
        |&(gi, _)| (depth as u64) << 32 | gi as u64,
        |child, (_, chunk)| {
            if params.inject_failure > 0.0 && rng.bernoulli(params.inject_failure) {
                return Ok(None);
            }
            recurse(child, shm, points, chunk, params, depth + 1, report).map(Some)
        },
    )?;

    // 2. failure sweeping: mark failed groups, Ragde-compact, brute-solve
    let ngroups = hulls.len();
    let failed_ids: Vec<usize> = hulls
        .iter()
        .enumerate()
        .filter_map(|(i, h)| h.is_none().then_some(i))
        .collect();
    if !failed_ids.is_empty() {
        let bound = ((ngroups as f64).powf(0.25).ceil() as usize).max(4);
        failure_sweep(
            m,
            shm,
            ngroups,
            &failed_ids,
            bound,
            0x5133b,
            |child, shm, gi| {
                let chunk = &ids[gi * q..((gi + 1) * q).min(ids.len())];
                hulls[gi] = Some(upper_hull_brute(child, shm, points, chunk));
                report.swept += 1;
            },
        );
    }

    // 3. constant-time point-hull-invariant combine (Lemma 2.6)
    let groups: Vec<UpperHull> = hulls
        .into_iter()
        .enumerate()
        .map(|(gi, h)| {
            h.ok_or_else(|| RunError::Invariant {
                algorithm: LOGSTAR_CONTRACT.algorithm,
                detail: format!("group {gi} at depth {depth} unsolved after the failure sweep"),
            })
        })
        .collect::<Result<_, _>>()?;
    let (hull, hrep) = hull_of_hulls(m, shm, points, &groups)?;
    report.combine_failures += hrep.failures;
    Ok(hull)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipch_geom::generators::{circle_plus_interior, on_circle, uniform_disk, uniform_square};
    use ipch_geom::hull_chain::verify_upper_hull;
    use ipch_geom::point::sorted_by_x;

    fn run(
        points: &[Point2],
        seed: u64,
        params: &LogstarParams,
    ) -> (HullOutput, LogstarReport, Machine) {
        let mut m = Machine::new(seed);
        let mut shm = Shm::new();
        let (out, rep) = upper_hull_logstar(&mut m, &mut shm, points, params).expect("logstar");
        (out, rep, m)
    }

    #[test]
    fn matches_oracle_random() {
        for seed in 0..5 {
            let pts = sorted_by_x(&uniform_disk(1200, seed));
            let (out, _, _) = run(&pts, seed, &LogstarParams::default());
            verify_upper_hull(&pts, &out.hull).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            assert_eq!(out.hull, UpperHull::of(&pts), "seed {seed}");
            out.verify_pointers(&pts).unwrap();
        }
    }

    #[test]
    fn various_distributions() {
        let cases: Vec<Vec<Point2>> = vec![
            sorted_by_x(&uniform_square(900, 1)),
            sorted_by_x(&on_circle(400, 2)),
            sorted_by_x(&circle_plus_interior(16, 800, 3)),
            sorted_by_x(&ipch_geom::generators::grid(256)),
            vec![Point2::new(0.0, 0.0)],
            vec![],
        ];
        for (i, pts) in cases.iter().enumerate() {
            let (out, _, _) = run(pts, i as u64, &LogstarParams::default());
            assert_eq!(out.hull, UpperHull::of(pts), "case {i}");
        }
    }

    #[test]
    fn depth_grows_like_logstar() {
        // depth should be tiny and grow *extremely* slowly
        let mut depths = Vec::new();
        for n in [256usize, 4096, 32768] {
            let pts = sorted_by_x(&uniform_square(n, 7));
            let (_, rep, _) = run(&pts, 1, &LogstarParams::default());
            depths.push(rep.depth);
        }
        assert!(depths.iter().all(|&d| d <= 4), "depths {depths:?}");
        assert!(depths[2] <= depths[0] + 2, "{depths:?}");
    }

    #[test]
    fn steps_grow_sublogarithmically() {
        let mut steps = Vec::new();
        for n in [512usize, 4096, 32768] {
            let pts = sorted_by_x(&uniform_disk(n, 9));
            let (_, _, m) = run(&pts, 2, &LogstarParams::default());
            steps.push(m.metrics.total_steps());
        }
        // a 64× growth in n should change steps by at most ~2× (log* flavor)
        assert!(
            steps[2] < 3 * steps[0].max(1),
            "steps grew too fast: {steps:?}"
        );
    }

    #[test]
    fn injected_failures_are_swept_correctly() {
        let pts = sorted_by_x(&uniform_disk(2000, 11));
        let params = LogstarParams {
            inject_failure: 0.3,
        };
        let (out, rep, _) = run(&pts, 3, &params);
        assert!(rep.swept > 0, "injection should cause sweeps");
        assert_eq!(out.hull, UpperHull::of(&pts));
    }

    #[test]
    fn work_stays_near_linear() {
        let n = 16384;
        let pts = sorted_by_x(&uniform_square(n, 13));
        let (_, _, m) = run(&pts, 4, &LogstarParams::default());
        // O(n) work per level × log* levels; generous constant
        assert!(
            m.metrics.total_work() < 3000 * n as u64,
            "work {}",
            m.metrics.total_work()
        );
    }
}
