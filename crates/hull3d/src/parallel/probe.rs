//! In-place 3-D facet finding (the d = 3 instance of paper §3.3).
//!
//! Identical structure to the 2-D in-place bridge finder, with the paper's
//! 3-D parameters: base size k = p^{1/4}, the deterministic base solver is
//! the exact brute-force facet probe ([`ipch_lp::bridge::facet_brute`],
//! Observation 2.2 with d = 3: O(1) steps within n⁴ work on the base; the
//! pairs' sides of the splitter decide which triples' projections contain
//! it, and the full supporting test runs only on the contained triples
//! that the base's 4 highest points leave standing), survivors are points
//! strictly above the candidate facet's plane, sampled into the next base
//! at the escalating rate p_j (the sample's rounds run over its attempters
//! only), and the round is finished by the in-place compaction of §3.2
//! once the survivors are few.

use ipch_geom::predicates::orient3d_sign;
use ipch_geom::Point3;
use ipch_inplace::compact::inplace_compact;
use ipch_inplace::sample::random_sample_with_p;
use ipch_lp::bridge::facet_brute;
use ipch_lp::inplace_bridge::{BASE_CAPACITY_FACTOR, BETA, SAMPLE_ATTEMPTS};
use ipch_pram::{Machine, ModelClass, ModelContract, RaceExpectation, Shm, EMPTY};

use crate::facet::Facet;

/// Concurrency contract: Arbitrary-CRCW in the paper; the sample-claim
/// contest and the facet election resolve by Priority, so every race
/// commits a value that is a deterministic function of the coin flips.
pub const FIND_FACET_CONTRACT: ModelContract = ModelContract {
    algorithm: "hull3d/find_facet",
    class: ModelClass::Crcw,
    races: RaceExpectation::Deterministic,
};

/// Find the upper-hull facet of the scattered subset `active` pierced by
/// the vertical line through `(x0, y0)`, in place, within `max_rounds`
/// base solves. `None` = outside the subset's xy-hull or round cap
/// exceeded (the failure the caller sweeps).
pub fn find_facet_inplace(
    m: &mut Machine,
    shm: &mut Shm,
    points: &[Point3],
    active: &[usize],
    x0: f64,
    y0: f64,
    max_rounds: usize,
) -> Option<Facet> {
    m.declare_contract(&FIND_FACET_CONTRACT);
    let p = active.len();
    if p < 3 {
        return None;
    }
    // the paper's 3-D base parameter k = p^{1/4}, clamped ≥ 4
    let k = ((p as f64).powf(0.25).ceil() as usize).max(4);
    let capacity = BASE_CAPACITY_FACTOR * k;

    // tiny problems: direct brute (p⁴ stays within a constant of p·16k³)
    if p <= 24 {
        return facet_brute(m, shm, points, active, x0, y0).map(|(a, b, c)| Facet { a, b, c });
    }

    // every round's workspace (survivor flags, compaction scratch, sample
    // claims) is scoped to this call — nothing leaks into the caller's Shm
    shm.scope(|shm| {
        // survivor flags: private registers indexed by rank in `active`
        let surv = shm.alloc("fp.surv", p, 0);
        m.kernel_scatter(shm, active, |t, _| Some((surv, t.rank(), 1)));

        let mut p_j = 2.0 * k as f64 / p as f64;
        let mut best: Option<Facet> = None;
        for round in 0..max_rounds {
            let flags = shm.slice(surv);
            let (ranks, survivors): (Vec<usize>, Vec<usize>) = (active.iter().enumerate())
                .filter(|&(r, _)| flags[r] != 0)
                .map(|(r, &i)| (r, i))
                .unzip();

            // per-round scratch is recycled round to round
            let mut base: Vec<usize> = shm.scope(|shm| {
                if round >= BETA || survivors.len() <= 4 * k {
                    // the compaction source is indexed by rank in
                    // `active`; its payload is the point id
                    let sarr = shm.alloc("fp.sarr", p, EMPTY);
                    m.kernel_scatter(shm, &ranks, |_, r| Some((sarr, r, active[r] as i64)));
                    if let Some(c) = inplace_compact(m, shm, sarr, capacity, 0.34) {
                        return c.ids_ascending(shm);
                    }
                }
                random_sample_with_p(m, shm, &survivors, k, SAMPLE_ATTEMPTS, Some(p_j)).sample
            });
            if let Some(f) = best {
                for id in f.ids() {
                    if !base.contains(&id) {
                        base.push(id);
                    }
                }
            }
            p_j = (p_j * 2.0 * k as f64).min(1.0);
            if base.len() > capacity || base.len() < 3 {
                continue;
            }

            let sol = m.sub(round as u64 ^ 0xface, |c| {
                facet_brute(c, shm, points, &base, x0, y0)
            });
            let Some((a, b, c)) = sol else { continue };
            let facet = Facet { a, b, c };
            best = Some(facet);

            // survivor step: one concurrent step over the active set
            let (pa, pb, pc) = (points[a], points[b], points[c]);
            m.kernel_scatter(shm, active, move |t, i| {
                let above = orient3d_sign(pa, pb, pc, points[i]) < 0;
                Some((surv, t.rank(), above as i64))
            });
            let nsurv = shm.slice(surv).iter().filter(|&&f| f != 0).count();
            if nsurv == 0 {
                return Some(facet);
            }
        }
        None
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::facet::xy_contains;
    use ipch_geom::gen3d::{in_ball, sphere_plus_interior};
    use ipch_geom::Point2;

    fn verify_facet(points: &[Point3], active: &[usize], x0: f64, y0: f64, f: Facet) {
        assert!(xy_contains(points, &f, Point2::new(x0, y0)));
        for &i in active {
            assert!(
                orient3d_sign(points[f.a], points[f.b], points[f.c], points[i]) >= 0,
                "point {i} above probe facet"
            );
        }
    }

    #[test]
    fn probes_random_balls() {
        for seed in 0..5 {
            let pts = in_ball(600, seed);
            let active: Vec<usize> = (0..pts.len()).collect();
            let mut m = Machine::new(seed);
            let mut shm = Shm::new();
            // the centroid is interior, so a facet must exist above it
            let f = find_facet_inplace(&mut m, &mut shm, &pts, &active, 0.0, 0.0, 16)
                .unwrap_or_else(|| panic!("seed {seed}: no facet"));
            verify_facet(&pts, &active, 0.0, 0.0, f);
        }
    }

    #[test]
    fn probe_matches_oracle_facet() {
        let pts = sphere_plus_interior(16, 300, 2);
        let active: Vec<usize> = (0..pts.len()).collect();
        let mut m = Machine::new(7);
        let mut shm = Shm::new();
        let f =
            find_facet_inplace(&mut m, &mut shm, &pts, &active, 0.05, -0.03, 16).expect("facet");
        verify_facet(&pts, &active, 0.05, -0.03, f);
        // all three vertices must be sphere (hull) points
        for v in f.ids() {
            let p = pts[v];
            assert!((p.x * p.x + p.y * p.y + p.z * p.z - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn outside_projection_returns_none() {
        let pts = in_ball(200, 3);
        let active: Vec<usize> = (0..pts.len()).collect();
        let mut m = Machine::new(8);
        let mut shm = Shm::new();
        assert!(find_facet_inplace(&mut m, &mut shm, &pts, &active, 10.0, 10.0, 16).is_none());
    }

    #[test]
    fn scattered_subsets() {
        let pts = in_ball(900, 4);
        let active: Vec<usize> = (0..pts.len()).filter(|i| i % 2 == 0).collect();
        let mut m = Machine::new(9);
        let mut shm = Shm::new();
        let f = find_facet_inplace(&mut m, &mut shm, &pts, &active, 0.0, 0.0, 16).expect("facet");
        for v in f.ids() {
            assert_eq!(v % 2, 0, "facet vertex outside the active subset");
        }
        verify_facet(&pts, &active, 0.0, 0.0, f);
    }

    #[test]
    fn work_near_linear() {
        let n = 4000;
        let pts = in_ball(n, 5);
        let active: Vec<usize> = (0..n).collect();
        let mut m = Machine::new(10);
        let mut shm = Shm::new();
        find_facet_inplace(&mut m, &mut shm, &pts, &active, 0.0, 0.0, 16).unwrap();
        assert!(
            m.metrics.total_work() < 1000 * n as u64,
            "work {}",
            m.metrics.total_work()
        );
    }

    /// Workspace follows the subproblem: a 64-id subproblem scattered
    /// through a 1,024- or a 65,536-point input keeps its scratch peak
    /// within 32·(p + capacity) cells plus the brute solve's C(capacity, 3)
    /// triple table, plus 3 cells per subproblem point for the §3.3 step-4
    /// compaction source (`fp.sarr`, `ipc.seg`, `ipc.marks`); a source
    /// that spanned the input would need 3n.
    #[test]
    fn scratch_peak_follows_the_subproblem_not_the_input() {
        let p = 64;
        let capacity = BASE_CAPACITY_FACTOR * 4; // k = max(4, ⌈64^{1/4}⌉)
        let triples = capacity * (capacity - 1) * (capacity - 2) / 6;
        let bound = (32 * (p + capacity) + triples) as u64;
        let mut below_source = 0;
        for n in [1024usize, 65_536] {
            let pts = in_ball(n, 7);
            let active: Vec<usize> = (0..p).map(|i| i * (n / p) + 3).collect();
            for seed in 0..6 {
                let mut m = Machine::new(seed);
                let mut shm = Shm::new();
                let f = find_facet_inplace(&mut m, &mut shm, &pts, &active, 0.0, 0.0, 16)
                    .expect("facet");
                verify_facet(&pts, &active, 0.0, 0.0, f);
                let peak = shm.peak_live_cells();
                assert!(
                    peak <= bound + 3 * p as u64,
                    "n {n} seed {seed}: peak {peak}"
                );
                below_source += (peak <= bound) as usize;
            }
        }
        // runs that finish by sampling never touch the compaction source
        assert!(
            below_source > 0,
            "no run stayed within the subproblem bound"
        );
    }
}
