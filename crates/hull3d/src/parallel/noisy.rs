//! Noise-tolerant parallel 3-D upper hull — Goodrich–Sridhar voting over a
//! brute facet oracle.
//!
//! The 3-D analogue of the 2-D noisy hull: under a
//! [`ipch_pram::NoisePlan`] every orientation test lies with probability
//! `p`, and correctness is won back by re-asking each test `2k + 1` times
//! with `k = O(log n)` ([`ipch_geom::noise::vote_reps`]) and taking the
//! majority. The structure is the facet brute force: one concurrent
//! marking step over all canonical vertex triples, each processor voting
//! the facet's CCW-from-above orientation (2-D test on the xy projection)
//! and then scanning the `n` witnesses with voted 3-D side-of-plane tests
//! — a triple survives iff no witness swears it sits strictly above. For
//! points in general position the survivors are exactly the upper-hull
//! facets, so the voted oracle errs only when some majority goes wrong,
//! with probability `n^{-Θ(1)}` by the union bound over the Θ(n⁴) voted
//! tests.
//!
//! Supervision mirrors the 2-D wrapper: **noise-free** certification
//! ([`crate::facet::verify_upper_hull3`] calls the plain predicates), retry with an
//! escalated repetition factor on a reseeded child (which redraws a
//! [`ipch_pram::NoiseMode::Persistent`] lie schedule), and the
//! deterministic gift-wrapping host fallback, which never touches a noisy
//! primitive. [`upper_hull3_noisy_naive`] is the single-shot negative
//! control.

use ipch_geom::noise::{vote_reps, NoiseCtx};
use ipch_geom::validate::validate_points3;
use ipch_geom::Point3;
use ipch_hull2d::parallel::noisy::{ctx_for, settle};
use ipch_pram::{
    supervise, Machine, ModelClass, ModelContract, Pids, RaceExpectation, RunError, Shm,
    SuperviseConfig, Supervised, WritePolicy,
};

use super::supervised::certify3;
use super::unsorted3d::Hull3Output;
use crate::facet::{xy_contains, Facet};
use crate::seq::giftwrap::upper_hull3_giftwrap;
use crate::seq::Seq3Stats;

/// Concurrency contract: Common-CRCW — each triple's processor writes its
/// own cell, so the only (non-)races are same-value by construction.
pub const NOISY3_CONTRACT: ModelContract = ModelContract {
    algorithm: "hull3d/noisy",
    class: ModelClass::Crcw,
    races: RaceExpectation::SameValue,
};

/// Shared marking structure; `reps = None` is the naive single-shot mode.
fn hull3_noisy_impl(
    m: &mut Machine,
    shm: &mut Shm,
    points: &[Point3],
    ctx: &NoiseCtx,
    reps: Option<u32>,
) -> Hull3Output {
    m.declare_contract(&NOISY3_CONTRACT);
    let n = points.len();
    if n < 3 {
        return Hull3Output {
            facets: vec![],
            face_above: vec![usize::MAX; n],
        };
    }
    let orient2 = |a: Point3, b: Point3, c: Point3| match reps {
        Some(r) => ctx.voted_orient2d(a.xy(), b.xy(), c.xy(), r),
        None => ctx.orient2d_sign(a.xy(), b.xy(), c.xy(), 0),
    };
    let orient3 = |a: Point3, b: Point3, c: Point3, d: Point3| match reps {
        Some(r) => ctx.voted_orient3d(a, b, c, d, r),
        None => ctx.orient3d_sign(a, b, c, d, 0),
    };
    let ntriples = n * n * n;
    let facets: Vec<Facet> = shm.scope(|shm| {
        let good = shm.alloc("pnoisy3.good", ntriples, 0);
        let grid = Pids::Grid([n, n, n]);
        m.kernel_scatter_with_policy(shm, grid, WritePolicy::CombineOr, |me, t| {
            let [i, j, k] = me.coord();
            if !(i < j && j < k) {
                return None; // one processor per unordered triple
            }
            // Orient CCW seen from above; a (claimed) degenerate
            // projection kills the triple.
            let s = orient2(points[i], points[j], points[k]);
            if s == 0 {
                return None;
            }
            let (a, b, c) = if s > 0 { (i, j, k) } else { (i, k, j) };
            // Supporting test: any witness strictly above the plane kills.
            for w in 0..n {
                if w == i || w == j || w == k {
                    continue;
                }
                if orient3(points[a], points[b], points[c], points[w]) < 0 {
                    return None;
                }
            }
            // Survivor: record orientation (1 = as-is, 2 = swapped).
            Some((good, t, if s > 0 { 1 } else { 2 }))
        });
        let mut facets = Vec::new();
        for t in 0..ntriples {
            let v = shm.get(good, t);
            if v != 0 {
                let (i, j, k) = (t / (n * n), (t / n) % n, t % n);
                facets.push(if v == 1 {
                    Facet { a: i, b: j, c: k }
                } else {
                    Facet { a: i, b: k, c: j }
                });
            }
        }
        facets
    });
    // Output assembly (noise-free, like the 2-D edge pointers): every
    // point learns a covering facet; charged at one scan per point.
    let face_above: Vec<usize> = points
        .iter()
        .map(|q| {
            facets
                .iter()
                .position(|f| xy_contains(points, f, q.xy()))
                .unwrap_or(usize::MAX)
        })
        .collect();
    m.charge(1, (n * facets.len().max(1)) as u64);
    Hull3Output { facets, face_above }
}

/// Noise-tolerant 3-D upper hull: the facet brute oracle with every
/// primitive voted over [`vote_reps`]`(n, escalation)` trials. O(1) steps,
/// Θ(n³) processors, Θ(n⁴ log n) charged vote evaluations. With no noise
/// installed, a plain (unvoted) brute facet oracle.
pub fn upper_hull3_noisy(
    m: &mut Machine,
    shm: &mut Shm,
    points: &[Point3],
    escalation: u32,
) -> Hull3Output {
    let ctx = ctx_for(m);
    let reps = if ctx.is_live() {
        vote_reps(points.len(), escalation)
    } else {
        1
    };
    let out = hull3_noisy_impl(m, shm, points, &ctx, Some(reps));
    settle(m, &ctx);
    out
}

/// Negative control: single-shot predicates, no voting. Fails
/// certification under any appreciable noise.
pub fn upper_hull3_noisy_naive(m: &mut Machine, shm: &mut Shm, points: &[Point3]) -> Hull3Output {
    let ctx = ctx_for(m);
    let out = hull3_noisy_impl(m, shm, points, &ctx, None);
    settle(m, &ctx);
    out
}

/// Supervised noise-tolerant 3-D hull: escalating repetition attempts →
/// noise-free certificate → reseeded retries → deterministic gift-wrapping
/// host fallback. Certified-correct facets or a typed [`RunError`], never
/// a wrong hull.
pub fn upper_hull3_noisy_supervised(
    m: &mut Machine,
    points: &[Point3],
    cfg: &SuperviseConfig,
) -> Result<Supervised<Hull3Output>, RunError> {
    const ALG: &str = NOISY3_CONTRACT.algorithm;
    validate_points3(points).map_err(|e| RunError::invalid_input(ALG, e))?;
    let mut fallback = |fm: &mut Machine| {
        let mut stats = Seq3Stats::default();
        let facets = upper_hull3_giftwrap(points, &mut stats);
        fm.charge(stats.total(), stats.total());
        let face_above: Vec<usize> = points
            .iter()
            .map(|q| {
                facets
                    .iter()
                    .position(|f| xy_contains(points, f, q.xy()))
                    .unwrap_or(usize::MAX)
            })
            .collect();
        fm.charge(1, (points.len() * facets.len().max(1)) as u64);
        let out = Hull3Output { facets, face_above };
        certify3(ALG, points, &out)?;
        Ok(out)
    };
    let mut escalation: u32 = 0;
    supervise(
        m,
        ALG,
        cfg,
        |am: &mut Machine| {
            let esc = escalation;
            escalation += 1;
            let mut shm = Shm::new();
            let out = upper_hull3_noisy(am, &mut shm, points, esc);
            certify3(ALG, points, &out)?;
            Ok(out)
        },
        Some(&mut fallback),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::facet::verify_upper_hull3;
    use ipch_geom::gen3d::sphere_plus_interior;
    use ipch_pram::{FaultPlan, NoisePlan, Outcome};

    fn noise_plan(p: f64, mode: ipch_pram::NoiseMode) -> FaultPlan {
        FaultPlan {
            noise: Some(NoisePlan { p, mode }),
            ..FaultPlan::default()
        }
    }

    #[test]
    fn no_noise_matches_giftwrap_vertices() {
        let pts = sphere_plus_interior(8, 20, 3);
        let mut m = Machine::new(3);
        let mut shm = Shm::new();
        let out = upper_hull3_noisy(&mut m, &mut shm, &pts, 0);
        verify_upper_hull3(&pts, &out.facets, false).unwrap();
        let mut stats = Seq3Stats::default();
        let gw = upper_hull3_giftwrap(&pts, &mut stats);
        assert_eq!(
            crate::facet::vertex_set(&out.facets),
            crate::facet::vertex_set(&gw)
        );
        assert_eq!(m.metrics.faults.predicate_flips, 0);
        assert_eq!(m.metrics.faults.predicate_votes, 0);
    }

    #[test]
    fn voted_hull_survives_fresh_noise() {
        let pts = sphere_plus_interior(8, 18, 5);
        let mut m = Machine::new(5);
        m.install_faults(noise_plan(0.05, ipch_pram::NoiseMode::Fresh));
        let mut shm = Shm::new();
        let out = upper_hull3_noisy(&mut m, &mut shm, &pts, 0);
        verify_upper_hull3(&pts, &out.facets, false).unwrap();
        assert!(m.metrics.faults.predicate_flips > 0);
        assert!(m.metrics.faults.predicate_votes > 0);
    }

    #[test]
    fn naive_control_fails_under_noise() {
        let mut wrong = 0;
        for seed in 0..4 {
            let pts = sphere_plus_interior(8, 18, 50 + seed);
            let mut m = Machine::new(seed);
            m.install_faults(noise_plan(0.1, ipch_pram::NoiseMode::Fresh));
            let mut shm = Shm::new();
            let out = upper_hull3_noisy_naive(&mut m, &mut shm, &pts);
            if verify_upper_hull3(&pts, &out.facets, false).is_err() {
                wrong += 1;
            }
        }
        assert!(wrong > 0, "naive predicates must demonstrably fail");
    }

    #[test]
    fn supervised_under_noise_is_correct_or_typed() {
        let pts = sphere_plus_interior(8, 18, 7);
        let mut m = Machine::new(7);
        m.install_faults(noise_plan(0.1, ipch_pram::NoiseMode::Fresh));
        let s = upper_hull3_noisy_supervised(&mut m, &pts, &SuperviseConfig::default())
            .expect("voting should carry");
        verify_upper_hull3(&pts, &s.value.facets, false).unwrap();
        assert!(matches!(
            s.outcome,
            Outcome::FirstTry | Outcome::Retried(_) | Outcome::FellBack
        ));
    }
}
