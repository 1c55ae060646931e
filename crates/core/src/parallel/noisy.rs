//! Noise-tolerant parallel upper hull — Goodrich–Sridhar voting on top of
//! the brute oracle (Observation 2.3).
//!
//! Under a [`ipch_pram::NoisePlan`] every orientation and order test lies
//! with probability `p`. This module wins correctness back the way the
//! noisy-primitive model prescribes: the brute hull's single concurrent
//! marking step re-asks each predicate `2k + 1` times with `k = O(log n)`
//! ([`ipch_geom::noise::vote_reps`]) and takes the majority, so each
//! *voted* test errs with probability `(4p(1-p))^k = n^{-Θ(1)}` and a
//! union bound over the Θ(n³) tests keeps whole-run failure polynomially
//! small. The supervised wrapper completes the Las Vegas loop: attempts
//! are certified **noise-free** (the certificate calls the plain
//! predicates, so verification stays sound at any `p`), failures retry
//! with an escalated repetition factor on a reseeded child (which also
//! redraws a [`ipch_pram::NoiseMode::Persistent`] lie schedule — the case
//! voting provably cannot fix), and a deterministic host fallback ends
//! the chain.
//!
//! The noisy surface is the model's primitive set: orientation tests, the
//! pair-direction x-comparison, and the output-chain order comparison.
//! The degenerate-case guards (collinear span, vertical domination,
//! duplicate dedup) keep exact coordinate tests — Goodrich–Sridhar state
//! the model for points in general position, where those guards never
//! fire; under noise they only ever *kill* candidates, and a wrongly
//! killed edge fails the certificate and retries.
//!
//! [`upper_hull_noisy_naive`] is the negative control: the same structure
//! with single-shot (unvoted) predicates, which demonstrably fails
//! certification once `p·n³` crosses 1.

use ipch_geom::hull_chain::verify_upper_hull;
use ipch_geom::noise::{vote_reps, NoiseCtx, NoiseMode};
use ipch_geom::validate::validate_points2;
use ipch_geom::{Point2, UpperHull};
use ipch_pram::{
    supervise, Machine, ModelClass, ModelContract, Pids, RaceExpectation, RunError, Shm,
    SuperviseConfig, Supervised, WritePolicy,
};

use crate::{assign_edges_pram, HullOutput};

/// Concurrency contract: Common-CRCW, like the brute oracle it decorates —
/// concurrent writers only ever agree on the constant "kill" mark.
pub const NOISY_CONTRACT: ModelContract = ModelContract {
    algorithm: "hull2d/noisy",
    class: ModelClass::Crcw,
    races: RaceExpectation::SameValue,
};

/// The noise context this machine's fault plane prescribes: live when a
/// non-empty [`ipch_pram::NoisePlan`] is installed, the never-lying
/// [`NoiseCtx::noiseless`] otherwise (whose counters provably never move,
/// keeping the no-plan path byte-identical to the pre-noise crate). The
/// 3-D noisy hull uses the same translation.
pub fn ctx_for(m: &Machine) -> NoiseCtx {
    match m.noise_spec() {
        Some((plan, seed)) => NoiseCtx::new(
            seed,
            plan.p,
            match plan.mode {
                ipch_pram::NoiseMode::Fresh => NoiseMode::Fresh,
                ipch_pram::NoiseMode::Persistent => NoiseMode::Persistent,
            },
        ),
        None => NoiseCtx::noiseless(),
    }
}

/// Fold a finished context's observability counters into the machine and
/// charge the repetitions as analytic work (each vote is one unit-cost
/// primitive evaluation in the noisy-PRAM accounting).
pub fn settle(m: &mut Machine, ctx: &NoiseCtx) {
    m.metrics.faults.predicate_flips += ctx.flips();
    m.metrics.faults.predicate_votes += ctx.votes();
    if ctx.votes() > 0 {
        m.charge(0, ctx.votes());
    }
}

/// The shared marking structure: `reps = Some(r)` votes every primitive
/// over `r` trials; `None` is the naive single-shot control.
fn hull_noisy_impl(
    m: &mut Machine,
    shm: &mut Shm,
    points: &[Point2],
    ctx: &NoiseCtx,
    reps: Option<u32>,
) -> UpperHull {
    m.declare_contract(&NOISY_CONTRACT);
    let n = points.len();
    if n == 0 {
        return UpperHull::new(vec![]);
    }
    if n == 1 {
        return UpperHull::new(vec![0]);
    }
    let orient = |u: Point2, v: Point2, q: Point2| match reps {
        Some(r) => ctx.voted_orient2d(u, v, q, r),
        None => ctx.orient2d_sign(u, v, q, 0),
    };
    let before = |u: Point2, v: Point2| match reps {
        Some(r) => ctx.voted_less_x(u, v, r),
        None => ctx.less_x(u, v, 0),
    };
    let npairs = n * n;
    let mut edges: Vec<(usize, usize)> = shm.scope(|shm| {
        let bad = shm.alloc("pnoisy.bad", npairs, 0);
        let grid = Pids::Grid([n, n, n]);
        m.kernel_scatter_with_policy(shm, grid, WritePolicy::CombineOr, |t, _| {
            let [i, j, w] = t.coord();
            let p = i * n + j;
            let (u, v) = (points[i], points[j]);
            if !before(u, v) {
                return if w == 0 { Some((bad, p, 1)) } else { None };
            }
            let q = points[w];
            let s = orient(u, v, q);
            if s > 0 {
                return Some((bad, p, 1)); // witness (says it's) above the edge
            }
            if s == 0 && (q.x < u.x || q.x > v.x) {
                return Some((bad, p, 1)); // collinear contact outside the span
            }
            if (q.x == u.x && q.y > u.y) || (q.x == v.x && q.y > v.y) {
                return Some((bad, p, 1)); // vertical domination of an endpoint
            }
            if (q == u && w < i) || (q == v && w < j) {
                return Some((bad, p, 1)); // duplicate endpoint dedup
            }
            None
        });

        let mut edges: Vec<(usize, usize)> = Vec::new();
        for p in 0..npairs {
            if shm.get(bad, p) == 0 {
                edges.push((p / n, p % n));
            }
        }
        edges
    });
    if edges.is_empty() {
        // all points share one x (or the noise killed everything): report
        // the topmost point — a wrong answer here fails the certificate
        let top = (0..n)
            .max_by(|&a, &b| points[a].cmp_xy(&points[b]))
            // n >= 2 above, so the range is non-empty
            .unwrap();
        return UpperHull::new(vec![top]);
    }
    // Chain assembly orders surviving edges by their (voted) left-endpoint
    // x-order; an inconsistent noisy comparator can misorder but never
    // panic, and a misordered chain fails the certificate.
    edges.sort_by(|a, b| {
        if before(points[a.0], points[b.0]) {
            std::cmp::Ordering::Less
        } else {
            std::cmp::Ordering::Greater
        }
    });
    let mut verts = vec![edges[0].0];
    for e in &edges {
        verts.push(e.1);
    }
    UpperHull::new(verts)
}

/// Noise-tolerant upper hull: the brute oracle with every primitive voted
/// over [`vote_reps`]`(n, escalation)` trials. O(1) steps, Θ(n³) processor
/// work plus Θ(n³ log n) charged vote evaluations. With no noise installed
/// this is the brute oracle exactly (one trial, nothing charged).
pub fn upper_hull_noisy(
    m: &mut Machine,
    shm: &mut Shm,
    points: &[Point2],
    escalation: u32,
) -> UpperHull {
    let ctx = ctx_for(m);
    let reps = if ctx.is_live() {
        vote_reps(points.len(), escalation)
    } else {
        1
    };
    let hull = hull_noisy_impl(m, shm, points, &ctx, Some(reps));
    settle(m, &ctx);
    hull
}

/// Negative control: the same structure with naive single-shot predicates.
/// Under any appreciable noise its output fails [`verify_upper_hull`] —
/// the chaos suite demonstrates that voting, not luck, buys correctness.
pub fn upper_hull_noisy_naive(m: &mut Machine, shm: &mut Shm, points: &[Point2]) -> UpperHull {
    let ctx = ctx_for(m);
    let hull = hull_noisy_impl(m, shm, points, &ctx, None);
    settle(m, &ctx);
    hull
}

/// [`upper_hull_noisy`] with the paper's full output convention (per-point
/// edge pointers, assigned by the noise-free lockstep binary search — the
/// pointers are output assembly, certified separately).
pub fn upper_hull_noisy_full(
    m: &mut Machine,
    shm: &mut Shm,
    points: &[Point2],
    escalation: u32,
) -> HullOutput {
    let hull = upper_hull_noisy(m, shm, points, escalation);
    let edge_above = assign_edges_pram(m, shm, points, &hull);
    HullOutput { hull, edge_above }
}

/// Supervised noise-tolerant hull: attempt with escalating repetition
/// factor → noise-free certificate → retry on a reseeded child (which
/// redraws persistent lie schedules) → deterministic host fallback (the
/// monotone-chain oracle, no noisy primitive anywhere near it).
///
/// Returns a certified-correct hull or a typed [`RunError`] — never a
/// silently wrong chain, at any `p`.
pub fn upper_hull_noisy_supervised(
    m: &mut Machine,
    points: &[Point2],
    cfg: &SuperviseConfig,
) -> Result<Supervised<HullOutput>, RunError> {
    const ALG: &str = NOISY_CONTRACT.algorithm;
    validate_points2(points).map_err(|e| RunError::invalid_input(ALG, e))?;
    let certify = |out: &HullOutput| -> Result<(), RunError> {
        verify_upper_hull(points, &out.hull).map_err(|detail| RunError::Verify {
            algorithm: ALG,
            detail,
        })?;
        out.verify_pointers(points)
            .map_err(|detail| RunError::Verify {
                algorithm: ALG,
                detail,
            })
    };
    let mut fallback = |fm: &mut Machine| {
        // Host monotone chain, charged at its sequential cost; the noisy
        // adversary lives in the voted primitives and never sees this path.
        let hull = UpperHull::of(points);
        let n = points.len() as u64;
        fm.charge(
            n.max(1).ilog2() as u64 + 1,
            n * (n.max(1).ilog2() as u64 + 1),
        );
        let mut shm = Shm::new();
        let edge_above = assign_edges_pram(fm, &mut shm, points, &hull);
        let out = HullOutput { hull, edge_above };
        certify(&out)?;
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
            let out = upper_hull_noisy_full(am, &mut shm, points, esc);
            certify(&out)?;
            Ok(out)
        },
        Some(&mut fallback),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipch_geom::generators::uniform_disk;
    use ipch_pram::{FaultPlan, NoisePlan, Outcome};

    fn noise_plan(p: f64, mode: ipch_pram::NoiseMode) -> FaultPlan {
        FaultPlan {
            noise: Some(NoisePlan { p, mode }),
            ..FaultPlan::default()
        }
    }

    #[test]
    fn no_noise_matches_brute_oracle() {
        for seed in 0..4 {
            let pts = uniform_disk(48, seed);
            let mut m = Machine::new(seed);
            let mut shm = Shm::new();
            let h = upper_hull_noisy(&mut m, &mut shm, &pts, 0);
            assert_eq!(h, UpperHull::of(&pts), "seed {seed}");
            assert_eq!(m.metrics.faults.predicate_flips, 0);
            assert_eq!(m.metrics.faults.predicate_votes, 0);
        }
    }

    #[test]
    fn voted_hull_survives_fresh_noise() {
        let pts = uniform_disk(40, 7);
        let mut m = Machine::new(7);
        m.install_faults(noise_plan(0.05, ipch_pram::NoiseMode::Fresh));
        let mut shm = Shm::new();
        let h = upper_hull_noisy(&mut m, &mut shm, &pts, 0);
        assert_eq!(h, UpperHull::of(&pts));
        assert!(m.metrics.faults.predicate_flips > 0, "lies must fire");
        assert!(
            m.metrics.faults.predicate_votes > 0,
            "votes must be counted"
        );
    }

    #[test]
    fn naive_control_fails_under_noise() {
        // At p = 0.1 the naive structure asks ~n³ unvoted questions; some
        // lie, and across a handful of seeds at least one hull must break.
        let mut wrong = 0;
        for seed in 0..5 {
            let pts = uniform_disk(40, 100 + seed);
            let mut m = Machine::new(seed);
            m.install_faults(noise_plan(0.1, ipch_pram::NoiseMode::Fresh));
            let mut shm = Shm::new();
            let h = upper_hull_noisy_naive(&mut m, &mut shm, &pts);
            if verify_upper_hull(&pts, &h).is_err() {
                wrong += 1;
            }
        }
        assert!(wrong > 0, "naive predicates must demonstrably fail");
    }

    #[test]
    fn supervised_under_noise_is_correct_or_typed() {
        let pts = uniform_disk(40, 11);
        let mut m = Machine::new(11);
        m.install_faults(noise_plan(0.1, ipch_pram::NoiseMode::Fresh));
        let cfg = SuperviseConfig::default();
        let s = upper_hull_noisy_supervised(&mut m, &pts, &cfg).expect("voting should carry");
        assert_eq!(s.value.hull, UpperHull::of(&pts));
        assert!(matches!(
            s.outcome,
            Outcome::FirstTry | Outcome::Retried(_) | Outcome::FellBack
        ));
    }
}
