//! Supervised (Las Vegas) entry points for the LP-flavoured primitives.
//!
//! A bridge or facet probe has a cheap independent certificate — the
//! returned element must straddle/contain the query abscissa and *support*
//! the active set (no active point strictly above it). The wrappers here
//! check exactly that before returning anything, so under an installed
//! [`ipch_pram::FaultPlan`] the caller receives a verified answer or a
//! typed [`RunError`]:
//!
//! * [`find_bridge_inplace_supervised`] — the §3.3 randomized in-place
//!   bridge finder; retries reseed the dart throws, exhaustion falls back
//!   to the Θ(p³)-work brute-force bridge.
//! * [`bridge_brute_supervised`] / [`facet_brute_supervised`] — the brute
//!   probes, verification-wrapped: they are deterministic, so retries only
//!   matter under injected faults (a re-derived fault schedule can clear a
//!   transient corruption).

use ipch_geom::predicates::{on_or_below, orient2d_sign, orient3d_sign};
use ipch_geom::validate::{
    ensure_exact_range2, ensure_exact_range3, ensure_finite2, ensure_finite3, ensure_query,
};
use ipch_geom::{Point2, Point3};
use ipch_pram::{supervise, Machine, RunError, Shm, SuperviseConfig, Supervised};

use crate::bridge::{bridge_brute, facet_brute, Bridge};
use crate::inplace_bridge::{find_bridge_inplace, IbTrace};

/// Entry validation shared by the LP wrappers: finite coordinates, finite
/// query abscissa(s), and in-bounds active indices. Duplicate *points* are
/// legal here (a bridge over a multiset is well defined); duplicate active
/// indices are not — the sampling analysis counts distinct elements.
pub(crate) fn validate_active(
    algorithm: &'static str,
    n_points: usize,
    active: &[usize],
) -> Result<(), RunError> {
    let mut seen = vec![false; n_points];
    for (pos, &i) in active.iter().enumerate() {
        if i >= n_points {
            return Err(RunError::invalid_input(
                algorithm,
                format!("active[{pos}] = {i} out of bounds for {n_points} points"),
            ));
        }
        if seen[i] {
            return Err(RunError::invalid_input(
                algorithm,
                format!("active index {i} appears more than once"),
            ));
        }
        seen[i] = true;
    }
    Ok(())
}

/// Certificate for a 2-D bridge over `active` at `x0`: endpoints active,
/// straddling, and supporting (no active point strictly above the line).
pub(crate) fn certify_bridge(
    algorithm: &'static str,
    points: &[Point2],
    active: &[usize],
    x0: f64,
    b: &Bridge,
) -> Result<(), RunError> {
    let fail = |detail: String| RunError::Verify { algorithm, detail };
    if !active.contains(&b.left) || !active.contains(&b.right) {
        return Err(fail(format!(
            "bridge ({}, {}) endpoints not in the active set",
            b.left, b.right
        )));
    }
    let (u, v) = (points[b.left], points[b.right]);
    if !(u.x <= x0 && x0 < v.x) {
        return Err(fail(format!(
            "bridge ({}, {}) does not straddle x0 = {x0}",
            b.left, b.right
        )));
    }
    for &t in active {
        if !on_or_below(u, v, points[t]) {
            return Err(fail(format!(
                "active point {t} lies strictly above the bridge ({}, {})",
                b.left, b.right
            )));
        }
    }
    Ok(())
}

/// Supervised §3.3 in-place bridge finder, each attempt capped at
/// `max_rounds` base solves. `None` from an attempt (dart rounds
/// exhausted) is a typed invariant failure and retries; exhaustion
/// falls back to [`bridge_brute`]. Returns the brute fallback's result
/// with a default trace.
pub fn find_bridge_inplace_supervised(
    m: &mut Machine,
    points: &[Point2],
    active: &[usize],
    x0: f64,
    max_rounds: usize,
    cfg: &SuperviseConfig,
) -> Result<Supervised<(Bridge, IbTrace)>, RunError> {
    const ALG: &str = crate::inplace_bridge::INPLACE_BRIDGE_CONTRACT.algorithm;
    ensure_finite2(points).map_err(|e| RunError::invalid_input(ALG, e))?;
    ensure_exact_range2(points).map_err(|e| RunError::invalid_input(ALG, e))?;
    ensure_query("x0", x0).map_err(|e| RunError::invalid_input(ALG, e))?;
    validate_active(ALG, points.len(), active)?;
    let mut fallback = |fm: &mut Machine| {
        let mut shm = Shm::new();
        let b = bridge_brute(fm, &mut shm, points, active, x0).ok_or(RunError::Invariant {
            algorithm: ALG,
            detail: format!("brute fallback found no bridge straddling x0 = {x0}"),
        })?;
        certify_bridge(ALG, points, active, x0, &b)?;
        Ok((b, IbTrace::default()))
    };
    supervise(
        m,
        ALG,
        cfg,
        |am: &mut Machine| {
            let mut shm = Shm::new();
            let (b, trace) = find_bridge_inplace(am, &mut shm, points, active, x0, max_rounds)
                .ok_or_else(|| RunError::Invariant {
                    algorithm: ALG,
                    detail: "no bridge after the configured sample/dart rounds".into(),
                })?;
            certify_bridge(ALG, points, active, x0, &b)?;
            Ok((b, trace))
        },
        Some(&mut fallback),
    )
}

/// Supervised brute-force bridge: the deterministic probe, verification-
/// wrapped (no fallback — the brute probe *is* the last resort).
pub fn bridge_brute_supervised(
    m: &mut Machine,
    points: &[Point2],
    active: &[usize],
    x0: f64,
    cfg: &SuperviseConfig,
) -> Result<Supervised<Bridge>, RunError> {
    const ALG: &str = crate::bridge::BRIDGE_BRUTE_CONTRACT.algorithm;
    ensure_finite2(points).map_err(|e| RunError::invalid_input(ALG, e))?;
    ensure_exact_range2(points).map_err(|e| RunError::invalid_input(ALG, e))?;
    ensure_query("x0", x0).map_err(|e| RunError::invalid_input(ALG, e))?;
    validate_active(ALG, points.len(), active)?;
    supervise(
        m,
        ALG,
        cfg,
        |am: &mut Machine| {
            let mut shm = Shm::new();
            let b = bridge_brute(am, &mut shm, points, active, x0).ok_or(RunError::Invariant {
                algorithm: ALG,
                detail: format!("no pair of active points straddles x0 = {x0}"),
            })?;
            certify_bridge(ALG, points, active, x0, &b)?;
            Ok(b)
        },
        None,
    )
}

/// Supervised brute-force 3-D facet probe: the returned triple must be CCW
/// seen from above, contain `(x0, y0)` in its xy-projection, and support
/// the active set (no active point strictly above its plane).
pub fn facet_brute_supervised(
    m: &mut Machine,
    points: &[Point3],
    active: &[usize],
    x0: f64,
    y0: f64,
    cfg: &SuperviseConfig,
) -> Result<Supervised<(usize, usize, usize)>, RunError> {
    const ALG: &str = crate::bridge::FACET_BRUTE_CONTRACT.algorithm;
    ensure_finite3(points).map_err(|e| RunError::invalid_input(ALG, e))?;
    ensure_exact_range3(points).map_err(|e| RunError::invalid_input(ALG, e))?;
    ensure_query("x0", x0).map_err(|e| RunError::invalid_input(ALG, e))?;
    ensure_query("y0", y0).map_err(|e| RunError::invalid_input(ALG, e))?;
    validate_active(ALG, points.len(), active)?;
    supervise(
        m,
        ALG,
        cfg,
        |am: &mut Machine| {
            let mut shm = Shm::new();
            let (a, b, c) =
                facet_brute(am, &mut shm, points, active, x0, y0).ok_or(RunError::Invariant {
                    algorithm: ALG,
                    detail: format!("no facet over ({x0}, {y0}) in the active set"),
                })?;
            let fail = |detail: String| RunError::Verify {
                algorithm: ALG,
                detail,
            };
            let (pa, pb, pc) = (points[a], points[b], points[c]);
            if orient2d_sign(pa.xy(), pb.xy(), pc.xy()) <= 0 {
                return Err(fail(format!("facet ({a}, {b}, {c}) not CCW from above")));
            }
            let q = Point2::new(x0, y0);
            let inside = orient2d_sign(pa.xy(), pb.xy(), q) >= 0
                && orient2d_sign(pb.xy(), pc.xy(), q) >= 0
                && orient2d_sign(pc.xy(), pa.xy(), q) >= 0;
            if !inside {
                return Err(fail(format!(
                    "facet ({a}, {b}, {c}) projection misses ({x0}, {y0})"
                )));
            }
            for &t in active {
                if orient3d_sign(pa, pb, pc, points[t]) < 0 {
                    return Err(fail(format!(
                        "active point {t} strictly above facet ({a}, {b}, {c})"
                    )));
                }
            }
            Ok((a, b, c))
        },
        None,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipch_pram::Outcome;

    fn disk(n: usize, seed: u64) -> Vec<Point2> {
        ipch_geom::generators::uniform_disk(n, seed)
    }

    #[test]
    fn clean_inplace_bridge_verifies_first_try() {
        let pts = disk(800, 5);
        let active: Vec<usize> = (0..pts.len()).collect();
        let mut m = Machine::new(1);
        let s = find_bridge_inplace_supervised(
            &mut m,
            &pts,
            &active,
            0.0,
            16,
            &SuperviseConfig::default(),
        )
        .expect("a bridge straddles x = 0 inside the disk");
        assert_eq!(s.outcome, Outcome::FirstTry);
        let b = s.value.0;
        assert!(pts[b.left].x <= 0.0 && 0.0 < pts[b.right].x);
    }

    #[test]
    fn brute_bridge_with_no_straddle_is_a_typed_error() {
        let pts = disk(100, 6);
        let active: Vec<usize> = (0..pts.len()).collect();
        let mut m = Machine::new(2);
        let err = bridge_brute_supervised(&mut m, &pts, &active, 1e9, &SuperviseConfig::default())
            .unwrap_err();
        assert!(matches!(err, RunError::AttemptsExhausted { .. }));
    }

    #[test]
    fn malformed_lp_inputs_reject_before_any_step() {
        let cfg = SuperviseConfig::default();
        let mut m = Machine::new(3);
        let mut nan = disk(32, 7);
        nan[3].x = f64::NAN;
        let full: Vec<usize> = (0..32).collect();
        let e = find_bridge_inplace_supervised(&mut m, &nan, &full, 0.0, 16, &cfg).unwrap_err();
        assert!(matches!(e, RunError::InvalidInput { .. }), "got {e}");

        let good = disk(32, 8);
        let e = bridge_brute_supervised(&mut m, &good, &full, f64::INFINITY, &cfg).unwrap_err();
        assert!(matches!(e, RunError::InvalidInput { .. }), "got {e}");

        let oob = vec![0, 1, 99];
        let e = bridge_brute_supervised(&mut m, &good, &oob, 0.0, &cfg).unwrap_err();
        assert!(matches!(e, RunError::InvalidInput { .. }), "got {e}");

        let repeated = vec![0, 1, 1];
        let e = bridge_brute_supervised(&mut m, &good, &repeated, 0.0, &cfg).unwrap_err();
        assert!(matches!(e, RunError::InvalidInput { .. }), "got {e}");

        let pts3: Vec<Point3> = (0..8)
            .map(|i| Point3::new(i as f64, (i * i) as f64, 1.0))
            .collect();
        let a3: Vec<usize> = (0..8).collect();
        let e = facet_brute_supervised(&mut m, &pts3, &a3, f64::NAN, 0.0, &cfg).unwrap_err();
        assert!(matches!(e, RunError::InvalidInput { .. }), "got {e}");

        assert_eq!(m.metrics.steps, 0, "rejection precedes any machine step");
    }
}
