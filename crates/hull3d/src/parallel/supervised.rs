//! Supervised (Las Vegas) entry point for the 3-D hull (paper §4.3).
//!
//! The wrapper runs [`upper_hull3_unsorted`] under [`mod@ipch_pram::supervise`]
//! and demands the full independent certificate before returning: every
//! facet CCW-from-above and supporting (no point strictly above its
//! plane), every point covered ([`verify_upper_hull3`]), and every
//! `face_above` pointer naming a facet that actually covers its point.
//! Failed attempts retry on fresh seeds; exhaustion degrades to
//! Chand–Kapur gift wrapping — the sequential O(n·h) worst-case baseline,
//! charged at one processor — whose output passes the same certificate.

use ipch_geom::validate::validate_points3;
use ipch_geom::Point3;
use ipch_pram::{supervise, Machine, RunError, Shm, SuperviseConfig, Supervised};

use super::unsorted3d::{upper_hull3_unsorted, Hull3Output, Unsorted3Params, Unsorted3Trace};
use crate::facet::{verify_upper_hull3, xy_contains};
use crate::seq::giftwrap::upper_hull3_giftwrap;
use crate::seq::Seq3Stats;

/// The certificate a supervised 3-D result must pass (shared with the
/// noisy entry point, whose certificates must stay noise-free).
pub(crate) fn certify3(
    algorithm: &'static str,
    points: &[Point3],
    out: &Hull3Output,
) -> Result<(), RunError> {
    verify_upper_hull3(points, &out.facets, points.len() < 3)
        .map_err(|detail| RunError::Verify { algorithm, detail })?;
    if out.facets.is_empty() {
        return Ok(());
    }
    for (i, &fi) in out.face_above.iter().enumerate() {
        if fi >= out.facets.len() || !xy_contains(points, &out.facets[fi], points[i].xy()) {
            return Err(RunError::Verify {
                algorithm,
                detail: format!("face_above[{i}] = {fi} does not name a covering facet"),
            });
        }
    }
    Ok(())
}

/// Supervised §4.3 3-D upper hull. Falls back to sequential gift wrapping.
pub fn upper_hull3_unsorted_supervised(
    m: &mut Machine,
    points: &[Point3],
    params: &Unsorted3Params,
    cfg: &SuperviseConfig,
) -> Result<Supervised<(Hull3Output, Unsorted3Trace)>, RunError> {
    const ALG: &str = super::unsorted3d::UNSORTED3_CONTRACT.algorithm;
    // Service-facing entry: reject NaN/infinite coordinates and duplicate
    // points before any step runs (gift wrapping's supporting-plane search
    // assumes distinct points; a NaN poisons every orientation test).
    validate_points3(points).map_err(|e| RunError::invalid_input(ALG, e))?;
    let mut fallback = |fm: &mut Machine| {
        let mut stats = Seq3Stats::default();
        let facets = upper_hull3_giftwrap(points, &mut stats);
        // Sequential fallback charged at p = 1: every predicate evaluation
        // is one unit of work and one time step.
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
        Ok((out, Unsorted3Trace::default()))
    };
    supervise(
        m,
        ALG,
        cfg,
        |am: &mut Machine| {
            let mut shm = Shm::new();
            let (out, trace) = upper_hull3_unsorted(am, &mut shm, points, params);
            certify3(ALG, points, &out)?;
            Ok((out, trace))
        },
        Some(&mut fallback),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipch_geom::gen3d::sphere_plus_interior;
    use ipch_pram::Outcome;

    #[test]
    fn clean_run_succeeds_first_try() {
        let pts = sphere_plus_interior(12, 240, 2);
        let mut m = Machine::new(5);
        let s = upper_hull3_unsorted_supervised(
            &mut m,
            &pts,
            &Unsorted3Params::default(),
            &SuperviseConfig::default(),
        )
        .expect("clean 3d run");
        assert_eq!(s.outcome, Outcome::FirstTry);
        verify_upper_hull3(&pts, &s.value.0.facets, false).unwrap();
    }

    #[test]
    fn malformed_inputs_reject_before_any_step() {
        let mut m = Machine::new(6);
        let cfg = SuperviseConfig::default();
        let params = Unsorted3Params::default();
        let mut nan = sphere_plus_interior(12, 64, 3);
        nan[5].z = f64::NAN;
        let mut dup = sphere_plus_interior(12, 64, 4);
        dup[8] = dup[9];
        // xy offsets ~1e-130 under z = 1e200: outside the exact
        // predicates' range, where the fallback disagrees with the filter
        let span: Vec<Point3> = (0..16)
            .map(|i| Point3 {
                x: (i % 4) as f64 * 1e-130,
                y: (i / 4) as f64 * 1e-130,
                z: if i % 2 == 0 { 1e200 } else { 0.0 },
            })
            .collect();
        let cases = [
            (&nan, "not finite"),
            (&dup, "duplicates"),
            (&span, "exact predicates' range"),
        ];
        for (pts, why) in cases {
            let e = upper_hull3_unsorted_supervised(&mut m, pts, &params, &cfg).unwrap_err();
            assert!(matches!(e, RunError::InvalidInput { .. }), "got {e}");
            assert!(e.to_string().contains(why), "got {e}");
        }
        assert_eq!(m.metrics.steps, 0);
        assert_eq!(m.metrics.supervisor.attempts, 0);
    }
}
