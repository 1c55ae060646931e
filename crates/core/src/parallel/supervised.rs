//! Supervised (Las Vegas) entry points for the 2-D hull algorithms.
//!
//! Each wrapper runs its algorithm under [`mod@ipch_pram::supervise`]: an
//! attempt's result must pass the full certificate — chain convexity and
//! coverage ([`verify_upper_hull`]) plus per-point pointer validity
//! ([`HullOutput::verify_pointers`]) — before it is returned. Failed or
//! panicking attempts retry on fresh child seeds; when every attempt fails,
//! a deterministic algorithm with no coin flips (the divide-and-conquer
//! merge tree, or Lemma 2.4's folklore hull for presorted input) produces
//! the value instead. Under any installed [`ipch_pram::FaultPlan`] the
//! caller therefore receives a certificate-verified hull or a typed
//! [`RunError`] — never a silently wrong chain, never a panic.
//!
//! Each attempt allocates its own scratch [`Shm`]; the returned hulls are
//! host-side values, so no shared-memory handles cross the attempt
//! boundary.
//!
//! Being the public service-facing entry points, the wrappers also validate
//! their input up front ([`ipch_geom::validate`]): NaN/infinite coordinates
//! and duplicate points reject with [`RunError::InvalidInput`] before any
//! machine step runs — downstream behaviour on such inputs is unspecified
//! (a NaN poisons every orientation decision it meets).

use ipch_geom::hull_chain::verify_upper_hull;
use ipch_geom::validate::validate_points2;
use ipch_geom::Point2;
use ipch_pram::{supervise, Machine, RunError, Shm, SuperviseConfig, Supervised};

use super::dac::upper_hull_dac;
use super::folklore::upper_hull_folklore_full;
use super::trace::UnsortedTrace;
use super::unsorted::{upper_hull_unsorted, UnsortedParams};
use crate::HullOutput;

/// The certificate every 2-D wrapper demands of a result.
fn certify(algorithm: &'static str, points: &[Point2], out: &HullOutput) -> Result<(), RunError> {
    verify_upper_hull(points, &out.hull)
        .map_err(|detail| RunError::Verify { algorithm, detail })?;
    out.verify_pointers(points)
        .map_err(|detail| RunError::Verify { algorithm, detail })
}

/// Supervised §3 output-sensitive hull on unsorted input (Theorem 5).
/// Falls back to the deterministic sort-then-merge tree.
pub fn upper_hull_unsorted_supervised(
    m: &mut Machine,
    points: &[Point2],
    params: &UnsortedParams,
    cfg: &SuperviseConfig,
) -> Result<Supervised<(HullOutput, UnsortedTrace)>, RunError> {
    const ALG: &str = super::unsorted::UNSORTED_CONTRACT.algorithm;
    validate_points2(points).map_err(|e| RunError::invalid_input(ALG, e))?;
    let mut fallback = |fm: &mut Machine| {
        let mut shm = Shm::new();
        let out = upper_hull_dac(fm, &mut shm, points, false);
        certify(ALG, points, &out)?;
        Ok((out, UnsortedTrace::default()))
    };
    supervise(
        m,
        ALG,
        cfg,
        |am: &mut Machine| {
            let mut shm = Shm::new();
            let (out, trace) = upper_hull_unsorted(am, &mut shm, points, params);
            certify(ALG, points, &out)?;
            Ok((out, trace))
        },
        Some(&mut fallback),
    )
}

/// Supervised divide-and-conquer hull. The algorithm itself is
/// deterministic, so supervision only matters under injected faults: a
/// corrupted run fails the certificate and retries on a child whose fault
/// schedule re-derives (transient corruption decorrelates); the fallback
/// is the folklore hull for presorted input, or a fresh merge-tree run
/// otherwise.
pub fn upper_hull_dac_supervised(
    m: &mut Machine,
    points: &[Point2],
    presorted: bool,
    cfg: &SuperviseConfig,
) -> Result<Supervised<HullOutput>, RunError> {
    const ALG: &str = super::dac::DAC_CONTRACT.algorithm;
    validate_points2(points).map_err(|e| RunError::invalid_input(ALG, e))?;
    let mut fallback = |fm: &mut Machine| {
        let mut shm = Shm::new();
        let out = if presorted {
            upper_hull_folklore_full(fm, &mut shm, points, 2)
        } else {
            upper_hull_dac(fm, &mut shm, points, false)
        };
        certify(ALG, points, &out)?;
        Ok(out)
    };
    supervise(
        m,
        ALG,
        cfg,
        |am: &mut Machine| {
            let mut shm = Shm::new();
            let out = upper_hull_dac(am, &mut shm, points, presorted);
            certify(ALG, points, &out)?;
            Ok(out)
        },
        Some(&mut fallback),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipch_geom::generators::uniform_disk;
    use ipch_geom::point::sorted_by_x;
    use ipch_geom::UpperHull;
    use ipch_pram::Outcome;

    #[test]
    fn clean_runs_succeed_first_try() {
        let pts = sorted_by_x(&uniform_disk(600, 3));
        let mut m = Machine::new(1);
        let cfg = SuperviseConfig::default();
        let unsorted = uniform_disk(600, 4);
        let s = upper_hull_unsorted_supervised(&mut m, &unsorted, &UnsortedParams::default(), &cfg)
            .expect("clean unsorted");
        assert_eq!(s.outcome, Outcome::FirstTry);
        assert_eq!(s.value.0.hull, UpperHull::of(&unsorted));

        let s = upper_hull_dac_supervised(&mut m, &pts, true, &cfg).expect("clean dac");
        assert_eq!(s.outcome, Outcome::FirstTry);
        assert_eq!(s.value.hull, UpperHull::of(&pts));
        assert_eq!(m.metrics.supervisor.runs, 2);
        assert_eq!(m.metrics.supervisor.retries, 0);
    }

    #[test]
    fn nan_and_duplicate_inputs_reject_before_any_step() {
        let mut bad = sorted_by_x(&uniform_disk(64, 5));
        bad[10].y = f64::NAN;
        let dup = {
            let mut p = sorted_by_x(&uniform_disk(64, 6));
            p[20] = p[21];
            p
        };
        let cfg = SuperviseConfig::default();
        let mut m = Machine::new(2);
        for pts in [&bad, &dup] {
            let e = upper_hull_unsorted_supervised(&mut m, pts, &UnsortedParams::default(), &cfg)
                .unwrap_err();
            assert!(matches!(e, RunError::InvalidInput { .. }), "got {e}");
            let e = upper_hull_dac_supervised(&mut m, pts, false, &cfg).unwrap_err();
            assert!(matches!(e, RunError::InvalidInput { .. }), "got {e}");
        }
        assert_eq!(m.metrics.steps, 0, "rejection precedes any machine step");
        assert_eq!(m.metrics.supervisor.attempts, 0);
    }
}
