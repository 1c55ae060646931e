//! Shard-split 3-D upper hull: chunked partial hulls, candidate
//! reduction, one certified final hull.
//!
//! The 3-D analogue of the 2-D hull-of-hulls shard merge. The input is cut
//! into at most `shards` contiguous chunks; each chunk computes a fully
//! supervised partial hull on its own child machine (data-parallel kernel
//! backend, the PR that introduced fused lanes). A vertex of the whole
//! upper hull is extreme in *any* subset that contains it, so the union of
//! the chunk hulls' facet vertices contains every whole-hull vertex; a
//! final supervised run over that (much smaller) candidate set produces
//! the whole hull. Chunks whose partial hull has no facets (tiny or
//! xy-degenerate chunks) contribute all their points, so no candidate is
//! lost to degeneracy.
//!
//! Soundness never rests on that argument: the final facet set is
//! certified against the **entire** input by [`verify_upper_hull3`]
//! (supporting planes + full coverage) before it is returned. Any chunk
//! failure, or a final certificate failure, demotes the request to one
//! unsharded supervised run (`ServiceStats::shard_merge_failures` counts
//! the latter); terminal errors (cancellation, deadline, invalid input)
//! propagate immediately. Certified facet sets are canonical for inputs in
//! general position, so a sharded success matches the unsharded result.

use ipch_geom::validate::validate_points3;
use ipch_geom::Point3;
use ipch_pram::{Machine, Metrics, Outcome, RunError, SuperviseConfig, Supervised};

use super::supervised::upper_hull3_unsorted_supervised;
use super::unsorted3d::Unsorted3Params;
use crate::facet::{verify_upper_hull3, Facet};

/// Algorithm name used in typed errors from the sharded path itself.
pub const SHARDED3_ALG: &str = "hull3d/sharded";

/// Child-machine tag base for chunk workers.
const SHARD3_TAG: u64 = 0x3DA2_D001;
/// Child-machine tag for the final candidate-set run.
const MERGE3_TAG: u64 = 0x3DA2_DBBB;
/// Child-machine tag for the unsharded demotion run.
const FALLBACK3_TAG: u64 = 0x3DA2_DFFF;

/// Supervised shard-split 3-D upper hull over `shards` chunk workers.
///
/// Facet vertex ids refer to the original `points` array. Aggregation
/// matches the 2-D sharded entry: `attempts` sums chunk and merge
/// attempts, `outcome` is the worst constituent outcome, `errors`
/// concatenates in chunk order.
pub fn upper_hull3_sharded_supervised(
    m: &mut Machine,
    points: &[Point3],
    shards: usize,
    cfg: &SuperviseConfig,
) -> Result<Supervised<Vec<Facet>>, RunError> {
    validate_points3(points).map_err(|e| RunError::invalid_input(SHARDED3_ALG, e))?;
    let n = points.len();
    let s = shards.max(2).min(n.max(1));
    m.metrics.service.shard_splits += 1;

    let chunk = n.div_ceil(s);
    let mut candidates: Vec<usize> = Vec::new();
    let mut part_metrics: Vec<Metrics> = Vec::new();
    let mut attempts = 0u32;
    let mut errors: Vec<RunError> = Vec::new();
    let mut worst = Outcome::FirstTry;
    for (k, base) in (0..n).step_by(chunk).enumerate() {
        let end = (base + chunk).min(n);
        let part = &points[base..end];
        let mut cm = m.child(SHARD3_TAG ^ k as u64);
        match upper_hull3_unsorted_supervised(&mut cm, part, &Unsorted3Params::default(), cfg) {
            Ok(sup) => {
                attempts += sup.attempts;
                errors.extend(sup.errors);
                worst = worse(worst, sup.outcome);
                let facets = &sup.value.0.facets;
                if facets.is_empty() {
                    // degenerate chunk: every point stays a candidate
                    candidates.extend(base..end);
                } else {
                    candidates.extend(
                        facets
                            .iter()
                            .flat_map(|f| [f.a, f.b, f.c])
                            .map(|v| base + v),
                    );
                }
                part_metrics.push(cm.metrics);
            }
            Err(e) if e.is_terminal() => {
                m.metrics.absorb_parallel(&part_metrics);
                m.metrics.absorb(&cm.metrics);
                return Err(e);
            }
            Err(e) => {
                m.metrics.absorb_parallel(&part_metrics);
                m.metrics.absorb(&cm.metrics);
                errors.push(e);
                return demote(m, points, cfg, attempts, errors);
            }
        }
    }
    m.metrics.absorb_parallel(&part_metrics);
    candidates.sort_unstable();
    candidates.dedup();

    // Final supervised run over the candidate set, then the whole-input
    // certificate: supporting planes and coverage against *all* points.
    let cand_pts: Vec<Point3> = candidates.iter().map(|&i| points[i]).collect();
    let mut mm = m.child(MERGE3_TAG);
    let merged =
        upper_hull3_unsorted_supervised(&mut mm, &cand_pts, &Unsorted3Params::default(), cfg);
    m.metrics.absorb(&mm.metrics);
    let merged = merged.and_then(|sup| {
        let facets: Vec<Facet> = sup
            .value
            .0
            .facets
            .iter()
            .map(|f| Facet {
                a: candidates[f.a],
                b: candidates[f.b],
                c: candidates[f.c],
            })
            .collect();
        verify_upper_hull3(points, &facets, n < 3).map_err(|detail| RunError::Verify {
            algorithm: SHARDED3_ALG,
            detail,
        })?;
        Ok((facets, sup.outcome, sup.attempts, sup.errors))
    });
    match merged {
        Ok((facets, outcome, merge_attempts, merge_errors)) => {
            errors.extend(merge_errors);
            Ok(Supervised {
                value: facets,
                outcome: worse(worst, outcome),
                attempts: attempts + merge_attempts,
                errors,
            })
        }
        Err(e) if e.is_terminal() => Err(e),
        Err(e) => {
            m.metrics.service.shard_merge_failures += 1;
            errors.push(e);
            demote(m, points, cfg, attempts, errors)
        }
    }
}

/// The worse of two constituent outcomes (`FellBack` dominates; retry
/// counts add).
fn worse(a: Outcome, b: Outcome) -> Outcome {
    match (a, b) {
        (Outcome::FellBack, _) | (_, Outcome::FellBack) => Outcome::FellBack,
        (Outcome::Retried(x), Outcome::Retried(y)) => Outcome::Retried(x + y),
        (Outcome::Retried(x), _) | (_, Outcome::Retried(x)) => Outcome::Retried(x),
        _ => Outcome::FirstTry,
    }
}

/// Unsharded demotion: one supervised run over the whole input, reported
/// as `FellBack`.
fn demote(
    m: &mut Machine,
    points: &[Point3],
    cfg: &SuperviseConfig,
    attempts: u32,
    mut errors: Vec<RunError>,
) -> Result<Supervised<Vec<Facet>>, RunError> {
    let mut fm = m.child(FALLBACK3_TAG);
    let r = upper_hull3_unsorted_supervised(&mut fm, points, &Unsorted3Params::default(), cfg);
    m.metrics.absorb(&fm.metrics);
    let sup = r?;
    errors.extend(sup.errors);
    Ok(Supervised {
        value: sup.value.0.facets,
        outcome: Outcome::FellBack,
        attempts: attempts + sup.attempts,
        errors,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipch_geom::gen3d::sphere_plus_interior;
    use std::collections::HashSet;

    #[test]
    fn sharded3_matches_unsharded_facets() {
        for (seed, s) in [(2u64, 2usize), (3, 4)] {
            let pts = sphere_plus_interior(12, 300, seed);
            let mut m = Machine::new(seed);
            let sup = upper_hull3_sharded_supervised(&mut m, &pts, s, &SuperviseConfig::default())
                .expect("sharded 3d");
            verify_upper_hull3(&pts, &sup.value, false).unwrap();
            assert_eq!(m.metrics.service.shard_splits, 1);

            let mut m2 = Machine::new(seed);
            let solo = upper_hull3_unsorted_supervised(
                &mut m2,
                &pts,
                &Unsorted3Params::default(),
                &SuperviseConfig::default(),
            )
            .expect("unsharded 3d");
            let a: HashSet<Facet> = sup.value.iter().map(|f| f.canonical()).collect();
            let b: HashSet<Facet> = solo.value.0.facets.iter().map(|f| f.canonical()).collect();
            assert_eq!(a, b, "seed {seed} shards {s}");
        }
    }

    #[test]
    fn invalid_input_rejects_before_any_step() {
        let mut pts = sphere_plus_interior(12, 64, 9);
        pts[7].x = f64::NAN;
        let mut m = Machine::new(9);
        let e = upper_hull3_sharded_supervised(&mut m, &pts, 4, &SuperviseConfig::default())
            .unwrap_err();
        assert!(matches!(e, RunError::InvalidInput { .. }));
        assert_eq!(m.metrics.steps, 0);
    }
}
