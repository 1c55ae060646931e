//! Shard-split upper hull: partition a large instance across shard
//! workers, certify each partial hull, merge by the paper's
//! hull-of-hulls path, certify the whole.
//!
//! A request above the serving runtime's split threshold is too big to sit
//! on one queue lane: this entry point charges the Cole sort (same
//! convention as `SortMode::ChargedCole`), cuts the sorted order into at
//! most `shards` contiguous x-ranges — never splitting an equal-x column,
//! so the groups stay x-disjoint as Lemma 2.6 requires — and runs the
//! fully supervised unsorted algorithm on each part on its own child
//! machine with the data-parallel kernel backend. The certified partial
//! hulls are merged with [`hull_of_hulls`] (a tree of bridges over the
//! part boundaries) and the stitched chain must pass the whole-input
//! [`verify_upper_hull`] certificate before it is returned.
//!
//! Failure containment mirrors the supervised wrappers: terminal errors
//! (cancellation, deadline, invalid input) propagate immediately; any
//! other part failure, a missing bridge, or a failed whole-hull
//! certificate demotes the request to one unsharded supervised run
//! (counted in `ServiceStats::shard_merge_failures` when the merge itself
//! was at fault) — the caller always receives a certified hull or a typed
//! error, exactly as if sharding had never happened. And because a
//! certified upper hull is unique, a sharded success is bit-identical to
//! the unsharded result.

use ipch_geom::hull_chain::verify_upper_hull;
use ipch_geom::point::argsort_xy;
use ipch_geom::validate::validate_points2;
use ipch_geom::{Point2, UpperHull};
use ipch_pram::{Machine, Metrics, Outcome, RunError, Shm, SuperviseConfig, Supervised};

use super::invariant::{hull_of_hulls, HbConfig};
use super::supervised::upper_hull_unsorted_supervised;
use super::unsorted::UnsortedParams;

/// Algorithm name used in typed errors from the sharded path itself
/// (part-level errors keep their own algorithm names).
pub const SHARDED_ALG: &str = "hull2d/sharded";

/// Child-machine tag base for shard workers (one tag per shard index).
const SHARD_TAG: u64 = 0x5AA2_D001;
/// Child-machine tag for the unsharded demotion run.
const FALLBACK_TAG: u64 = 0x5AA2_DFFF;

/// Supervised shard-split upper hull over `shards` workers.
///
/// Vertex ids refer to the original `points` array. The returned
/// [`Supervised`] aggregates the parts: `attempts` sums part attempts,
/// `outcome` is the worst part outcome (`FellBack` when any part or the
/// merge demoted), `errors` concatenates part errors in shard order.
pub fn upper_hull_sharded_supervised(
    m: &mut Machine,
    points: &[Point2],
    shards: usize,
    cfg: &SuperviseConfig,
) -> Result<Supervised<UpperHull>, RunError> {
    validate_points2(points).map_err(|e| RunError::invalid_input(SHARDED_ALG, e))?;
    let n = points.len();
    let s = shards.max(2).min(n.max(1));
    m.metrics.service.shard_splits += 1;

    // Charged Cole sort of the whole input (SortMode::ChargedCole
    // convention): O(log n) steps, O(n log n) work, then the host permutes.
    let logn = (usize::BITS - n.saturating_sub(1).leading_zeros()).max(1) as u64;
    m.charge(logn, n as u64 * logn);
    let order = argsort_xy(points);

    // Cut the sorted order into ≤ s contiguous parts, advancing each cut
    // past its equal-x run so no column is split across two groups (the
    // groups must be x-disjoint for the bridge tree).
    let target = n.div_ceil(s);
    let mut cuts: Vec<usize> = vec![0];
    let mut at = 0usize;
    while at < n {
        let mut end = (at + target).min(n);
        while end < n && points[order[end]].x == points[order[end - 1]].x {
            end += 1;
        }
        cuts.push(end);
        at = end;
    }

    // Each part runs the fully supervised unsorted algorithm on its own
    // child machine, explicitly on the data-parallel kernel backend (the
    // shard workers are where the fused-lane backend earns its keep).
    // Children inherit the fault plan and cancellation token, so chaos
    // and deadlines reach every shard.
    let mut groups: Vec<UpperHull> = Vec::with_capacity(cuts.len() - 1);
    let mut part_metrics: Vec<Metrics> = Vec::with_capacity(cuts.len() - 1);
    let mut attempts = 0u32;
    let mut errors: Vec<RunError> = Vec::new();
    let mut worst = Outcome::FirstTry;
    for (k, w) in cuts.windows(2).enumerate() {
        let ids = &order[w[0]..w[1]];
        let part: Vec<Point2> = ids.iter().map(|&i| points[i]).collect();
        let mut cm = m.child(SHARD_TAG ^ k as u64);
        match upper_hull_unsorted_supervised(&mut cm, &part, &UnsortedParams::default(), cfg) {
            Ok(sup) => {
                attempts += sup.attempts;
                errors.extend(sup.errors);
                worst = worse(worst, sup.outcome);
                let global: Vec<usize> =
                    sup.value.0.hull.vertices.iter().map(|&v| ids[v]).collect();
                groups.push(UpperHull::new(global));
                part_metrics.push(cm.metrics);
            }
            Err(e) if e.is_terminal() => {
                m.metrics.absorb_parallel(&part_metrics);
                m.metrics.absorb(&cm.metrics);
                return Err(e);
            }
            Err(e) => {
                // a dead shard (attempts + fallback all failed): demote the
                // whole request to one unsharded supervised run
                m.metrics.absorb_parallel(&part_metrics);
                m.metrics.absorb(&cm.metrics);
                errors.push(e);
                return demote(m, points, cfg, attempts, errors);
            }
        }
    }
    // Simulated time is the max over the concurrent shard workers; work and
    // host counters sum (the absorb_parallel contract).
    m.metrics.absorb_parallel(&part_metrics);

    // Merge the certified partials (Lemma 2.6) and certify the whole.
    let mut shm = Shm::new();
    let merged =
        hull_of_hulls(m, &mut shm, points, &groups, &HbConfig::default()).and_then(|(hull, _)| {
            verify_upper_hull(points, &hull).map_err(|detail| RunError::Verify {
                algorithm: SHARDED_ALG,
                detail,
            })?;
            Ok(hull)
        });
    match merged {
        Ok(hull) => Ok(Supervised {
            value: hull,
            outcome: worst,
            attempts,
            errors,
        }),
        Err(e) if e.is_terminal() => Err(e),
        Err(e) => {
            m.metrics.service.shard_merge_failures += 1;
            errors.push(e);
            demote(m, points, cfg, attempts, errors)
        }
    }
}

/// The worse of two part outcomes (`FellBack` dominates; retry counts
/// add, so the aggregate reports total retries across shards).
fn worse(a: Outcome, b: Outcome) -> Outcome {
    match (a, b) {
        (Outcome::FellBack, _) | (_, Outcome::FellBack) => Outcome::FellBack,
        (Outcome::Retried(x), Outcome::Retried(y)) => Outcome::Retried(x + y),
        (Outcome::Retried(x), _) | (_, Outcome::Retried(x)) => Outcome::Retried(x),
        _ => Outcome::FirstTry,
    }
}

/// Unsharded demotion: one supervised run over the whole input on a child
/// machine. The result is reported as `FellBack` — the sharded plan did
/// not survive, even if the demotion run itself succeeded first try.
fn demote(
    m: &mut Machine,
    points: &[Point2],
    cfg: &SuperviseConfig,
    attempts: u32,
    mut errors: Vec<RunError>,
) -> Result<Supervised<UpperHull>, RunError> {
    let mut fm = m.child(FALLBACK_TAG);
    let r = upper_hull_unsorted_supervised(&mut fm, points, &UnsortedParams::default(), cfg);
    m.metrics.absorb(&fm.metrics);
    let sup = r?;
    errors.extend(sup.errors);
    Ok(Supervised {
        value: sup.value.0.hull,
        outcome: Outcome::FellBack,
        attempts: attempts + sup.attempts,
        errors,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipch_geom::generators::{grid, uniform_disk, uniform_square};

    #[test]
    fn sharded_matches_oracle_and_unsharded() {
        for (seed, n, s) in [(1u64, 600usize, 2usize), (2, 900, 4), (3, 512, 8)] {
            let pts = uniform_disk(n, seed);
            let mut m = Machine::new(seed);
            let sup = upper_hull_sharded_supervised(&mut m, &pts, s, &SuperviseConfig::default())
                .expect("sharded run");
            assert_eq!(sup.value, UpperHull::of(&pts), "seed {seed} s {s}");
            assert_eq!(sup.outcome, Outcome::FirstTry);
            assert_eq!(m.metrics.service.shard_splits, 1);
            assert_eq!(m.metrics.service.shard_merge_failures, 0);
        }
    }

    #[test]
    fn equal_x_columns_never_split() {
        // a grid has long equal-x runs; cuts must slide past them
        let pts = grid(400); // 20 columns of 20
        let mut m = Machine::new(5);
        let sup = upper_hull_sharded_supervised(&mut m, &pts, 7, &SuperviseConfig::default())
            .expect("grid sharded");
        assert_eq!(sup.value, UpperHull::of(&pts));
    }

    #[test]
    fn invalid_input_rejects_before_any_step() {
        let mut pts = uniform_square(100, 6);
        pts[3].x = f64::INFINITY;
        let mut m = Machine::new(6);
        let e = upper_hull_sharded_supervised(&mut m, &pts, 4, &SuperviseConfig::default())
            .unwrap_err();
        assert!(matches!(e, RunError::InvalidInput { .. }));
        assert_eq!(m.metrics.steps, 0);
    }

    #[test]
    fn more_shards_than_points_is_fine() {
        let pts = uniform_disk(5, 7);
        let mut m = Machine::new(7);
        let sup = upper_hull_sharded_supervised(&mut m, &pts, 64, &SuperviseConfig::default())
            .expect("tiny sharded");
        assert_eq!(sup.value, UpperHull::of(&pts));
    }
}
