//! Fused batched upper hulls: many small instances, one machine run.
//!
//! The serving runtime coalesces small same-algorithm requests into one
//! batch (see `ipch-service`). Running each member through the full
//! supervised pipeline costs a per-member *step overhead* that dwarfs the
//! actual geometry at small `n` — the simulator pays a fixed synchronous
//! per-step cost, and the unsorted algorithm takes O(log log n)-ish rounds
//! *per member*. This module instead elects every member's hull in a
//! **constant number of fused steps** over the union of the members' pair
//! spaces, so the per-step cost is amortized across the whole batch.
//!
//! The election is the gift-wrapping observation specialized to upper
//! hulls: from an upper-hull vertex `u`, the next hull vertex is the point
//! of **maximum slope** among points strictly right of `u` (slope ties →
//! farthest x, which skips interior collinear points). Three combining
//! scatter rounds over the Σ nᵍ² pair space compute, for *every* point at
//! once: (1) its best successor slope key, (2) the farthest x among
//! slope-tied candidates, (3) the unique successor id — plus, in a tail
//! pid range, each member's start vertex (topmost point of the leftmost
//! column). Host code then walks each member's successor chain, charging
//! the pointer-jumping bound a PRAM would pay to extract the chains.
//!
//! Slopes are compared as f64 — rounding could in principle elect a wrong
//! successor. That is why every member's chain is certified by
//! [`verify_upper_hull`] before it is returned: a certified upper hull is
//! *unique* (strict x-increase, strict turns, full coverage), so a batched
//! result that passes is bit-identical to what any unbatched certified run
//! returns. A member whose chain fails certification gets a typed error
//! and the caller demotes it to a solo supervised run; its siblings are
//! unaffected.

use ipch_geom::batch::ConcatPoints2;
use ipch_geom::hull_chain::verify_upper_hull;
use ipch_geom::soa::f64_key;
use ipch_geom::validate::validate_points2;
use ipch_geom::UpperHull;
use ipch_pram::{
    Machine, ModelClass, ModelContract, RaceExpectation, RunError, Shm, WritePolicy, EMPTY,
};

/// Algorithm name used in typed errors from the fused batch path.
pub const BATCH_ALG: &str = "hull2d/batch";

/// Concurrency contract: combining-CRCW. Rounds 1–2 use `CombineMax`
/// (deterministic under any writer interleaving); round 3's writers are
/// unique per cell (successor and start elections have exactly one
/// matching candidate once ties are broken by farthest-x / topmost-y over
/// distinct points).
pub const BATCH_CONTRACT: ModelContract = ModelContract {
    algorithm: BATCH_ALG,
    class: ModelClass::Crcw,
    races: RaceExpectation::Deterministic,
};

/// One member's geometry for the fused election.
struct ActiveMember {
    /// Index into the caller's batch (and the result vector).
    g: usize,
    /// Start of the member's points in the concatenation.
    off: usize,
    /// Member size (≥ 2; smaller members are resolved host-side).
    n: usize,
}

/// Upper hulls of every batch member in O(1) fused steps plus a charged
/// chain extraction, Σ nᵍ² work.
///
/// Returns one result per member, in member order. Vertex ids are
/// **member-local** (indices into `batch.member(g)`), matching what an
/// unbatched run on that member's points alone would produce. Each `Ok`
/// hull has passed [`verify_upper_hull`] against its member's points;
/// errors are typed ([`RunError::InvalidInput`] for malformed members,
/// [`RunError::Verify`] when the elected chain fails its certificate) and
/// never poison sibling members.
pub fn upper_hulls_batch(
    m: &mut Machine,
    shm: &mut Shm,
    batch: &ConcatPoints2,
) -> Vec<Result<UpperHull, RunError>> {
    m.declare_contract(&BATCH_CONTRACT);
    let b = batch.member_count();
    let mut results: Vec<Option<Result<UpperHull, RunError>>> = (0..b).map(|_| None).collect();

    // Partition members: invalid inputs get typed errors now (mirroring the
    // validate-before-machine contract of the unbatched entries), trivial
    // members resolve immediately, the rest join the fused election.
    let mut active: Vec<ActiveMember> = Vec::new();
    for (g, result) in results.iter_mut().enumerate() {
        let pts = batch.member(g);
        if let Err(e) = validate_points2(pts) {
            *result = Some(Err(RunError::invalid_input(BATCH_ALG, e)));
            continue;
        }
        match pts.len() {
            0 => *result = Some(Ok(UpperHull::new(vec![]))),
            1 => *result = Some(Ok(UpperHull::new(vec![0]))),
            n => active.push(ActiveMember {
                g,
                off: batch.member_range(g).start,
                n,
            }),
        }
    }
    if active.is_empty() {
        return results.into_iter().map(|r| r.unwrap()).collect();
    }

    // Pair space: member k owns pids pair_base[k]..pair_base[k+1], a dense
    // n_k × n_k block decoded by div/mod (same shape as the brute oracle's
    // pair space, concatenated across members). A tail range of Σ n_k point
    // pids runs the per-member start election in the same steps.
    let a = active.len();
    let mut pair_base = Vec::with_capacity(a + 1);
    let mut pt_base = Vec::with_capacity(a + 1);
    pair_base.push(0usize);
    pt_base.push(0usize);
    for am in &active {
        pair_base.push(pair_base.last().unwrap() + am.n * am.n);
        pt_base.push(pt_base.last().unwrap() + am.n);
    }
    let npairs = *pair_base.last().unwrap();
    let npts = *pt_base.last().unwrap();
    let soa = batch.soa();
    let (xs, ys) = (soa.xs(), soa.ys());

    // pid → (member slot, local residue). Pair pids binary-search
    // `pair_base`; tail pids search `pt_base`.
    let locate = |base: &[usize], v: usize| -> (usize, usize) {
        let k = match base.binary_search(&v) {
            Ok(mut k) => {
                while base[k + 1] == v {
                    k += 1;
                }
                k
            }
            Err(k) => k - 1,
        };
        (k, v - base[k])
    };

    let hulls: Vec<Vec<usize>> = shm.scope(|shm| {
        let best_slope = shm.alloc("batch.slope", npts, i64::MIN);
        let best_x = shm.alloc("batch.x", npts, i64::MIN);
        let succ = shm.alloc("batch.succ", npts, EMPTY);
        let negminx = shm.alloc("batch.negminx", a, i64::MIN);
        let topy = shm.alloc("batch.topy", a, i64::MIN);
        let start = shm.alloc("batch.start", a, EMPTY);

        // Round 1: every ordered pair (i, j) with x_j > x_i bids its slope
        // key for i's successor slot; tail pids elect each member's
        // minimum x (negated key under CombineMax).
        m.kernel_scatter_with_policy(shm, 0..npairs + npts, WritePolicy::CombineMax, |_, pid| {
            if pid < npairs {
                let (k, p) = locate(&pair_base, pid);
                let am = &active[k];
                let (i, j) = (am.off + p / am.n, am.off + p % am.n);
                if xs[j] <= xs[i] {
                    return None;
                }
                let slope = (ys[j] - ys[i]) / (xs[j] - xs[i]);
                Some((best_slope, pt_base[k] + p / am.n, f64_key(slope)))
            } else {
                let (k, i) = locate(&pt_base, pid - npairs);
                Some((negminx, k, -f64_key(xs[active[k].off + i])))
            }
        });
        let negminx_h: Vec<i64> = (0..a).map(|k| shm.get(negminx, k)).collect();
        let slope_h: Vec<i64> = (0..npts).map(|i| shm.get(best_slope, i)).collect();

        // Round 2: among slope-tied candidates, elect the farthest x (this
        // skips interior collinear points, keeping the chain strict); tail
        // pids elect the topmost y within each member's leftmost column.
        m.kernel_scatter_with_policy(shm, 0..npairs + npts, WritePolicy::CombineMax, |_, pid| {
            if pid < npairs {
                let (k, p) = locate(&pair_base, pid);
                let am = &active[k];
                let (i, j) = (am.off + p / am.n, am.off + p % am.n);
                if xs[j] <= xs[i] {
                    return None;
                }
                let slope = (ys[j] - ys[i]) / (xs[j] - xs[i]);
                if f64_key(slope) != slope_h[pt_base[k] + p / am.n] {
                    return None;
                }
                Some((best_x, pt_base[k] + p / am.n, f64_key(xs[j])))
            } else {
                let (k, i) = locate(&pt_base, pid - npairs);
                let gi = active[k].off + i;
                (-f64_key(xs[gi]) == negminx_h[k]).then(|| (topy, k, f64_key(ys[gi])))
            }
        });
        let bestx_h: Vec<i64> = (0..npts).map(|i| shm.get(best_x, i)).collect();
        let topy_h: Vec<i64> = (0..a).map(|k| shm.get(topy, k)).collect();

        // Round 3: the unique candidate matching both the slope and the
        // farthest-x keys writes its id as i's successor (distinct points
        // ⇒ equal slope + equal x has exactly one solution); the unique
        // (min-x, top-y) point writes itself as the member's start.
        m.kernel_scatter_with_policy(shm, 0..npairs + npts, WritePolicy::PriorityMin, |_, pid| {
            if pid < npairs {
                let (k, p) = locate(&pair_base, pid);
                let am = &active[k];
                let (li, lj) = (p / am.n, p % am.n);
                let (i, j) = (am.off + li, am.off + lj);
                if xs[j] <= xs[i] {
                    return None;
                }
                let slot = pt_base[k] + li;
                let slope = (ys[j] - ys[i]) / (xs[j] - xs[i]);
                (f64_key(slope) == slope_h[slot] && f64_key(xs[j]) == bestx_h[slot])
                    .then_some((succ, slot, lj as i64))
            } else {
                let (k, i) = locate(&pt_base, pid - npairs);
                let gi = active[k].off + i;
                (-f64_key(xs[gi]) == negminx_h[k] && f64_key(ys[gi]) == topy_h[k])
                    .then_some((start, k, i as i64))
            }
        });

        // Chain extraction: walk each member's successor list from its
        // start. Successor x strictly increases, so each walk takes at
        // most n_k hops; a PRAM extracts all chains by pointer jumping in
        // O(log max_n) steps and O(Σ n_k · log max_n) work, which we
        // charge analytically (same convention as the charged Cole sort).
        let max_n = active.iter().map(|am| am.n).max().unwrap();
        let logn = (usize::BITS - (max_n - 1).leading_zeros()).max(1) as u64;
        m.charge(logn, npts as u64 * logn);

        (0..a)
            .map(|k| {
                let n = active[k].n;
                let mut cur = shm.get(start, k);
                let mut chain = Vec::new();
                while cur != EMPTY && chain.len() <= n {
                    chain.push(cur as usize);
                    cur = shm.get(succ, pt_base[k] + cur as usize);
                }
                chain
            })
            .collect()
    });

    // Certify every elected chain against its member's own points. A pass
    // pins the unique canonical hull; a failure demotes just this member.
    for (k, chain) in hulls.into_iter().enumerate() {
        let am = &active[k];
        let pts = batch.member(am.g);
        let hull = UpperHull::new(chain);
        results[am.g] = Some(match verify_upper_hull(pts, &hull) {
            Ok(()) => Ok(hull),
            Err(e) => Err(RunError::Verify {
                algorithm: BATCH_ALG,
                detail: format!("member {}: {e}", am.g),
            }),
        });
    }
    results.into_iter().map(|r| r.unwrap()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipch_geom::generators::{collinear_on_line, grid, uniform_disk, uniform_square};
    use ipch_geom::Point2;

    #[test]
    fn batch_matches_oracle_per_member() {
        let members: Vec<Vec<Point2>> = vec![
            uniform_disk(24, 1),
            uniform_square(48, 2),
            grid(25),
            collinear_on_line(12, 0.5, 1.0, 3),
            uniform_disk(96, 4),
        ];
        let slices: Vec<&[Point2]> = members.iter().map(|v| v.as_slice()).collect();
        let cat = ConcatPoints2::from_members(&slices);
        let mut m = Machine::new(7);
        let mut shm = Shm::new();
        let out = upper_hulls_batch(&mut m, &mut shm, &cat);
        for (g, r) in out.iter().enumerate() {
            let h = r.as_ref().unwrap();
            assert_eq!(*h, UpperHull::of(&members[g]), "member {g}");
        }
        assert_eq!(m.metrics.steps, 3, "constant fused step count");
    }

    #[test]
    fn constant_steps_regardless_of_batch_size() {
        for b in [1usize, 4, 16] {
            let members: Vec<Vec<Point2>> =
                (0..b).map(|i| uniform_disk(32, 10 + i as u64)).collect();
            let slices: Vec<&[Point2]> = members.iter().map(|v| v.as_slice()).collect();
            let cat = ConcatPoints2::from_members(&slices);
            let mut m = Machine::new(b as u64);
            let mut shm = Shm::new();
            let out = upper_hulls_batch(&mut m, &mut shm, &cat);
            assert!(out.iter().all(|r| r.is_ok()));
            assert_eq!(m.metrics.steps, 3, "batch of {b}");
        }
    }

    #[test]
    fn invalid_member_is_isolated() {
        let good = uniform_disk(20, 5);
        let bad = vec![Point2::new(f64::NAN, 0.0), Point2::new(1.0, 1.0)];
        let tiny = vec![Point2::new(3.0, 3.0)];
        let cat = ConcatPoints2::from_members(&[&good, &bad, &tiny]);
        let mut m = Machine::new(9);
        let mut shm = Shm::new();
        let out = upper_hulls_batch(&mut m, &mut shm, &cat);
        assert_eq!(*out[0].as_ref().unwrap(), UpperHull::of(&good));
        assert!(matches!(out[1], Err(RunError::InvalidInput { .. })));
        assert_eq!(out[2].as_ref().unwrap().vertices, vec![0]);
    }

    #[test]
    fn degenerate_members() {
        // all points in one vertical column: hull is the topmost point
        let col: Vec<Point2> = (0..6).map(|i| Point2::new(2.0, i as f64)).collect();
        let empty: Vec<Point2> = vec![];
        let pair = vec![Point2::new(0.0, 0.0), Point2::new(1.0, 1.0)];
        let cat = ConcatPoints2::from_members(&[&col, &empty, &pair]);
        let mut m = Machine::new(11);
        let mut shm = Shm::new();
        let out = upper_hulls_batch(&mut m, &mut shm, &cat);
        assert_eq!(out[0].as_ref().unwrap().vertices, vec![5]);
        assert!(out[1].as_ref().unwrap().vertices.is_empty());
        assert_eq!(out[2].as_ref().unwrap().vertices, vec![0, 1]);
    }

    #[test]
    fn batched_equals_solo_batches_bitwise() {
        // a batch of one must equal the member run alone (and both equal
        // the oracle): the fused election never depends on siblings
        let members: Vec<Vec<Point2>> = (0..6).map(|i| uniform_disk(40, 40 + i)).collect();
        let slices: Vec<&[Point2]> = members.iter().map(|v| v.as_slice()).collect();
        let cat = ConcatPoints2::from_members(&slices);
        let mut m = Machine::new(1);
        let mut shm = Shm::new();
        let fused = upper_hulls_batch(&mut m, &mut shm, &cat);
        for (g, pts) in members.iter().enumerate() {
            let solo_cat = ConcatPoints2::from_members(&[pts.as_slice()]);
            let mut m2 = Machine::new(2);
            let mut shm2 = Shm::new();
            let solo = upper_hulls_batch(&mut m2, &mut shm2, &solo_cat);
            assert_eq!(
                fused[g].as_ref().unwrap(),
                solo[0].as_ref().unwrap(),
                "member {g}"
            );
        }
    }
}
