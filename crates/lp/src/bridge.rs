//! Bridge finding (paper Observation 2.4 and the base-problem oracle).
//!
//! *The bridge is the upper hull edge that intersects the vertical line
//! through one specified point* (the splitter). Kirkpatrick–Seidel observed
//! that finding it reduces to 2-variable LP: over lines `y = a·x + b`,
//! minimize the height `a·x₀ + b` at the splitter abscissa subject to every
//! point lying on or below the line (`a·xᵢ + b ≥ yᵢ`). The optimal line
//! supports the hull edge straddling x₀.
//!
//! [`bridge_lp_constraints`]/[`bridge_lp_objective`] build that reduction
//! (used by the LP experiments, T6). The hull algorithms themselves use
//! [`bridge_brute`]: the fully *exact* all-pairs formulation — a pair
//! (i, j) straddling x₀ is the bridge iff every other point is on or below
//! the line through it, which is a pure orientation test. It has
//! [`facet_brute`]'s filter-then-test shape: the bridge is the highest
//! straddling pair at x₀, so two n² steps keep only the pairs whose
//! floating-point height at x₀ can be the highest (a Combining-Max lower
//! bound, then a mark), one step tests only those against all n points,
//! one elects a pair, and two canonicalize collinear contacts. Within
//! Observation 2.3's n³ brute force specialized to one probe, the
//! deterministic base-problem solver of §3.3 step 2, at 2n² + O(n) work on
//! a base in general position.
//!
//! [`facet_brute`] is the 3-D analogue (Observation 2.2 with d = 3): the
//! upper-hull facet pierced by the vertical line through a splitter. One
//! n² step ranks the points by height and writes each pair's side of the
//! splitter into a triangular table; one C(n,3) step decides from three
//! table cells whether a triple's projected triangle contains the splitter
//! (no orientation test) and, if so, tests it against the 4 highest
//! points; one tests only the triples left standing against all n points,
//! and one elects a triple: O(1) steps within Observation 2.2's n⁴ work,
//! with C(n,3) processors in the widest step.

use ipch_geom::predicates::{orient2d_sign, orient3d_sign};
use ipch_geom::{Point2, Point3};
use ipch_pram::{
    Machine, ModelClass, ModelContract, Pids, RaceExpectation, Shm, WritePolicy, EMPTY,
};

use crate::constraint::{f64_key, Halfplane, Objective2};

/// Concurrency contract of [`bridge_brute`]: the height bound combines,
/// the survivor and knock-out marks agree, and every election (winner
/// pair, canonical contacts) runs under Priority or Combine —
/// deterministic, never seed-dependent.
pub const BRIDGE_BRUTE_CONTRACT: ModelContract = ModelContract {
    algorithm: "lp/bridge_brute",
    class: ModelClass::Crcw,
    races: RaceExpectation::Deterministic,
};

/// Concurrency contract of [`facet_brute`]: as [`BRIDGE_BRUTE_CONTRACT`],
/// with the triple election under Priority.
pub const FACET_BRUTE_CONTRACT: ModelContract = ModelContract {
    algorithm: "lp/facet_brute",
    class: ModelClass::Crcw,
    races: RaceExpectation::Deterministic,
};

/// A bridge: the two endpoint *ids* (into the caller's point array) of the
/// upper-hull edge straddling the splitter, `points[left].x ≤ x₀ <
/// points[right].x`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Bridge {
    /// Left endpoint id.
    pub left: usize,
    /// Right endpoint id.
    pub right: usize,
}

/// The LP constraints of the Kirkpatrick–Seidel reduction for the points
/// `ids` (variables are the line's (slope a, intercept b)).
pub fn bridge_lp_constraints(points: &[Point2], ids: &[usize]) -> Vec<Halfplane> {
    ids.iter()
        .map(|&i| Halfplane {
            a: points[i].x,
            b: 1.0,
            c: points[i].y,
        })
        .collect()
}

/// The LP objective of the reduction: minimize the line height at `x0`.
pub fn bridge_lp_objective(x0: f64) -> Objective2 {
    Objective2 { cx: x0, cy: 1.0 }
}

/// Relative slack of [`bridge_brute`]'s height filter, a multiple of
/// |a.y| + |b.y| for pair (a, b). The computed height at x₀ is within
/// 6u·(|a.y| + |b.y|) = 3ε·(|a.y| + |b.y|) of the exact one (u = ε/2 the
/// unit roundoff), so 16ε leaves a margin of more than 5× for the
/// roundings of the slack and of the bounds themselves.
const HEIGHT_SLACK: f64 = 16.0 * f64::EPSILON;

/// Exact brute-force bridge over the subset `ids` of `points`, straddling
/// the vertical line `x = x0`. Returns `None` when no pair straddles
/// (x0 outside the subset's open x-range), when an id is out of range, or
/// when a step did not commit as the model says (a fault plan: a lost
/// survivor flag or supporting pair, an empty or out-of-range election).
///
/// A straddling pair (a, b), a.x ≤ x0 < b.x, spans a segment inside the
/// subset's hull, so its height h at x0 is at most the hull's height H
/// there, with equality exactly when the pair supports the hull: the
/// bridge is among the highest straddling pairs at x0. The filter
/// computes h̃ = a.y + (b.y − a.y)·((x0 − a.x)/(b.x − a.x)) in f64, with
/// |h̃ − h| ≤ 3ε·(|a.y| + |b.y|) in the exact range (plus a few subnormal
/// units on underflow), and brackets it by the slack
/// δ = 16ε·(|a.y| + |b.y|) + `f64::MIN_POSITIVE`. Every rounded h̃ − δ is
/// then ≤ H, so their maximum L is too, and every supporting pair's
/// rounded h̃ + δ is ≥ H ≥ L. So the filter keeps every supporting pair,
/// and the exact orientation test that follows decides alone.
///
/// Cost: 6 executed steps; at most 2b² + nl·(b + 1) + 2b work for
/// b = |ids| and nl straddling pairs whose height bracket reaches L: one
/// on a base in general position, every pair from a hull vertex whose
/// abscissa is x0, and all |lo|·|hi| on a base on one line (b³/4 + O(b²)
/// at worst, the paper's O(b³)).
pub fn bridge_brute(
    m: &mut Machine,
    shm: &mut Shm,
    points: &[Point2],
    ids: &[usize],
    x0: f64,
) -> Option<Bridge> {
    m.declare_contract(&BRIDGE_BRUTE_CONTRACT);
    let n = ids.len();
    if n < 2 {
        return None;
    }
    // Host gather, once per call: the subset's points and each point's
    // side of x0 (`lo`: x ≤ x0, `hi`: x0 < x). As with the Cramer systems
    // in `brute.rs`, this is addressing, not work: every processor of the
    // steps below still runs and makes the same writes, it just reads its
    // operands without the id indirection. An out-of-range id (a corrupted
    // id list) is no bridge, never a panic.
    let pts: Vec<Point2> = ids
        .iter()
        .map(|&i| points.get(i).copied())
        .collect::<Option<_>>()?;
    let is_hi: Vec<bool> = pts.iter().map(|p| x0 < p.x).collect();
    // Pair (i, j) is processor i·n + j of the n² grid; only straddling
    // pairs act.
    let straddles = |i: usize, j: usize| !is_hi[i] && is_hi[j];
    // The pair's computed height at x0 and its slack (see the doc comment).
    let height = |i: usize, j: usize| {
        let (a, b) = (pts[i], pts[j]);
        let h = a.y + (b.y - a.y) * ((x0 - a.x) / (b.x - a.x));
        (
            h,
            HEIGHT_SLACK * (a.y.abs() + b.y.abs()) + f64::MIN_POSITIVE,
        )
    };

    // Steps 1–2 share a scope: the lower bound and the packed survivor
    // flags are freed once the host has read back the ascending list of
    // pairs left standing.
    let live: Vec<usize> = shm.scope(|shm| {
        // Step 1: every straddling pair writes the key of its height's
        // lower bound h̃ − δ; Combining-Max keeps L.
        let floor = shm.alloc("bridge.floor", 1, i64::MIN);
        m.step_with_policy(shm, Pids::Grid([1, n, n]), WritePolicy::CombineMax, |ctx| {
            let [_, i, j] = ctx.coord();
            if straddles(i, j) {
                let (h, slack) = height(i, j);
                ctx.write(floor, 0, f64_key(h - slack));
            }
        });
        if !is_hi.contains(&true) || !is_hi.contains(&false) {
            return None;
        }
        // Step 2: a straddling pair whose upper bound h̃ + δ reaches L sets
        // its bit in the packed survivor flags. A lost write to L lowers
        // it, so it only keeps more pairs.
        let alive = shm.alloc("bridge.alive", (n * n).div_ceil(64), 0);
        m.step_with_policy(shm, Pids::Grid([1, n, n]), WritePolicy::CombineOr, |ctx| {
            let [_, i, j] = ctx.coord();
            if straddles(i, j) {
                let (h, slack) = height(i, j);
                if f64_key(h + slack) >= ctx.read(floor, 0) {
                    let t = i * n + j;
                    ctx.write(alive, t / 64, (1u64 << (t % 64)) as i64);
                }
            }
        });
        // Read back the set bits in ascending order (a bit past the last
        // pair, or on a pair that does not straddle, from a corrupted
        // word, is no pair).
        let mut live = Vec::new();
        for (w, &word) in shm.slice(alive).iter().enumerate() {
            let mut bits = word as u64;
            while bits != 0 {
                let t = 64 * w + bits.trailing_zeros() as usize;
                if t < n * n && straddles(t / n, t % n) {
                    live.push(t);
                }
                bits &= bits - 1;
            }
        }
        Some(live)
    })?;
    if live.is_empty() {
        return None;
    }
    let nl = live.len();
    let ends: Vec<(Point2, Point2)> = live.iter().map(|&t| (pts[t / n], pts[t % n])).collect();

    // Step 3: knock out the surviving pairs that do not support: pair
    // (a, b) is bad when some point lies above it. x_a ≤ x0 < x_b, so
    // left-to-right orientation is valid.
    let bad = shm.alloc("bridge.bad", nl, 0);
    m.step_with_policy(shm, Pids::Grid([1, nl, n]), WritePolicy::CombineOr, |ctx| {
        let [_, l, k] = ctx.coord();
        let (a, b) = ends[l];
        if orient2d_sign(a, b, pts[k]) > 0 {
            ctx.write(bad, l, 1);
        }
    });

    // Step 4: supporting pairs elect a representative supporting line. All
    // of them support the same bridge geometry, but their ids differ, so
    // the election runs under Priority — an Arbitrary-policy election here
    // would make the representative, and hence the returned contact pair,
    // depend on the simulator's tiebreak seed whenever contacts are
    // collinear. `live` ascends, so the least pid is the lexicographically
    // least (i, j) pair.
    let win = shm.alloc("bridge.win", 1, EMPTY);
    m.step_with_policy(shm, 0..nl, WritePolicy::PriorityMin, |ctx| {
        let l = ctx.pid;
        if ctx.read(bad, l) == 0 {
            ctx.write(win, 0, live[l] as i64);
        }
    });
    let w = usize::try_from(shm.get(win, 0))
        .ok()
        .filter(|&w| w < n * n && straddles(w / n, w % n))?;
    let (a, b) = (pts[w / n], pts[w % n]);

    // Steps 5–6: canonicalize collinear contacts — among subset points *on*
    // the supporting line, the left contact is the one with the largest
    // x ≤ x0 and the right contact the smallest x > x0 (one combining-max
    // step over order-isomorphic f64 keys, the right one stored negated,
    // then one election step for both).
    let lmax = shm.alloc("bridge.lmax", 1, i64::MIN);
    let rmin = shm.alloc("bridge.rmin", 1, i64::MIN);
    m.step_with_policy(shm, 0..n, WritePolicy::CombineMax, |ctx| {
        let pk = pts[ctx.pid];
        if orient2d_sign(a, b, pk) == 0 {
            if pk.x <= x0 {
                ctx.write(lmax, 0, f64_key(pk.x));
            } else {
                ctx.write(rmin, 0, !f64_key(pk.x));
            }
        }
    });
    let (lkey, rkey) = (shm.get(lmax, 0), !shm.get(rmin, 0));
    let lwin = shm.alloc("bridge.lwin", 1, EMPTY);
    let rwin = shm.alloc("bridge.rwin", 1, EMPTY);
    m.step_with_policy(shm, 0..n, WritePolicy::PriorityMin, |ctx| {
        let k = ctx.pid;
        let pk = pts[k];
        if orient2d_sign(a, b, pk) == 0 {
            if pk.x <= x0 && f64_key(pk.x) == lkey {
                ctx.write(lwin, 0, ids[k] as i64);
            }
            if pk.x > x0 && f64_key(pk.x) == rkey {
                ctx.write(rwin, 0, ids[k] as i64);
            }
        }
    });
    let (l, r) = (shm.get(lwin, 0), shm.get(rwin, 0));
    // The elected pair straddles x0, so both contact elections have a
    // candidate and must have written. An empty cell means a step did not
    // commit as the model says (a dropped processor, corrupted memory):
    // report no bridge, never an `EMPTY as usize` id.
    if l == EMPTY || r == EMPTY {
        return None;
    }
    Some(Bridge {
        left: l as usize,
        right: r as usize,
    })
}

/// Highest base points that [`facet_brute`]'s triple step tests each
/// contained triple against. A triple with a witness above its plane
/// cannot support the base, so the witnesses only narrow the full test's
/// processor set. More witnesses lower the work (0.43 M, 0.37 M and
/// 0.36 M for 4, 6 and 8 over the work-shape test's bases), but each is
/// one more orientation test inside a unit-cost processor; 4 keeps that
/// test small.
const FACET_WITNESSES: usize = 4;

/// A [`facet_brute`] side-table cell that no pair processor wrote: not a
/// sign, so a triple reading it is no candidate.
const SIDE_UNSET: i64 = 2;

/// Cell of pair `i < j` in [`facet_brute`]'s triangular side table.
#[inline]
fn pair_cell(i: usize, j: usize) -> usize {
    j * (j - 1) / 2 + i
}

/// Exact brute-force 3-D facet probe: the upper-hull facet whose
/// xy-projection contains the splitter abscissa `(x0, y0)`, over the subset
/// `ids` of `points`. Returns the facet's three vertex ids (counter-
/// clockwise seen from above), or `None` if `(x0, y0)` is outside the
/// subset's xy convex hull, the subset is degenerate, an id is out of
/// range, or a step did not commit as the model says (a fault plan:
/// height ranks without one point per witness rank, an out-of-range
/// election).
///
/// Cost: 4 executed steps; b² + C(b,3) + nl·(b + 1) work for b = |ids|
/// and nl triples whose projected triangle contains the splitter and that
/// none of the W = 4 highest points lies above — at most
/// b² + C(b,3)·(b + 2), the paper's O(b⁴).
pub fn facet_brute(
    m: &mut Machine,
    shm: &mut Shm,
    points: &[Point3],
    ids: &[usize],
    x0: f64,
    y0: f64,
) -> Option<(usize, usize, usize)> {
    m.declare_contract(&FACET_BRUTE_CONTRACT);
    let n = ids.len();
    if n < 3 {
        return None;
    }
    let q = Point2::new(x0, y0);
    // Host-enumerated unordered triples (the model's i<j<k processor
    // wiring; enumeration is addressing, not work — the steps below carry
    // the PRAM cost).
    let triples: Vec<(u32, u32, u32)> = {
        let mut v = Vec::with_capacity(n * (n - 1) * (n - 2) / 6);
        for i in 0..n {
            for j in i + 1..n {
                for k in j + 1..n {
                    v.push((i as u32, j as u32, k as u32));
                }
            }
        }
        v
    };
    let nt = triples.len();
    // Host gather, once per call (addressing, as in `bridge_brute`; an
    // out-of-range id is no facet).
    let pts: Vec<Point3> = ids
        .iter()
        .map(|&i| points.get(i).copied())
        .collect::<Option<_>>()?;
    // Height keys: point j outranks point i when (z_j, -j) > (z_i, -i), a
    // strict total order even on equal heights.
    let zkey: Vec<i64> = pts.iter().map(|p| f64_key(p.z)).collect();
    let nw = FACET_WITNESSES.min(n);
    // point d above the plane of a CCW triple? (orient3d > 0 ⇔ below)
    let above =
        |(a3, b3, c3): (Point3, Point3, Point3), d: Point3| orient3d_sign(a3, b3, c3, d) < 0;

    // Steps 1–2 share a scope: the side table, the height ranks and the
    // packed survivor flags are freed once the host has read back the
    // ascending list of triples left standing.
    let live: Vec<usize> = shm.scope(|shm| {
        // Step 1: pairs (n² processors). Pair (i, j) counts j above i into
        // i's height rank and, for i < j, writes the side of the splitter,
        // sign orient2d(pᵢ, pⱼ, q), into the triangular side table. The
        // table starts at `SIDE_UNSET`, so a lost write loses a candidate
        // but never invents one.
        let side = shm.alloc("facet.side", n * (n - 1) / 2, SIDE_UNSET);
        let zrank = shm.alloc("facet.zrank", n, 0);
        m.step_with_policy(shm, Pids::Grid([1, n, n]), WritePolicy::CombineSum, |ctx| {
            let [_, i, j] = ctx.coord();
            let (zi, zj) = (zkey[i], zkey[j]);
            if zj > zi || (zj == zi && j < i) {
                ctx.write(zrank, i, 1);
            }
            if i < j {
                let s = orient2d_sign(pts[i].xy(), pts[j].xy(), q);
                ctx.write(side, pair_cell(i, j), i64::from(s));
            }
        });
        // The `nw` highest points, read back (addressing, as
        // `bridge_brute`'s side lists). Under a fault plan the ranks need
        // not give one point per witness rank: report no facet rather than
        // test against a missing point.
        let mut witnesses = [usize::MAX; FACET_WITNESSES];
        for k in 0..n {
            if let Some(slot) = usize::try_from(shm.get(zrank, k))
                .ok()
                .and_then(|r| witnesses[..nw].get_mut(r))
            {
                if *slot != usize::MAX {
                    return None;
                }
                *slot = k;
            }
        }
        if witnesses[..nw].contains(&usize::MAX) {
            return None;
        }
        let wpts: Vec<Point3> = witnesses[..nw].iter().map(|&k| pts[k]).collect();

        // Step 2: triples (C(n,3) processors). The three side signs of
        // (i, j, k) are the signs of the terms of the exact identity
        // orient(i,j,q) + orient(j,k,q) + orient(k,i,q) = orient(i,j,k), so
        // the projected triangle is non-degenerate and contains q exactly
        // when no two signs are opposite and one is non-zero, and then
        // their sum's sign is the triangle's orientation. A contained triple that none of the
        // witnesses lies above sets its bit in the packed survivor flags.
        let alive = shm.alloc("facet.alive", nt.div_ceil(64), 0);
        m.step_with_policy(shm, 0..nt, WritePolicy::CombineOr, |ctx| {
            let t = ctx.pid;
            let (i, j, k) = triples[t];
            let (i, j, k) = (i as usize, j as usize, k as usize);
            let sides = ctx.slice(side);
            let (sij, sjk, sik) = (
                sides[pair_cell(i, j)],
                sides[pair_cell(j, k)],
                sides[pair_cell(i, k)],
            );
            if [sij, sjk, sik].iter().any(|s| !(-1..=1).contains(s)) {
                return;
            }
            let ski = -sik;
            let sum = sij + sjk + ski;
            if sum == 0 || sum.abs() != sij.abs() + sjk.abs() + ski.abs() {
                return;
            }
            let ccw = if sum > 0 {
                (pts[i], pts[j], pts[k])
            } else {
                (pts[i], pts[k], pts[j])
            };
            if !wpts.iter().any(|&w| above(ccw, w)) {
                ctx.write(alive, t / 64, (1u64 << (t % 64)) as i64);
            }
        });
        // Read back the set bits in ascending order (a bit past the last
        // triple, from a corrupted word, is no triple).
        let mut live = Vec::new();
        for (w, &word) in shm.slice(alive).iter().enumerate() {
            let mut bits = word as u64;
            while bits != 0 {
                let t = 64 * w + bits.trailing_zeros() as usize;
                if t < nt {
                    live.push(t);
                }
                bits &= bits - 1;
            }
        }
        Some(live)
    })?;
    if live.is_empty() {
        return None;
    }
    let nl = live.len();
    // Each survivor's corners, counter-clockwise seen from above: oriented
    // once here instead of by each of its processors (addressing, as the
    // gather above; the steps still run every processor).
    let corners = |t: usize| {
        let (i, j, k) = triples[t];
        (pts[i as usize], pts[j as usize], pts[k as usize])
    };
    let ccw: Vec<(Point3, Point3, Point3)> = live
        .iter()
        .map(|&t| {
            let (a3, b3, c3) = corners(t);
            if orient2d_sign(a3.xy(), b3.xy(), c3.xy()) > 0 {
                (a3, b3, c3)
            } else {
                (a3, c3, b3)
            }
        })
        .collect();

    // Step 3: full supporting test over the nl survivors, in ascending
    // order, × all points. A contained triple a witness lies above has a
    // base point above it, so it would fail this test too: the same
    // triples reach the election as without the witnesses.
    let bad = shm.alloc("facet.bad", nl, 0);
    m.step_with_policy(shm, Pids::Grid([1, nl, n]), WritePolicy::CombineOr, |ctx| {
        let [_, l, d] = ctx.coord();
        if above(ccw[l], pts[d]) {
            ctx.write(bad, l, 1);
        }
    });

    // Step 4: elect a surviving triple. As in [`bridge_brute`], survivors
    // are interchangeable (coplanar-contact degeneracies yield several) but
    // not identical, so Priority elects the least triple index instead of
    // a seed-dependent Arbitrary winner; `live` ascends, so the least pid
    // is the least triple index.
    let win = shm.alloc("facet.win", 1, EMPTY);
    m.step_with_policy(shm, 0..nl, WritePolicy::PriorityMin, |ctx| {
        let l = ctx.pid;
        if ctx.read(bad, l) == 0 {
            ctx.write(win, 0, live[l] as i64);
        }
    });
    let w = usize::try_from(shm.get(win, 0)).ok().filter(|&w| w < nt)?;
    let (a3, b3, c3) = corners(w);
    let (i, j, k) = triples[w];
    let (i, j, k) = (i as usize, j as usize, k as usize);
    if orient2d_sign(a3.xy(), b3.xy(), c3.xy()) > 0 {
        Some((ids[i], ids[j], ids[k]))
    } else {
        Some((ids[i], ids[k], ids[j]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipch_geom::hull_chain::UpperHull;

    fn p(x: f64, y: f64) -> Point2 {
        Point2::new(x, y)
    }

    fn check_bridge(points: &[Point2], x0: f64) -> Option<Bridge> {
        let mut m = Machine::new(7);
        let mut shm = Shm::new();
        let ids: Vec<usize> = (0..points.len()).collect();
        let b = bridge_brute(&mut m, &mut shm, points, &ids, x0);
        if let Some(br) = b {
            // every point on or below the bridge line
            let (u, v) = (points[br.left], points[br.right]);
            assert!(u.x <= x0 && x0 < v.x, "bridge does not straddle");
            for &w in points {
                assert!(orient2d_sign(u, v, w) <= 0, "{w:?} above bridge");
            }
        }
        b
    }

    /// Regression for the election fixes: with four collinear hull points
    /// every straddling pair supports the bridge line, so `bridge.win`
    /// takes concurrent distinct writes — Priority must make the winner a
    /// deterministic function of the input, never of the tiebreak seed.
    #[test]
    fn analyzer_pins_bridge_election() {
        use ipch_pram::AnalyzeConfig;
        let pts = vec![
            p(-2.0, 0.0),
            p(-1.0, 0.0),
            p(1.0, 0.0),
            p(2.0, 0.0),
            p(0.0, -1.0),
        ];
        let mut m = Machine::new(9);
        m.enable_analysis(AnalyzeConfig::default());
        let mut shm = Shm::new();
        shm.enable_shadow(true);
        let ids: Vec<usize> = (0..pts.len()).collect();
        let b = bridge_brute(&mut m, &mut shm, &pts, &ids, 0.0).expect("bridge exists");
        // canonical contacts: largest x ≤ 0 and smallest x > 0 on the line
        assert_eq!((b.left, b.right), (1, 2));
        let r = m.analysis_report().unwrap();
        assert_eq!(r.contract, Some(BRIDGE_BRUTE_CONTRACT));
        assert!(r.is_clean(), "{}", r.render());
        assert_eq!(r.seed_dependent_races, 0);
        assert_eq!(r.unconfirmed_arbitrary_races, 0);
        assert!(r.deterministic_races > 0, "election should be contested");
    }

    #[test]
    fn lost_contact_election_is_no_bridge() {
        use ipch_pram::{DropWindow, FaultPlan};
        let pts = vec![p(0.0, 0.0), p(2.0, 2.0), p(4.0, 0.0), p(1.0, -1.0)];
        let ids: Vec<usize> = (0..pts.len()).collect();
        // Steps 0–4 filter, test and elect the supporting pair and combine
        // the contact keys; step 5 elects the contacts. Drop every processor
        // of step 5.
        let mut m = Machine::new(7);
        m.install_faults(FaultPlan {
            drop_window: Some(DropWindow {
                from_step: 5,
                until_step: 6,
                rate: 1.0,
            }),
            ..FaultPlan::default()
        });
        let mut shm = Shm::new();
        assert_eq!(bridge_brute(&mut m, &mut shm, &pts, &ids, 1.5), None);
        assert_eq!(m.metrics.steps, 6, "every step ran");
        assert!(m.metrics.faults.dropped_processors > 0);
        assert!(check_bridge(&pts, 1.5).is_some(), "fault-free run finds it");
    }

    #[test]
    fn bridge_on_triangle() {
        let pts = vec![
            p(0.0, 0.0),
            p(2.0, 2.0),
            p(4.0, 0.0),
            p(1.0, 0.5),
            p(3.0, 0.5),
        ];
        let b = check_bridge(&pts, 1.0).unwrap();
        assert_eq!((b.left, b.right), (0, 1));
        let b = check_bridge(&pts, 3.0).unwrap();
        assert_eq!((b.left, b.right), (1, 2));
        let b = check_bridge(&pts, 2.0).unwrap(); // exactly at the apex
        assert_eq!((b.left, b.right), (1, 2));
    }

    #[test]
    fn bridge_outside_range_is_none() {
        let pts = vec![p(0.0, 0.0), p(1.0, 1.0)];
        assert!(check_bridge(&pts, -1.0).is_none());
        assert!(check_bridge(&pts, 1.0).is_none()); // x0 ≥ max x
        assert!(check_bridge(&pts, 0.5).is_some());
    }

    #[test]
    fn bridge_collinear_contacts_canonicalized() {
        // four collinear points on the top edge: contacts must hug x0
        let pts = vec![
            p(0.0, 1.0),
            p(1.0, 1.0),
            p(2.0, 1.0),
            p(3.0, 1.0),
            p(1.5, 0.0),
        ];
        let b = check_bridge(&pts, 1.5).unwrap();
        assert_eq!((b.left, b.right), (1, 2));
    }

    #[test]
    fn bridge_matches_hull_oracle_randomly() {
        use ipch_geom::generators::uniform_disk;
        for seed in 0..10u64 {
            let pts = uniform_disk(60, seed);
            let hull = UpperHull::of(&pts);
            // probe midpoints of each hull edge's x-span
            for w in hull.vertices.windows(2) {
                let x0 = (pts[w[0]].x + pts[w[1]].x) / 2.0;
                let b = check_bridge(&pts, x0).unwrap();
                assert_eq!((b.left, b.right), (w[0], w[1]), "seed {seed} x0 {x0}");
            }
        }
    }

    #[test]
    fn bridge_subset_ignores_excluded_points() {
        // the global hull apex is excluded from the subset
        let pts = vec![
            p(0.0, 0.0),
            p(2.0, 5.0),
            p(4.0, 0.0),
            p(1.0, 1.0),
            p(3.0, 1.0),
        ];
        let ids = vec![0usize, 2, 3, 4];
        let mut m = Machine::new(8);
        let mut shm = Shm::new();
        let b = bridge_brute(&mut m, &mut shm, &pts, &ids, 2.0).unwrap();
        assert_eq!((b.left, b.right), (3, 4));
    }

    /// The knock-out `bridge_brute` this module had before the height
    /// filter (test every straddling pair against all points, elect the
    /// least, canonicalize the contacts): the oracle the filtered version
    /// must match.
    fn bridge_brute_knockout(points: &[Point2], ids: &[usize], x0: f64) -> Option<Bridge> {
        let (mut m, mut shm) = (Machine::new(3), Shm::new());
        let pts: Vec<Point2> = ids.iter().map(|&i| points[i]).collect();
        let n = pts.len();
        let (hi, lo): (Vec<usize>, Vec<usize>) = (0..n).partition(|&k| x0 < pts[k].x);
        let (nlo, nhi) = (lo.len(), hi.len());
        if nlo == 0 || nhi == 0 {
            return None;
        }
        let bad = shm.alloc("oracle.bad", nlo * nhi, 0);
        m.step_with_policy(
            &mut shm,
            Pids::Grid([nlo, nhi, n]),
            WritePolicy::CombineOr,
            |ctx| {
                let [a, b, k] = ctx.coord();
                if orient2d_sign(pts[lo[a]], pts[hi[b]], pts[k]) > 0 {
                    ctx.write(bad, a * nhi + b, 1);
                }
            },
        );
        let w = (0..nlo * nhi).find(|&p| shm.get(bad, p) == 0)?;
        let (a, b) = (pts[lo[w / nhi]], pts[hi[w % nhi]]);
        let on_line = |k: &&usize| orient2d_sign(a, b, pts[**k]) == 0;
        let key = |k: &usize| f64_key(pts[*k].x);
        let lkey = lo.iter().filter(on_line).map(key).max()?;
        let rkey = hi.iter().filter(on_line).map(key).min()?;
        let contact = |side: &[usize], want: i64| {
            let at = side.iter().filter(|k| on_line(k) && key(k) == want);
            at.map(|&k| ids[k]).min()
        };
        Some(Bridge {
            left: contact(&lo, lkey)?,
            right: contact(&hi, rkey)?,
        })
    }

    /// Splitters for a base: every point's x, every midpoint of two
    /// neighbouring distinct abscissae, and one below the range.
    fn splitters(pts: &[Point2]) -> Vec<f64> {
        let mut xs: Vec<f64> = pts.iter().map(|p| p.x).collect();
        xs.sort_by(f64::total_cmp);
        xs.dedup();
        let mids: Vec<f64> = xs.windows(2).map(|w| w[0] / 2.0 + w[1] / 2.0).collect();
        let below = xs[0] - xs[0].abs() - 1.0;
        xs.into_iter().chain(mids).chain([below]).collect()
    }

    /// The height filter only narrows the knock-out's processor set: on
    /// random, grid, near-collinear and range-end bases, at every
    /// splitter, the filtered version returns exactly the oracle's
    /// contacts, or no bridge exactly when the oracle has none.
    #[test]
    fn bridge_brute_matches_the_knockout_oracle() {
        use ipch_geom::generators::{grid, on_circle, uniform_disk};
        use ipch_geom::validate::ensure_exact_range2;
        let (mut cases, mut found) = (0, 0);
        let mut check = |pts: &[Point2]| {
            assert!(ensure_exact_range2(pts).is_ok(), "{pts:?}");
            let ids: Vec<usize> = (0..pts.len()).collect();
            for x0 in splitters(pts) {
                let got = bridge_brute(&mut Machine::new(5), &mut Shm::new(), pts, &ids, x0);
                let want = bridge_brute_knockout(pts, &ids, x0);
                assert_eq!(got, want, "{} points, x0 {x0:e}", pts.len());
                cases += 1;
                found += usize::from(got.is_some());
            }
        };
        // uniform disk and circle bases
        for b in [2usize, 3, 5, 9, 16, 24, 40] {
            for seed in 0..4u64 {
                check(&uniform_disk(b, seed));
                check(&on_circle(b, seed));
            }
        }
        // integer grids: shared columns, collinear contacts on every row
        for n in [4usize, 9, 12, 25, 36] {
            check(&grid(n));
        }
        let tent: Vec<Point2> = (0..15)
            .map(|k| {
                p(
                    (k % 5) as f64,
                    (2 - (k % 5) as i64).abs() as f64 - (k / 5) as f64,
                )
            })
            .collect();
        check(&tent);
        // a line y = x/2 + 3 at x ≈ 1e8 with ±1-ulp perturbations in y
        let ulp = |y: f64, d: i64| f64::from_bits((y.to_bits() as i64 + d) as u64);
        for seed in 0..4i64 {
            let line: Vec<Point2> = (0..20i64)
                .map(|k| {
                    let x = 1e8 + (k * 7 % 20) as f64;
                    p(x, ulp(x / 2.0 + 3.0, (k * seed + k / 3) % 3 - 1))
                })
                .collect();
            check(&line);
        }
        // a steep line y = 1e8·x through the origin, ±1 ulp: near x0 ≈ 0
        // the computed heights err by more than the pairs' true gaps, so
        // a filter with less than ε of slack loses the bridge here
        for seed in 0..4i64 {
            let steep: Vec<Point2> = (0..24i64)
                .map(|k| {
                    let x = -1.0 + ((k * 11 + seed) % 24) as f64 / 11.5 + 0.013 * seed as f64;
                    p(x, ulp(1e8 * x, (k * (seed + 2) + k / 5) % 3 - 1))
                })
                .collect();
            check(&steep);
        }
        // near both ends of the exact range: magnitudes up to f64::MAX / 2,
        // magnitudes down to the subnormals, and a 2^190 spread in one base
        for seed in 0..3u64 {
            for scale in [f64::MAX / 2.0, 2f64.powi(-1000), 2f64.powi(-1060)] {
                for base in [uniform_disk(12, seed), on_circle(12, seed)] {
                    let scaled: Vec<Point2> =
                        base.iter().map(|q| p(q.x * scale, q.y * scale)).collect();
                    check(&scaled);
                }
            }
            let mut spread: Vec<Point2> = uniform_disk(10, seed)
                .iter()
                .map(|q| p(q.x * 2f64.powi(-190), q.y * 2f64.powi(-190)))
                .collect();
            spread.extend([p(-1.0, -1.0), p(1.0, -1.0)]);
            check(&spread);
        }
        assert!(cases > 1500, "{cases} cases");
        assert!(
            found * 2 > cases,
            "most splitters should have a bridge: {found}/{cases}"
        );
    }

    /// Drop and corruption plans on the filter's two steps (the lower
    /// bound L and the survivor mark) can only lower L, lose a survivor, or
    /// add a pair that the exact test then judges: every faulted run
    /// returns the oracle's bridge or no bridge, never another pair.
    #[test]
    fn filter_faults_lose_a_bridge_never_invent_one() {
        use ipch_geom::generators::{on_circle, uniform_disk};
        use ipch_pram::{DropWindow, FaultPlan};
        // The steps at which `plan` corrupts a cell on a machine of `seed`:
        // the draw depends only on (fault seed, step), so a probe machine
        // with one live cell and six one-processor steps shows them.
        let corrupted_steps = |seed: u64, plan: &FaultPlan| -> Vec<u64> {
            let mut m = Machine::new(seed);
            m.install_faults(plan.clone());
            let mut shm = Shm::new();
            shm.alloc("probe", 1, 0);
            (0..6)
                .filter(|_| {
                    let before = m.metrics.faults.corrupted_cells;
                    m.step(&mut shm, 0..1, |_| {});
                    m.metrics.faults.corrupted_cells > before
                })
                .collect()
        };
        let (mut lost, mut kept, mut corrupted) = (0, 0, 0);
        for b in [8usize, 16, 24] {
            for seed in 0..8u64 {
                for pts in [uniform_disk(b, seed), on_circle(b, seed)] {
                    let ids: Vec<usize> = (0..b).collect();
                    let x0 = 0.5 * pts[(7 * seed as usize) % b].x;
                    let want = bridge_brute_knockout(&pts, &ids, x0);
                    let mut plans: Vec<FaultPlan> = [(0, 0.3), (0, 1.0), (1, 0.1), (1, 0.5)]
                        .iter()
                        .map(|&(from_step, rate)| FaultPlan {
                            drop_window: Some(DropWindow {
                                from_step,
                                until_step: from_step + 1,
                                rate,
                            }),
                            ..FaultPlan::default()
                        })
                        .collect();
                    plans.extend(
                        (0..)
                            .map(|salt| FaultPlan {
                                salt,
                                corrupt_rate: 0.5,
                                ..FaultPlan::default()
                            })
                            .filter(|plan| {
                                let at = corrupted_steps(seed, plan);
                                !at.is_empty() && at.iter().all(|&s| s < 2)
                            })
                            .take(3),
                    );
                    for plan in plans {
                        let mut m = Machine::new(seed);
                        m.install_faults(plan);
                        let got = bridge_brute(&mut m, &mut Shm::new(), &pts, &ids, x0);
                        assert!(m.metrics.faults.total() > 0, "b {b} seed {seed}");
                        corrupted += usize::from(m.metrics.faults.corrupted_cells > 0);
                        if got.is_none() {
                            lost += usize::from(want.is_some());
                        } else {
                            assert_eq!(got, want, "b {b} seed {seed}");
                            kept += 1;
                        }
                    }
                }
            }
        }
        assert!(
            lost > 0 && kept > 0 && corrupted > 0,
            "lost {lost}, kept {kept}"
        );
    }

    /// The filter leaves few pairs standing, so the whole call costs
    /// little more than its two n² steps; the knock-out oracle reads
    /// |lo|·|hi|·b, up to b³/4.
    #[test]
    fn bridge_brute_work_is_quadratic() {
        use ipch_geom::generators::{on_circle, uniform_disk};
        for b in [24usize, 64, 128, 512] {
            for seed in 0..3u64 {
                for pts in [uniform_disk(b, seed), on_circle(b, seed)] {
                    let ids: Vec<usize> = (0..b).collect();
                    for k in [0, b / 3, (7 * seed as usize) % b] {
                        let x0 = 0.5 * pts[k].x;
                        let mut m = Machine::new(5);
                        let br = bridge_brute(&mut m, &mut Shm::new(), &pts, &ids, x0);
                        assert!(br.is_some(), "b {b} seed {seed} x0 {x0}");
                        let work = m.metrics.work;
                        let cap = 3 * (b * b) as u64;
                        assert!(work <= cap, "b {b} seed {seed}: work {work} > {cap}");
                    }
                }
            }
        }
    }

    /// As [`analyzer_pins_bridge_election`], for the 3-D facet election: a
    /// coplanar square top makes several triples support the pierced facet,
    /// so `facet.win` takes concurrent distinct writes under Priority.
    #[test]
    fn analyzer_pins_facet_election() {
        use ipch_pram::AnalyzeConfig;
        let pts = vec![
            Point3::new(1.0, 1.0, 0.0),
            Point3::new(1.0, -1.0, 0.0),
            Point3::new(-1.0, 1.0, 0.0),
            Point3::new(-1.0, -1.0, 0.0),
            Point3::new(0.0, 0.0, -2.0),
        ];
        let mut m = Machine::new(4);
        m.enable_analysis(AnalyzeConfig::default());
        let mut shm = Shm::new();
        shm.enable_shadow(true);
        let ids: Vec<usize> = (0..pts.len()).collect();
        facet_brute(&mut m, &mut shm, &pts, &ids, 0.1, 0.05).expect("facet exists");
        let r = m.analysis_report().unwrap();
        assert_eq!(r.contract, Some(FACET_BRUTE_CONTRACT));
        assert!(r.is_clean(), "{}", r.render());
        assert_eq!(r.seed_dependent_races, 0);
        assert_eq!(r.unconfirmed_arbitrary_races, 0);
        assert!(r.deterministic_races > 0, "election should be contested");
    }

    /// The three-step `facet_brute` this module had before the witness
    /// filter (mark non-candidates, test every candidate against all
    /// points, elect): the oracle the filtered version must match.
    fn facet_brute_unfiltered(
        m: &mut Machine,
        shm: &mut Shm,
        points: &[Point3],
        ids: &[usize],
        x0: f64,
        y0: f64,
    ) -> Option<(usize, usize, usize)> {
        let n = ids.len();
        if n < 3 {
            return None;
        }
        let q = Point2::new(x0, y0);
        let mut triples = Vec::new();
        for i in 0..n {
            for j in i + 1..n {
                for k in j + 1..n {
                    triples.push((i, j, k));
                }
            }
        }
        let nt = triples.len();
        let pts: Vec<Point3> = ids.iter().map(|&i| points[i]).collect();
        let ccw = |(i, j, k): (usize, usize, usize)| {
            let (a3, b3, c3) = (pts[i], pts[j], pts[k]);
            if orient2d_sign(a3.xy(), b3.xy(), c3.xy()) > 0 {
                (a3, b3, c3)
            } else {
                (a3, c3, b3)
            }
        };
        let bad = shm.alloc("oracle.bad", nt, 0);
        m.step_with_policy(shm, 0..nt, WritePolicy::CombineOr, |ctx| {
            let (i, j, k) = triples[ctx.pid];
            let (a3, b3, c3) = ccw((i, j, k));
            if orient2d_sign(a3.xy(), b3.xy(), c3.xy()) == 0
                || orient2d_sign(a3.xy(), b3.xy(), q) < 0
                || orient2d_sign(b3.xy(), c3.xy(), q) < 0
                || orient2d_sign(c3.xy(), a3.xy(), q) < 0
            {
                ctx.write(bad, ctx.pid, 1);
            }
        });
        let cands: Vec<usize> = (0..nt).filter(|&t| shm.get(bad, t) == 0).collect();
        if cands.is_empty() {
            return None;
        }
        let nc = cands.len();
        let bad2 = shm.alloc("oracle.bad2", nc, 0);
        m.step_with_policy(shm, Pids::Grid([1, nc, n]), WritePolicy::CombineOr, |ctx| {
            let [_, c, d] = ctx.coord();
            let (a3, b3, c3) = ccw(triples[cands[c]]);
            if orient3d_sign(a3, b3, c3, pts[d]) < 0 {
                ctx.write(bad2, c, 1);
            }
        });
        let win = shm.alloc("oracle.win", 1, EMPTY);
        m.step_with_policy(shm, 0..nc, WritePolicy::PriorityMin, |ctx| {
            if ctx.read(bad2, ctx.pid) == 0 {
                ctx.write(win, 0, cands[ctx.pid] as i64);
            }
        });
        let w = shm.get(win, 0);
        if w == EMPTY {
            return None;
        }
        let (i, j, k) = triples[w as usize];
        if orient2d_sign(pts[i].xy(), pts[j].xy(), pts[k].xy()) > 0 {
            Some((ids[i], ids[j], ids[k]))
        } else {
            Some((ids[i], ids[k], ids[j]))
        }
    }

    /// The side-table containment test and the witnesses only narrow the
    /// full test: on random, coplanar, xy-collinear and boundary-splitter
    /// bases the filtered oracle returns exactly the unfiltered one's
    /// triple.
    #[test]
    fn facet_brute_matches_the_unfiltered_oracle() {
        use ipch_geom::gen3d::{in_ball, on_sphere};
        let mut bases = 0;
        let mut found = 0;
        let mut check = |pts: &[Point3], ids: &[usize], (x0, y0): (f64, f64)| {
            let f = facet_brute(&mut Machine::new(3), &mut Shm::new(), pts, ids, x0, y0);
            let (mut m, mut shm) = (Machine::new(3), Shm::new());
            let g = facet_brute_unfiltered(&mut m, &mut shm, pts, ids, x0, y0);
            assert_eq!(f, g, "{} points, q ({x0}, {y0})", ids.len());
            bases += 1;
            found += usize::from(f.is_some());
        };
        for b in [4usize, 5, 8, 16, 24, 48] {
            for seed in 0..17u64 {
                for pts in [in_ball(b, seed), on_sphere(b, seed)] {
                    let ids: Vec<usize> = (0..b).collect();
                    let s = pts[(7 * seed as usize) % b];
                    check(&pts, &ids, (0.5 * s.x, 0.5 * s.y));
                }
            }
        }
        // a flat square top over interior points (the coplanar cost pin)
        let mut top = vec![
            Point3::new(1.0, 1.0, 2.0),
            Point3::new(1.0, -1.0, 2.0),
            Point3::new(-1.0, 1.0, 2.0),
            Point3::new(-1.0, -1.0, 2.0),
            Point3::new(0.0, 0.0, 2.0),
        ];
        top.extend(in_ball(7, 11));
        let ids: Vec<usize> = (0..top.len()).collect();
        for q in [(0.1, 0.05), (0.0, 0.0), (1.0, 0.0), (-0.5, 0.9)] {
            check(&top, &ids, q);
        }
        // a 4×4 xy-grid (many xy-collinear triples) under a paraboloid
        // with integer bumps, probed at interior grid points (a base
        // point's xy) and at edge midpoints
        let grid: Vec<Point3> = (0..16)
            .map(|k| {
                let (x, y) = ((k % 4) as f64, (k / 4) as f64);
                Point3::new(
                    x,
                    y,
                    -(x - 1.5).powi(2) - (y - 1.5).powi(2) + (k % 3) as f64,
                )
            })
            .collect();
        let ids: Vec<usize> = (0..16).collect();
        for q in [(1.0, 1.0), (2.0, 1.0), (1.5, 1.0), (1.0, 2.5), (1.5, 1.5)] {
            check(&grid, &ids, q);
        }
        // the splitter on a base point's xy and on a triangle edge
        let pts = in_ball(12, 4);
        let ids: Vec<usize> = (0..12).collect();
        for k in 0..12 {
            let (a, b) = (pts[k], pts[(k + 5) % 12]);
            check(&pts, &ids, (a.x, a.y));
            check(&pts, &ids, (0.5 * (a.x + b.x), 0.5 * (a.y + b.y)));
        }
        assert!(bases >= 200, "{bases} bases");
        assert!(
            found * 2 > bases,
            "most probes should find a facet: {found}/{bases}"
        );
    }

    /// The triple step leaves few triples standing, so the whole call
    /// costs little more than its pair and triple steps (C(b,3) + b²
    /// processors). The unfiltered oracle reads 3.8–11.8× that on these
    /// bases.
    #[test]
    fn facet_brute_work_is_near_the_triangle_step() {
        use ipch_geom::gen3d::{in_ball, on_sphere};
        for b in [24usize, 48] {
            let widest = (b * (b - 1) * (b - 2) / 6 + b * b) as u64;
            for seed in 0..8u64 {
                for pts in [in_ball(b, seed), on_sphere(b, seed)] {
                    let ids: Vec<usize> = (0..b).collect();
                    let s = pts[(7 * seed as usize) % b];
                    let mut m = Machine::new(5);
                    let mut shm = Shm::new();
                    facet_brute(&mut m, &mut shm, &pts, &ids, 0.5 * s.x, 0.5 * s.y);
                    let work = m.metrics.work;
                    assert!(
                        work <= 3 * widest,
                        "b {b} seed {seed}: work {work} > 3·{widest}"
                    );
                }
            }
        }
    }

    /// Dropped pair processors lose side signs and height counts. A lost
    /// sign leaves its cell at `SIDE_UNSET`, so the triples reading it are
    /// no candidates, and a lost count can leave a witness rank empty or
    /// doubled: on random bases every faulted run returns no facet or the
    /// unfiltered oracle's fault-free facet, never another.
    #[test]
    fn dropped_pair_writes_lose_a_facet_never_invent_one() {
        use ipch_geom::gen3d::{in_ball, on_sphere};
        use ipch_pram::{DropWindow, FaultPlan};
        let (mut lost, mut kept) = (0, 0);
        for b in [8usize, 16, 24] {
            for seed in 0..12u64 {
                for pts in [in_ball(b, seed), on_sphere(b, seed)] {
                    let ids: Vec<usize> = (0..b).collect();
                    let s = pts[(7 * seed as usize) % b];
                    let (x0, y0) = (0.5 * s.x, 0.5 * s.y);
                    let (mut mo, mut so) = (Machine::new(3), Shm::new());
                    let want = facet_brute_unfiltered(&mut mo, &mut so, &pts, &ids, x0, y0);
                    for rate in [0.02, 0.1, 0.3] {
                        let mut m = Machine::new(seed);
                        m.install_faults(FaultPlan {
                            drop_window: Some(DropWindow {
                                from_step: 0,
                                until_step: 1,
                                rate,
                            }),
                            ..FaultPlan::default()
                        });
                        let got = facet_brute(&mut m, &mut Shm::new(), &pts, &ids, x0, y0);
                        if got.is_none() {
                            lost += usize::from(want.is_some());
                        } else {
                            assert_eq!(got, want, "b {b} seed {seed} rate {rate}");
                            kept += 1;
                        }
                    }
                }
            }
        }
        assert!(lost > 0 && kept > 0, "lost {lost}, kept {kept}");
    }

    /// A faulted pair step (step 0) leaves height ranks without one point
    /// per witness rank: the read-back reports no facet instead of testing
    /// against a missing point.
    #[test]
    fn corrupt_witness_rank_is_no_facet() {
        use ipch_pram::{DropWindow, FaultPlan};
        let pts = vec![
            Point3::new(0.0, 0.0, 0.0),
            Point3::new(4.0, 0.0, 0.0),
            Point3::new(0.0, 4.0, 0.0),
            Point3::new(1.0, 1.0, 3.0),
            Point3::new(1.0, 1.0, -5.0),
        ];
        let ids: Vec<usize> = (0..pts.len()).collect();
        let dropped = FaultPlan {
            drop_window: Some(DropWindow {
                from_step: 0,
                until_step: 1,
                rate: 1.0,
            }),
            ..FaultPlan::default()
        };
        // at machine seed 7 the one corruption of step 0 flips the low bit
        // of a witness's height rank: two points claim one rank
        let corrupted = FaultPlan {
            corrupt_rate: 1.0,
            ..FaultPlan::default()
        };
        for plan in [dropped, corrupted] {
            let mut m = Machine::new(7);
            m.install_faults(plan);
            let mut shm = Shm::new();
            assert_eq!(facet_brute(&mut m, &mut shm, &pts, &ids, 1.0, 1.0), None);
            assert_eq!(m.metrics.steps, 1, "stopped after the pair step");
            assert!(m.metrics.faults.total() > 0);
        }
        let mut shm = Shm::new();
        let f = facet_brute(&mut Machine::new(7), &mut shm, &pts, &ids, 1.0, 1.0);
        assert!(f.is_some(), "fault-free run finds it");
    }

    /// An id past the end of the point array (a corrupted id list) is no
    /// bridge and no facet, never a panic.
    #[test]
    fn out_of_range_id_is_no_bridge_or_facet() {
        let pts2 = vec![p(0.0, 0.0), p(2.0, 2.0), p(4.0, 0.0), p(1.0, -1.0)];
        let pts3 = vec![
            Point3::new(0.0, 0.0, 0.0),
            Point3::new(4.0, 0.0, 0.0),
            Point3::new(0.0, 4.0, 0.0),
            Point3::new(1.0, 1.0, 3.0),
        ];
        // `EMPTY ^ 1` read back as an id is 2⁶⁴ − 2
        for bad in [4usize, (EMPTY ^ 1) as usize] {
            let ids = vec![0, 1, bad, 2, 3];
            let mut m = Machine::new(7);
            let mut shm = Shm::new();
            assert_eq!(bridge_brute(&mut m, &mut shm, &pts2, &ids, 1.5), None);
            assert_eq!(facet_brute(&mut m, &mut shm, &pts3, &ids, 1.0, 1.0), None);
            assert_eq!(m.metrics.steps, 0, "rejected before any step");
        }
    }

    #[test]
    fn facet_on_tetrahedron() {
        let pts = vec![
            Point3::new(0.0, 0.0, 0.0),
            Point3::new(4.0, 0.0, 0.0),
            Point3::new(0.0, 4.0, 0.0),
            Point3::new(1.0, 1.0, 3.0), // apex
            Point3::new(1.0, 1.0, -5.0),
        ];
        let mut m = Machine::new(9);
        let mut shm = Shm::new();
        let ids: Vec<usize> = (0..pts.len()).collect();
        let f = facet_brute(&mut m, &mut shm, &pts, &ids, 1.0, 1.0).unwrap();
        // the facet above (1,1) must include the apex
        let tri = [f.0, f.1, f.2];
        assert!(tri.contains(&3), "facet {tri:?} misses the apex");
        // all points below its plane
        let (a, b, c) = (pts[f.0], pts[f.1], pts[f.2]);
        for &d in &pts {
            assert!(orient3d_sign(a, b, c, d) >= 0);
        }
    }

    #[test]
    fn facet_outside_projection_is_none() {
        let pts = vec![
            Point3::new(0.0, 0.0, 0.0),
            Point3::new(1.0, 0.0, 0.0),
            Point3::new(0.0, 1.0, 0.0),
            Point3::new(0.3, 0.3, 1.0),
        ];
        let mut m = Machine::new(10);
        let mut shm = Shm::new();
        let ids: Vec<usize> = (0..pts.len()).collect();
        assert!(facet_brute(&mut m, &mut shm, &pts, &ids, 5.0, 5.0,).is_none());
        assert!(facet_brute(&mut m, &mut shm, &pts, &ids, 0.2, 0.2).is_some());
    }

    #[test]
    fn lp_reduction_consistent_with_brute_bridge() {
        use crate::brute::{solve_lp2_brute, Lp2Outcome};
        use ipch_geom::generators::uniform_square;
        let pts = uniform_square(40, 5);
        let ids: Vec<usize> = (0..pts.len()).collect();
        let hull = UpperHull::of(&pts);
        let mid = hull.vertices.len() / 2;
        let x0 = (pts[hull.vertices[mid - 1]].x + pts[hull.vertices[mid]].x) / 2.0;
        let cs = bridge_lp_constraints(&pts, &ids);
        let obj = bridge_lp_objective(x0);
        let mut m = Machine::new(11);
        let mut shm = Shm::new();
        match solve_lp2_brute(&mut m, &mut shm, &cs, &obj) {
            Lp2Outcome::Optimal(s) => {
                // LP variables are (slope, intercept): tight constraints =
                // bridge endpoints
                let mut tights = [s.tight.0, s.tight.1];
                tights.sort_by(|&u, &v| pts[u].cmp_xy(&pts[v]).reverse());
                let b = bridge_brute(&mut m, &mut shm, &pts, &ids, x0).unwrap();
                let mut expect = [b.left, b.right];
                expect.sort_by(|&u, &v| pts[u].cmp_xy(&pts[v]).reverse());
                assert_eq!(tights, expect);
            }
            other => panic!("{other:?}"),
        }
    }
}
