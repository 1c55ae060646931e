//! Read-only bounded-workspace bridge finding — the De–Nandy–Roy regime
//! ("Convex Hull and Linear Programming in Read-only Setup with Limited
//! Work-space", PAPERS.md) applied to Observation 2.4's 2-variable LP.
//!
//! The brute probe spends Θ(p³) work to ask every pair whether it
//! supports the active set; the §3.3 finder rewrites the input while it
//! prunes. This module finds the same straddling edge while **never
//! writing the input** (the points and the active list stay host-side;
//! shared memory holds exactly one `s`-cell scratch array) by alternating
//! two gift-wrap probes around the query abscissa:
//!
//! * `right_wrap(l)` — the active point right of `x0` maximizing the
//!   angle around `l`, so the line `l→r` supports the whole right side;
//! * `left_wrap(r)` — symmetrically, the left-side point whose line into
//!   `r` supports the whole left side.
//!
//! Each alternation can only raise the candidate line's height at `x0`
//! (the displaced endpoint was on the old line, the new one is on or
//! above it), so the walk ascends to the bridge — the unique supporting
//! line in general position — and a deterministic collinear tie-break
//! (farther from the pivot, then larger id) pins the fixed point on
//! degenerate inputs. Each probe is a blocked argmax: `s` processors
//! stride over the `p` active entries in `⌈p/s⌉ + ⌈log₂ s⌉` steps with
//! `s + O(1)` live workspace cells. The iteration count is capped, so a
//! pathological input ends the walk with a candidate that a caller must
//! certify (straddling and supporting), never a hang.

use ipch_geom::predicates::orient2d_sign;
use ipch_geom::Point2;
use ipch_pram::{ArrayId, Machine, ModelClass, ModelContract, RaceExpectation, Shm, Word, EMPTY};

use crate::bridge::Bridge;

/// Concurrency contract: EREW — every block scan writes only its own
/// `best[pid]` cell and reads nothing from shared memory (input and
/// active list stay host-side, read-only).
pub const FRUGAL_BRIDGE_CONTRACT: ModelContract = ModelContract {
    algorithm: "lp/frugal_bridge",
    class: ModelClass::Erew,
    races: RaceExpectation::Forbidden,
};

/// One blocked argmax over the active positions: `s` processors stride
/// over the `p` entries, each writing its block winner (an active
/// *position*, or [`EMPTY`]) into its own cell; block winners combine by
/// the same comparator. The kernel accounts one step of `s` work; the
/// top-up charge makes the cost honest (⌈p/s⌉ scan steps plus a ⌈log₂ s⌉
/// combine, p comparisons of work).
fn blocked_argmax<C, B>(
    m: &mut Machine,
    shm: &mut Shm,
    best: ArrayId,
    p: usize,
    s: usize,
    cand: C,
    beats: B,
) -> Option<usize>
where
    C: Fn(usize) -> bool + Sync,
    B: Fn(usize, usize) -> bool + Sync,
{
    m.kernel_map(shm, 0..s, best, |_, pid| {
        let mut win: Word = EMPTY;
        let mut q = pid;
        while q < p {
            if cand(q) && (win == EMPTY || beats(q, win as usize)) {
                win = q as Word;
            }
            q += s;
        }
        win
    });
    let scan_steps = p.div_ceil(s) as u64;
    let combine_steps = (s as u64).max(1).ilog2() as u64 + 1;
    m.charge(scan_steps - 1 + combine_steps, p as u64);
    let mut win: Option<usize> = None;
    for j in 0..s {
        let w = shm.get(best, j);
        if w == EMPTY {
            continue;
        }
        let w = w as usize;
        if win.is_none_or(|b| beats(w, b)) {
            win = Some(w);
        }
    }
    win
}

/// `a` beats `b` as the wrap winner around `pivot`, with the pair ordered
/// `lo→hi` by increasing x: strictly above the line through `pivot` and
/// `b`, else collinear-and-farther from the pivot, else the larger id.
fn out_wraps(points: &[Point2], pivot: usize, a: usize, b: usize) -> bool {
    let (pp, pa, pb) = (points[pivot], points[a], points[b]);
    let s = if pp.x <= pb.x {
        orient2d_sign(pp, pb, pa)
    } else {
        orient2d_sign(pb, pp, pa)
    };
    if s != 0 {
        return s > 0;
    }
    if pa.x != pb.x {
        // farther from the pivot along the wrap direction
        return (pa.x - pp.x).abs() > (pb.x - pp.x).abs();
    }
    a > b
}

/// Read-only bounded-workspace bridge over `active` at `x0`, in
/// `s + O(1)` workspace cells (`scratch` clamped to `1..=p`). Returns
/// `None` when no active pair straddles `x0` (one side empty). The
/// result is a *candidate*: in general position the ascent provably
/// reaches the bridge; a caller that needs proof checks the straddle and
/// support conditions itself.
pub fn frugal_bridge(
    m: &mut Machine,
    shm: &mut Shm,
    points: &[Point2],
    active: &[usize],
    x0: f64,
    scratch: usize,
) -> Option<Bridge> {
    m.declare_contract(&FRUGAL_BRIDGE_CONTRACT);
    let p = active.len();
    if p == 0 {
        return None;
    }
    let s = scratch.clamp(1, p);
    shm.scope(|shm| {
        let best = shm.alloc("pfrugal.bridge.best", s, EMPTY);
        let id = |pos: usize| active[pos];
        // seed: the rightmost-top point of the left side
        let l0 = blocked_argmax(
            m,
            shm,
            best,
            p,
            s,
            |q| points[id(q)].x <= x0,
            |a, b| {
                let (pa, pb) = (points[id(a)], points[id(b)]);
                if pa.x != pb.x {
                    return pa.x > pb.x;
                }
                if pa.y != pb.y {
                    return pa.y > pb.y;
                }
                id(a) > id(b)
            },
        )?;
        let right_wrap = |m: &mut Machine, shm: &mut Shm, l: usize| {
            blocked_argmax(
                m,
                shm,
                best,
                p,
                s,
                |q| points[id(q)].x > x0,
                |a, b| out_wraps(points, l, id(a), id(b)),
            )
        };
        let left_wrap = |m: &mut Machine, shm: &mut Shm, r: usize| {
            blocked_argmax(
                m,
                shm,
                best,
                p,
                s,
                |q| points[id(q)].x <= x0,
                |a, b| out_wraps(points, r, id(a), id(b)),
            )
        };
        let mut l = id(l0);
        let mut r = id(right_wrap(m, shm, l)?);
        // Height at x0 is non-decreasing per wrap and the tie-breaks are
        // deterministic, so the walk reaches its fixed point quickly; the
        // cap turns a hypothetical pathology into a certificate failure
        // upstairs, not a hang here.
        for _ in 0..2 * p + 8 {
            let l2 = id(left_wrap(m, shm, r)?);
            let r2 = id(right_wrap(m, shm, l2)?);
            if l2 == l && r2 == r {
                break;
            }
            l = l2;
            r = r2;
        }
        Some(Bridge { left: l, right: r })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bridge::bridge_brute;
    use ipch_geom::generators::uniform_disk;
    use ipch_geom::predicates::on_or_below;

    /// The bridge certificate: endpoints active, straddling `x0`, and
    /// supporting (no active point strictly above the line). Degenerate
    /// inputs have more than one valid bridge, so the tests check this
    /// instead of equality with the brute probe.
    fn certify_bridge(
        points: &[Point2],
        active: &[usize],
        x0: f64,
        b: &Bridge,
    ) -> Result<(), String> {
        if !active.contains(&b.left) || !active.contains(&b.right) {
            return Err(format!(
                "bridge ({}, {}) endpoints not in the active set",
                b.left, b.right
            ));
        }
        let (u, v) = (points[b.left], points[b.right]);
        if !(u.x <= x0 && x0 < v.x) {
            return Err(format!(
                "bridge ({}, {}) does not straddle x0 = {x0}",
                b.left, b.right
            ));
        }
        match active.iter().find(|&&t| !on_or_below(u, v, points[t])) {
            Some(t) => Err(format!(
                "active point {t} lies strictly above the bridge ({}, {})",
                b.left, b.right
            )),
            None => Ok(()),
        }
    }

    #[test]
    fn matches_the_brute_probe_across_scratch_sizes() {
        for seed in 0..3 {
            let pts = uniform_disk(96, seed);
            let active: Vec<usize> = (0..pts.len()).collect();
            for x0 in [-0.4, 0.0, 0.3] {
                let mut bm = Machine::new(seed);
                let mut bs = Shm::new();
                let want =
                    bridge_brute(&mut bm, &mut bs, &pts, &active, x0).expect("disk straddles");
                for s in [1usize, 3, 16, 96] {
                    let mut m = Machine::new(seed);
                    let mut shm = Shm::new();
                    let got = frugal_bridge(&mut m, &mut shm, &pts, &active, x0, s)
                        .expect("disk straddles");
                    assert_eq!(got, want, "seed {seed} x0 {x0} scratch {s}");
                }
            }
        }
    }

    #[test]
    fn workspace_peak_is_exactly_the_clamped_scratch() {
        let pts = uniform_disk(64, 4);
        let active: Vec<usize> = (0..pts.len()).collect();
        for s in [1usize, 2, 9, 64, 500] {
            let mut m = Machine::new(4);
            let mut shm = Shm::new();
            let b = frugal_bridge(&mut m, &mut shm, &pts, &active, 0.0, s).expect("straddles");
            certify_bridge(&pts, &active, 0.0, &b).unwrap_or_else(|e| panic!("scratch {s}: {e}"));
            let want = s.clamp(1, pts.len()) as u64;
            assert_eq!(shm.peak_live_cells(), want, "scratch {s}");
            assert_eq!(m.metrics.peak_live_cells, want, "scratch {s}");
            // the scratch lives in a scope: none of it outlives the call
            assert_eq!(shm.live_cells(), 0, "scratch {s} leaked");
        }
    }

    #[test]
    fn degenerate_actives_still_certify() {
        let p = Point2::new;
        // collinear roof, duplicates, and a single straddling pair
        let cases: Vec<(Vec<Point2>, f64)> = vec![
            ((0..8).map(|i| p(i as f64, 3.0)).collect(), 3.5),
            (
                vec![p(-1.0, 0.0), p(-1.0, 0.0), p(2.0, 1.0), p(2.0, 1.0)],
                0.0,
            ),
            (vec![p(-1.0, 5.0), p(1.0, 5.0)], 0.0),
            // left column at the query abscissa itself
            (
                vec![p(0.0, 1.0), p(0.0, 3.0), p(4.0, 0.0), p(2.0, 2.0)],
                0.0,
            ),
        ];
        for (k, (pts, x0)) in cases.iter().enumerate() {
            let active: Vec<usize> = (0..pts.len()).collect();
            for s in [1usize, 2, 4] {
                let mut m = Machine::new(k as u64);
                let mut shm = Shm::new();
                let b = frugal_bridge(&mut m, &mut shm, pts, &active, *x0, s)
                    .unwrap_or_else(|| panic!("case {k}: straddle exists"));
                certify_bridge(pts, &active, *x0, &b)
                    .unwrap_or_else(|e| panic!("case {k} scratch {s}: {e}"));
            }
        }
    }
}
