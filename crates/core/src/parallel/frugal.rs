//! Read-only bounded-workspace upper hull — the De–Nandy–Roy regime
//! ("Convex Hull and Linear Programming in Read-only Setup with Limited
//! Work-space", PAPERS.md) grafted onto the simulator.
//!
//! The input array is **immutable**: it never enters shared memory at all,
//! so the read-only discipline holds by construction: no step can write
//! an input cell. The
//! algorithm is gift wrapping with a blocked argmax: each of the `h` hull
//! edges is found by `s` processors striding over the `n` points, so the
//! whole run touches `s + O(1)` workspace cells — the O(s) scratch bound
//! the service's `Frugal` tier trades time for under memory pressure.
//! Cost: O((n/s + log s) · h) time on s processors, O(n·h) work — the
//! classic read-only time/space product, against the unbounded tiers'
//! O(n) workspace.
//!
//! Enforcement is the pram layer's [`Shm::set_workspace_budget`]: the
//! supervised wrapper installs the caller's cell budget on a fresh `Shm`
//! per attempt and converts a tripped latch into the typed
//! [`RunError::WorkspaceExceeded`]. Retries walk the scratch schedule
//! down (s, s/2, s/4, …) so the next attempt fits where the last one
//! tripped, and the deterministic host fallback (monotone chain, zero
//! shared-memory cells) ends the chain — a budget can cost time, never
//! correctness.

use ipch_geom::hull_chain::verify_upper_hull;
use ipch_geom::predicates::orient2d_sign;
use ipch_geom::validate::validate_points2;
use ipch_geom::{Point2, UpperHull};
use ipch_pram::{
    supervise, ArrayId, Machine, ModelClass, ModelContract, RaceExpectation, RunError, Shm,
    SuperviseConfig, Supervised, Word, EMPTY,
};

use crate::HullOutput;

/// Concurrency contract: EREW — every block scan writes only its own
/// `best[pid]` cell, and nothing reads shared memory at all (the input
/// stays host-side, read-only).
pub const FRUGAL_CONTRACT: ModelContract = ModelContract {
    algorithm: "hull2d/frugal",
    class: ModelClass::Erew,
    races: RaceExpectation::Forbidden,
};

/// `a` is a better chain start than `b`: smaller x, then higher y, then —
/// for exact duplicates — the larger id (matching the monotone-chain
/// oracle, whose stable sort lets the later duplicate pop the earlier).
fn leads(points: &[Point2], a: usize, b: usize) -> bool {
    let (pa, pb) = (points[a], points[b]);
    if pa.x != pb.x {
        return pa.x < pb.x;
    }
    if pa.y != pb.y {
        return pa.y > pb.y;
    }
    a > b
}

/// `a` beats `b` as the gift-wrap successor of `u` (both strictly right of
/// `u`): strictly above the line `u→b`, else collinear-and-farther (so
/// collinear midpoints drop, keeping the chain strictly convex), else the
/// larger duplicate id.
fn wraps(points: &[Point2], u: usize, a: usize, b: usize) -> bool {
    let s = orient2d_sign(points[u], points[b], points[a]);
    if s != 0 {
        return s > 0;
    }
    let (pa, pb) = (points[a], points[b]);
    if pa.x != pb.x {
        return pa.x > pb.x;
    }
    a > b
}

/// One blocked argmax: `s` processors stride over the `n` candidate ids,
/// each writing its block winner (or [`EMPTY`]) into its own `best` cell;
/// the block winners then combine by the same comparator. The kernel step
/// accounts one step of `s` work; the top-up charge makes the cost honest
/// — ⌈n/s⌉ scan steps plus a ⌈log₂ s⌉-step tree combine, n comparisons of
/// work in total.
fn blocked_argmax<C, B>(
    m: &mut Machine,
    shm: &mut Shm,
    best: ArrayId,
    n: usize,
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
        while q < n {
            if cand(q) && (win == EMPTY || beats(q, win as usize)) {
                win = q as Word;
            }
            q += s;
        }
        win
    });
    let scan_steps = n.div_ceil(s) as u64;
    let combine_steps = (s as u64).max(1).ilog2() as u64 + 1;
    m.charge(scan_steps - 1 + combine_steps, n as u64);
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

/// Upper hull by read-only gift wrapping in `s + O(1)` workspace cells.
/// `scratch` is clamped to `1..=n`; the input slice is never copied into
/// shared memory, let alone written.
pub fn upper_hull_frugal(
    m: &mut Machine,
    shm: &mut Shm,
    points: &[Point2],
    scratch: usize,
) -> UpperHull {
    m.declare_contract(&FRUGAL_CONTRACT);
    let n = points.len();
    if n == 0 {
        return UpperHull::new(vec![]);
    }
    let s = scratch.clamp(1, n);
    shm.scope(|shm| {
        let best = shm.alloc("pfrugal.best", s, EMPTY);
        let start = blocked_argmax(m, shm, best, n, s, |_| true, |a, b| leads(points, a, b))
            // n ≥ 1 and every id is a candidate, so there is a winner
            .unwrap();
        let mut verts = vec![start];
        let mut u = start;
        while let Some(v) = blocked_argmax(
            m,
            shm,
            best,
            n,
            s,
            |q| points[q].x > points[u].x,
            |a, b| wraps(points, u, a, b),
        ) {
            verts.push(v);
            u = v;
        }
        UpperHull::new(verts)
    })
}

/// Per-point edge pointers without any workspace: every point
/// binary-searches the finished chain host-side, charged at the lockstep
/// cost ([`crate::assign_edges_pram`]'s ⌈log₂ h⌉ steps of n processors)
/// but touching zero shared-memory cells — pointer assembly must not
/// spend the budget the hull loop just respected.
fn assign_edges_frugal(m: &mut Machine, points: &[Point2], hull: &UpperHull) -> Vec<usize> {
    let n = points.len();
    let ne = hull.num_edges();
    if ne == 0 || n == 0 {
        return vec![usize::MAX; n];
    }
    let rounds = (usize::BITS - ne.leading_zeros()) as u64 + 1;
    m.charge(rounds, n as u64 * rounds);
    let verts = &hull.vertices;
    (0..n)
        .map(|i| {
            // first edge whose right endpoint reaches points[i].x
            let (mut lo, mut hi) = (0usize, ne - 1);
            while lo < hi {
                let mid = (lo + hi) / 2;
                if points[verts[mid + 1]].x >= points[i].x {
                    hi = mid;
                } else {
                    lo = mid + 1;
                }
            }
            lo
        })
        .collect()
}

/// [`upper_hull_frugal`] with the paper's full output convention — hull
/// plus per-point edge pointers, all of it within the O(s) scratch bound.
pub fn upper_hull_frugal_full(
    m: &mut Machine,
    shm: &mut Shm,
    points: &[Point2],
    scratch: usize,
) -> HullOutput {
    let hull = upper_hull_frugal(m, shm, points, scratch);
    let edge_above = assign_edges_frugal(m, points, &hull);
    HullOutput { hull, edge_above }
}

/// Supervised bounded-workspace hull: each attempt runs on a fresh `Shm`
/// carrying `workspace_budget`, a tripped budget latch becomes the typed
/// [`RunError::WorkspaceExceeded`], and the retry schedule halves the
/// scratch parameter (`scratch >> attempt`, floor 1) so escalation walks
/// toward a configuration that fits. The host fallback is the monotone
/// chain with host-side pointers — zero shared-memory cells, immune to
/// any budget. Returns a certified hull or a typed error, never a wrong
/// answer.
pub fn upper_hull_frugal_supervised(
    m: &mut Machine,
    points: &[Point2],
    scratch: usize,
    workspace_budget: Option<u64>,
    cfg: &SuperviseConfig,
) -> Result<Supervised<HullOutput>, RunError> {
    const ALG: &str = FRUGAL_CONTRACT.algorithm;
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
        // Host monotone chain charged at its sequential cost; no Shm is
        // even constructed, so no budget can apply to it.
        let hull = UpperHull::of(points);
        let n = points.len() as u64;
        fm.charge(
            n.max(1).ilog2() as u64 + 1,
            n * (n.max(1).ilog2() as u64 + 1),
        );
        let edge_above = assign_edges_frugal(fm, points, &hull);
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
            let s = (scratch >> esc).max(1);
            let mut shm = Shm::new();
            shm.set_workspace_budget(workspace_budget);
            let out = upper_hull_frugal_full(am, &mut shm, points, s);
            am.note_workspace(&shm);
            if shm.workspace_tripped() {
                return Err(RunError::WorkspaceExceeded {
                    algorithm: ALG,
                    budget: workspace_budget.unwrap_or(0),
                    peak: shm.peak_live_cells(),
                });
            }
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
    use ipch_pram::Outcome;

    #[test]
    fn matches_oracle_across_scratch_sizes() {
        for seed in 0..3 {
            let pts = uniform_disk(64, seed);
            for s in [1usize, 3, 8, 64, 500] {
                let mut m = Machine::new(seed);
                let mut shm = Shm::new();
                let h = upper_hull_frugal(&mut m, &mut shm, &pts, s);
                assert_eq!(h, UpperHull::of(&pts), "seed {seed} scratch {s}");
            }
        }
    }

    #[test]
    fn workspace_peak_is_exactly_the_clamped_scratch() {
        let pts = uniform_disk(64, 5);
        for s in [1usize, 2, 7, 64, 500] {
            let mut m = Machine::new(5);
            let mut shm = Shm::new();
            let out = upper_hull_frugal_full(&mut m, &mut shm, &pts, s);
            assert!(out.verify_pointers(&pts).is_ok());
            let want = s.clamp(1, pts.len()) as u64;
            assert_eq!(shm.peak_live_cells(), want, "scratch {s}");
            assert_eq!(m.metrics.peak_live_cells, want, "scratch {s}");
            // the scratch lives in a scope: none of it outlives the call
            assert_eq!(shm.live_cells(), 0, "scratch {s} leaked");
        }
    }

    #[test]
    fn torture_inputs_certify() {
        let p = Point2::new;
        let cases: Vec<Vec<Point2>> = vec![
            vec![],
            vec![p(1.0, 1.0)],
            vec![p(0.0, 0.0), p(1.0, 1.0)],
            // collinear ramp
            (0..9).map(|i| p(i as f64, 2.0 * i as f64)).collect(),
            // duplicates and x-ties
            vec![
                p(0.0, 0.0),
                p(0.0, 2.0),
                p(0.0, 2.0),
                p(0.0, 1.0),
                p(1.0, 0.0),
                p(1.0, 0.0),
            ],
            // single column
            vec![p(3.0, 0.0), p(3.0, 5.0), p(3.0, -1.0)],
        ];
        for (k, pts) in cases.iter().enumerate() {
            for s in [1usize, 2, 4] {
                let mut m = Machine::new(k as u64);
                let mut shm = Shm::new();
                let out = upper_hull_frugal_full(&mut m, &mut shm, pts, s);
                verify_upper_hull(pts, &out.hull)
                    .unwrap_or_else(|e| panic!("case {k} scratch {s}: {e}"));
                out.verify_pointers(pts)
                    .unwrap_or_else(|e| panic!("case {k} scratch {s}: {e}"));
            }
        }
    }

    #[test]
    fn budget_trip_retries_with_leaner_scratch() {
        // scratch 32 under an 8-cell budget: attempts walk 32 → 16 → 8,
        // the last fits exactly, and the result still certifies.
        let pts = uniform_disk(48, 9);
        let mut m = Machine::new(9);
        let s =
            upper_hull_frugal_supervised(&mut m, &pts, 32, Some(8), &SuperviseConfig::default())
                .expect("the halved schedule must reach the budget");
        assert_eq!(s.value.hull, UpperHull::of(&pts));
        assert_eq!(s.outcome, Outcome::Retried(2));
        assert!(s
            .errors
            .iter()
            .all(|e| matches!(e, RunError::WorkspaceExceeded { .. })));
        assert_eq!(m.metrics.supervisor.workspace_aborts, 2);
        assert!(m.metrics.peak_live_cells <= 32);
    }

    #[test]
    fn impossible_budget_falls_back_to_host() {
        // A zero-cell budget trips even scratch 1; the host fallback owns
        // no shared memory at all and stays correct.
        let pts = uniform_disk(40, 3);
        let mut m = Machine::new(3);
        let s = upper_hull_frugal_supervised(&mut m, &pts, 4, Some(0), &SuperviseConfig::default())
            .expect("fallback must carry");
        assert_eq!(s.value.hull, UpperHull::of(&pts));
        assert_eq!(s.outcome, Outcome::FellBack);
        assert_eq!(m.metrics.supervisor.workspace_aborts, 3);
        assert_eq!(m.metrics.supervisor.fallbacks, 1);
    }

    #[test]
    fn no_budget_means_no_trip_and_no_aborts() {
        let pts = uniform_disk(40, 13);
        let mut m = Machine::new(13);
        let s = upper_hull_frugal_supervised(&mut m, &pts, 8, None, &SuperviseConfig::default())
            .expect("unbudgeted run");
        assert_eq!(s.value.hull, UpperHull::of(&pts));
        assert_eq!(s.outcome, Outcome::FirstTry);
        assert_eq!(m.metrics.supervisor.workspace_aborts, 0);
    }
}
