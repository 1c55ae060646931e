//! In-place bridge finding (paper §3.3–§3.4, Lemma 4.2).
//!
//! The convex-hull recursion needs bridges for *many unrelated subproblems
//! scattered through the input*, where the points of one subproblem are not
//! contiguous. Alon–Megiddo assumes contiguous input; the paper replaces it
//! with this in-place procedure (which it notes is *simpler to implement*
//! while matching the time/work/confidence bounds):
//!
//! 1. Apply the random-sample procedure to draw a base problem of Θ(k)
//!    constraints (k = p^{1/3} in 2-D) into a workspace of at most
//!    [`BASE_CAPACITY_FACTOR`]·k = 24k cells.
//! 2. Solve the base problem deterministically in constant time
//!    ([`crate::bridge::bridge_brute`] — the exact brute force over the
//!    straddling pairs that can be highest at x₀: 2b² + O(b) processors
//!    for b base points in general position, b³/4 + O(b²) at worst).
//! 3. Every point checks whether it violates the solution (lies strictly
//!    above the candidate bridge line); violators are *survivors* and are
//!    candidates for the next base, sampled at the escalating rate
//!    p_j = min{1, 2k·p_{j−1}}, p₁ = 2k/p.
//! 4. After β rounds, in-place-compact all survivors into the base problem
//!    ([`ipch_inplace::compact::inplace_compact`]) and solve once more; if
//!    there are too many to compact, run more sampling rounds. If at any
//!    point there are no survivors, the last base solution is the bridge.
//!
//! Correctness is unconditional (the survivor check is global and exact);
//! the randomness only bounds *how many rounds* it takes — which is what
//! Lemma 4.2 asserts (constant, with failure probability e^{−Ω(k^r)}) and
//! what experiment T6 measures. Bases accumulate across rounds so the
//! candidate height at x₀ is monotone.

use ipch_geom::predicates::orient2d_sign;
use ipch_geom::Point2;
use ipch_pram::{Machine, ModelClass, ModelContract, RaceExpectation, Shm, WritePolicy, EMPTY};

use ipch_inplace::compact::inplace_compact;
use ipch_inplace::sample::random_sample_with_p;

use crate::bridge::{bridge_brute, Bridge};

/// Rounds of sampling before the §3.3 step-4 compaction finish is tried
/// (the paper's β). The 3-D facet finder uses the same β.
pub const BETA: usize = 4;

/// Cells of each round's base workspace, in units of k: the cap on a base
/// problem and the slot count of the §3.3 step-4 compaction. The paper
/// uses 16k; 24k leaves room for a full 16k sample plus the carried bridge
/// endpoints (DESIGN §6). The 3-D facet finder uses the same factor.
pub const BASE_CAPACITY_FACTOR: usize = 24;

/// Dart-throwing retry rounds inside each random sample (the paper's d,
/// §3.1), shared by every sampling bridge and facet finder.
pub const SAMPLE_ATTEMPTS: usize = 4;

/// Round cap of a failure-sweep retry by the in-place finders (2-D
/// [`sweep_bridge`] and the 3-D facet sweeps): a generous budget, so a
/// large swept failure pays rounds instead of brute-force work.
pub const SWEEP_ROUNDS: usize = 64;

/// Diagnostics for experiment T6.
#[derive(Clone, Debug, Default)]
pub struct IbTrace {
    /// Total rounds (base solves) executed.
    pub rounds: usize,
    /// Survivor counts after each solved round.
    pub survivors: Vec<usize>,
    /// Whether the §3.3-step-4 compaction finish was used.
    pub compaction_used: bool,
    /// Final base size.
    pub base_size: usize,
}

/// Find the upper-hull bridge of the scattered subset `active` straddling
/// `x = x0`, in place, within `max_rounds` base solves. Returns
/// `Some((bridge, trace))` on success, `None` either when the subset has no
/// straddling pair or when the round cap was hit; callers that need to
/// distinguish use [`find_bridge_inplace_traced`].
///
/// # Examples
///
/// ```
/// use ipch_geom::generators::uniform_disk;
/// use ipch_lp::inplace_bridge::find_bridge_inplace;
/// use ipch_pram::{Machine, Shm};
///
/// let points = uniform_disk(800, 5);
/// let active: Vec<usize> = (0..points.len()).collect();
/// let mut m = Machine::new(1);
/// let mut shm = Shm::new();
/// let (bridge, _trace) =
///     find_bridge_inplace(&mut m, &mut shm, &points, &active, 0.0, 16)
///         .expect("a bridge straddles x = 0 inside the disk");
/// assert!(points[bridge.left].x <= 0.0 && 0.0 < points[bridge.right].x);
/// ```
pub fn find_bridge_inplace(
    m: &mut Machine,
    shm: &mut Shm,
    points: &[Point2],
    active: &[usize],
    x0: f64,
    max_rounds: usize,
) -> Option<(Bridge, IbTrace)> {
    match find_bridge_inplace_traced(m, shm, points, active, x0, max_rounds) {
        (Some(b), t) => Some((b, t)),
        (None, _) => None,
    }
}

/// Largest failed problem, in ids, that [`sweep_bridge`] re-solves with
/// the Θ(m³)-work brute oracle. The paper gives each swept failure n^{3/4}
/// processors, which is enough because whp only problems of size ≤ n^{1/4}
/// fail; this fixed cutoff is not yet derived from that budget (the
/// ROADMAP item "Failure sweeping within the paper's processor budget").
pub const SWEEP_BRUTE_MAX_IDS: usize = 512;

/// The failure-sweep oracle for a bridge over `x0` (paper §2.3): the brute
/// force up to [`SWEEP_BRUTE_MAX_IDS`] ids, else [`find_bridge_inplace`]
/// re-run with [`SWEEP_ROUNDS`] rounds. A simulation must stay correct
/// even off the paper's whp event, and a large failure pays a generous
/// round budget instead of |ids|³ brute work.
pub fn sweep_bridge(
    m: &mut Machine,
    shm: &mut Shm,
    points: &[Point2],
    ids: &[usize],
    x0: f64,
) -> Option<Bridge> {
    if ids.len() <= SWEEP_BRUTE_MAX_IDS {
        return bridge_brute(m, shm, points, ids, x0);
    }
    find_bridge_inplace(m, shm, points, ids, x0, SWEEP_ROUNDS).map(|(b, _)| b)
}

/// Concurrency contract: Arbitrary-CRCW in the paper; the sample-claim
/// contest and the bridge elections resolve by Priority, so every race is
/// a deterministic function of the coin flips.
pub const INPLACE_BRIDGE_CONTRACT: ModelContract = ModelContract {
    algorithm: "lp/inplace_bridge",
    class: ModelClass::Crcw,
    races: RaceExpectation::Deterministic,
};

/// As [`find_bridge_inplace`], but always returns the trace.
pub fn find_bridge_inplace_traced(
    m: &mut Machine,
    shm: &mut Shm,
    points: &[Point2],
    active: &[usize],
    x0: f64,
    max_rounds: usize,
) -> (Option<Bridge>, IbTrace) {
    m.declare_contract(&INPLACE_BRIDGE_CONTRACT);
    let mut trace = IbTrace::default();
    let p = active.len();
    if p < 2 {
        return (None, trace);
    }
    // the paper's 2-D base parameter k = p^{1/3}, clamped ≥ 4
    let k = ((p as f64).cbrt().ceil() as usize).max(4);
    let capacity = BASE_CAPACITY_FACTOR * k;

    // Tiny problems: the whole subset is the base. The threshold keeps the
    // brute cost p³ within a constant factor of p processors ("k is
    // sufficiently small that this can be done in constant time with n
    // processors") — beyond it, sampling is strictly cheaper.
    if p <= 16 {
        trace.rounds = 1;
        trace.base_size = p;
        let b = bridge_brute(m, shm, points, active, x0);
        trace.survivors.push(0);
        return (b, trace);
    }

    // Survivor flags: private registers indexed by rank in `active`.
    let surv = shm.alloc("ib.surv", p, 0);
    m.step(shm, active, |ctx| {
        let r = ctx.rank();
        ctx.write(surv, r, 1);
    });

    let mut p_j = 2.0 * k as f64 / p as f64;
    let mut best: Option<Bridge> = None;

    for round in 0..max_rounds {
        trace.rounds = round + 1;
        // survivors list and their ranks in `active` (in-model: the
        // flagged processors themselves)
        let flags = shm.slice(surv);
        let (ranks, survivors): (Vec<usize>, Vec<usize>) = (active.iter().enumerate())
            .filter(|&(r, _)| flags[r] != 0)
            .map(|(r, &i)| (r, i))
            .unzip();

        // Each round's base is a *fresh* Θ(k) workspace (24k cells,
        // `capacity`): a sample of the survivors, plus the current bridge
        // endpoints so the candidate height at x₀ is monotone.
        let mut base: Vec<usize> = Vec::new();
        if round >= BETA || survivors.len() <= 4 * k {
            // §3.3 step 4: compact ALL survivors into the base via the
            // in-place approximate compaction and solve. The compaction
            // source is indexed by rank in `active`, so it is sized by
            // the subproblem; its payload is the point id.
            let sarr = shm.alloc("ib.sarr", p, EMPTY);
            m.step(shm, &ranks, |ctx| {
                let r = ctx.pid;
                ctx.write(sarr, r, active[r] as i64);
            });
            if let Some(c) = inplace_compact(m, shm, sarr, capacity, 0.34) {
                trace.compaction_used = true;
                base = c.ids_ascending(shm);
            } else {
                // too many survivors to compact: fall back to sampling
                let out = random_sample_with_p(m, shm, &survivors, k, SAMPLE_ATTEMPTS, Some(p_j));
                base.extend_from_slice(&out.sample);
            }
        } else {
            let out = random_sample_with_p(m, shm, &survivors, k, SAMPLE_ATTEMPTS, Some(p_j));
            base.extend_from_slice(&out.sample);
        }
        if let Some(b) = best {
            if !base.contains(&b.left) {
                base.push(b.left);
            }
            if !base.contains(&b.right) {
                base.push(b.right);
            }
        }
        p_j = (p_j * 2.0 * k as f64).min(1.0);
        if base.len() > capacity || base.len() < 2 {
            continue;
        }

        // Step 2: deterministic base solve (child machine, sequential
        // composition — rounds are genuinely iterative).
        let sol = m.sub(round as u64 ^ 0xb41d, |c| {
            bridge_brute(c, shm, points, &base, x0)
        });
        let Some(bridge) = sol else { continue };
        best = Some(bridge);
        trace.base_size = trace.base_size.max(base.len());

        // Step 3: global survivor check — one concurrent step.
        let (u, v) = (points[bridge.left], points[bridge.right]);
        // Arbitrary never resolves a collision here: each processor writes
        // only surv[rank], an exclusive cell.
        m.step_with_policy(shm, active, WritePolicy::Arbitrary, |ctx| {
            let above = orient2d_sign(u, v, points[ctx.pid]) > 0;
            ctx.write(surv, ctx.rank(), if above { 1 } else { 0 });
        });
        let nsurv = shm.slice(surv).iter().filter(|&&f| f != 0).count();
        trace.survivors.push(nsurv);
        if nsurv == 0 {
            return (Some(bridge), trace);
        }
    }
    (None, trace)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipch_geom::generators::{circle_plus_interior, uniform_disk, uniform_square};
    use ipch_geom::hull_chain::UpperHull;

    fn verify_bridge(points: &[Point2], active: &[usize], x0: f64, b: Bridge) {
        let (u, v) = (points[b.left], points[b.right]);
        assert!(u.x <= x0 && x0 < v.x, "does not straddle x0={x0}");
        assert!(active.contains(&b.left) && active.contains(&b.right));
        for &i in active {
            assert!(
                orient2d_sign(u, v, points[i]) <= 0,
                "point {i} above bridge"
            );
        }
    }

    #[test]
    fn finds_bridges_on_random_inputs() {
        for seed in 0..8u64 {
            let pts = uniform_disk(2000, seed);
            let active: Vec<usize> = (0..pts.len()).collect();
            let hull = UpperHull::of(&pts);
            let mid = hull.vertices.len() / 2;
            let x0 = (pts[hull.vertices[mid - 1]].x + pts[hull.vertices[mid]].x) / 2.0;
            let mut m = Machine::new(seed);
            let mut shm = Shm::new();
            let (b, trace) = find_bridge_inplace(&mut m, &mut shm, &pts, &active, x0, 16)
                .unwrap_or_else(|| panic!("seed {seed}: no bridge"));
            verify_bridge(&pts, &active, x0, b);
            assert_eq!(
                (b.left, b.right),
                (hull.vertices[mid - 1], hull.vertices[mid])
            );
            assert!(trace.rounds <= 12, "seed {seed}: {} rounds", trace.rounds);
        }
    }

    #[test]
    fn works_on_scattered_subsets() {
        let pts = uniform_square(3000, 42);
        // active: every third point — scattered, never compacted
        let active: Vec<usize> = (0..pts.len()).filter(|i| i % 3 == 0).collect();
        let sub: Vec<Point2> = active.iter().map(|&i| pts[i]).collect();
        let sub_hull = UpperHull::of(&sub);
        let mid = sub_hull.vertices.len() / 2;
        let x0 = (sub[sub_hull.vertices[mid - 1]].x + sub[sub_hull.vertices[mid]].x) / 2.0;
        let mut m = Machine::new(1);
        let mut shm = Shm::new();
        let (b, _) = find_bridge_inplace(&mut m, &mut shm, &pts, &active, x0, 16).expect("bridge");
        verify_bridge(&pts, &active, x0, b);
    }

    #[test]
    fn small_subsets_use_direct_brute() {
        let pts = uniform_disk(14, 3);
        let active: Vec<usize> = (0..14).collect();
        let hull = UpperHull::of(&pts);
        let x0 = (pts[hull.vertices[0]].x + pts[hull.vertices[1]].x) / 2.0;
        let mut m = Machine::new(2);
        let mut shm = Shm::new();
        let (b, trace) = find_bridge_inplace(&mut m, &mut shm, &pts, &active, x0, 16).unwrap();
        verify_bridge(&pts, &active, x0, b);
        assert_eq!(trace.rounds, 1);
    }

    #[test]
    fn no_bridge_outside_range() {
        let pts = uniform_disk(500, 4);
        let active: Vec<usize> = (0..pts.len()).collect();
        let xmax = pts.iter().map(|p| p.x).fold(f64::MIN, f64::max);
        let mut m = Machine::new(5);
        let mut shm = Shm::new();
        assert!(find_bridge_inplace(&mut m, &mut shm, &pts, &active, xmax + 1.0, 16).is_none());
    }

    #[test]
    fn constant_rounds_across_sizes() {
        let mut worst = 0usize;
        for &n in &[1000usize, 4000, 16_000] {
            for seed in 0..3u64 {
                let pts = circle_plus_interior(32, n, seed);
                let active: Vec<usize> = (0..n).collect();
                let hull = UpperHull::of(&pts);
                let mid = hull.vertices.len() / 2;
                let x0 = (pts[hull.vertices[mid - 1]].x + pts[hull.vertices[mid]].x) / 2.0;
                let mut m = Machine::new(seed + 50);
                let mut shm = Shm::new();
                let (b, trace) =
                    find_bridge_inplace(&mut m, &mut shm, &pts, &active, x0, 16).unwrap();
                verify_bridge(&pts, &active, x0, b);
                worst = worst.max(trace.rounds);
            }
        }
        assert!(worst <= 10, "round count grew to {worst}");
    }

    #[test]
    fn sweep_bridge_is_brute_when_small_and_the_round_capped_finder_when_large() {
        // up to the cutoff the sweep is exactly the brute oracle, cost
        // included (a small instance: brute work is cubic)
        let pts = uniform_disk(SWEEP_BRUTE_MAX_IDS / 4, 11);
        let ids: Vec<usize> = (0..pts.len()).collect();
        let (mut m, mut shm) = (Machine::new(3), Shm::new());
        let swept = sweep_bridge(&mut m, &mut shm, &pts, &ids, 0.0).expect("bridge");
        let (mut mb, mut shmb) = (Machine::new(3), Shm::new());
        let brute = bridge_brute(&mut mb, &mut shmb, &pts, &ids, 0.0).expect("bridge");
        assert_eq!((swept.left, swept.right), (brute.left, brute.right));
        assert_eq!(m.metrics.total_work(), mb.metrics.total_work());

        // above it the sweep runs the in-place finder at SWEEP_ROUNDS
        let pts = uniform_disk(600, 12);
        let ids: Vec<usize> = (0..pts.len()).collect();
        let hull = UpperHull::of(&pts);
        let mid = hull.vertices.len() / 2;
        let x0 = (pts[hull.vertices[mid - 1]].x + pts[hull.vertices[mid]].x) / 2.0;
        let (mut m, mut shm) = (Machine::new(4), Shm::new());
        let swept = sweep_bridge(&mut m, &mut shm, &pts, &ids, x0).expect("bridge");
        assert_eq!(
            (swept.left, swept.right),
            (hull.vertices[mid - 1], hull.vertices[mid])
        );
        let (mut mi, mut shmi) = (Machine::new(4), Shm::new());
        find_bridge_inplace(&mut mi, &mut shmi, &pts, &ids, x0, SWEEP_ROUNDS).expect("bridge");
        assert_eq!(m.metrics.total_work(), mi.metrics.total_work());
        assert_eq!(m.metrics.total_steps(), mi.metrics.total_steps());
    }

    #[test]
    fn work_stays_near_linear() {
        let n = 20_000;
        let pts = uniform_disk(n, 9);
        let active: Vec<usize> = (0..n).collect();
        let hull = UpperHull::of(&pts);
        let mid = hull.vertices.len() / 2;
        let x0 = (pts[hull.vertices[mid - 1]].x + pts[hull.vertices[mid]].x) / 2.0;
        let mut m = Machine::new(10);
        let mut shm = Shm::new();
        find_bridge_inplace(&mut m, &mut shm, &pts, &active, x0, 16).unwrap();
        assert!(
            m.metrics.total_work() < 300 * n as u64,
            "work {} not near-linear in {n}",
            m.metrics.total_work()
        );
    }

    /// Workspace follows the subproblem: a 64-id subproblem scattered
    /// through a 1,024- or a 65,536-point input keeps its scratch peak
    /// within 32·(p + capacity) cells plus the brute solve's capacity²
    /// pair table, whatever the input size. A run that compacts is
    /// allowed 3p more for the §3.3 step-4 compaction source (`ib.sarr`
    /// and the compaction's `ipc.seg`/`ipc.marks`, 3 cells per subproblem
    /// point); a source that spanned the input would need 3n.
    #[test]
    fn scratch_peak_follows_the_subproblem_not_the_input() {
        let p = 64;
        let capacity = BASE_CAPACITY_FACTOR * 4; // k = ⌈64^{1/3}⌉ = 4
        let bound = (32 * (p + capacity) + capacity * capacity) as u64;
        let (mut compacted, mut sampled_only) = (0, 0);
        for n in [1024usize, 65_536] {
            let pts = uniform_disk(n, 7);
            let active: Vec<usize> = (0..p).map(|i| i * (n / p) + 3).collect();
            let mut xs: Vec<f64> = active.iter().map(|&i| pts[i].x).collect();
            xs.sort_by(f64::total_cmp);
            let x0 = (xs[p / 2 - 1] + xs[p / 2]) / 2.0;
            for seed in 0..6 {
                let mut m = Machine::new(seed);
                let mut shm = Shm::new();
                let (b, trace) =
                    find_bridge_inplace_traced(&mut m, &mut shm, &pts, &active, x0, 16);
                verify_bridge(&pts, &active, x0, b.expect("bridge"));
                let source = if trace.compaction_used {
                    3 * p as u64
                } else {
                    0
                };
                let peak = shm.peak_live_cells();
                assert!(
                    peak <= bound + source,
                    "n {n} seed {seed}: peak {peak} > {bound} + {source}"
                );
                compacted += trace.compaction_used as usize;
                sampled_only += !trace.compaction_used as usize;
            }
        }
        assert!(compacted > 0 && sampled_only > 0, "both paths pinned");
    }
}
