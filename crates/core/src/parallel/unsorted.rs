//! The unsorted-input output-sensitive algorithm (paper §4.1–§4.2,
//! Theorem 5): 2-D upper hull in O(log n) time and O(n log h) work, with
//! very high probability, on a randomized CRCW PRAM.
//!
//! Marriage-before-conquest, in place: every point has a virtual processor
//! and a *problem number*; subproblems are never compacted (points stay
//! where they are, the problem number is the only bookkeeping). Each level,
//! every active problem in parallel:
//!
//! 1. **Random vote** (§3.1) picks a splitter uniformly from the problem's
//!    points; **in-place bridge finding** (§3.3) finds the hull edge above
//!    it. A problem that exceeds its constant budget *fails*.
//! 2. **Failure sweeping** compacts the failed problem ids (Ragde) and
//!    re-solves each with the super-linear brute-force oracle.
//! 3. At phase ends (every ~(log n)/32 levels), a parallel **prefix sum**
//!    compacts the problem numbering and computes `l` = edges found +
//!    problems left — a lower bound on h. Once `l` crosses the threshold,
//!    the algorithm has certified that h is large and switches to the
//!    non-output-sensitive O(log n)-time fallback
//!    ([`super::dac::upper_hull_dac`], the Atallah–Goodrich role).
//! 4. **Split**: one concurrent step moves every active point to child
//!    problem 2j−1 / 2j by its side of the found edge; points under the
//!    edge die holding a pointer to it. The bridge endpoints stay alive as
//!    the children's anchors (Kirkpatrick–Seidel's trick, which guarantees
//!    the edges adjacent to a found edge remain discoverable).
//!
//! Work is O(n log h): a point participates in O(log h)-ish levels before
//! the edge above it is found (Lemma 5.3 / Seidel's analysis), and dead
//! points cost nothing. Time is O(log n): subproblem sizes decay
//! geometrically (Lemma 5.1 — experiment F1 measures the (15/16)^i
//! envelope) and each level is O(1).

use std::convert::Infallible;

use ipch_geom::soa::{f64_from_key, f64_key};
use ipch_geom::{Point2, UpperHull};
use ipch_inplace::sweep::failure_sweep;
use ipch_lp::inplace_bridge::{find_bridge_inplace, sweep_bridge, SAMPLE_ATTEMPTS};
use ipch_pram::prefix::compact_indices;
use ipch_pram::{
    Machine, ModelClass, ModelContract, RaceExpectation, ReduceOp, Shm, WritePolicy, EMPTY,
};

use super::dac::upper_hull_dac;
use super::trace::{LevelRecord, UnsortedTrace};
use crate::HullOutput;

/// How each subproblem picks the abscissa its bridge is probed at
/// (ablation A1 compares these).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum SplitterPolicy {
    /// The paper's §3.1 random vote: a uniformly random problem point.
    #[default]
    RandomVote,
    /// Deterministic mid-extent abscissa (quickhull-flavoured; loses the
    /// paper's probabilistic balance guarantee but skips the vote steps).
    MidExtent,
}

/// The knobs the ablations vary; the defaults are the paper's algorithm.
/// The level schedule is fixed in [`upper_hull_unsorted`] with
/// laptop-scale constants (the paper's n^{1/32}-style exponents only
/// separate regimes at astronomical n — see DESIGN.md §6).
#[derive(Clone, Debug)]
pub struct UnsortedParams {
    /// Round cap of each in-place bridge finding (default 10).
    pub bridge_rounds: usize,
    /// Sample-size parameter for the random vote (workspace 16k).
    pub vote_k: usize,
    /// Disable step 2 (failure sweeping) — the T9 ablation knob. Failed
    /// problems are simply retried at later levels.
    pub disable_sweeping: bool,
    /// Splitter selection (ablation A1).
    pub splitter: SplitterPolicy,
}

impl Default for UnsortedParams {
    fn default() -> Self {
        Self {
            bridge_rounds: 10,
            vote_k: 8,
            disable_sweeping: false,
            splitter: SplitterPolicy::default(),
        }
    }
}

#[derive(Clone, Copy, Debug)]
enum Sol {
    /// Bridge found: split about it.
    Bridge {
        a: usize,
        b: usize,
        edge: usize,
        lchild: i64,
        rchild: i64,
    },
    /// Problem retired (singleton / single column): points withdrawn.
    Retire,
    /// Unsolved this level (failure without sweeping): points stay put.
    Pending,
}

/// Concurrency contract: Arbitrary-CRCW in the paper; every concurrent
/// write here either agrees on the value or resolves by a deterministic
/// declared policy (Priority elections in the bridge oracle, Combine
/// reductions), so memory is independent of the tiebreak seed.
pub const UNSORTED_CONTRACT: ModelContract = ModelContract {
    algorithm: "hull2d/unsorted",
    class: ModelClass::Crcw,
    races: RaceExpectation::Deterministic,
};

/// Run the unsorted 2-D algorithm. Returns the hull output and the trace.
///
/// # Examples
///
/// ```
/// use ipch_geom::generators::circle_plus_interior;
/// use ipch_hull2d::parallel::unsorted::{upper_hull_unsorted, UnsortedParams};
/// use ipch_pram::{Machine, Shm};
///
/// let points = circle_plus_interior(12, 400, 1); // n = 400, hull size 12
/// let mut machine = Machine::new(7);
/// let mut shm = Shm::new();
/// let (out, trace) =
///     upper_hull_unsorted(&mut machine, &mut shm, &points, &UnsortedParams::default());
/// ipch_hull2d::verify_upper_hull(&points, &out.hull).unwrap();
/// out.verify_pointers(&points).unwrap();
/// assert!(machine.metrics.total_steps() > 0);
/// assert!(!trace.levels.is_empty());
/// ```
pub fn upper_hull_unsorted(
    m: &mut Machine,
    shm: &mut Shm,
    points: &[Point2],
    params: &UnsortedParams,
) -> (HullOutput, UnsortedTrace) {
    m.declare_contract(&UNSORTED_CONTRACT);
    let n = points.len();
    let mut trace = UnsortedTrace::default();
    if n == 0 {
        return (
            HullOutput {
                hull: UpperHull::new(vec![]),
                edge_above: vec![],
            },
            trace,
        );
    }
    // precompute the order-isomorphic x-key column once (SoA layout): the
    // per-problem Combining-Max/Min reductions then stream dense i64 loads
    // instead of gathering Point2 structs and re-deriving keys per element,
    // and the winning key decodes back to the bit-identical coordinate.
    let xkeys = ipch_geom::soa::x_keys(points);
    let logn = (n.max(2) as f64).log2();
    // levels per phase (paper: (log n)/32)
    let levels_per_phase = ((logn / 8.0).ceil() as usize).max(2);
    // fallback trigger on `l` (paper: n^{1/32})
    let fallback_threshold = ((n as f64).sqrt().ceil() as usize).max(32);
    // safety cap on total levels
    let max_levels = (4.0 * logn) as usize + 16;
    let sweep_bound = ((n as f64).powf(0.25).ceil() as usize).max(4);

    // shared state: problem number per point (EMPTY = dead/retired),
    // edge pointer per point
    let prob = shm.alloc("uns.prob", n, 0);
    let above = shm.alloc("uns.above", n, EMPTY);

    let mut problems: Vec<Vec<usize>> = vec![(0..n).collect()];
    let mut edges: Vec<(usize, usize)> = Vec::new();
    let mut level = 0usize;
    let mut level_in_phase = 0usize;
    let mut fallback_edges: Vec<(usize, usize)> = Vec::new();

    'outer: while !problems.is_empty() {
        m.metrics.begin_phase("probe");
        if level >= max_levels {
            run_fallback(m, shm, points, &problems, &mut fallback_edges, &mut trace);
            break 'outer;
        }
        let rec = LevelRecord {
            level,
            problems: problems.len(),
            max_size: problems.iter().map(|p| p.len()).max().unwrap_or(0),
            active_points: problems.iter().map(|p| p.len()).sum(),
            failures: 0,
        };
        trace.levels.push(rec);
        let ri = trace.levels.len() - 1;

        // ---- step 1: vote + bridge per problem, in parallel -------------
        let Ok(mut sols) = m.fork_join(
            problems.iter().enumerate(),
            |&(j, _)| (level as u64) << 32 | j as u64,
            |child, (_, ids)| {
                let mut scratch = Shm::new();
                let sol = solve_problem(child, &mut scratch, points, &xkeys, ids, params);
                Ok::<_, Infallible>(sol)
            },
        );
        // number the found edges in problem order
        for sol in &mut sols {
            number_edge(sol, &mut edges);
        }
        let failed: Vec<usize> = (0..sols.len())
            .filter(|&j| matches!(sols[j], Sol::Pending))
            .collect();
        trace.levels[ri].failures = failed.len();

        // ---- step 2: failure sweeping -----------------------------------
        m.metrics.begin_phase("sweep");
        if !failed.is_empty() && !params.disable_sweeping {
            failure_sweep(
                m,
                shm,
                problems.len(),
                &failed,
                sweep_bound,
                0xfa11,
                |child, _, j| {
                    let mut scratch = Shm::new();
                    let ids = &problems[j];
                    sols[j] = sweep_problem(child, &mut scratch, points, &xkeys, ids);
                    number_edge(&mut sols[j], &mut edges);
                    if !matches!(sols[j], Sol::Pending) {
                        trace.swept += 1;
                    }
                },
            );
        }

        // ---- step 4: split (one concurrent step over active points) -----
        m.metrics.begin_phase("split");
        let mut next_lists: Vec<Vec<usize>> = vec![Vec::new(); problems.len() * 2];
        for (j, s) in sols.iter_mut().enumerate() {
            if let Sol::Bridge { lchild, rchild, .. } = s {
                *lchild = (2 * j) as i64;
                *rchild = (2 * j + 1) as i64;
            }
        }
        let sols_ref = &sols;
        let active: Vec<usize> = problems.iter().flatten().copied().collect();
        // Arbitrary never resolves a collision here: each processor writes
        // only its own slot, an exclusive cell.
        m.step_with_policy(shm, &active, WritePolicy::Arbitrary, |ctx| {
            let i = ctx.pid;
            let j = ctx.read(prob, i);
            // a corrupted problem number that names no problem retires
            // the point
            let Some(&sol) = usize::try_from(j).ok().and_then(|j| sols_ref.get(j)) else {
                ctx.write(prob, i, EMPTY);
                return;
            };
            match sol {
                // pending problems park at their left-child slot so the
                // renumbering below sees a consistent 2·#problems id space
                Sol::Pending => ctx.write(prob, i, 2 * j),
                Sol::Retire => ctx.write(prob, i, EMPTY),
                Sol::Bridge {
                    a,
                    b,
                    edge,
                    lchild,
                    rchild,
                } => {
                    let p = points[i];
                    if i == a || (i != b && p.x < points[a].x) {
                        ctx.write(prob, i, lchild);
                    } else if i == b || p.x > points[b].x {
                        ctx.write(prob, i, rchild);
                    } else {
                        ctx.write(prob, i, EMPTY);
                        ctx.write(above, i, edge as i64);
                    }
                }
            }
        });
        // host-side rebuild of the problem lists (in-model: the lists are
        // implicit in `prob`; rebuilding is bookkeeping, not PRAM work)
        for (j, ids) in problems.iter().enumerate() {
            match sols[j] {
                Sol::Pending => {
                    // keep as-is for the next level under its old number;
                    // park it at slot 2j (left child slot)
                    next_lists[2 * j] = ids.clone();
                }
                Sol::Retire => {}
                Sol::Bridge { .. } => {
                    for &i in ids {
                        // EMPTY, or a corrupted slot that names no list:
                        // the point retires
                        let v = usize::try_from(shm.get(prob, i)).ok();
                        if let Some(lst) = v.and_then(|v| next_lists.get_mut(v)) {
                            lst.push(i);
                        }
                    }
                }
            }
        }
        // renumber densely and rewrite problem numbers (one step)
        let mut new_problems: Vec<Vec<usize>> = Vec::new();
        let mut remap: Vec<i64> = vec![EMPTY; next_lists.len()];
        for (slot, lst) in next_lists.into_iter().enumerate() {
            if lst.len() >= 2 {
                remap[slot] = new_problems.len() as i64;
                new_problems.push(lst);
            } else if lst.len() == 1 {
                remap[slot] = -2; // singleton: retire (hull vertex)
            }
        }
        let remap_ref = &remap;
        let still: Vec<usize> = problems.iter().flatten().copied().collect();
        m.step(shm, &still, |ctx| {
            let i = ctx.pid;
            let v = ctx.read(prob, i);
            if v == EMPTY {
                return;
            }
            // a corrupted slot that names no list retires the point
            let slot = usize::try_from(v).ok();
            let r = slot.and_then(|v| remap_ref.get(v)).copied().unwrap_or(-2);
            ctx.write(prob, i, if r == -2 { EMPTY } else { r });
        });
        problems = new_problems;

        // ---- step 3: phase bookkeeping ----------------------------------
        m.metrics.begin_phase("compact");
        level += 1;
        level_in_phase += 1;
        if level_in_phase >= levels_per_phase {
            level_in_phase = 0;
            trace.phases += 1;
            // parallel prefix sum over the problem-id space (the paper's
            // compaction) — executed, O(log) steps
            let count = shm.scope(|shm| {
                let pflags = shm.alloc("uns.pflags", problems.len().max(1), 0);
                for j in 0..problems.len() {
                    shm.host_set(pflags, j, 1);
                }
                let (_, count) = compact_indices(m, shm, pflags);
                count
            });
            let l = edges.len() + count;
            trace.l_history.push(l);
            if l >= fallback_threshold {
                run_fallback(m, shm, points, &problems, &mut fallback_edges, &mut trace);
                break 'outer;
            }
        }
    }
    m.metrics.end_phase();
    trace.probe_edges = edges.len();

    // ---- assembly ---------------------------------------------------------
    let mut chain: Vec<usize> = Vec::new();
    for &(u, v) in edges.iter().chain(fallback_edges.iter()) {
        chain.push(u);
        chain.push(v);
    }
    if chain.is_empty() {
        // no edges at all: single point / single column input
        let top = (0..n)
            .max_by(|&a, &b| points[a].cmp_xy(&points[b]))
            .unwrap();
        let hull = UpperHull::new(vec![top]);
        return (
            HullOutput {
                hull,
                edge_above: vec![usize::MAX; n],
            },
            trace,
        );
    }
    chain.sort_by(|&a, &b| points[a].cmp_xy(&points[b]));
    chain.dedup();
    super::merge::strictify(points, &mut chain);
    let hull = UpperHull::new(chain);

    // map probe edges to final (strictified) edge indices; then one step
    // where every point resolves its pointer (dead points translate their
    // recorded edge, survivors/vertices take the covering edge)
    let mut edge_map: Vec<i64> = vec![EMPTY; edges.len()];
    for (e, &(u, v)) in edges.iter().enumerate() {
        let xm = (points[u].x + points[v].x) / 2.0;
        if let Some(f) = final_edge_over(points, &hull, xm) {
            edge_map[e] = f as i64;
        }
    }
    m.charge(1, edges.len() as u64 + n as u64);
    let mut edge_above = vec![usize::MAX; n];
    for i in 0..n {
        let rec = shm.get(above, i);
        if rec != EMPTY {
            // A record outside the edge map (a corrupted cell) leaves the
            // pointer out of range, which the pointer certificate rejects.
            let Some(&f) = usize::try_from(rec).ok().and_then(|r| edge_map.get(r)) else {
                continue;
            };
            if f != EMPTY {
                edge_above[i] = f as usize;
                continue;
            }
        }
        if let Some(f) = final_edge_over(points, &hull, points[i].x) {
            edge_above[i] = f;
        }
    }
    (HullOutput { hull, edge_above }, trace)
}

/// Append a found bridge to `edges` and record its edge number.
fn number_edge(sol: &mut Sol, edges: &mut Vec<(usize, usize)>) {
    if let Sol::Bridge { a, b, edge, .. } = sol {
        *edge = edges.len();
        edges.push((*a, *b));
    }
}

/// A found bridge, numbered later by [`number_edge`].
fn bridge(a: usize, b: usize) -> Sol {
    Sol::Bridge {
        a,
        b,
        edge: 0,
        lchild: 0,
        rchild: 0,
    }
}

/// Solve one subproblem: random vote for the splitter, then in-place
/// bridge finding.
fn solve_problem(
    child: &mut Machine,
    scratch: &mut Shm,
    points: &[Point2],
    xkeys: &[i64],
    ids: &[usize],
    params: &UnsortedParams,
) -> Sol {
    if ids.len() <= 1 {
        return Sol::Retire;
    }
    let maxx = combine_max_x(child, scratch, xkeys, ids);
    let mut x0 = match params.splitter {
        SplitterPolicy::RandomVote => {
            // random vote (Corollary 3.1); a splitter id outside the
            // input (a corrupted sample cell) is a failed vote
            let Some(splitter) = ipch_inplace::vote::random_vote(
                child,
                scratch,
                ids,
                params.vote_k,
                SAMPLE_ATTEMPTS,
            )
            .and_then(|s| points.get(s)) else {
                return Sol::Pending;
            };
            splitter.x
        }
        SplitterPolicy::MidExtent => {
            let minx = combine_min_x(child, scratch, xkeys, ids);
            (minx + maxx) / 2.0
        }
    };
    // splitter in the rightmost column? (one Combining-Max step)
    if x0 >= maxx {
        // probe the edge *arriving* at the rightmost column instead
        let Some(second) = combine_max_x_below(child, scratch, xkeys, ids, maxx) else {
            return Sol::Retire; // single column: top is a hull vertex
        };
        x0 = (second + maxx) / 2.0;
    }
    match find_bridge_inplace(child, scratch, points, ids, x0, params.bridge_rounds) {
        Some((b, _)) => bridge(b.left, b.right),
        None => Sol::Pending,
    }
}

/// Sweeping oracle: brute-force for small problems (the paper's n^{3/4}
/// processors cover any whp-failing problem), generous-budget retry for
/// improbably-large failures.
fn sweep_problem(
    child: &mut Machine,
    scratch: &mut Shm,
    points: &[Point2],
    xkeys: &[i64],
    ids: &[usize],
) -> Sol {
    if ids.len() <= 1 {
        return Sol::Retire;
    }
    let maxx = combine_max_x(child, scratch, xkeys, ids);
    let Some(second) = combine_max_x_below(child, scratch, xkeys, ids, maxx) else {
        return Sol::Retire;
    };
    // deterministic splitter: the middle of the problem's x-extent
    let minx = combine_min_x(child, scratch, xkeys, ids);
    let x0 = (minx + maxx) / 2.0;
    let x0 = if x0 >= maxx {
        (second + maxx) / 2.0
    } else {
        x0
    };
    match sweep_bridge(child, scratch, points, ids, x0) {
        Some(b) => bridge(b.left, b.right),
        None => Sol::Pending,
    }
}

// The extent reductions run over the precomputed SoA key column
// (`ipch_geom::soa::x_keys`): the kernel closure is a dense i64 load, and
// the reduced key decodes back to the bit-identical coordinate via
// `f64_from_key` — no host-side rescan of the id list.

fn combine_max_x(m: &mut Machine, shm: &mut Shm, xkeys: &[i64], ids: &[usize]) -> f64 {
    let key = shm.scope(|shm| {
        let cell = shm.alloc("uns.maxx", 1, i64::MIN);
        m.kernel_reduce(shm, ids, ReduceOp::Max, cell, 0, |_, i| Some(xkeys[i]));
        shm.get(cell, 0)
    });
    f64_from_key(key)
}

fn combine_min_x(m: &mut Machine, shm: &mut Shm, xkeys: &[i64], ids: &[usize]) -> f64 {
    let key = shm.scope(|shm| {
        let cell = shm.alloc("uns.minx", 1, i64::MAX);
        m.kernel_reduce(shm, ids, ReduceOp::Min, cell, 0, |_, i| Some(xkeys[i]));
        shm.get(cell, 0)
    });
    f64_from_key(key)
}

/// Max x strictly below `below`; `None` if the problem is a single column.
fn combine_max_x_below(
    m: &mut Machine,
    shm: &mut Shm,
    xkeys: &[i64],
    ids: &[usize],
    below: f64,
) -> Option<f64> {
    // strict monotonicity of the key mapping: x < below ⟺ key(x) < key(below)
    let below_key = f64_key(below);
    let key = shm.scope(|shm| {
        let cell = shm.alloc("uns.max2", 1, i64::MIN);
        m.kernel_reduce(shm, ids, ReduceOp::Max, cell, 0, |_, i| {
            if xkeys[i] < below_key {
                Some(xkeys[i])
            } else {
                None
            }
        });
        shm.get(cell, 0)
    });
    if key == i64::MIN {
        return None;
    }
    Some(f64_from_key(key))
}

fn run_fallback(
    m: &mut Machine,
    shm: &mut Shm,
    points: &[Point2],
    problems: &[Vec<usize>],
    fallback_edges: &mut Vec<(usize, usize)>,
    trace: &mut UnsortedTrace,
) {
    trace.fallback = true;
    let actives: Vec<usize> = problems.iter().flatten().copied().collect();
    if actives.len() < 2 {
        return;
    }
    let sub: Vec<Point2> = actives.iter().map(|&i| points[i]).collect();
    let out = upper_hull_dac(m, shm, &sub, false);
    for w in out.hull.vertices.windows(2) {
        fallback_edges.push((actives[w[0]], actives[w[1]]));
    }
}

fn final_edge_over(points: &[Point2], hull: &UpperHull, x: f64) -> Option<usize> {
    let vs = &hull.vertices;
    if vs.len() < 2 || x < points[vs[0]].x || x > points[vs[vs.len() - 1]].x {
        return None;
    }
    let (mut lo, mut hi) = (0usize, vs.len() - 1);
    while lo + 1 < hi {
        let mid = (lo + hi) / 2;
        if points[vs[mid]].x <= x {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    Some(lo)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipch_geom::generators::{
        circle_plus_interior, collinear_on_line, grid, on_circle, uniform_disk, uniform_square,
    };
    use ipch_geom::hull_chain::verify_upper_hull;

    fn run(
        points: &[Point2],
        seed: u64,
        params: &UnsortedParams,
    ) -> (HullOutput, UnsortedTrace, Machine) {
        let mut m = Machine::new(seed);
        let mut shm = Shm::new();
        let (out, trace) = upper_hull_unsorted(&mut m, &mut shm, points, params);
        (out, trace, m)
    }

    /// Regression for the sweep/election fixes: the whole algorithm (bridge
    /// elections included) must satisfy its declared contract — races may
    /// be benign or policy-deterministic, never tiebreak-seed-dependent.
    #[test]
    fn analyzer_pins_contract() {
        use ipch_pram::AnalyzeConfig;
        let pts = uniform_disk(512, 7);
        let mut m = Machine::new(3);
        m.enable_analysis(AnalyzeConfig::default());
        let mut shm = Shm::new();
        shm.enable_shadow(true);
        upper_hull_unsorted(&mut m, &mut shm, &pts, &UnsortedParams::default());
        let r = m.analysis_report().unwrap();
        assert_eq!(r.contract.unwrap().algorithm, "hull2d/unsorted");
        assert!(r.is_clean(), "{}", r.render());
        assert_eq!(r.seed_dependent_races, 0);
        assert_eq!(r.unconfirmed_arbitrary_races, 0);
        assert_eq!(r.uninit_reads, 0);
        assert!(r.deterministic_races > 0, "elections should be exercised");
    }

    /// A pointer left at `usize::MAX` (an `above` record outside the edge
    /// map, from a corrupted cell) fails the pointer certificate with a
    /// typed message instead of overflowing or indexing past the hull.
    #[test]
    fn out_of_range_pointer_fails_the_certificate() {
        let pts = uniform_disk(256, 4);
        let (mut out, _, _) = run(&pts, 4, &UnsortedParams::default());
        out.verify_pointers(&pts)
            .expect("a fault-free run certifies");
        out.edge_above[17] = usize::MAX;
        let e = out.verify_pointers(&pts).unwrap_err();
        assert!(e.contains("point 17") && e.contains("out of range"), "{e}");
    }

    #[test]
    fn matches_oracle_random() {
        for seed in 0..6 {
            let pts = uniform_disk(1000, seed);
            let (out, _, _) = run(&pts, seed, &UnsortedParams::default());
            verify_upper_hull(&pts, &out.hull).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            assert_eq!(out.hull, UpperHull::of(&pts), "seed {seed}");
            out.verify_pointers(&pts)
                .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        }
    }

    #[test]
    fn degenerate_and_tiny_inputs() {
        let cases: Vec<Vec<Point2>> = vec![
            vec![],
            vec![Point2::new(1.0, 1.0)],
            vec![Point2::new(0.0, 0.0), Point2::new(1.0, 1.0)],
            vec![Point2::new(0.0, 0.0), Point2::new(0.0, 1.0)], // one column
            collinear_on_line(50, -1.0, 2.0, 1),
            grid(100),
            ipch_geom::generators::duplicated(
                &[
                    Point2::new(0.0, 0.0),
                    Point2::new(2.0, 1.0),
                    Point2::new(4.0, 0.0),
                ],
                30,
            ),
        ];
        for (i, pts) in cases.iter().enumerate() {
            let (out, _, _) = run(pts, i as u64 + 10, &UnsortedParams::default());
            verify_upper_hull(pts, &out.hull).unwrap_or_else(|e| panic!("case {i}: {e}"));
            // compare by coordinates: duplicate inputs admit several id
            // choices for the same geometric hull
            let got: Vec<Point2> = out.hull.vertices.iter().map(|&v| pts[v]).collect();
            let expect: Vec<Point2> = UpperHull::of(pts)
                .vertices
                .iter()
                .map(|&v| pts[v])
                .collect();
            assert_eq!(got, expect, "case {i}");
            out.verify_pointers(pts)
                .unwrap_or_else(|e| panic!("case {i}: {e}"));
        }
    }

    #[test]
    fn output_sensitive_work() {
        // fixed n, growing h: total work should grow like log h (before the
        // fallback saturates it)
        let n = 8192;
        let mut works = Vec::new();
        for h in [8usize, 64] {
            let pts = circle_plus_interior(h, n, 3);
            let (out, _, m) = run(&pts, 5, &UnsortedParams::default());
            assert_eq!(out.hull, UpperHull::of(&pts), "h={h}");
            works.push(m.metrics.total_work());
        }
        // 8× more hull edges should cost well under 8× the work
        assert!(works[1] < 4 * works[0], "not output-sensitive: {works:?}");
    }

    /// Theorem 5's O(n log h) shape on T3's inputs (n = 8192, h = 8, 32,
    /// 128, point seeds 17–21 and machine seeds 5–9, averaged as T3
    /// averages): work/(n·log₂h) reads 14.4, 17.0 and 19.7 before the
    /// fallback, pinned here within 10 %. With the base solve at Θ(b²)
    /// work, per-subproblem costs are in view: the Θ(p^⅓)-point bases of a
    /// level with s subproblems cost Θ(n^⅔·s^⅓), at most n but rising
    /// with s, so the ratio climbs with h. An O(n)-per-subproblem cost (a
    /// compaction source spanning the input) or a base solve testing every
    /// pair against every point moves it far outside the pin (43, 44 and
    /// 38 with the b³ knock-out base solve).
    #[test]
    fn work_per_n_log_h_is_flat() {
        let n = 8192;
        for (h, pinned) in [(8usize, 14.4), (32, 17.0), (128, 19.7)] {
            let mut work = 0;
            for seed in 0..5 {
                let pts = circle_plus_interior(h, n, 17 + seed);
                let (out, trace, m) = run(&pts, 5 + seed, &UnsortedParams::default());
                assert!(!trace.fallback, "h={h} seed {seed} fell back");
                assert_eq!(out.hull, UpperHull::of(&pts), "h={h} seed {seed}");
                work += m.metrics.total_work();
            }
            let per_log_h = work as f64 / 5.0 / (n as f64 * (h as f64).log2());
            assert!(
                (per_log_h / pinned - 1.0).abs() < 0.1,
                "h={h}: work/(n·log₂h) {per_log_h:.2}, pinned {pinned}"
            );
        }
    }

    #[test]
    fn large_h_triggers_fallback() {
        let pts = on_circle(4096, 7);
        let (out, trace, _) = run(&pts, 2, &UnsortedParams::default());
        assert!(trace.fallback, "h = n must certify and fall back");
        assert_eq!(out.hull, UpperHull::of(&pts));
        out.verify_pointers(&pts).unwrap();
    }

    #[test]
    fn small_h_avoids_fallback() {
        let pts = circle_plus_interior(8, 4096, 9);
        let (out, trace, _) = run(&pts, 3, &UnsortedParams::default());
        assert!(!trace.fallback, "h = 8 must finish by probing");
        assert_eq!(out.hull, UpperHull::of(&pts));
    }

    #[test]
    fn logarithmic_levels() {
        for n in [1024usize, 8192] {
            let pts = uniform_square(n, 11);
            let (_, trace, _) = run(&pts, 4, &UnsortedParams::default());
            let cap = 3 * (n as f64).log2() as usize + 8;
            assert!(
                trace.levels.len() <= cap,
                "n={n}: {} levels",
                trace.levels.len()
            );
        }
    }

    #[test]
    fn subproblem_sizes_decay() {
        // Lemma 5.1 flavor: max subproblem size decays geometrically
        let pts = uniform_disk(8192, 13);
        let (_, trace, _) = run(&pts, 6, &UnsortedParams::default());
        if trace.levels.len() >= 7 {
            let early = trace.levels[0].max_size as f64;
            let later = trace.levels[6].max_size as f64;
            assert!(later < early * 0.8, "no decay: {early} -> {later}");
        }
    }

    #[test]
    fn sweeping_ablation_still_correct() {
        let pts = uniform_disk(2000, 17);
        let params = UnsortedParams {
            disable_sweeping: true,
            ..UnsortedParams::default()
        };
        let (out, _, _) = run(&pts, 7, &params);
        assert_eq!(out.hull, UpperHull::of(&pts));
    }

    #[test]
    fn phase_breakdown_recorded() {
        let pts = uniform_disk(800, 21);
        let (_, _, m) = run(&pts, 1, &UnsortedParams::default());
        let probe = m.metrics.phase("probe").expect("probe phase");
        assert!(probe.steps > 0);
        let split = m.metrics.phase("split").expect("split phase");
        assert!(split.steps > 0);
        // phases partition the totals
        let sum: u64 = m.metrics.phases.iter().map(|p| p.steps).sum();
        assert_eq!(sum, m.metrics.steps);
    }

    #[test]
    fn mid_extent_splitter_is_correct() {
        for seed in 0..4 {
            let pts = uniform_disk(1200, seed + 30);
            let params = UnsortedParams {
                splitter: SplitterPolicy::MidExtent,
                ..UnsortedParams::default()
            };
            let (out, _, _) = run(&pts, seed, &params);
            assert_eq!(out.hull, UpperHull::of(&pts), "seed {seed}");
            out.verify_pointers(&pts).unwrap();
        }
    }

    #[test]
    fn forced_failures_swept() {
        let pts = uniform_disk(3000, 19);
        let params = UnsortedParams {
            bridge_rounds: 0,
            ..UnsortedParams::default()
        };
        let (out, trace, _) = run(&pts, 8, &params);
        assert!(trace.swept > 0);
        assert_eq!(out.hull, UpperHull::of(&pts));
    }

    /// Cell corruption can leave any value in a point's `prob` register,
    /// `EMPTY ^ 1` included. The split step, the host rebuild and the
    /// renumber step read it back bounded: a number that names no problem
    /// or list retires the point, so no run indexes out of bounds (its
    /// answer is the certificate's business, not this test's).
    #[test]
    fn corrupted_problem_numbers_never_index_out_of_bounds() {
        use ipch_pram::FaultPlan;
        for n in [64, 256] {
            for seed in 0..80 {
                let pts = uniform_disk(n, seed);
                let mut m = Machine::new(seed);
                m.install_faults(FaultPlan {
                    corrupt_rate: 0.05,
                    ..FaultPlan::default()
                });
                let mut shm = Shm::new();
                upper_hull_unsorted(&mut m, &mut shm, &pts, &UnsortedParams::default());
                assert!(m.metrics.faults.corrupted_cells > 0, "n={n} seed={seed}");
            }
        }
    }
}
