//! The presorted O(1)-time hull algorithm (paper §2.2–§2.3, Lemma 2.5).
//!
//! Given n x-sorted points, consider a complete binary tree built on top of
//! them. For every internal node v, find the *bridge* of v's subtree over
//! v's median boundary; the union of all bridges contains every hull edge.
//!
//! * Nodes with ≥ `small_threshold` points (paper: log³n) use the
//!   randomized in-place bridge finder (§3.3 — the paper's constant-time
//!   stand-in for Alon–Megiddo, with matching bounds), which can *fail*;
//!   **failure sweeping** (§2.3) compacts the failed nodes with Ragde's
//!   algorithm and re-solves each with the super-linear brute-force bridge
//!   oracle.
//! * Smaller nodes use the deterministic folklore algorithm (Lemma 2.4
//!   with k = 3, m^{4/3} processors) and read the bridge off the subtree
//!   hull.
//! * One concurrent **cover step** ((#nodes)·depth processors, "this
//!   amounts to an OR") marks every node whose bridge is spanned by an
//!   ancestor's bridge; the uncovered bridges are exactly the hull edges.
//! * One **point step** ((#points)·depth processors, Observation 2.1
//!   style) finds each point's lowest uncovered ancestor whose bridge
//!   spans it — the edge above the point.
//!
//! All node subproblems run in parallel (time = max, work = sum), so the
//! whole algorithm costs O(1) PRAM steps with O(n log n) work — Lemma 2.5.
//! Every step of this pipeline is executed on the simulator; experiment T1
//! tabulates the flat step counts and the failure-sweep activations.

use std::convert::Infallible;

use ipch_geom::{Point2, UpperHull};
use ipch_inplace::sweep::failure_sweep;
use ipch_lp::bridge::Bridge;
use ipch_lp::inplace_bridge::{find_bridge_inplace, sweep_bridge};
use ipch_pram::{
    Machine, ModelClass, ModelContract, Pids, RaceExpectation, Shm, WritePolicy, EMPTY,
};

use super::folklore::upper_hull_folklore;
use crate::HullOutput;

/// Tuning parameters; defaults follow the paper.
#[derive(Clone, Debug)]
pub struct PresortedParams {
    /// Nodes smaller than this use the deterministic Lemma 2.4 path.
    /// `None` = ⌈log₂n⌉³ (the paper's log³n threshold).
    pub small_threshold: Option<usize>,
    /// Lemma 2.4's k for small nodes (paper: 3).
    pub folklore_k: usize,
    /// Failure-sweep compaction capacity. `None` = max(4, ⌈n^{1/4}⌉).
    pub sweep_bound: Option<usize>,
    /// Round cap of the in-place bridge finding on big nodes (default 8).
    pub bridge_rounds: usize,
}

impl Default for PresortedParams {
    fn default() -> Self {
        Self {
            small_threshold: None,
            folklore_k: 3,
            sweep_bound: None,
            bridge_rounds: 8,
        }
    }
}

/// Diagnostics for experiment T1/T9.
#[derive(Clone, Debug, Default)]
pub struct PresortedReport {
    /// Internal nodes processed.
    pub nodes: usize,
    /// Nodes that took the randomized (big) path.
    pub randomized_nodes: usize,
    /// Big-node failures swept by the brute-force oracle.
    pub swept_failures: usize,
    /// Whether the Ragde compaction of failures overflowed (the
    /// exponentially-rare event of Lemma 2.5).
    pub sweep_overflow: bool,
    /// Tree depth.
    pub depth: usize,
}

struct Node {
    lo: usize,
    hi: usize,
    mid: usize,
    level: usize,
}

fn build_tree(n: usize) -> (Vec<Node>, usize) {
    // BFS over segments [lo, hi) with hi - lo >= 2; boundary at mid.
    let mut nodes = Vec::new();
    let mut frontier = vec![(0usize, n, 0usize)];
    let mut depth = 0;
    while let Some((lo, hi, level)) = frontier.pop() {
        if hi - lo < 2 {
            continue;
        }
        let mid = (lo + hi) / 2;
        nodes.push(Node { lo, hi, mid, level });
        depth = depth.max(level + 1);
        frontier.push((lo, mid, level + 1));
        frontier.push((mid, hi, level + 1));
    }
    (nodes, depth)
}

/// Concurrency contract: Arbitrary-CRCW in the paper; here every
/// concurrent-write step either agrees on the value or resolves by a
/// declared deterministic policy (Priority elections, Combine reductions),
/// so the committed memory never depends on the simulator's tiebreak seed.
pub const PRESORTED_CONTRACT: ModelContract = ModelContract {
    algorithm: "hull2d/presorted",
    class: ModelClass::Crcw,
    races: RaceExpectation::Deterministic,
};

/// The presorted O(1)-time algorithm. `points` must be sorted by
/// [`Point2::cmp_xy`]. Returns the hull output and a diagnostics report.
pub fn upper_hull_presorted(
    m: &mut Machine,
    shm: &mut Shm,
    points: &[Point2],
    params: &PresortedParams,
) -> (HullOutput, PresortedReport) {
    m.declare_contract(&PRESORTED_CONTRACT);
    let mut report = PresortedReport::default();
    let n = points.len();
    if n == 0 {
        return (
            HullOutput {
                hull: UpperHull::new(vec![]),
                edge_above: vec![],
            },
            report,
        );
    }
    // column tops (one step); `pos` below indexes this deduplicated list
    let all: Vec<usize> = (0..n).collect();
    let ids = crate::column_tops_pram(m, shm, points, &all);
    let np = ids.len();
    if np == 1 {
        return (
            HullOutput {
                hull: UpperHull::new(vec![ids[0]]),
                edge_above: vec![usize::MAX; n],
            },
            report,
        );
    }

    let (nodes, depth) = build_tree(np);
    report.nodes = nodes.len();
    report.depth = depth;
    let logn = (np.max(2) as f64).log2();
    let small = params
        .small_threshold
        .unwrap_or((logn.powi(3).ceil() as usize).max(8));
    let sweep_bound = params
        .sweep_bound
        .unwrap_or(((np as f64).powf(0.25).ceil() as usize).max(4));

    let x0s: Vec<f64> = nodes
        .iter()
        .map(|v| (points[ids[v.mid - 1]].x + points[ids[v.mid]].x) / 2.0)
        .collect();

    // --- bridge finding, all nodes in parallel --------------------------
    let mut failed_big: Vec<usize> = Vec::new();
    let Ok(mut bridges) = m.fork_join_seq(
        nodes.iter().enumerate(),
        |&(vi, _)| vi as u64 ^ 0x9e5,
        |child, (vi, v)| {
            let span = &ids[v.lo..v.hi];
            if span.len() < small {
                // deterministic Lemma 2.4 path
                let hull = upper_hull_folklore(child, shm, points, span, params.folklore_k);
                // read the bridge off the subtree hull (charged O(1) lookup)
                child.charge(1, span.len() as u64);
                return Ok::<_, Infallible>(hull_edge_over(points, &hull, x0s[vi]));
            }
            report.randomized_nodes += 1;
            let b = find_bridge_inplace(child, shm, points, span, x0s[vi], params.bridge_rounds);
            if b.is_none() {
                failed_big.push(vi);
            }
            Ok(b.map(|(b, _trace)| b))
        },
    );

    // --- failure sweeping (§2.3) ----------------------------------------
    if report.randomized_nodes > 0 {
        let swept = failure_sweep(
            m,
            shm,
            nodes.len(),
            &failed_big,
            sweep_bound,
            0x5eeb,
            |child, shm, vi| {
                let span = &ids[nodes[vi].lo..nodes[vi].hi];
                bridges[vi] = sweep_bridge(child, shm, points, span, x0s[vi]);
            },
        );
        report.swept_failures += swept.list.len();
        report.sweep_overflow = swept.overflow;
    }

    // --- cover step ------------------------------------------------------
    // per-leaf ancestor paths (host wiring: tree addressing is
    // input-independent)
    let mut paths: Vec<Vec<u32>> = vec![Vec::new(); np];
    for (vi, v) in nodes.iter().enumerate() {
        for path in paths.iter_mut().take(v.hi).skip(v.lo) {
            path.push(vi as u32);
        }
    }
    for p in paths.iter_mut() {
        p.sort_by_key(|&vi| nodes[vi as usize].level);
    }

    let covered = shm.alloc("pres.cov", nodes.len(), 0);
    let bspan: Vec<Option<(f64, f64)>> = bridges
        .iter()
        .map(|b| b.map(|b| (points[b.left].x, points[b.right].x)))
        .collect();
    // processor (node, ancestor-level): covered[v] |= ancestor bridge spans x0_v
    let nodes_ref = &nodes;
    let paths_ref = &paths;
    let bspan_ref = &bspan;
    let x0s_ref = &x0s;
    let grid = Pids::Grid([1, nodes.len(), depth]);
    m.step_with_policy(shm, grid, WritePolicy::CombineOr, |ctx| {
        let [_, vi, lvl] = ctx.coord();
        let v = &nodes_ref[vi];
        if lvl >= v.level {
            return; // only strict ancestors
        }
        // the ancestor of v at level `lvl` contains v's leaves; read it off
        // the path of v's leftmost leaf
        let anc = paths_ref[v.lo][lvl] as usize;
        if anc == vi {
            return;
        }
        if let Some((lx, rx)) = bspan_ref[anc] {
            if lx <= x0s_ref[vi] && x0s_ref[vi] <= rx {
                ctx.write(covered, vi, 1);
            }
        }
    });

    // --- assemble hull ----------------------------------------------------
    let mut chain: Vec<usize> = Vec::new();
    for (vi, b) in bridges.iter().enumerate() {
        if shm.get(covered, vi) == 0 {
            if let Some(b) = b {
                chain.push(b.left);
                chain.push(b.right);
            }
        }
    }
    chain.sort_by(|&a, &b| points[a].cmp_xy(&points[b]));
    chain.dedup();
    super::merge::strictify(points, &mut chain);
    let hull = UpperHull::new(chain);

    // --- point step --------------------------------------------------------
    // map uncovered nodes to final (strictified) edge indices, host wiring
    let mut node_edge: Vec<i64> = vec![EMPTY; nodes.len()];
    for (vi, b) in bridges.iter().enumerate() {
        if shm.get(covered, vi) == 0 {
            if let Some(b) = b {
                let xm = (points[b.left].x + points[b.right].x) / 2.0;
                if let Some(e) = final_edge_over(points, &hull, xm) {
                    node_edge[vi] = e as i64;
                }
            }
        }
    }
    m.charge(1, nodes.len() as u64);

    // lowest qualifying ancestor per column-top position (CombineMax over
    // levels), then one step to read off the edge
    let chosen = shm.alloc("pres.lvl", np, EMPTY);
    let ne = hull.num_edges();
    let node_edge_ref = &node_edge;
    let grid = Pids::Grid([1, np, depth]);
    m.step_with_policy(shm, grid, WritePolicy::CombineMax, |ctx| {
        let [_, pos, lvl] = ctx.coord();
        if lvl >= paths_ref[pos].len() {
            return;
        }
        let vi = paths_ref[pos][lvl] as usize;
        if node_edge_ref[vi] == EMPTY {
            return;
        }
        if let Some((lx, rx)) = bspan_ref[vi] {
            let px = points[ids[pos]].x;
            if lx <= px && px <= rx {
                ctx.write(chosen, pos, lvl as i64);
            }
        }
    });
    let ids_ref = &ids;
    let above_top = shm.alloc("pres.above", np, EMPTY);
    m.step(shm, 0..np, |ctx| {
        let pos = ctx.pid;
        let lvl = ctx.read(chosen, pos);
        if lvl == EMPTY {
            return;
        }
        let vi = paths_ref[pos][lvl as usize] as usize;
        ctx.write(above_top, pos, node_edge_ref[vi]);
    });
    let _ = (ne, ids_ref);

    // expand column-top pointers to all points (one step: each original
    // point reads its column top's pointer; column-mates share the edge)
    let mut edge_above = vec![usize::MAX; n];
    // host map: x value -> top position (points sorted, so walk)
    let mut top_of = vec![usize::MAX; n];
    {
        let mut ti = 0usize;
        for i in 0..n {
            while ti + 1 < np && points[ids[ti]].x < points[i].x {
                ti += 1;
            }
            if points[ids[ti]].x == points[i].x {
                top_of[i] = ti;
            }
        }
    }
    m.charge(1, n as u64);
    for i in 0..n {
        let t = top_of[i];
        if t != usize::MAX {
            let e = shm.get(above_top, t);
            if e != EMPTY {
                edge_above[i] = e as usize;
            }
        }
    }
    // endpoints of the chain may fall outside every bridge span on
    // degenerate inputs; patch them from the final hull (host, charged)
    m.charge(1, n as u64);
    if hull.num_edges() > 0 {
        for i in 0..n {
            if edge_above[i] == usize::MAX {
                if let Some(e) = final_edge_over(points, &hull, points[i].x) {
                    edge_above[i] = e;
                }
            }
        }
    }

    (HullOutput { hull, edge_above }, report)
}

/// The hull edge (left-endpoint position) of `hull` crossing `x0`, if any.
fn hull_edge_over(points: &[Point2], hull: &UpperHull, x0: f64) -> Option<Bridge> {
    let e = final_edge_over(points, hull, x0)?;
    Some(Bridge {
        left: hull.vertices[e],
        right: hull.vertices[e + 1],
    })
}

fn final_edge_over(points: &[Point2], hull: &UpperHull, x0: f64) -> Option<usize> {
    if hull.vertices.len() < 2 {
        return None;
    }
    let vs = &hull.vertices;
    if x0 < points[vs[0]].x || x0 > points[vs[vs.len() - 1]].x {
        return None;
    }
    let mut lo = 0usize;
    let mut hi = vs.len() - 1;
    while lo + 1 < hi {
        let mid = (lo + hi) / 2;
        if points[vs[mid]].x <= x0 {
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
    use ipch_geom::generators::{circle_plus_interior, on_circle, uniform_disk, uniform_square};
    use ipch_geom::hull_chain::verify_upper_hull;
    use ipch_geom::point::sorted_by_x;

    fn run(
        points: &[Point2],
        seed: u64,
        params: &PresortedParams,
    ) -> (HullOutput, PresortedReport, Machine) {
        let mut m = Machine::new(seed);
        let mut shm = Shm::new();
        let (out, rep) = upper_hull_presorted(&mut m, &mut shm, points, params);
        (out, rep, m)
    }

    #[test]
    fn matches_oracle_on_random_inputs() {
        for seed in 0..6 {
            let pts = sorted_by_x(&uniform_disk(400, seed));
            let (out, _, _) = run(&pts, seed, &PresortedParams::default());
            verify_upper_hull(&pts, &out.hull).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            assert_eq!(out.hull, UpperHull::of(&pts), "seed {seed}");
            out.verify_pointers(&pts)
                .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        }
    }

    #[test]
    fn randomized_path_exercised_with_low_threshold() {
        let pts = sorted_by_x(&uniform_disk(2000, 3));
        let params = PresortedParams {
            small_threshold: Some(64),
            ..PresortedParams::default()
        };
        let (out, rep, _) = run(&pts, 3, &params);
        assert!(rep.randomized_nodes > 10, "{}", rep.randomized_nodes);
        assert_eq!(out.hull, UpperHull::of(&pts));
        out.verify_pointers(&pts).unwrap();
    }

    #[test]
    fn constant_time_in_n() {
        // O(1) time: the step count is bounded by a constant independent of
        // n (it rises once nodes cross the log³n randomized-path threshold,
        // then saturates — the bound is max_rounds · per-round cost, not a
        // function of n). Check the absolute bound and the saturation.
        let mut steps = Vec::new();
        for n in [512usize, 2048, 8192, 16384] {
            let pts = sorted_by_x(&uniform_square(n, 5));
            let (_, _, m) = run(&pts, 1, &PresortedParams::default());
            steps.push(m.metrics.total_steps());
        }
        assert!(
            steps.iter().all(|&s| s <= 400),
            "steps exceed O(1) cap: {steps:?}"
        );
        let last = steps[steps.len() - 1] as f64;
        let prev = steps[steps.len() - 2] as f64;
        assert!(
            last / prev < 1.8,
            "steps still growing fast at large n: {steps:?}"
        );
    }

    /// Small (folklore) and big (randomized) nodes find their bridges side
    /// by side, so bridge finding costs the slowest node. While a big node
    /// is the slowest, changing the folklore method's cost on the small
    /// nodes must leave the total time unchanged.
    #[test]
    fn bridge_finding_time_is_the_slowest_node_of_any_kind() {
        let pts = sorted_by_x(&uniform_disk(2000, 3));
        let steps = |folklore_k| {
            let params = PresortedParams {
                small_threshold: Some(128),
                folklore_k,
                ..PresortedParams::default()
            };
            let (out, rep, m) = run(&pts, 5, &params);
            verify_upper_hull(&pts, &out.hull).unwrap();
            assert!(rep.randomized_nodes > 0 && rep.randomized_nodes < rep.nodes);
            m.metrics.steps
        };
        assert_eq!(steps(2), steps(3));
        assert_eq!(steps(2), steps(4));
    }

    #[test]
    fn work_is_n_log_n_scale() {
        let n = 4096;
        let pts = sorted_by_x(&uniform_disk(n, 7));
        let (_, _, m) = run(&pts, 2, &PresortedParams::default());
        let bound = 600 * (n as u64) * (n as f64).log2() as u64;
        assert!(
            m.metrics.total_work() < bound,
            "work {} vs bound {bound}",
            m.metrics.total_work()
        );
    }

    #[test]
    fn hull_heavy_and_degenerate_inputs() {
        let cases: Vec<Vec<Point2>> = vec![
            sorted_by_x(&on_circle(300, 2)),
            sorted_by_x(&circle_plus_interior(32, 500, 3)),
            sorted_by_x(&ipch_geom::generators::grid(144)),
            sorted_by_x(&ipch_geom::generators::collinear_on_line(100, 2.0, 0.0, 4)),
            vec![],
            vec![Point2::new(0.0, 0.0)],
            vec![Point2::new(0.0, 0.0), Point2::new(1.0, 1.0)],
            vec![Point2::new(0.0, 0.0), Point2::new(0.0, 1.0)], // single column
        ];
        for (i, pts) in cases.iter().enumerate() {
            let (out, _, _) = run(pts, i as u64, &PresortedParams::default());
            verify_upper_hull(pts, &out.hull).unwrap_or_else(|e| panic!("case {i}: {e}"));
            assert_eq!(out.hull, UpperHull::of(pts), "case {i}");
            out.verify_pointers(pts)
                .unwrap_or_else(|e| panic!("case {i}: {e}"));
        }
    }

    #[test]
    fn forced_failures_are_swept() {
        // cripple the randomized finder so it always fails; sweeping must
        // still deliver the exact hull
        let pts = sorted_by_x(&uniform_disk(1500, 9));
        let params = PresortedParams {
            small_threshold: Some(32),
            bridge_rounds: 0, // never succeeds
            sweep_bound: Some(4096),
            ..PresortedParams::default()
        };
        let (out, rep, _) = run(&pts, 4, &params);
        assert!(rep.swept_failures > 0);
        assert_eq!(out.hull, UpperHull::of(&pts));
        out.verify_pointers(&pts).unwrap();
    }
}
