//! Point-hull invariance (paper §2.4, Lemma 2.6).
//!
//! An algorithm is *point-hull invariant* if it can run with upper hulls
//! as its ground elements instead of points, replacing the three point
//! primitives with their hull analogues (Atallah–Goodrich):
//!
//! | point/line primitive | hull primitive used here |
//! |---|---|
//! | side-of-line test | does the hull poke above the line? ([`ipch_geom::hullops::hull_above_line`]) |
//! | line through two points | common upper tangent ([`ipch_geom::hullops::common_upper_tangent`]) |
//! | line ∩ line | hull ∩ hull (only needed implicitly: tangent contacts) |
//!
//! [`bridge_over_hulls`] is the §3.3 bridge finder with hulls as elements:
//! random-sample Θ(k) hulls (an **executed** dart-throwing sample over
//! hull ids), solve the base by brute force over left×right hull pairs
//! (tangent + above-line feasibility), filter surviving hulls, repeat.
//! [`hull_of_hulls`] then runs the §2.2 tree-of-bridges over group
//! boundaries and stitches tangent edges with the surviving runs of the
//! original hulls — Lemma 2.6's "constant time upper hull algorithm on
//! hulls".
//!
//! Hull-primitive costs: each tangent / above-line query is executed
//! host-side (the above-line test in O(log q), the tangent by an
//! O(|a| + |b|) walk) and **charged** at the Atallah–Goodrich parallel
//! cost (O(1) steps, √q processors — the b = 2 instance of their
//! q^{1/b}-ary search); sampling and survivor bookkeeping are executed
//! steps on the simulator.

use ipch_geom::hullops::{common_upper_tangent, hull_above_line};
use ipch_geom::{Point2, UpperHull};
use ipch_inplace::sample::random_sample_with_p;
use ipch_lp::bridge::Bridge;
use ipch_lp::inplace_bridge::SAMPLE_ATTEMPTS;
use ipch_pram::{Machine, Pids, RunError, Shm, WritePolicy};

/// Round cap of [`bridge_over_hulls`] before it reports failure and
/// [`hull_of_hulls`] sweeps the node by brute force.
pub const HULL_BRIDGE_MAX_ROUNDS: usize = 12;

/// Find the bridge of the union of the x-disjoint `groups` straddling
/// `x = x0` (which must separate two groups), treating each hull as one
/// ground element. Returns endpoint *point ids*.
pub fn bridge_over_hulls(
    m: &mut Machine,
    shm: &mut Shm,
    points: &[Point2],
    groups: &[UpperHull],
    x0: f64,
) -> Option<Bridge> {
    let g = groups.len();
    if g < 2 {
        return None;
    }
    let qmax = groups.iter().map(|h| h.len()).max().unwrap_or(1);
    // base parameter k = g^{1/3} over the g hulls, clamped ≥ 2
    let k = ((g as f64).cbrt().ceil() as usize).max(2);

    // Small case: all hulls form the base.
    if g <= 16 * k {
        let all: Vec<usize> = (0..g).collect();
        return brute_bridge_hulls(m, points, groups, &all, x0, qmax);
    }

    // Survivor flags over hull ids (private registers).
    let surv = shm.alloc("hb.surv", g, 1);
    let mut p_j = 2.0 * k as f64 / g as f64;
    let mut best: Option<Bridge> = None;
    for round in 0..HULL_BRIDGE_MAX_ROUNDS {
        let survivors: Vec<usize> = (0..g).filter(|&i| shm.get(surv, i) != 0).collect();
        let out = random_sample_with_p(m, shm, &survivors, k, SAMPLE_ATTEMPTS, Some(p_j));
        let mut base = out.sample;
        if let Some(b) = best {
            // keep the groups of the current contacts for monotonicity
            for id in [b.left, b.right] {
                if let Some(gi) = groups.iter().position(|h| h.vertices.contains(&id)) {
                    if !base.contains(&gi) {
                        base.push(gi);
                    }
                }
            }
        }
        p_j = (p_j * 2.0 * k as f64).min(1.0);
        if base.len() < 2 {
            continue;
        }
        base.sort_unstable();
        base.dedup();
        let sol = m.sub(round as u64 ^ 0x4b, |c| {
            brute_bridge_hulls(c, points, groups, &base, x0, qmax)
        });
        let Some(bridge) = sol else { continue };
        best = Some(bridge);
        // survivor step: one executed step over hull ids; the above-line
        // test is the charged hull primitive
        let (u, v) = (points[bridge.left], points[bridge.right]);
        let groups_ref = groups;
        // Arbitrary never resolves a collision here: each processor writes
        // only surv[pid], an exclusive cell.
        m.step_with_policy(shm, 0..g, WritePolicy::Arbitrary, |ctx| {
            let i = ctx.pid;
            let above = hull_above_line(points, &groups_ref[i], u, v);
            ctx.write(surv, i, if above { 1 } else { 0 });
        });
        m.charge(1, g as u64 * (qmax as f64).sqrt().ceil() as u64);
        let nsurv = (0..g).filter(|&i| shm.get(surv, i) != 0).count();
        if nsurv == 0 {
            return Some(bridge);
        }
    }
    None
}

/// Brute-force bridge over the hull subset `base` (ids into `groups`):
/// all left×right tangent candidates, feasibility by above-line tests.
fn brute_bridge_hulls(
    m: &mut Machine,
    points: &[Point2],
    groups: &[UpperHull],
    base: &[usize],
    x0: f64,
    qmax: usize,
) -> Option<Bridge> {
    let left: Vec<usize> = base
        .iter()
        .copied()
        .filter(|&i| !groups[i].is_empty() && points[*groups[i].vertices.last().unwrap()].x <= x0)
        .collect();
    let right: Vec<usize> = base
        .iter()
        .copied()
        .filter(|&i| !groups[i].is_empty() && points[groups[i].vertices[0]].x > x0)
        .collect();
    let mut best: Option<Bridge> = None;
    let mut ops = 0u64;
    for &i in &left {
        for &j in &right {
            let (ci, cj) = common_upper_tangent(points, &groups[i], points, &groups[j]);
            ops += 1;
            let u = groups[i].vertices[ci];
            let v = groups[j].vertices[cj];
            let (pu, pv) = (points[u], points[v]);
            if !(pu.x <= x0 && x0 < pv.x) {
                continue;
            }
            let feasible = base.iter().all(|&t| {
                ops += 1;
                t == i || t == j || !hull_above_line(points, &groups[t], pu, pv)
            });
            if feasible {
                // canonical: prefer the tightest straddling pair
                best = match best {
                    None => Some(Bridge { left: u, right: v }),
                    Some(b) => {
                        if points[u].x > points[b.left].x
                            || (points[u].x == points[b.left].x && points[v].x < points[b.right].x)
                        {
                            Some(Bridge { left: u, right: v })
                        } else {
                            Some(b)
                        }
                    }
                };
            }
        }
    }
    // charge the whole candidate evaluation: O(1) steps, ops·√q work
    m.charge(2, ops * (qmax.max(1) as f64).sqrt().ceil() as u64);
    best
}

/// Report from [`hull_of_hulls`].
#[derive(Clone, Debug, Default)]
pub struct HohReport {
    /// Boundary-bridge failures (after retries) — the Lemma 2.6 failure
    /// event, swept by a direct brute merge.
    pub failures: usize,
}

/// Upper hull of the union of x-disjoint `groups` (Lemma 2.6): a tree of
/// bridges over the group boundaries, cover test, and stitching.
///
/// Fails with [`RunError::Invariant`] when a boundary bridge cannot be
/// found even by the brute-force sweep — for honest inputs a straddling
/// tangent always exists, so a missing one means the data the node saw was
/// inconsistent (e.g. under injected memory corruption). Before this was
/// typed, such a node was silently skipped and the stitched chain could be
/// wrong.
pub fn hull_of_hulls(
    m: &mut Machine,
    shm: &mut Shm,
    points: &[Point2],
    groups: &[UpperHull],
) -> Result<(UpperHull, HohReport), RunError> {
    let mut report = HohReport::default();
    let nonempty: Vec<&UpperHull> = groups.iter().filter(|h| !h.is_empty()).collect();
    if nonempty.is_empty() {
        return Ok((UpperHull::new(vec![]), report));
    }
    if nonempty.len() == 1 {
        return Ok((nonempty[0].clone(), report));
    }
    let groups: Vec<UpperHull> = groups.iter().filter(|h| !h.is_empty()).cloned().collect();
    let g = groups.len();

    // tree of boundaries over group positions
    let mut nodes: Vec<(usize, usize, usize)> = Vec::new(); // (lo, hi, mid)
    let mut stack = vec![(0usize, g)];
    while let Some((lo, hi)) = stack.pop() {
        if hi - lo < 2 {
            continue;
        }
        let mid = (lo + hi) / 2;
        nodes.push((lo, hi, mid));
        stack.push((lo, mid));
        stack.push((mid, hi));
    }

    // per-node bridge, all nodes in parallel
    // (a node whose bridge took the brute-force sweep reports `swept`)
    let found: Vec<(Bridge, bool)> = m.fork_join(
        nodes.iter().enumerate(),
        |&(vi, _)| vi as u64 ^ 0x40b,
        |child, (vi, &(lo, hi, mid))| {
            let x0 = (points[*groups[mid - 1].vertices.last().unwrap()].x
                + points[groups[mid].vertices[0]].x)
                / 2.0;
            let mut scratch = Shm::new();
            let mut bridge = bridge_over_hulls(child, &mut scratch, points, &groups[lo..hi], x0);
            let swept = bridge.is_none();
            if swept {
                // sweep: direct brute over all pairs of the node's groups
                let all: Vec<usize> = (0..hi - lo).collect();
                let qmax = groups[lo..hi].iter().map(|h| h.len()).max().unwrap_or(1);
                bridge = brute_bridge_hulls(child, points, &groups[lo..hi], &all, x0, qmax);
            }
            let bridge = bridge.ok_or_else(|| RunError::Invariant {
                algorithm: "hull2d/hull_of_hulls",
                detail: format!(
                    "no straddling bridge at boundary node {vi} (groups {lo}..{hi}, x0={x0}) \
                     even after the brute-force sweep"
                ),
            })?;
            Ok((bridge, swept))
        },
    )?;
    report.failures += found.iter().filter(|&&(_, swept)| swept).count();
    let bridges: Vec<Bridge> = found.into_iter().map(|(b, _)| b).collect();

    // cover step (executed): node vi covered iff an ancestor's bridge spans
    // its boundary abscissa
    let x0s: Vec<f64> = nodes
        .iter()
        .map(|&(_, _, mid)| {
            (points[*groups[mid - 1].vertices.last().unwrap()].x
                + points[groups[mid].vertices[0]].x)
                / 2.0
        })
        .collect();
    let covered = shm.alloc("hoh.cov", nodes.len(), 0);
    let nodes_ref = &nodes;
    let bridges_ref = &bridges;
    let x0s_ref = &x0s;
    m.step_with_policy(
        shm,
        Pids::Grid([1, nodes.len(), nodes.len()]),
        WritePolicy::CombineOr,
        |ctx| {
            let [_, vi, ui] = ctx.coord();
            if vi == ui {
                return;
            }
            let (vlo, vhi, _) = nodes_ref[vi];
            let (ulo, uhi, _) = nodes_ref[ui];
            // u strict ancestor of v ⇔ strictly containing interval
            if !(ulo <= vlo && vhi <= uhi && (uhi - ulo) > (vhi - vlo)) {
                return;
            }
            let b = bridges_ref[ui];
            if points[b.left].x <= x0s_ref[vi] && x0s_ref[vi] <= points[b.right].x {
                ctx.write(covered, vi, 1);
            }
        },
    );

    // stitch: uncovered bridges are the inter-group tangent edges; each
    // group contributes the run between its arriving and leaving contacts
    let mut pos_of: std::collections::HashMap<usize, (usize, usize)> =
        std::collections::HashMap::new();
    for (gi, h) in groups.iter().enumerate() {
        for (p, &id) in h.vertices.iter().enumerate() {
            pos_of.insert(id, (gi, p));
        }
    }
    let mut arriving: Vec<Option<usize>> = vec![None; g];
    let mut leaving: Vec<Option<usize>> = vec![None; g];
    let mut tangents: Vec<Bridge> = Vec::new();
    for (vi, b) in bridges.iter().enumerate() {
        if shm.get(covered, vi) != 0 {
            continue;
        }
        tangents.push(*b);
        if let Some(&(gi, p)) = pos_of.get(&b.left) {
            leaving[gi] = Some(match leaving[gi] {
                Some(old) => old.min(p),
                None => p,
            });
        }
        if let Some(&(gi, p)) = pos_of.get(&b.right) {
            arriving[gi] = Some(match arriving[gi] {
                Some(old) => old.max(p),
                None => p,
            });
        }
    }
    let mut chain: Vec<usize> = Vec::new();
    for gi in 0..g {
        let (a, l) = match (arriving[gi], leaving[gi]) {
            (None, None) => {
                if gi == 0 || gi == g - 1 {
                    // extreme group with no tangents at all (g == 1 handled
                    // above): keep its whole chain
                    (0, groups[gi].len() - 1)
                } else {
                    continue; // skipped-over group
                }
            }
            (a, l) => (a.unwrap_or(0), l.unwrap_or(groups[gi].len() - 1)),
        };
        if a <= l {
            chain.extend_from_slice(&groups[gi].vertices[a..=l]);
        } else {
            // degenerate contact ordering: keep the tangent endpoints only
            chain.push(groups[gi].vertices[l]);
            chain.push(groups[gi].vertices[a]);
        }
    }
    chain.sort_by(|&x, &y| points[x].cmp_xy(&points[y]));
    chain.dedup();
    super::merge::strictify(points, &mut chain);
    Ok((UpperHull::new(chain), report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipch_geom::generators::uniform_disk;
    use ipch_geom::hull_chain::verify_upper_hull;
    use ipch_geom::point::sorted_by_x;

    fn make_groups(points: &[Point2], q: usize) -> Vec<UpperHull> {
        // points sorted; contiguous slices of size q
        let mut out = Vec::new();
        let mut lo = 0;
        while lo < points.len() {
            let hi = (lo + q).min(points.len());
            let ids: Vec<usize> = (lo..hi).collect();
            let sub: Vec<Point2> = ids.iter().map(|&i| points[i]).collect();
            let h = UpperHull::new(
                ipch_geom::hull_chain::upper_hull_indices(&sub)
                    .into_iter()
                    .map(|i| ids[i])
                    .collect(),
            );
            out.push(h);
            lo = hi;
        }
        out
    }

    #[test]
    fn bridge_over_hulls_small_case() {
        let pts = sorted_by_x(&uniform_disk(200, 1));
        let groups = make_groups(&pts, 25);
        let mid = groups.len() / 2;
        let x0 = (pts[*groups[mid - 1].vertices.last().unwrap()].x
            + pts[groups[mid].vertices[0]].x)
            / 2.0;
        let mut m = Machine::new(1);
        let mut shm = Shm::new();
        let b = bridge_over_hulls(&mut m, &mut shm, &pts, &groups, x0).expect("bridge");
        // exact check against the point-level bridge
        let ids: Vec<usize> = (0..pts.len()).collect();
        let mut m2 = Machine::new(2);
        let mut shm2 = Shm::new();
        let expect = ipch_lp::bridge::bridge_brute(&mut m2, &mut shm2, &pts, &ids, x0).unwrap();
        assert_eq!((b.left, b.right), (expect.left, expect.right));
    }

    #[test]
    fn bridge_over_many_hulls_randomized_path() {
        let pts = sorted_by_x(&uniform_disk(3000, 2));
        let groups = make_groups(&pts, 10); // 300 hulls ⇒ randomized path
        let mid = groups.len() / 2;
        let x0 = (pts[*groups[mid - 1].vertices.last().unwrap()].x
            + pts[groups[mid].vertices[0]].x)
            / 2.0;
        let mut m = Machine::new(3);
        let mut shm = Shm::new();
        let b = bridge_over_hulls(&mut m, &mut shm, &pts, &groups, x0).expect("bridge");
        // oracle: the hull edge over x0
        let hull = UpperHull::of(&pts);
        let (u, v) = hull.edge_above(&pts, Point2::new(x0, 0.0)).unwrap();
        assert_eq!((b.left, b.right), (u, v));
    }

    #[test]
    fn hull_of_hulls_matches_union_oracle() {
        for seed in 0..5 {
            for q in [5usize, 20, 60] {
                let pts = sorted_by_x(&uniform_disk(400, seed));
                let groups = make_groups(&pts, q);
                let mut m = Machine::new(seed);
                let mut shm = Shm::new();
                let (h, _) = hull_of_hulls(&mut m, &mut shm, &pts, &groups).unwrap();
                verify_upper_hull(&pts, &h).unwrap_or_else(|e| panic!("seed {seed} q {q}: {e}"));
                assert_eq!(h, UpperHull::of(&pts), "seed {seed} q {q}");
            }
        }
    }

    #[test]
    fn hull_of_hulls_skipped_middle_group() {
        // middle group entirely under the A–C tangent
        let pts = vec![
            Point2::new(0.0, 10.0),
            Point2::new(1.0, 0.0),
            Point2::new(4.0, 1.0),
            Point2::new(5.0, 1.5),
            Point2::new(9.0, 0.0),
            Point2::new(10.0, 10.0),
        ];
        let groups = vec![
            UpperHull::new(vec![0, 1]),
            UpperHull::new(vec![2, 3]),
            UpperHull::new(vec![4, 5]),
        ];
        let mut m = Machine::new(7);
        let mut shm = Shm::new();
        let (h, _) = hull_of_hulls(&mut m, &mut shm, &pts, &groups).unwrap();
        assert_eq!(h.vertices, vec![0, 5]);
    }

    #[test]
    fn hull_of_hulls_trivial_cases() {
        let pts = sorted_by_x(&uniform_disk(30, 9));
        let groups = make_groups(&pts, 30); // single group
        let mut m = Machine::new(8);
        let mut shm = Shm::new();
        let (h, _) = hull_of_hulls(&mut m, &mut shm, &pts, &groups).unwrap();
        assert_eq!(h, UpperHull::of(&pts));
        // empty
        let (h0, _) = hull_of_hulls(&mut m, &mut shm, &pts, &[]).unwrap();
        assert!(h0.is_empty());
    }

    #[test]
    fn constant_time_combine() {
        // combine time should not grow with the number of points per group
        let mut steps = Vec::new();
        for n in [200usize, 800, 3200] {
            let pts = sorted_by_x(&uniform_disk(n, 11));
            let groups = make_groups(&pts, n / 10);
            let mut m = Machine::new(5);
            let mut shm = Shm::new();
            hull_of_hulls(&mut m, &mut shm, &pts, &groups).unwrap();
            steps.push(m.metrics.total_steps());
        }
        let (min, max) = (steps.iter().min().unwrap(), steps.iter().max().unwrap());
        assert!(max - min <= max / 2 + 6, "steps not ~flat: {steps:?}");
    }
}
