//! Group-merge machinery shared by the folklore Lemma 2.4 algorithm and
//! the Atallah–Goodrich-role divide-and-conquer fallback.
//!
//! One *merge level* takes `h` x-disjoint upper hulls (as vertex-id lists,
//! left to right) grouped `g` at a time and produces the merged hull of
//! each group:
//!
//! 1. **Tangents** — all C(g,2) pairwise common upper tangents inside each
//!    group. Computed by the Atallah–Goodrich two-polygon search
//!    ([`ipch_geom::hullops::common_upper_tangent`]); on the PRAM this is
//!    O(1) time with q^{1/2} processors per tangent (q^{1/b}-ary search),
//!    which we **charge** (2 steps, √q work per tangent) while executing
//!    the O(log q) host search.
//! 2. **Survival** — one executed step with (Σ vertices)·(g−1) virtual
//!    processors: vertex v of hull i survives iff for every other hull j
//!    in the group it lies on the correct side of the (i, j) tangent's
//!    contact on hull i. A vertex on the union hull survives all pairwise
//!    merges and vice versa.
//!
//! The merged chain is assembled from the survivors, which are already in
//! x-order.

use std::convert::Infallible;

use ipch_geom::hull_chain::UpperHull;
use ipch_geom::hullops::common_upper_tangent;
use ipch_geom::Point2;
use ipch_pram::{Machine, Pids, Shm, WritePolicy};

/// Merge each consecutive group of `g` hulls into one. `hulls` must be
/// x-disjoint and ordered left to right; `g ≥ 2`.
///
/// The groups merge **in parallel** — each on its own processor block —
/// so the level costs the *maximum* group time and the *sum* of group
/// work ([`ipch_pram::Machine::fork_join_seq`]: the groups share `shm`).
pub fn merge_groups(
    m: &mut Machine,
    shm: &mut Shm,
    points: &[Point2],
    hulls: &[Vec<usize>],
    g: usize,
) -> Vec<Vec<usize>> {
    assert!(g >= 2);
    let Ok(out) = m.fork_join_seq(
        hulls.chunks(g).enumerate(),
        |&(gi, _)| gi as u64 ^ 0x6e6,
        |child, (_, group)| Ok::<_, Infallible>(merge_one_group(child, shm, points, group)),
    );
    out
}

/// Merge one group of x-disjoint hulls into their union's upper hull.
pub fn merge_one_group(
    m: &mut Machine,
    shm: &mut Shm,
    points: &[Point2],
    group: &[Vec<usize>],
) -> Vec<usize> {
    let g = group.len();
    if g == 0 {
        return vec![];
    }
    if g == 1 {
        return group[0].clone();
    }
    let uhs: Vec<UpperHull> = group.iter().map(|v| UpperHull::new(v.clone())).collect();

    // Pairwise tangents: contact *positions* (index into each hull's
    // vertex list). tangential contact of (i, j): (ci, cj).
    let mut contact: Vec<Vec<Option<usize>>> = vec![vec![None; g]; g];
    let mut charged_work = 0u64;
    for i in 0..g {
        for j in i + 1..g {
            if uhs[i].is_empty() || uhs[j].is_empty() {
                continue;
            }
            let (ci, cj) = common_upper_tangent(points, &uhs[i], points, &uhs[j]);
            contact[i][j] = Some(ci);
            contact[j][i] = Some(cj);
            let q = (uhs[i].len() + uhs[j].len()) as f64;
            charged_work += q.sqrt().ceil() as u64;
        }
    }
    // Atallah–Goodrich parallel tangent cost (see module docs).
    m.charge(2, charged_work);

    // Survival step: processor (global vertex slot, hull pair) — executed.
    // Vertex v of hull i dies iff
    //  (a) it is on the wrong side of a contact of a tangent involving i
    //      (pair (i, j): survivors of i are left of the contact when j is
    //      to the right, right of it when j is to the left), or
    //  (b) it lies strictly below the tangent *segment* of a pair (j, k)
    //      not involving i whose x-span covers it — the "skipped-over
    //      hull" case that pure pairwise contact tests miss.
    // Together these test v against every edge of every pairwise union
    // hull, which characterizes membership in the union hull (hull edges
    // of other hulls never span v.x because the hulls are x-disjoint).
    let slots: Vec<(usize, usize)> = (0..g)
        .flat_map(|i| (0..uhs[i].len()).map(move |v| (i, v)))
        .collect();
    let nslots = slots.len();
    let dead = shm.alloc("merge.dead", nslots, 0);
    let contact_ref = &contact;
    let slots_ref = &slots;
    let uhs_ref = &uhs;
    let grid = Pids::Grid([nslots, g, g]);
    m.step_with_policy(shm, grid, WritePolicy::CombineOr, |ctx| {
        let [s, j, k] = ctx.coord();
        if j >= k {
            return;
        }
        let (i, v) = slots_ref[s];
        let (Some(cj), Some(ck)) = (contact_ref[j][k], contact_ref[k][j]) else {
            return;
        };
        if i == j {
            // (a): i is the left hull of the pair — survivors are ≤ contact
            if v > cj {
                ctx.write(dead, s, 1);
            }
        } else if i == k {
            if v < ck {
                ctx.write(dead, s, 1);
            }
        } else {
            // (b): tangent segment of an unrelated pair
            let a = points[uhs_ref[j].vertices[cj]];
            let b = points[uhs_ref[k].vertices[ck]];
            let p = points[uhs_ref[i].vertices[v]];
            if p.x >= a.x && p.x <= b.x && ipch_geom::predicates::orient2d_sign(a, b, p) < 0 {
                ctx.write(dead, s, 1);
            }
        }
    });

    let mut merged: Vec<usize> = Vec::new();
    for (s, &(i, v)) in slots.iter().enumerate() {
        if shm.get(dead, s) == 0 {
            merged.push(uhs[i].vertices[v]);
        }
    }
    // collinear contacts can leave redundant collinear vertices; a strict
    // chain is restored by one local convexity sweep (host cleanup of
    // boundary artifacts, O(result))
    strictify(points, &mut merged);
    merged
}

/// Drop non-strictly-convex vertices from an x-sorted candidate chain.
/// Host-side output cleanup shared by several algorithms' assembly stages.
pub fn strictify(points: &[Point2], chain: &mut Vec<usize>) {
    use ipch_geom::predicates::orient2d_sign;
    let mut st: Vec<usize> = Vec::with_capacity(chain.len());
    for &i in chain.iter() {
        while let Some(&t) = st.last() {
            if points[t].x == points[i].x {
                if points[t].y <= points[i].y {
                    st.pop();
                } else {
                    break;
                }
            } else {
                break;
            }
        }
        if let Some(&t) = st.last() {
            if points[t].x == points[i].x {
                continue;
            }
        }
        while st.len() >= 2
            && orient2d_sign(
                points[st[st.len() - 2]],
                points[st[st.len() - 1]],
                points[i],
            ) >= 0
        {
            st.pop();
        }
        st.push(i);
    }
    *chain = st;
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipch_geom::generators::uniform_disk;
    use ipch_geom::hull_chain::{upper_hull_indices, verify_upper_hull};

    fn group_hulls(points: &[Point2], order: &[usize], chunk: usize) -> Vec<Vec<usize>> {
        order
            .chunks(chunk)
            .map(|ch| {
                let sub: Vec<Point2> = ch.iter().map(|&i| points[i]).collect();
                upper_hull_indices(&sub)
                    .into_iter()
                    .map(|i| ch[i])
                    .collect()
            })
            .collect()
    }

    #[test]
    fn merge_two_hulls_matches_oracle() {
        for seed in 0..6 {
            let pts = uniform_disk(200, seed);
            let order = ipch_geom::point::argsort_xy(&pts);
            let hulls = group_hulls(&pts, &order, 100);
            let mut m = Machine::new(seed);
            let mut shm = Shm::new();
            let merged = merge_one_group(&mut m, &mut shm, &pts, &hulls);
            let expect = upper_hull_indices(&pts);
            assert_eq!(merged, expect, "seed {seed}");
        }
    }

    #[test]
    fn merge_many_groups() {
        for g in [2usize, 3, 5, 8] {
            let pts = uniform_disk(400, 42);
            let order = ipch_geom::point::argsort_xy(&pts);
            let hulls = group_hulls(&pts, &order, 400usize.div_ceil(g));
            let mut m = Machine::new(1);
            let mut shm = Shm::new();
            let merged = merge_one_group(&mut m, &mut shm, &pts, &hulls);
            verify_upper_hull(&pts, &UpperHull::new(merged.clone())).unwrap();
            assert_eq!(merged, upper_hull_indices(&pts), "g={g}");
        }
    }

    #[test]
    fn merge_with_tiny_hulls() {
        // singleton hulls: merging g points
        let pts = vec![
            Point2::new(0.0, 0.0),
            Point2::new(1.0, 2.0),
            Point2::new(2.0, 1.9),
            Point2::new(3.0, 0.0),
        ];
        let hulls: Vec<Vec<usize>> = (0..4).map(|i| vec![i]).collect();
        let mut m = Machine::new(2);
        let mut shm = Shm::new();
        let merged = merge_one_group(&mut m, &mut shm, &pts, &hulls);
        assert_eq!(merged, vec![0, 1, 2, 3]);
    }

    #[test]
    fn skipped_over_hull_dies() {
        // A tall, C tall, B low in between: the union hull jumps A → C and
        // B must contribute nothing (the case pure pairwise contacts miss).
        let pts = vec![
            Point2::new(0.0, 10.0),  // A
            Point2::new(5.0, 9.0),   // B (below segment A–C)
            Point2::new(10.0, 10.0), // C
        ];
        let hulls = vec![vec![0], vec![1], vec![2]];
        let mut m = Machine::new(7);
        let mut shm = Shm::new();
        let merged = merge_one_group(&mut m, &mut shm, &pts, &hulls);
        assert_eq!(merged, vec![0, 2]);
    }

    #[test]
    fn merge_collinear_hulls() {
        // two collinear segments: merged chain is the two extremes
        let pts = vec![
            Point2::new(0.0, 0.0),
            Point2::new(1.0, 1.0),
            Point2::new(2.0, 2.0),
            Point2::new(3.0, 3.0),
        ];
        let hulls = vec![vec![0, 1], vec![2, 3]];
        let mut m = Machine::new(3);
        let mut shm = Shm::new();
        let merged = merge_one_group(&mut m, &mut shm, &pts, &hulls);
        assert_eq!(merged, vec![0, 3]);
    }

    #[test]
    fn survival_step_is_executed_once() {
        let pts = uniform_disk(100, 9);
        let order = ipch_geom::point::argsort_xy(&pts);
        let hulls = group_hulls(&pts, &order, 25);
        let mut m = Machine::new(4);
        let mut shm = Shm::new();
        merge_one_group(&mut m, &mut shm, &pts, &hulls);
        assert_eq!(m.metrics.steps, 1, "exactly one executed survival step");
        assert_eq!(m.metrics.charged_steps, 2);
    }
}
