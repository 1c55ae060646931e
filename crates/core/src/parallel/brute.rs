//! Brute-force parallel upper hull (paper Observation 2.3).
//!
//! *It is possible to find the upper hull of n points in the plane in
//! constant time with n³ processors.* A pair (u, v) with u.x < v.x is a
//! hull edge iff every point lies on or below its line, no collinear point
//! sits strictly between the endpoints, and neither endpoint is vertically
//! dominated. One concurrent marking step over all (pair, witness) triples
//! decides all of that; the surviving pairs *are* the strict upper chain.
//!
//! This is the super-linear-processor oracle that failure sweeping (§2.3)
//! re-solves failed subproblems with.

use ipch_geom::predicates::orient2d_sign;
use ipch_geom::{Point2, UpperHull};
use ipch_pram::{Machine, ModelClass, ModelContract, Pids, RaceExpectation, Shm, WritePolicy};

/// Concurrency contract: Common-CRCW — concurrent writers of a cell always
/// agree on the value (the only races are the constant "kill" marks).
pub const BRUTE_CONTRACT: ModelContract = ModelContract {
    algorithm: "hull2d/brute",
    class: ModelClass::Crcw,
    races: RaceExpectation::SameValue,
};

/// Upper hull of the subset `ids` of `points` in O(1) steps and Θ(|ids|³)
/// work. Vertex ids refer to the original array.
pub fn upper_hull_brute(
    m: &mut Machine,
    shm: &mut Shm,
    points: &[Point2],
    ids: &[usize],
) -> UpperHull {
    m.declare_contract(&BRUTE_CONTRACT);
    let n = ids.len();
    if n == 0 {
        return UpperHull::new(vec![]);
    }
    if n == 1 {
        return UpperHull::new(vec![ids[0]]);
    }
    let npairs = n * n;
    // marking workspace is scoped: failure sweeps re-invoke this oracle in
    // loops, and each invocation recycles the same slot
    let mut edges: Vec<(usize, usize)> = shm.scope(|shm| {
        let bad = shm.alloc("pbrute.bad", npairs, 0);
        let grid = Pids::Grid([n, n, n]);
        m.kernel_scatter_with_policy(shm, grid, WritePolicy::CombineOr, |t, _| {
            let [i, j, w] = t.coord();
            let p = i * n + j;
            let (u, v) = (points[ids[i]], points[ids[j]]);
            if u.x >= v.x {
                return if w == 0 { Some((bad, p, 1)) } else { None };
            }
            let q = points[ids[w]];
            let s = orient2d_sign(u, v, q);
            if s > 0 {
                return Some((bad, p, 1)); // witness above the candidate edge
            }
            if s == 0 && (q.x < u.x || q.x > v.x) {
                // a contact outside the span: the true strict edge extends
                // further, so (u, v) is only a sub-segment of it
                return Some((bad, p, 1));
            }
            // vertical domination of an endpoint kills the pair
            if (q.x == u.x && q.y > u.y) || (q.x == v.x && q.y > v.y) {
                return Some((bad, p, 1));
            }
            // exact duplicate of an endpoint with a smaller id: dedupe so only
            // one copy of each edge survives
            if (q == u && ids[w] < ids[i]) || (q == v && ids[w] < ids[j]) {
                return Some((bad, p, 1));
            }
            None
        });

        let mut edges: Vec<(usize, usize)> = Vec::new();
        for p in 0..npairs {
            if shm.get(bad, p) == 0 {
                edges.push((ids[p / n], ids[p % n]));
            }
        }
        edges
    });
    if edges.is_empty() {
        // all points share one x: the hull is the topmost point
        let top = ids
            .iter()
            .copied()
            .max_by(|&a, &b| points[a].cmp_xy(&points[b]))
            .unwrap();
        return UpperHull::new(vec![top]);
    }
    edges.sort_by(|a, b| points[a.0].cmp_xy(&points[b.0]));
    let mut verts = vec![edges[0].0];
    for e in &edges {
        verts.push(e.1);
    }
    UpperHull::new(verts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipch_geom::generators::{collinear_on_line, grid, uniform_disk, uniform_square};
    use ipch_geom::hull_chain::verify_upper_hull;

    #[test]
    fn matches_oracle_random() {
        for seed in 0..6 {
            let pts = uniform_disk(60, seed);
            let mut m = Machine::new(seed);
            let mut shm = Shm::new();
            let ids: Vec<usize> = (0..pts.len()).collect();
            let h = upper_hull_brute(&mut m, &mut shm, &pts, &ids);
            assert_eq!(h, UpperHull::of(&pts), "seed {seed}");
            assert_eq!(m.metrics.steps, 1, "O(1) time");
        }
    }

    #[test]
    fn constant_time_superlinear_work() {
        let pts = uniform_square(80, 1);
        let mut m = Machine::new(1);
        let mut shm = Shm::new();
        let ids: Vec<usize> = (0..80).collect();
        upper_hull_brute(&mut m, &mut shm, &pts, &ids);
        assert_eq!(m.metrics.steps, 1);
        assert_eq!(m.metrics.work, 80 * 80 * 80);
    }

    #[test]
    fn degenerate_inputs() {
        let col = collinear_on_line(20, 1.0, 0.0, 2);
        let mut m = Machine::new(2);
        let mut shm = Shm::new();
        let ids: Vec<usize> = (0..20).collect();
        let h = upper_hull_brute(&mut m, &mut shm, &col, &ids);
        verify_upper_hull(&col, &h).unwrap();
        assert_eq!(h.num_edges(), 1);

        let g = grid(25);
        let mut shm2 = Shm::new();
        let ids: Vec<usize> = (0..25).collect();
        let h2 = upper_hull_brute(&mut m, &mut shm2, &g, &ids);
        assert_eq!(h2, UpperHull::of(&g));

        // all same x
        let vx: Vec<Point2> = (0..5).map(|i| Point2::new(1.0, i as f64)).collect();
        let mut shm3 = Shm::new();
        let ids: Vec<usize> = (0..5).collect();
        let h3 = upper_hull_brute(&mut m, &mut shm3, &vx, &ids);
        assert_eq!(h3.vertices, vec![4]);
    }

    #[test]
    fn subset_semantics() {
        let pts = vec![
            Point2::new(0.0, 0.0),
            Point2::new(1.0, 5.0), // excluded apex
            Point2::new(2.0, 0.0),
            Point2::new(1.0, 1.0),
        ];
        let ids = vec![0usize, 2, 3];
        let mut m = Machine::new(3);
        let mut shm = Shm::new();
        let h = upper_hull_brute(&mut m, &mut shm, &pts, &ids);
        assert_eq!(h.vertices, vec![0, 3, 2]);
    }
}
