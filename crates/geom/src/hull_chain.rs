//! Upper-hull chains: reference construction, queries, verification.
//!
//! The paper's 2-D algorithms all output the *upper hull*: "a convex chain
//! monotone in the x-direction that curves to the right as one traverses it
//! by increasing x-coordinates" (footnote 3), with every input point holding
//! a pointer to the hull edge above (or through) it. This module provides:
//!
//! * [`upper_hull_indices`] — the O(n log n) / O(n)-on-sorted monotone-chain
//!   oracle every algorithm is verified against,
//! * [`UpperHull`] — a chain with the paper's output convention
//!   (`edge_above` per point),
//! * [`verify_upper_hull`] — an independent checker (monotone, strictly
//!   convex, covers all points) used by the test suites, deliberately not
//!   sharing code with the oracle.

use crate::point::Point2;
use crate::predicates::{orient2d_sign, Orientation};

/// Upper hull of `pts` **already sorted** by [`Point2::cmp_xy`]; returns
/// vertex indices into `pts`, left to right. Runs in O(n).
///
/// Duplicate points and x-ties are handled: among points sharing an x, only
/// the highest can be a vertex. Strictly convex output — no three collinear
/// vertices (collinear mid-points are dropped, matching footnote 3's
/// "curves to the right").
pub fn upper_hull_indices_sorted(pts: &[Point2]) -> Vec<usize> {
    let mut st: Vec<usize> = Vec::new();
    for i in 0..pts.len() {
        // Same-x handling: the incoming point has y ≥ top's y (sort order),
        // so it vertically dominates the top.
        while let Some(&t) = st.last() {
            if pts[t].x == pts[i].x {
                st.pop();
            } else {
                break;
            }
        }
        while st.len() >= 2 {
            let a = pts[st[st.len() - 2]];
            let b = pts[st[st.len() - 1]];
            // pop while a→b→i fails to turn strictly clockwise
            if orient2d_sign(a, b, pts[i]) >= 0 {
                st.pop();
            } else {
                break;
            }
        }
        st.push(i);
    }
    st
}

/// Upper hull of arbitrary (unsorted) `pts`: returns indices **into `pts`**
/// of the hull vertices in left-to-right order. O(n log n). The input is
/// never reordered (in-place discipline).
pub fn upper_hull_indices(pts: &[Point2]) -> Vec<usize> {
    let order = crate::point::argsort_xy(pts);
    let sorted: Vec<Point2> = order.iter().map(|&i| pts[i]).collect();
    upper_hull_indices_sorted(&sorted)
        .into_iter()
        .map(|i| order[i])
        .collect()
}

/// An upper hull: vertex ids (into some point array) in increasing-x order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UpperHull {
    /// Hull vertex indices, left to right.
    pub vertices: Vec<usize>,
}

impl UpperHull {
    /// Build from a vertex list (assumed valid; see [`verify_upper_hull`]).
    pub fn new(vertices: Vec<usize>) -> Self {
        Self { vertices }
    }

    /// Construct the hull of `pts` via the monotone-chain oracle.
    pub fn of(pts: &[Point2]) -> Self {
        Self::new(upper_hull_indices(pts))
    }

    /// Number of vertices.
    pub fn len(&self) -> usize {
        self.vertices.len()
    }

    /// True if the hull has no vertices (empty input).
    pub fn is_empty(&self) -> bool {
        self.vertices.is_empty()
    }

    /// Number of edges `h` — the paper's output-size parameter.
    pub fn num_edges(&self) -> usize {
        self.vertices.len().saturating_sub(1)
    }

    /// The edge `(u, v)` above query point `q`: the hull edge whose x-span
    /// contains `q.x` (binary search, O(log h)). Returns vertex *ids*.
    /// `None` if `q.x` is outside the hull's x-range or the hull is a
    /// single vertex.
    pub fn edge_above(&self, pts: &[Point2], q: Point2) -> Option<(usize, usize)> {
        if self.vertices.len() < 2 {
            return None;
        }
        let xs = |i: usize| pts[self.vertices[i]].x;
        if q.x < xs(0) || q.x > xs(self.vertices.len() - 1) {
            return None;
        }
        // binary search for the last vertex with x <= q.x
        let (mut lo, mut hi) = (0usize, self.vertices.len() - 1);
        while lo + 1 < hi {
            let mid = (lo + hi) / 2;
            if xs(mid) <= q.x {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        if q.x >= xs(lo) && q.x <= xs(lo + 1) {
            Some((self.vertices[lo], self.vertices[lo + 1]))
        } else {
            None
        }
    }
}

/// Independently verify that `hull` is the upper hull of `pts`.
///
/// Checks: (1) vertices strictly increase in x; (2) consecutive triples turn
/// strictly clockwise; (3) every input point lies on or below the chain and
/// within its x-span (or vertically below an endpoint); (4) every hull
/// vertex is an input point id in range. Returns a description of the first
/// violation.
pub fn verify_upper_hull(pts: &[Point2], hull: &UpperHull) -> Result<(), String> {
    let vs = &hull.vertices;
    if pts.is_empty() {
        return if vs.is_empty() {
            Ok(())
        } else {
            Err("hull nonempty for empty input".into())
        };
    }
    if vs.is_empty() {
        return Err("hull empty for nonempty input".into());
    }
    for &v in vs {
        if v >= pts.len() {
            return Err(format!("vertex id {v} out of range"));
        }
    }
    for w in vs.windows(2) {
        if pts[w[0]].x >= pts[w[1]].x {
            return Err(format!(
                "vertices {}..{} not strictly increasing in x",
                w[0], w[1]
            ));
        }
    }
    for w in vs.windows(3) {
        if orient2d_sign(pts[w[0]], pts[w[1]], pts[w[2]]) >= 0 {
            return Err(format!(
                "vertices {} {} {} do not turn strictly clockwise",
                w[0], w[1], w[2]
            ));
        }
    }
    let first = pts[vs[0]];
    let last = pts[vs[vs.len() - 1]];
    for (i, &p) in pts.iter().enumerate() {
        if p.x < first.x || p.x > last.x {
            return Err(format!("point {i} outside hull x-span"));
        }
        if p.x == first.x && p.y > first.y {
            return Err(format!("point {i} above left hull endpoint"));
        }
        if p.x == last.x && p.y > last.y {
            return Err(format!("point {i} above right hull endpoint"));
        }
        if vs.len() >= 2 {
            if let Some((u, v)) = hull.edge_above(pts, p) {
                if orient2d_sign(pts[u], pts[v], p) > 0 {
                    return Err(format!("point {i} strictly above edge ({u},{v})"));
                }
            }
        }
    }
    Ok(())
}

/// Full convex hull (counter-clockwise, starting from the lexicographically
/// smallest point) via the standard Andrew monotone-chain construction.
/// Used by baselines and by the 3-D algorithm's projections.
pub fn convex_hull_indices(pts: &[Point2]) -> Vec<usize> {
    let order = crate::point::argsort_xy(pts);
    // drop exact duplicates (keep the first occurrence in sorted order)
    let mut ids: Vec<usize> = Vec::with_capacity(order.len());
    for &i in &order {
        if let Some(&last) = ids.last() {
            if pts[last] == pts[i] {
                continue;
            }
        }
        ids.push(i);
    }
    let k = ids.len();
    if k <= 2 {
        return ids;
    }
    let chain = |iter: &mut dyn Iterator<Item = usize>| -> Vec<usize> {
        let mut st: Vec<usize> = Vec::new();
        for i in iter {
            while st.len() >= 2
                && orient2d_sign(pts[st[st.len() - 2]], pts[st[st.len() - 1]], pts[i]) <= 0
            {
                st.pop();
            }
            st.push(i);
        }
        st
    };
    let lower = chain(&mut ids.iter().copied());
    let upper = chain(&mut ids.iter().rev().copied());
    let mut out = lower;
    out.pop();
    out.extend_from_slice(&upper[..upper.len() - 1]);
    out
}

/// Check `o` against `Orientation::Clockwise` turns along a vertex cycle.
/// Convenience for tests on [`convex_hull_indices`] output (CCW polygons
/// turn counter-clockwise at every vertex when area > 0).
pub fn is_ccw_convex_polygon(pts: &[Point2], cycle: &[usize]) -> bool {
    let k = cycle.len();
    if k < 3 {
        return true;
    }
    (0..k).all(|i| {
        let a = pts[cycle[i]];
        let b = pts[cycle[(i + 1) % k]];
        let c = pts[cycle[(i + 2) % k]];
        crate::predicates::orient2d(a, b, c) == Orientation::CounterClockwise
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(x: f64, y: f64) -> Point2 {
        Point2::new(x, y)
    }

    #[test]
    fn hull_of_triangle() {
        let pts = vec![p(0.0, 0.0), p(2.0, 0.0), p(1.0, 1.0)];
        let h = UpperHull::of(&pts);
        assert_eq!(h.vertices, vec![0, 2, 1]);
        verify_upper_hull(&pts, &h).unwrap();
    }

    #[test]
    fn hull_trivial_sizes() {
        assert!(UpperHull::of(&[]).is_empty());
        let one = vec![p(1.0, 1.0)];
        let h = UpperHull::of(&one);
        assert_eq!(h.vertices, vec![0]);
        verify_upper_hull(&one, &h).unwrap();
        let two = vec![p(0.0, 0.0), p(1.0, 1.0)];
        let h2 = UpperHull::of(&two);
        assert_eq!(h2.num_edges(), 1);
        verify_upper_hull(&two, &h2).unwrap();
    }

    #[test]
    fn collinear_points_collapse_to_endpoints() {
        let pts: Vec<Point2> = (0..10).map(|i| p(i as f64, 2.0 * i as f64)).collect();
        let h = UpperHull::of(&pts);
        assert_eq!(h.vertices, vec![0, 9], "strictly convex chain");
        verify_upper_hull(&pts, &h).unwrap();
    }

    #[test]
    fn duplicates_and_x_ties() {
        let pts = vec![
            p(0.0, 0.0),
            p(0.0, 2.0),
            p(0.0, 1.0),
            p(1.0, 0.0),
            p(1.0, 0.0),
        ];
        let h = UpperHull::of(&pts);
        verify_upper_hull(&pts, &h).unwrap();
        assert_eq!(h.vertices.len(), 2);
        assert_eq!(pts[h.vertices[0]], p(0.0, 2.0));
    }

    #[test]
    fn concave_point_excluded() {
        let pts = vec![p(0.0, 0.0), p(1.0, 0.5), p(2.0, 2.0), p(3.0, 0.0)];
        let h = UpperHull::of(&pts);
        assert_eq!(h.vertices, vec![0, 2, 3]);
        verify_upper_hull(&pts, &h).unwrap();
    }

    #[test]
    fn edge_above_queries() {
        let pts = vec![
            p(0.0, 0.0),
            p(2.0, 2.0),
            p(4.0, 0.0),
            p(1.0, 0.0),
            p(3.0, 0.5),
        ];
        let h = UpperHull::of(&pts);
        assert_eq!(h.edge_above(&pts, p(1.0, 0.0)), Some((0, 1)));
        assert_eq!(h.edge_above(&pts, p(3.0, 0.5)), Some((1, 2)));
        // a query exactly at a vertex x belongs to the edge starting there
        assert_eq!(h.edge_above(&pts, p(2.0, 0.0)), Some((1, 2)));
        assert_eq!(h.edge_above(&pts, p(-1.0, 0.0)), None);
        assert_eq!(h.edge_above(&pts, p(5.0, 0.0)), None);
    }

    #[test]
    fn verify_catches_bad_hulls() {
        let pts = vec![p(0.0, 0.0), p(1.0, 1.0), p(2.0, 0.0)];
        // missing apex: point 1 is above the chain 0→2
        let bad = UpperHull::new(vec![0, 2]);
        assert!(verify_upper_hull(&pts, &bad).is_err());
        // not clockwise
        let bad2 = UpperHull::new(vec![0, 1, 2, 1]);
        assert!(verify_upper_hull(&pts, &bad2).is_err());
        // out of range id
        let bad3 = UpperHull::new(vec![0, 7]);
        assert!(verify_upper_hull(&pts, &bad3).is_err());
        // good hull passes
        verify_upper_hull(&pts, &UpperHull::new(vec![0, 1, 2])).unwrap();
    }

    #[test]
    fn full_hull_square() {
        let pts = vec![
            p(0.0, 0.0),
            p(1.0, 0.0),
            p(1.0, 1.0),
            p(0.0, 1.0),
            p(0.5, 0.5),
        ];
        let cycle = convex_hull_indices(&pts);
        assert_eq!(cycle.len(), 4);
        assert!(is_ccw_convex_polygon(&pts, &cycle));
        assert!(!cycle.contains(&4));
    }

    #[test]
    fn full_hull_collinear_and_tiny() {
        let pts = vec![p(0.0, 0.0), p(1.0, 1.0), p(2.0, 2.0)];
        let cycle = convex_hull_indices(&pts);
        assert_eq!(cycle.len(), 2);
        assert!(convex_hull_indices(&[]).is_empty());
        assert_eq!(convex_hull_indices(&[p(3.0, 3.0)]), vec![0]);
    }

    #[test]
    fn oracle_on_random_inputs_respects_verifier() {
        let mut s = 1u64;
        let mut next = move || {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((s >> 11) as f64 / (1u64 << 53) as f64) * 10.0
        };
        for n in [3usize, 5, 17, 100, 500] {
            let pts: Vec<Point2> = (0..n).map(|_| p(next(), next())).collect();
            let h = UpperHull::of(&pts);
            verify_upper_hull(&pts, &h).unwrap_or_else(|e| panic!("n={n}: {e}"));
        }
    }
}
