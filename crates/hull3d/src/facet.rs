//! Upper-hull facets in ℝ³ and their verification oracle.
//!
//! An *upper hull facet* is a triangle of input points whose supporting
//! plane has every input point on or below it, oriented counter-clockwise
//! when seen from above (+z). The upper hull is the set of such facets
//! whose xy-projections cover the xy convex hull of the input — the
//! "roof" of the point set. The paper's output convention: every point
//! knows the face above it.

use ipch_geom::predicates::{orient2d_sign, orient3d_sign};
use ipch_geom::{Point2, Point3};

/// One facet: vertex ids, counter-clockwise seen from above.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Facet {
    /// First vertex id.
    pub a: usize,
    /// Second vertex id.
    pub b: usize,
    /// Third vertex id.
    pub c: usize,
}

impl Facet {
    /// Canonical form: rotate so the smallest id comes first (orientation
    /// preserved). Lets facet sets be compared across algorithms.
    pub fn canonical(self) -> Facet {
        let Facet { a, b, c } = self;
        if a <= b && a <= c {
            self
        } else if b <= a && b <= c {
            Facet { a: b, b: c, c: a }
        } else {
            Facet { a: c, b: a, c: b }
        }
    }

    /// The three ids as an array.
    pub fn ids(&self) -> [usize; 3] {
        [self.a, self.b, self.c]
    }
}

/// Build a facet from three ids, orienting CCW-from-above. Returns `None`
/// if the points are collinear in projection (degenerate facet).
pub fn oriented_facet(points: &[Point3], i: usize, j: usize, k: usize) -> Option<Facet> {
    let s = orient2d_sign(points[i].xy(), points[j].xy(), points[k].xy());
    match s {
        0 => None,
        s if s > 0 => Some(Facet { a: i, b: j, c: k }),
        _ => Some(Facet { a: i, b: k, c: j }),
    }
}

/// Is `q` inside (or on the boundary of) the xy-projection of `f`?
pub fn xy_contains(points: &[Point3], f: &Facet, q: Point2) -> bool {
    let (a, b, c) = (points[f.a].xy(), points[f.b].xy(), points[f.c].xy());
    orient2d_sign(a, b, q) >= 0 && orient2d_sign(b, c, q) >= 0 && orient2d_sign(c, a, q) >= 0
}

/// Independently verify an upper-hull facet set:
///
/// 1. every facet is CCW-from-above and non-degenerate;
/// 2. every facet is *supporting*: no input point strictly above its plane;
/// 3. *coverage*: every input point's xy lies in some facet's projection
///    (so every point has a face above it), unless the input is too
///    degenerate to have facets (< 3 points or all collinear in xy —
///    callers pass `allow_empty` for those).
pub fn verify_upper_hull3(
    points: &[Point3],
    facets: &[Facet],
    allow_empty: bool,
) -> Result<(), String> {
    if facets.is_empty() {
        return if allow_empty || points.len() < 3 {
            Ok(())
        } else {
            Err("no facets for a non-trivial input".into())
        };
    }
    for (fi, f) in facets.iter().enumerate() {
        for &v in &f.ids() {
            if v >= points.len() {
                return Err(format!("facet {fi}: vertex {v} out of range"));
            }
        }
        if orient2d_sign(points[f.a].xy(), points[f.b].xy(), points[f.c].xy()) <= 0 {
            return Err(format!("facet {fi} not CCW from above"));
        }
        for (qi, &q) in points.iter().enumerate() {
            if orient3d_sign(points[f.a], points[f.b], points[f.c], q) < 0 {
                return Err(format!("point {qi} strictly above facet {fi}"));
            }
        }
    }
    for (qi, q) in points.iter().enumerate() {
        if !facets.iter().any(|f| xy_contains(points, f, q.xy())) {
            return Err(format!("point {qi} not covered by any facet"));
        }
    }
    Ok(())
}

/// The set of hull-vertex ids appearing in a facet set (comparison helper:
/// different algorithms may triangulate coplanar faces differently but
/// must agree on the vertices).
pub fn vertex_set(facets: &[Facet]) -> std::collections::BTreeSet<usize> {
    facets.iter().flat_map(|f| f.ids()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tetra() -> Vec<Point3> {
        vec![
            Point3::new(0.0, 0.0, 0.0),
            Point3::new(4.0, 0.0, 0.0),
            Point3::new(0.0, 4.0, 0.0),
            Point3::new(1.0, 1.0, 3.0),
        ]
    }

    #[test]
    fn oriented_facet_orients() {
        let pts = tetra();
        let f = oriented_facet(&pts, 0, 1, 3).unwrap();
        // CCW from above
        assert!(orient2d_sign(pts[f.a].xy(), pts[f.b].xy(), pts[f.c].xy()) > 0);
        let g = oriented_facet(&pts, 1, 0, 3).unwrap();
        assert_eq!(f.canonical(), g.canonical());
        // collinear-in-projection triple is rejected
        let col = vec![
            Point3::new(0.0, 0.0, 0.0),
            Point3::new(1.0, 1.0, 5.0),
            Point3::new(2.0, 2.0, 0.0),
        ];
        assert!(oriented_facet(&col, 0, 1, 2).is_none());
    }

    #[test]
    fn tetra_upper_hull_verifies() {
        let pts = tetra();
        // upper hull of the tetrahedron: three slanted facets through apex
        let fs: Vec<Facet> = [(0, 1, 3), (1, 2, 3), (2, 0, 3)]
            .iter()
            .filter_map(|&(i, j, k)| oriented_facet(&pts, i, j, k))
            .collect();
        verify_upper_hull3(&pts, &fs, false).unwrap();
    }

    #[test]
    fn verify_rejects_bad_sets() {
        let pts = tetra();
        // bottom facet: apex lies above it
        let bottom = vec![oriented_facet(&pts, 0, 1, 2).unwrap()];
        assert!(verify_upper_hull3(&pts, &bottom, false).is_err());
        // incomplete coverage
        let partial = vec![oriented_facet(&pts, 0, 1, 3).unwrap()];
        assert!(verify_upper_hull3(&pts, &partial, false).is_err());
        // empty without permission
        assert!(verify_upper_hull3(&pts, &[], false).is_err());
        assert!(verify_upper_hull3(&pts, &[], true).is_ok());
    }

    #[test]
    fn xy_containment_and_below() {
        let pts = tetra();
        let f = oriented_facet(&pts, 0, 1, 3).unwrap();
        assert!(xy_contains(&pts, &f, Point2::new(1.0, 0.5)));
        assert!(!xy_contains(&pts, &f, Point2::new(-1.0, -1.0)));
    }

    #[test]
    fn canonical_is_rotation_invariant() {
        let f = Facet { a: 7, b: 2, c: 5 };
        assert_eq!(f.canonical(), Facet { a: 2, b: 5, c: 7 });
        assert_eq!(
            Facet { a: 5, b: 7, c: 2 }.canonical(),
            Facet { a: 2, b: 5, c: 7 }
        );
    }
}
