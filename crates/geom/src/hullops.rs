//! Point-hull-invariant primitives (paper §2.4).
//!
//! The paper's Lemma 2.6 runs a point algorithm on *upper hulls* by
//! replacing the three point/line primitives with their hull analogues
//! (Atallah & Goodrich, "Parallel Algorithms for Some Functions of Two
//! Convex Polygons", Algorithmica 1988):
//!
//! | on points/lines                      | on upper hulls                       |
//! |--------------------------------------|--------------------------------------|
//! | coordinates / side-of-line of a point| line ∩ upper hull ([`hull_above_line`], via [`extreme_vertex`]) |
//! | line defined by two points           | common tangent ([`common_upper_tangent`]) |
//! | intersection of two lines            | intersection of two hulls (not needed: the callers only use tangent contacts) |
//!
//! The line queries exploit the strict convexity of the chain: the dot
//! product of vertices with a fixed direction is strictly unimodal along
//! the chain, so they binary-search in O(log q) sequentially. The common
//! tangent is a two-pointer walk, O(|a| + |b|), checked against the
//! brute-force [`common_upper_tangent_naive`]. Atallah–Goodrich evaluate
//! the same queries in O(b) parallel time with O(q^{1/b}) processors by
//! q^{1/b}-ary branching; call sites on the PRAM charge that cost (see
//! `ipch-hull2d`'s `invariant` module) while delegating the data work to
//! these routines.

use crate::hull_chain::UpperHull;
use crate::point::Point2;
use crate::predicates::orient2d_sign;

/// Index (into `hull.vertices`) of the vertex maximizing `dir · v`.
///
/// Requires a non-empty hull. For a strictly convex upper chain and any
/// direction with `dir.y > 0`, or `dir.y == 0`, the sequence of dot
/// products is strictly unimodal, enabling binary search. Directions with
/// `dir.y < 0` are rejected (they point below the chain).
pub fn extreme_vertex(pts: &[Point2], hull: &UpperHull, dir: (f64, f64)) -> usize {
    assert!(!hull.is_empty(), "extreme_vertex on empty hull");
    assert!(
        dir.1 >= 0.0,
        "direction must have non-negative y for an upper chain"
    );
    let dot = |i: usize| {
        let p = pts[hull.vertices[i]];
        dir.0 * p.x + dir.1 * p.y
    };
    let n = hull.vertices.len();
    // binary search for the peak of the unimodal sequence
    let (mut lo, mut hi) = (0usize, n - 1);
    while lo < hi {
        let mid = (lo + hi) / 2;
        if dot(mid) < dot(mid + 1) {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

/// Does any hull vertex lie strictly above the line through `a → b`
/// (`a.x < b.x`)? Equivalent to "line ∩ hull ≠ at-most-touching" for the
/// upper region. O(log q) via [`extreme_vertex`] in the line's upward
/// normal direction.
pub fn hull_above_line(pts: &[Point2], hull: &UpperHull, a: Point2, b: Point2) -> bool {
    if hull.is_empty() {
        return false;
    }
    assert!(a.x < b.x, "hull_above_line needs a.x < b.x");
    // upward normal of the line a→b
    let n = (-(b.y - a.y), b.x - a.x);
    let i = extreme_vertex(pts, hull, n);
    orient2d_sign(a, b, pts[hull.vertices[i]]) > 0
}

/// Common upper tangent of two x-disjoint upper hulls (every `a`-vertex x
/// strictly less than every `b`-vertex x). Returns positions `(ia, ib)`
/// into the respective vertex lists such that all vertices of both hulls
/// lie on or below the line through `a[ia] → b[ib]`. Collinear touching
/// vertices resolve to the outermost pair.
///
/// Two-pointer walk, O(|a| + |b|) (call sites charge the Atallah–Goodrich
/// parallel cost, see module docs).
pub fn common_upper_tangent(
    pts_a: &[Point2],
    a: &UpperHull,
    pts_b: &[Point2],
    b: &UpperHull,
) -> (usize, usize) {
    assert!(!a.is_empty() && !b.is_empty());
    let va = |i: usize| pts_a[a.vertices[i]];
    let vb = |i: usize| pts_b[b.vertices[i]];
    assert!(
        va(a.vertices.len() - 1).x < vb(0).x,
        "hulls must be x-disjoint (a left of b)"
    );
    let (mut ia, mut ib) = (a.vertices.len() - 1, 0usize);
    loop {
        let mut moved = false;
        // raise the right endpoint while its successor is on-or-above
        while ib + 1 < b.vertices.len() && orient2d_sign(va(ia), vb(ib), vb(ib + 1)) >= 0 {
            ib += 1;
            moved = true;
        }
        // lower the left endpoint while its predecessor is on-or-above
        while ia > 0 && orient2d_sign(va(ia), vb(ib), va(ia - 1)) >= 0 {
            ia -= 1;
            moved = true;
        }
        if !moved {
            return (ia, ib);
        }
    }
}

/// Brute-force O(|a|·|b|·(|a|+|b|)) common-tangent reference for tests.
pub fn common_upper_tangent_naive(
    pts_a: &[Point2],
    a: &UpperHull,
    pts_b: &[Point2],
    b: &UpperHull,
) -> (usize, usize) {
    let va: Vec<Point2> = a.vertices.iter().map(|&i| pts_a[i]).collect();
    let vb: Vec<Point2> = b.vertices.iter().map(|&i| pts_b[i]).collect();
    let mut best: Option<(usize, usize)> = None;
    for (i, &p) in va.iter().enumerate() {
        for (j, &q) in vb.iter().enumerate() {
            let all_below = va
                .iter()
                .chain(vb.iter())
                .all(|&r| orient2d_sign(p, q, r) <= 0);
            if all_below {
                // outermost pair: smallest i, largest j
                best = match best {
                    None => Some((i, j)),
                    Some((bi, bj)) => {
                        if i < bi || (i == bi && j > bj) {
                            Some((i, j))
                        } else {
                            Some((bi, bj))
                        }
                    }
                };
            }
        }
    }
    best.expect("x-disjoint hulls always have a common upper tangent")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(x: f64, y: f64) -> Point2 {
        Point2::new(x, y)
    }

    fn hull(pts: &[Point2]) -> UpperHull {
        UpperHull::of(pts)
    }

    fn arc(cx: f64, n: usize) -> Vec<Point2> {
        // n points on an upper semicircle centred at (cx, 0), radius 1
        (0..n)
            .map(|i| {
                let t = std::f64::consts::PI * (0.1 + 0.8 * i as f64 / (n - 1) as f64);
                p(cx - t.cos(), t.sin())
            })
            .collect()
    }

    #[test]
    fn extreme_vertex_up_is_apex() {
        let pts = vec![
            p(0.0, 0.0),
            p(1.0, 2.0),
            p(2.0, 3.0),
            p(3.0, 2.5),
            p(4.0, 0.0),
        ];
        let h = hull(&pts);
        let i = extreme_vertex(&pts, &h, (0.0, 1.0));
        assert_eq!(h.vertices[i], 2);
        // leftmost / rightmost via horizontal directions
        let l = extreme_vertex(&pts, &h, (-1.0, 0.0));
        assert_eq!(h.vertices[l], 0);
        let r = extreme_vertex(&pts, &h, (1.0, 0.0));
        assert_eq!(h.vertices[r], 4);
    }

    #[test]
    fn extreme_vertex_matches_linear_scan() {
        let pts = arc(0.0, 40);
        let h = hull(&pts);
        for k in 0..20 {
            let th = std::f64::consts::PI * (k as f64 + 0.5) / 20.0;
            let dir = (th.cos(), th.sin());
            let i = extreme_vertex(&pts, &h, dir);
            let best = (0..h.vertices.len())
                .max_by(|&x, &y| {
                    let dx = dir.0 * pts[h.vertices[x]].x + dir.1 * pts[h.vertices[x]].y;
                    let dy = dir.0 * pts[h.vertices[y]].x + dir.1 * pts[h.vertices[y]].y;
                    dx.partial_cmp(&dy).unwrap()
                })
                .unwrap();
            assert_eq!(i, best, "dir {dir:?}");
        }
    }

    #[test]
    fn hull_above_line_cases() {
        let pts = arc(0.0, 12);
        let h = hull(&pts);
        assert!(hull_above_line(&pts, &h, p(-2.0, 0.5), p(2.0, 0.5)));
        assert!(!hull_above_line(&pts, &h, p(-2.0, 1.5), p(2.0, 1.5)));
        // touching at apex only: not strictly above
        assert!(!hull_above_line(&pts, &h, p(-2.0, 2.0), p(2.0, 2.0)));
    }

    #[test]
    fn common_tangent_matches_naive() {
        for (na, nb) in [(3usize, 3usize), (5, 9), (12, 4), (20, 20), (1, 7), (6, 1)] {
            let pa = arc(0.0, na.max(2));
            let pb = arc(5.0, nb.max(2));
            let (pa, pb): (Vec<_>, Vec<_>) = if na == 1 {
                (vec![p(0.0, 0.3)], pb)
            } else if nb == 1 {
                (pa, vec![p(5.0, 0.3)])
            } else {
                (pa, pb)
            };
            let (ha, hb) = (hull(&pa), hull(&pb));
            let walk = common_upper_tangent(&pa, &ha, &pb, &hb);
            let naive = common_upper_tangent_naive(&pa, &ha, &pb, &hb);
            assert_eq!(walk, naive, "na={na} nb={nb}");
        }
        // random irregular hull pairs across a size grid
        let mut s = 0xfeedu64;
        let mut next = move || {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (s >> 11) as f64 / (1u64 << 53) as f64
        };
        for (na, nb) in [(2usize, 2usize), (3, 9), (17, 5), (40, 40), (100, 7)] {
            for trial in 0..6 {
                let pa: Vec<Point2> = (0..na)
                    .map(|i| p(i as f64 + next() * 0.5, next() * 3.0))
                    .collect();
                let pb: Vec<Point2> = (0..nb)
                    .map(|i| p(200.0 + i as f64 + next() * 0.5, next() * 3.0))
                    .collect();
                let (ha, hb) = (hull(&pa), hull(&pb));
                let walk = common_upper_tangent(&pa, &ha, &pb, &hb);
                let naive = common_upper_tangent_naive(&pa, &ha, &pb, &hb);
                assert_eq!(walk, naive, "na={na} nb={nb} trial={trial}");
            }
        }
    }

    #[test]
    fn common_tangent_collinear_prefers_outermost() {
        // two segments on the same line y = x
        let pa = vec![p(0.0, 0.0), p(1.0, 1.0)];
        let pb = vec![p(2.0, 2.0), p(3.0, 3.0)];
        let (ha, hb) = (hull(&pa), hull(&pb));
        let (ia, ib) = common_upper_tangent(&pa, &ha, &pb, &hb);
        assert_eq!((ha.vertices[ia], hb.vertices[ib]), (0, 1));
    }

    #[test]
    fn common_tangent_is_above_everything() {
        // irregular hulls
        let pa = vec![
            p(0.0, 0.0),
            p(0.5, 1.4),
            p(1.0, 1.8),
            p(1.5, 1.2),
            p(2.0, 0.1),
        ];
        let pb = vec![p(4.0, -0.5), p(4.5, 0.9), p(5.0, 1.1), p(5.5, 0.3)];
        let (ha, hb) = (hull(&pa), hull(&pb));
        let (ia, ib) = common_upper_tangent(&pa, &ha, &pb, &hb);
        let (u, v) = (pa[ha.vertices[ia]], pb[hb.vertices[ib]]);
        for &w in pa.iter().chain(pb.iter()) {
            assert!(orient2d_sign(u, v, w) <= 0, "{w:?} above tangent");
        }
    }
}
