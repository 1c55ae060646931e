//! Point-hull-invariant primitives (paper §2.4).
//!
//! The paper's Lemma 2.6 runs a point algorithm on *upper hulls* by
//! replacing the three point/line primitives with their hull analogues
//! (Atallah & Goodrich, "Parallel Algorithms for Some Functions of Two
//! Convex Polygons", Algorithmica 1988):
//!
//! | on points/lines                      | on upper hulls                       |
//! |--------------------------------------|--------------------------------------|
//! | coordinates / side-of-line of a point| line ∩ upper hull ([`hull_above_line`], [`vertices_above_line`]) |
//! | line defined by two points           | common tangent ([`common_upper_tangent`]) |
//! | intersection of two lines            | intersection of two hulls (one crossing assumed) |
//!
//! Every query here exploits the strict convexity of the chain: the dot
//! product of vertices with a fixed direction is strictly unimodal along
//! the chain, so all searches are O(log q) sequentially. Atallah–Goodrich
//! evaluate the same searches in O(b) parallel time with O(q^{1/b})
//! processors by q^{1/b}-ary branching; call sites on the PRAM charge that
//! cost (see `ipch-hull2d`'s `invariant` module) while delegating the data
//! work to these routines.

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

/// The contiguous range of hull-vertex positions strictly above line `a→b`,
/// as `lo..hi` into `hull.vertices` (empty range if none). The above-set of
/// a convex chain against a line is always contiguous.
pub fn vertices_above_line(
    pts: &[Point2],
    hull: &UpperHull,
    a: Point2,
    b: Point2,
) -> std::ops::Range<usize> {
    let n = hull.vertices.len();
    let above = |i: usize| orient2d_sign(a, b, pts[hull.vertices[i]]) > 0;
    if n == 0 {
        return 0..0;
    }
    // peak of signed distance = extreme vertex along upward normal
    let normal = (-(b.y - a.y), b.x - a.x);
    let peak = extreme_vertex(pts, hull, normal);
    if !above(peak) {
        return 0..0;
    }
    // left boundary: first above-vertex in 0..=peak (above is a suffix there)
    let (mut lo, mut hi) = (0usize, peak);
    while lo < hi {
        let mid = (lo + hi) / 2;
        if above(mid) {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    let left = lo;
    // right boundary: last above-vertex in peak..n (above is a prefix there)
    let (mut lo2, mut hi2) = (peak, n - 1);
    while lo2 < hi2 {
        let mid = (lo2 + hi2).div_ceil(2);
        if above(mid) {
            lo2 = mid;
        } else {
            hi2 = mid - 1;
        }
    }
    left..lo2 + 1
}

/// Upper tangent from an external point `q` to `hull`: the position `t`
/// (into `hull.vertices`) such that every hull vertex lies on or below the
/// line through `q` and vertex `t`. Requires `q.x` strictly outside the
/// hull's x-span (the configuration that arises between x-disjoint groups).
/// O(log q) binary search on the tangency predicate.
pub fn tangent_from_point(pts: &[Point2], hull: &UpperHull, q: Point2) -> usize {
    assert!(!hull.is_empty());
    let n = hull.vertices.len();
    if n == 1 {
        return 0;
    }
    let v = |i: usize| pts[hull.vertices[i]];
    let left_of_hull = q.x < v(0).x;
    assert!(
        left_of_hull || q.x > v(n - 1).x,
        "tangent_from_point requires q outside the hull x-span"
    );
    // Tangency test at i: both neighbours on-or-below line(q, v(i)).
    // For q left of the hull, walking right along the chain the slope of
    // q→v(i) first increases then decreases... equivalently the predicate
    // "v(i+1) is on-or-below line(q, v(i))" is monotone in i: false, …,
    // false, true, …, true. Binary search the first true.
    if left_of_hull {
        let pred = |i: usize| -> bool {
            // successor not strictly above line q→v(i)
            i + 1 >= n || orient2d_sign(q, v(i), v(i + 1)) <= 0
        };
        let (mut lo, mut hi) = (0usize, n - 1);
        while lo < hi {
            let mid = (lo + hi) / 2;
            if pred(mid) {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        lo
    } else {
        // mirror: q right of hull; predicate on predecessor, searching from
        // the right: "v(i-1) on-or-below line(v(i), q)" is monotone
        // (true, …, true, false, …, false) going left→right reversed.
        let pred = |i: usize| -> bool { i == 0 || orient2d_sign(v(i), q, v(i - 1)) <= 0 };
        let (mut lo, mut hi) = (0usize, n - 1);
        while lo < hi {
            let mid = (lo + hi).div_ceil(2);
            if pred(mid) {
                lo = mid;
            } else {
                hi = mid - 1;
            }
        }
        lo
    }
}

/// Common upper tangent of two x-disjoint upper hulls (every `a`-vertex x
/// strictly less than every `b`-vertex x). Returns positions `(ia, ib)`
/// into the respective vertex lists such that all vertices of both hulls
/// lie on or below the line through `a[ia] → b[ib]`. Collinear touching
/// vertices resolve to the outermost pair.
///
/// Two-pointer walk, O(|a| + |b|); the classic O(log) nested search exists
/// but the walk is the verification-grade reference (call sites charge the
/// Atallah–Goodrich parallel cost, see module docs).
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

/// Common upper tangent by nested binary search: O(log|a| · log|b|)
/// orientation tests (the sequential counterpart of the Atallah–Goodrich
/// q^{1/b}-ary parallel search this crate's callers charge). Same
/// contract as [`common_upper_tangent`]; both are validated against the
/// brute reference, and against each other, in the tests.
///
/// Search: for each candidate contact `i` on hull `a`, the tangent from
/// point `a[i]` to hull `b` is found in O(log|b|); `i` is the true contact
/// iff its neighbours on `a` fall on or below that line. The predicate
/// "the true contact lies right of i" (neighbour `i+1` strictly above) is
/// monotone along the chain, so `i` binary-searches in O(log|a|).
pub fn common_upper_tangent_fast(
    pts_a: &[Point2],
    a: &UpperHull,
    pts_b: &[Point2],
    b: &UpperHull,
) -> (usize, usize) {
    assert!(!a.is_empty() && !b.is_empty());
    let va = |i: usize| pts_a[a.vertices[i]];
    let vb = |j: usize| pts_b[b.vertices[j]];
    assert!(
        va(a.vertices.len() - 1).x < vb(0).x,
        "hulls must be x-disjoint (a left of b)"
    );
    let n = a.vertices.len();

    // contact on b for a given left endpoint (a is entirely left of b)
    let contact_b = |i: usize| tangent_from_point(pts_b, b, va(i));

    let (mut lo, mut hi) = (0usize, n - 1);
    while lo < hi {
        let mid = (lo + hi) / 2;
        let j = contact_b(mid);
        // does the chain continue above the candidate tangent to the right?
        if mid + 1 < n && orient2d_sign(va(mid), vb(j), va(mid + 1)) > 0 {
            lo = mid + 1;
        } else if mid > 0 && orient2d_sign(va(mid), vb(j), va(mid - 1)) > 0 {
            hi = mid - 1;
        } else {
            // candidate supports hull a; finish like the walk so collinear
            // contacts resolve to the same outermost pair
            let mut ia = mid;
            let mut ib = contact_b(ia);
            loop {
                let mut moved = false;
                while ib + 1 < b.vertices.len() && orient2d_sign(va(ia), vb(ib), vb(ib + 1)) >= 0 {
                    ib += 1;
                    moved = true;
                }
                while ia > 0 && orient2d_sign(va(ia), vb(ib), va(ia - 1)) >= 0 {
                    ia -= 1;
                    moved = true;
                }
                if !moved {
                    return (ia, ib);
                }
            }
        }
    }
    let ia = lo;
    let mut ib = contact_b(ia);
    // outermost-collinear cleanup (identical to the walk's convention)
    loop {
        let mut moved = false;
        while ib + 1 < b.vertices.len() && orient2d_sign(va(ia), vb(ib), vb(ib + 1)) >= 0 {
            ib += 1;
            moved = true;
        }
        if !moved {
            break;
        }
    }
    let mut ia = ia;
    loop {
        let mut moved = false;
        while ia > 0 && orient2d_sign(va(ia), vb(ib), va(ia - 1)) >= 0 {
            ia -= 1;
            moved = true;
        }
        if !moved {
            break;
        }
    }
    (ia, ib)
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
    fn vertices_above_line_is_contiguous_and_correct() {
        let pts = arc(0.0, 25);
        let h = hull(&pts);
        for yc in [0.2, 0.5, 0.9, 0.99, 1.01] {
            let (a, b) = (p(-3.0, yc), p(3.0, yc));
            let r = vertices_above_line(&pts, &h, a, b);
            for i in 0..h.vertices.len() {
                let above = orient2d_sign(a, b, pts[h.vertices[i]]) > 0;
                assert_eq!(r.contains(&i), above, "yc={yc} i={i}");
            }
        }
    }

    #[test]
    fn tangent_from_point_both_sides() {
        let pts = arc(0.0, 30);
        let h = hull(&pts);
        for q in [
            p(-5.0, 0.0),
            p(-3.0, 1.2),
            p(5.0, 0.0),
            p(4.0, 1.5),
            p(-2.5, -1.0),
        ] {
            let t = tangent_from_point(&pts, &h, q);
            let tv = pts[h.vertices[t]];
            for i in 0..h.vertices.len() {
                let w = pts[h.vertices[i]];
                let s = if q.x < tv.x {
                    orient2d_sign(q, tv, w)
                } else {
                    orient2d_sign(tv, q, w)
                };
                assert!(s <= 0, "q={q:?} vertex {i} above tangent");
            }
        }
    }

    #[test]
    fn tangent_from_point_tiny_hulls() {
        let pts = vec![p(0.0, 0.0)];
        let h = hull(&pts);
        assert_eq!(tangent_from_point(&pts, &h, p(-1.0, 0.0)), 0);
        let pts2 = vec![p(0.0, 0.0), p(1.0, 1.0)];
        let h2 = hull(&pts2);
        // from high on the left the tangent line slopes steeply down, so it
        // touches the far (right) vertex; from low on the left, the near one
        let t = tangent_from_point(&pts2, &h2, p(-1.0, 5.0));
        assert_eq!(h2.vertices[t], 1);
        let t2 = tangent_from_point(&pts2, &h2, p(-1.0, -5.0));
        assert_eq!(h2.vertices[t2], 0);
    }

    #[test]
    fn common_tangent_matches_naive_on_arcs() {
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
            let fast = common_upper_tangent(&pa, &ha, &pb, &hb);
            let naive = common_upper_tangent_naive(&pa, &ha, &pb, &hb);
            assert_eq!(fast, naive, "na={na} nb={nb}");
        }
    }

    #[test]
    fn fast_tangent_matches_walk() {
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
                let fast = common_upper_tangent_fast(&pa, &ha, &pb, &hb);
                assert_eq!(fast, walk, "na={na} nb={nb} trial={trial}");
            }
        }
    }

    #[test]
    fn fast_tangent_on_arcs_and_collinear() {
        let pa = arc(0.0, 30);
        let pb = arc(5.0, 17);
        let (ha, hb) = (hull(&pa), hull(&pb));
        assert_eq!(
            common_upper_tangent_fast(&pa, &ha, &pb, &hb),
            common_upper_tangent(&pa, &ha, &pb, &hb)
        );
        let ca = vec![p(0.0, 0.0), p(1.0, 1.0)];
        let cb = vec![p(2.0, 2.0), p(3.0, 3.0)];
        let (ha, hb) = (hull(&ca), hull(&cb));
        assert_eq!(
            common_upper_tangent_fast(&ca, &ha, &cb, &hb),
            common_upper_tangent(&ca, &ha, &cb, &hb)
        );
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
