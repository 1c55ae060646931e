//! Robust orientation predicates: f64 filter + exact expansion fallback.
//!
//! `orient2d(a, b, c)` returns the orientation of the triangle `a → b → c`:
//! counter-clockwise (c left of the directed line a→b), clockwise, or
//! collinear. `orient3d(a, b, c, d)` returns the side of the oriented plane
//! `a, b, c` that `d` lies on (`Above` ⇔ determinant positive ⇔ `d` sees
//! `a, b, c` in counter-clockwise order... we fix the convention below).
//!
//! Both first evaluate the determinant in plain f64 with Shewchuk's static
//! error bound; only when `|det|` falls below the bound do they re-evaluate
//! exactly with [`crate::exact`] expansions. The fallback runs whenever
//! the true determinant is zero or tiny, not only on contrived inputs:
//! collinear and coplanar point sets, and every test of a point against a
//! line or plane through that same point. The brute-force oracles make
//! the last kind constantly (each candidate triple is tested against its
//! own three vertices), so both filters decide an exact coincidence
//! without the fallback: `orient2d` when each product has an exactly-zero
//! factor, `orient3d` when a difference row is all exact zeros (`d`
//! equals a vertex). A finite `p - q` is `0.0` only when `p == q`, so both
//! shortcuts are exact.
//!
//! The fallback scales each difference row by a power of two before it
//! multiplies, so a determinant whose f64 products underflow to zero, or
//! overflow, still gets its true sign (see [`orient3d_exact`]). The
//! filters' error bounds assume every f64 product is either normal or
//! exactly zero: a product that lands in the subnormal range (coordinates
//! differing by less than about `1e-154` in 2-D or `1e-103` in 3-D) is
//! outside the bound's analysis.

use crate::exact::{det2_exact, two_diff, Expansion};
use crate::point::{Point2, Point3};

/// Result of an orientation test.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Orientation {
    /// Positive determinant: `c` is to the left of a→b (counter-clockwise).
    CounterClockwise,
    /// Negative determinant: `c` is to the right of a→b (clockwise).
    Clockwise,
    /// Zero determinant: collinear / coplanar.
    Collinear,
}

impl Orientation {
    /// Map a sign to an orientation.
    #[inline]
    pub fn from_sign(s: i32) -> Self {
        match s.cmp(&0) {
            std::cmp::Ordering::Greater => Orientation::CounterClockwise,
            std::cmp::Ordering::Less => Orientation::Clockwise,
            std::cmp::Ordering::Equal => Orientation::Collinear,
        }
    }
}

/// Shewchuk's `ccwerrboundA` for the 2-D filter.
const CCW_ERRBOUND_A: f64 = (3.0 + 16.0 * f64::EPSILON / 2.0) * (f64::EPSILON / 2.0);
/// Shewchuk's `o3derrboundA` for the 3-D filter.
const O3D_ERRBOUND_A: f64 = (7.0 + 56.0 * f64::EPSILON / 2.0) * (f64::EPSILON / 2.0);

/// Sign of `det[(a-c) (b-c)]`: +1 if `a, b, c` make a left turn.
#[inline]
pub fn orient2d_sign(a: Point2, b: Point2, c: Point2) -> i32 {
    let detleft = (a.x - c.x) * (b.y - c.y);
    let detright = (a.y - c.y) * (b.x - c.x);
    let det = detleft - detright;

    // One bound for every sign pattern, tested by one branch that the
    // filter almost always takes. Shewchuk's early returns on
    // opposite-sign products decide the same calls, but branch on the
    // data and mispredict on random inputs.
    let errbound = CCW_ERRBOUND_A * (detleft.abs() + detright.abs());
    if det.abs() > errbound {
        return sign_of(det);
    }
    // Both products exactly zero: each has a zero factor (`c` equals `a`
    // or `b`, or all three share an x or a y). Products that only
    // underflowed to 0.0 miss this test and go to the exact path.
    if (a.x == c.x || b.y == c.y) && (a.y == c.y || b.x == c.x) {
        return 0;
    }
    orient2d_exact(a, b, c)
}

/// Exact 2-D orientation via expansions (no filter), with each difference
/// row scaled as in [`orient3d_exact`].
pub fn orient2d_exact(a: Point2, b: Point2, c: Point2) -> i32 {
    let [adx, ady] = scaled_row([two_diff(a.x, c.x), two_diff(a.y, c.y)]);
    let [bdx, bdy] = scaled_row([two_diff(b.x, c.x), two_diff(b.y, c.y)]);
    det2_exact(adx, bdx, ady, bdy).sign()
}

/// Robust 2-D orientation test.
#[inline]
pub fn orient2d(a: Point2, b: Point2, c: Point2) -> Orientation {
    Orientation::from_sign(orient2d_sign(a, b, c))
}

/// Sign of the 3×3 determinant of rows `(a-d, b-d, c-d)`.
///
/// Positive ⇔ `d` lies *below* the oriented plane through `a, b, c` when
/// `a, b, c` appear counter-clockwise seen from above (the standard
/// `orient3d` convention).
#[inline]
pub fn orient3d_sign(a: Point3, b: Point3, c: Point3, d: Point3) -> i32 {
    let adx = a.x - d.x;
    let bdx = b.x - d.x;
    let cdx = c.x - d.x;
    let ady = a.y - d.y;
    let bdy = b.y - d.y;
    let cdy = c.y - d.y;
    let adz = a.z - d.z;
    let bdz = b.z - d.z;
    let cdz = c.z - d.z;

    let bdxcdy = bdx * cdy;
    let cdxbdy = cdx * bdy;
    let cdxady = cdx * ady;
    let adxcdy = adx * cdy;
    let adxbdy = adx * bdy;
    let bdxady = bdx * ady;

    let det = adz * (bdxcdy - cdxbdy) + bdz * (cdxady - adxcdy) + cdz * (adxbdy - bdxady);
    let permanent = (bdxcdy.abs() + cdxbdy.abs()) * adz.abs()
        + (cdxady.abs() + adxcdy.abs()) * bdz.abs()
        + (adxbdy.abs() + bdxady.abs()) * cdz.abs();
    let errbound = O3D_ERRBOUND_A * permanent;
    if det.abs() > errbound {
        return sign_of(det);
    }
    // `d` coincides with a vertex: that row is zero, so is the determinant.
    // Test the rows, never `permanent == 0.0`, which underflow also gives.
    let zero = |x: f64, y: f64, z: f64| x == 0.0 && y == 0.0 && z == 0.0;
    if zero(adx, ady, adz) || zero(bdx, bdy, bdz) || zero(cdx, cdy, cdz) {
        return 0;
    }
    orient3d_exact(a, b, c, d)
}

/// Exact 3-D orientation via expansions (no filter).
///
/// Each row `(p - d)` is taken as exact two-term differences and scaled
/// by one power of two so its largest term lies in `[2, 4)`. The
/// determinant is linear in each row, so its sign is unchanged, and no
/// partial product can overflow. The sign is exact whenever the points'
/// nonzero coordinates lie within a factor `2^200` of one another, at any
/// magnitude from subnormal to `f64::MAX / 2`; a row whose terms span more
/// than about `2^1000` loses its smallest terms to underflow.
pub fn orient3d_exact(a: Point3, b: Point3, c: Point3, d: Point3) -> i32 {
    let row = |p: Point3| {
        scaled_row([two_diff(p.x, d.x), two_diff(p.y, d.y), two_diff(p.z, d.z)])
            .map(|(hi, lo)| Expansion::from_two(hi, lo))
    };
    let [adx, ady, adz] = row(a);
    let [bdx, bdy, bdz] = row(b);
    let [cdx, cdy, cdz] = row(c);

    let m1 = bdx.mul(&cdy).sub(&cdx.mul(&bdy));
    let m2 = cdx.mul(&ady).sub(&adx.mul(&cdy));
    let m3 = adx.mul(&bdy).sub(&bdx.mul(&ady));
    adz.mul(&m1).add(&bdz.mul(&m2)).add(&cdz.mul(&m3)).sign()
}

/// Robust 3-D orientation test.
#[inline]
pub fn orient3d(a: Point3, b: Point3, c: Point3, d: Point3) -> Orientation {
    Orientation::from_sign(orient3d_sign(a, b, c, d))
}

/// Scale a row of exact two-term differences by one power of two so its
/// largest leading term lies in `[2, 4)`. Only exponents change, so the
/// scaling is exact unless a term lies `2^1000` below the row's largest.
/// All-zero and non-finite rows are returned as they are.
fn scaled_row<const N: usize>(mut row: [(f64, f64); N]) -> [(f64, f64); N] {
    let max = row.iter().fold(0.0f64, |m, &(hi, _)| m.max(hi.abs()));
    if max == 0.0 || !max.is_finite() {
        return row;
    }
    // 2^(1-e) exceeds f64's range for subnormal rows: apply it in parts
    let mut k = 1 - ilog2(max);
    while k != 0 {
        let step = k.clamp(-1000, 1000);
        for (hi, lo) in row.iter_mut() {
            *hi *= pow2(step);
            *lo *= pow2(step);
        }
        k -= step;
    }
    row
}

/// `⌊log2 x⌋` for finite `x > 0`, subnormals included.
fn ilog2(x: f64) -> i32 {
    if x < f64::MIN_POSITIVE {
        return ilog2(x * pow2(600)) - 600;
    }
    ((x.to_bits() >> 52) & 0x7ff) as i32 - 1023
}

/// `2^k` for `k` in the normal exponent range `[-1022, 1023]`.
fn pow2(k: i32) -> f64 {
    f64::from_bits(((k + 1023) as u64) << 52)
}

#[inline]
fn sign_of(v: f64) -> i32 {
    (v > 0.0) as i32 - (v < 0.0) as i32
}

/// True if `c` is on or below the line through `a → b` (left-to-right).
#[inline]
pub fn on_or_below(a: Point2, b: Point2, c: Point2) -> bool {
    assert!(a.x <= b.x, "on_or_below needs a.x <= b.x");
    orient2d_sign(a, b, c) <= 0
}

#[cfg(test)]
mod tests {
    use super::*;

    const A: Point2 = Point2::new(0.0, 0.0);
    const B: Point2 = Point2::new(1.0, 0.0);

    #[test]
    fn orient2d_basic() {
        assert_eq!(
            orient2d(A, B, Point2::new(0.5, 1.0)),
            Orientation::CounterClockwise
        );
        assert_eq!(
            orient2d(A, B, Point2::new(0.5, -1.0)),
            Orientation::Clockwise
        );
        assert_eq!(
            orient2d(A, B, Point2::new(2.0, 0.0)),
            Orientation::Collinear
        );
    }

    #[test]
    fn orient2d_antisymmetry() {
        let c = Point2::new(0.3, 0.7);
        assert_eq!(orient2d_sign(A, B, c), -orient2d_sign(B, A, c));
        assert_eq!(orient2d_sign(A, B, c), orient2d_sign(B, c, A));
    }

    #[test]
    fn orient2d_degenerate_near_collinear() {
        // Classic filter-breaking case: points on a line y = x with tiny
        // perturbation below representability of the naive determinant.
        let a = Point2::new(12.0, 12.0);
        let b = Point2::new(24.0, 24.0);
        for i in 0..64 {
            let x = 0.5 + (i as f64) * f64::EPSILON;
            let c = Point2::new(x, x);
            assert_eq!(orient2d(a, b, c), Orientation::Collinear, "i={i}");
            let c_up = Point2::new(x, x + x * f64::EPSILON);
            assert_eq!(orient2d_sign(a, b, c_up), 1, "i={i}");
            let c_dn = Point2::new(x, x - x * f64::EPSILON);
            assert_eq!(orient2d_sign(a, b, c_dn), -1, "i={i}");
        }
    }

    #[test]
    fn orient2d_filter_agrees_with_exact_randomly() {
        let mut s = 0x1234_5678_u64;
        let mut next = move || {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((s >> 11) as f64 / (1u64 << 53) as f64) * 100.0 - 50.0
        };
        for _ in 0..2000 {
            let a = Point2::new(next(), next());
            let b = Point2::new(next(), next());
            let c = Point2::new(next(), next());
            assert_eq!(orient2d_sign(a, b, c), orient2d_exact(a, b, c));
        }
    }

    #[test]
    fn orient3d_basic() {
        let a = Point3::new(0.0, 0.0, 0.0);
        let b = Point3::new(1.0, 0.0, 0.0);
        let c = Point3::new(0.0, 1.0, 0.0);
        // orient3d(a,b,c,d) > 0 iff d below plane (a,b,c CCW from above)
        assert_eq!(orient3d_sign(a, b, c, Point3::new(0.0, 0.0, -1.0)), 1);
        assert_eq!(orient3d_sign(a, b, c, Point3::new(0.0, 0.0, 1.0)), -1);
        assert_eq!(orient3d_sign(a, b, c, Point3::new(5.0, 5.0, 0.0)), 0);
    }

    #[test]
    fn orient3d_degenerate_coplanar() {
        let a = Point3::new(0.0, 0.0, 0.0);
        let b = Point3::new(1.0, 1.0, 1.0);
        let c = Point3::new(2.0, 4.0, 8.0);
        // d in the plane spanned by b and c (linear combination)
        let d = Point3::new(3.0, 5.0, 9.0); // b + c
        assert_eq!(orient3d_sign(a, b, c, d), 0);
        // tiny z-perturbations flip the sign deterministically
        let dup = Point3::new(3.0, 5.0, 9.0 + 9.0 * f64::EPSILON);
        let ddn = Point3::new(3.0, 5.0, 9.0 - 9.0 * f64::EPSILON);
        assert_ne!(orient3d_sign(a, b, c, dup), 0);
        assert_eq!(orient3d_sign(a, b, c, dup), -orient3d_sign(a, b, c, ddn));
    }

    /// Unit-ball triples at `scale`, from a fixed seed.
    fn ball_triples(scale: f64, count: usize, seed: u64) -> Vec<[Point3; 3]> {
        let pts = crate::gen3d::in_ball(3 * count, seed);
        pts.chunks_exact(3)
            .map(|t| [t[0], t[1], t[2]].map(|p| Point3::new(p.x * scale, p.y * scale, p.z * scale)))
            .collect()
    }

    /// Magnitudes from subnormal (`1e-310`: ball coordinates land below
    /// `f64::MIN_POSITIVE`) to `1e300` (products overflow).
    const SCALES: [f64; 9] = [
        1e-310, 1e-300, 1e-200, 1e-150, 1e-100, 1.0, 1e100, 1e200, 1e300,
    ];

    #[test]
    fn coincident_vertex_agrees_with_exact_at_every_magnitude() {
        for (si, &scale) in SCALES.iter().enumerate() {
            for [a, b, c] in ball_triples(scale, 40, si as u64) {
                for d in [a, b, c] {
                    for (p, q, r) in [(a, b, c), (b, c, a), (a, c, b)] {
                        assert_eq!(orient3d_exact(p, q, r, d), 0, "scale {scale}");
                        assert_eq!(orient3d_sign(p, q, r, d), 0, "scale {scale}");
                    }
                }
                let (a, b) = (a.xy(), b.xy());
                for c in [a, b] {
                    assert_eq!(orient2d_exact(a, b, c), 0, "scale {scale}");
                    assert_eq!(orient2d_sign(a, b, c), 0, "scale {scale}");
                    assert_eq!(orient2d_sign(b, a, c), 0, "scale {scale}");
                }
            }
        }
    }

    #[test]
    fn coplanar_and_collinear_grids_agree_with_exact() {
        // z = 3x - 2y + 7 and y = 2x - 5 on an integer grid: every
        // quadruple is coplanar, every triple collinear, exactly
        let grid: Vec<Point3> = (0..6)
            .flat_map(|i| (0..6).map(move |j| (i as f64, j as f64)))
            .map(|(x, y)| Point3::new(x, y, 3.0 * x - 2.0 * y + 7.0))
            .collect();
        let line: Vec<Point2> = (0..12)
            .map(|i| Point2::new(i as f64, 2.0 * i as f64 - 5.0))
            .collect();
        let mut s = 0x9e37_79b9_u64;
        let mut pick = move |n: usize| {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (s >> 33) as usize % n
        };
        for _ in 0..2000 {
            let [a, b, c, d] = [(); 4].map(|_| grid[pick(grid.len())]);
            assert_eq!(orient3d_exact(a, b, c, d), 0);
            assert_eq!(orient3d_sign(a, b, c, d), 0);
            // one unit off the plane: both agree on a nonzero sign
            let up = Point3::new(d.x, d.y, d.z + 1.0);
            assert_eq!(orient3d_sign(a, b, c, up), orient3d_exact(a, b, c, up));
            let [a, b, c] = [(); 3].map(|_| line[pick(line.len())]);
            assert_eq!(orient2d_exact(a, b, c), 0);
            assert_eq!(orient2d_sign(a, b, c), 0);
        }
    }

    #[test]
    fn random_ball_points_agree_with_exact() {
        // unit scale decides in the filter; 1e-300 underflows every
        // product and 1e300 overflows them, so both go to the exact path
        for (si, &scale) in [1e-300, 1.0, 1e300].iter().enumerate() {
            let triples = ball_triples(scale, 400, 100 + si as u64);
            for (t, &[a, b, c]) in triples.iter().enumerate() {
                let d = triples[(t + 1) % triples.len()][0];
                let e = orient3d_exact(a, b, c, d);
                assert_ne!(e, 0, "scale {scale}: random points are not coplanar");
                assert_eq!(orient3d_sign(a, b, c, d), e, "scale {scale}");
                let e = orient2d_exact(a.xy(), b.xy(), c.xy());
                assert_ne!(e, 0, "scale {scale}: random points are not collinear");
                assert_eq!(orient2d_sign(a.xy(), b.xy(), c.xy()), e, "scale {scale}");
            }
        }
    }

    #[test]
    fn underflowed_products_still_get_the_exact_sign() {
        // Every f64 product underflows to 0.0, so det and its permanent
        // are both 0.0, yet the configuration is the unit one scaled by
        // `e`: a `permanent == 0 ⇒ coplanar` shortcut would answer 0.
        let e = 1e-120;
        assert_eq!(e * e * e, 0.0);
        let o = Point3::new(0.0, 0.0, 0.0);
        let unit = [
            Point3::new(1.0, 0.0, 0.0),
            Point3::new(0.0, 1.0, 0.0),
            Point3::new(0.0, 0.0, 1.0),
        ];
        let tiny = unit.map(|p| Point3::new(p.x * e, p.y * e, p.z * e));
        let [a, b, c] = tiny;
        let want = orient3d_sign(unit[0], unit[1], unit[2], o);
        assert_ne!(want, 0);
        assert_eq!(orient3d_exact(a, b, c, o), want);
        assert_eq!(orient3d_sign(a, b, c, o), want);
        assert_eq!(orient3d_sign(a, c, b, o), -want);

        // 2-D: both products (1e-170)² and 0·0 are 0.0
        let e = 1e-170;
        assert_eq!(e * e, 0.0);
        let (a, b, c) = (
            Point2::new(e, 0.0),
            Point2::new(0.0, e),
            Point2::new(0.0, 0.0),
        );
        let want = orient2d_sign(Point2::new(1.0, 0.0), Point2::new(0.0, 1.0), c);
        assert_eq!(want, 1);
        assert_eq!(orient2d_exact(a, b, c), want);
        assert_eq!(orient2d_sign(a, b, c), want);
        assert_eq!(orient2d_sign(b, a, c), -want);
    }

    #[test]
    fn above_below_helpers() {
        assert!(on_or_below(A, B, Point2::new(0.5, 0.0)));
        assert!(on_or_below(A, B, Point2::new(0.5, -2.0)));
        assert!(!on_or_below(A, B, Point2::new(0.5, 0.2)));
    }
}
