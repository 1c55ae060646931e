//! Structure-of-arrays point layout for the simulator's hot step closures.
//!
//! The simulator runs a step's processors in contiguous chunks
//! (`ipch_pram::machine`); whether those loops actually vectorize
//! depends on what the per-element closure touches. Indexing an
//! array-of-structs `&[Point2]` loads 16-byte structs at stride 2 and then
//! throws half of each load away, and recomputing an order-isomorphic
//! integer key from raw `f64` bits on every element puts bit-twiddling in
//! the hot loop. This module provides the two standard fixes:
//!
//! * [`PointsSoA`] — the same points as two contiguous `f64` columns, so a
//!   closure that only needs `x` streams a dense column.
//! * [`f64_key`] / [`f64_from_key`] — the order-isomorphic f64 ↔ i64
//!   mapping, plus [`PointsSoA::x_keys`] to hoist the key computation out
//!   of kernel closures entirely: precompute the column once, then reduce
//!   over plain `i64` loads. Because the mapping is bijective on bit
//!   patterns, a reduced key converts back to the *bit-identical* float via
//!   [`f64_from_key`] — no host-side rescan needed to recover the witness
//!   value.
//!
//! The key mapping is the canonical definition for the whole workspace
//! (`ipch_lp::constraint::f64_key` delegates here).

use crate::point::{Point2, Point3};

/// Order-isomorphic mapping f64 → i64 (total order on finite floats),
/// letting PRAM Combining-Min/Max steps minimize or maximize real-valued
/// keys exactly. Injective on bit patterns (`-0.0` and `0.0` map to
/// distinct adjacent keys), inverted by [`f64_from_key`].
#[inline]
pub fn f64_key(v: f64) -> i64 {
    let b = v.to_bits() as i64;
    b ^ (((b >> 63) as u64) >> 1) as i64
}

/// Inverse of [`f64_key`]: recovers the bit-identical `f64` a key was
/// derived from. The transform is an involution on the sign-preserved
/// encoding, so decoding is the same xor-fold keyed on the *key's* sign.
#[inline]
pub fn f64_from_key(k: i64) -> f64 {
    f64::from_bits((k ^ (((k >> 63) as u64) >> 1) as i64) as u64)
}

/// Points in structure-of-arrays layout: two contiguous `f64` columns.
///
/// Built once per problem instance from the (never reordered) input slice;
/// kernel closures index the column they need instead of gathering through
/// `Point2` structs.
///
/// # Examples
///
/// ```
/// use ipch_geom::soa::{f64_from_key, PointsSoA};
/// use ipch_geom::Point2;
///
/// let pts = vec![Point2 { x: 3.0, y: 1.0 }, Point2 { x: -2.0, y: 4.0 }];
/// let soa = PointsSoA::from_points(&pts);
/// assert_eq!(soa.xs(), &[3.0, -2.0]);
/// assert_eq!(soa.ys(), &[1.0, 4.0]);
/// let keys = soa.x_keys();
/// let max_key = *keys.iter().max().unwrap();
/// assert_eq!(f64_from_key(max_key), 3.0);
/// ```
#[derive(Clone, Debug, Default)]
pub struct PointsSoA {
    xs: Vec<f64>,
    ys: Vec<f64>,
}

impl PointsSoA {
    /// Transpose an AoS slice into columns. O(n), done once per instance.
    pub fn from_points(points: &[Point2]) -> Self {
        Self {
            xs: points.iter().map(|p| p.x).collect(),
            ys: points.iter().map(|p| p.y).collect(),
        }
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.xs.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.xs.is_empty()
    }

    /// The x column.
    #[inline]
    pub fn xs(&self) -> &[f64] {
        &self.xs
    }

    /// The y column.
    #[inline]
    pub fn ys(&self) -> &[f64] {
        &self.ys
    }

    /// Precompute the order-isomorphic key of every x coordinate
    /// ([`f64_key`] hoisted out of the kernel closure into one dense pass).
    pub fn x_keys(&self) -> Vec<i64> {
        self.xs.iter().map(|&x| f64_key(x)).collect()
    }
}

/// One-shot key column straight from an AoS slice, for call sites that
/// only need the keys and not the transposed coordinates.
pub fn x_keys(points: &[Point2]) -> Vec<i64> {
    points.iter().map(|p| f64_key(p.x)).collect()
}

/// 3-D points in structure-of-arrays layout: three contiguous `f64`
/// columns. Built once per problem instance; per-coordinate hot loops
/// (quadrant classification, axis reductions) stream the column they need
/// instead of gathering 24-byte `Point3` structs.
#[derive(Clone, Debug, Default)]
pub struct Points3SoA {
    xs: Vec<f64>,
    ys: Vec<f64>,
    zs: Vec<f64>,
}

impl Points3SoA {
    /// Transpose an AoS slice into columns. O(n), done once per instance.
    pub fn from_points(points: &[Point3]) -> Self {
        Self {
            xs: points.iter().map(|p| p.x).collect(),
            ys: points.iter().map(|p| p.y).collect(),
            zs: points.iter().map(|p| p.z).collect(),
        }
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.xs.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.xs.is_empty()
    }

    /// The x column.
    #[inline]
    pub fn xs(&self) -> &[f64] {
        &self.xs
    }

    /// The y column.
    #[inline]
    pub fn ys(&self) -> &[f64] {
        &self.ys
    }

    /// The z column.
    #[inline]
    pub fn zs(&self) -> &[f64] {
        &self.zs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f64_key_monotone_and_invertible() {
        let vals = [
            f64::NEG_INFINITY,
            -1e300,
            -2.5,
            -1.0,
            -f64::MIN_POSITIVE,
            -0.0,
            0.0,
            f64::MIN_POSITIVE,
            1.0,
            2.5,
            1e300,
            f64::INFINITY,
        ];
        for w in vals.windows(2) {
            assert!(
                f64_key(w[0]) < f64_key(w[1]),
                "keys must be strictly increasing: {} vs {}",
                w[0],
                w[1]
            );
        }
        for &v in &vals {
            let back = f64_from_key(f64_key(v));
            assert_eq!(back.to_bits(), v.to_bits(), "roundtrip of {v}");
        }
    }

    #[test]
    fn soa3_columns_match_aos() {
        let pts: Vec<Point3> = (0..31)
            .map(|i| Point3 {
                x: i as f64,
                y: (i * 2) as f64,
                z: (i * 3) as f64 - 10.0,
            })
            .collect();
        let soa = Points3SoA::from_points(&pts);
        assert_eq!(soa.len(), pts.len());
        assert!(!soa.is_empty());
        for (i, p) in pts.iter().enumerate() {
            assert_eq!(soa.xs()[i], p.x);
            assert_eq!(soa.ys()[i], p.y);
            assert_eq!(soa.zs()[i], p.z);
        }
    }

    #[test]
    fn soa_columns_match_aos() {
        let pts: Vec<Point2> = (0..97)
            .map(|i| Point2 {
                x: (i as f64) * 1.5 - 40.0,
                y: ((i * i) % 13) as f64,
            })
            .collect();
        let soa = PointsSoA::from_points(&pts);
        assert_eq!(soa.len(), pts.len());
        for (i, p) in pts.iter().enumerate() {
            assert_eq!(soa.xs()[i], p.x);
            assert_eq!(soa.ys()[i], p.y);
        }
        let keys = soa.x_keys();
        assert_eq!(keys, x_keys(&pts));
        // the max key decodes to the max x
        let max_x = pts.iter().map(|p| p.x).fold(f64::NEG_INFINITY, f64::max);
        assert_eq!(f64_from_key(*keys.iter().max().unwrap()), max_x);
    }
}
