//! Floating-point expansion arithmetic (Shewchuk-style).
//!
//! An *expansion* is a sum of f64 components, ordered by increasing
//! magnitude and non-overlapping, representing a real number exactly. The
//! classic error-free transformations — `two_sum`, `two_diff`,
//! `two_product` — produce exact two-term expansions; sums and scalings of
//! expansions stay exact. The sign of an expansion is the sign of its
//! largest-magnitude (last non-zero) component.
//!
//! This module provides just enough machinery for exact 2×2 and 3×3
//! determinants of coordinate differences, i.e. exact `orient2d` /
//! `orient3d` fallbacks. Components are kept in `Vec`s, so one fallback
//! costs hundreds of nanoseconds against a few for the filter. The exact
//! path runs when the floating-point filter in [`crate::predicates`]
//! cannot decide, which is whenever the true determinant is zero or tiny:
//! collinear or coplanar inputs, and a point tested against a line or
//! plane through itself. That last, coincident-vertex case is not rare —
//! the brute-force oracles make it for two or three of every `n`
//! processors — so the filters decide it without coming here.

/// Exact sum: returns `(x, y)` with `x + y = a + b` exactly and `x = fl(a+b)`.
#[inline]
pub fn two_sum(a: f64, b: f64) -> (f64, f64) {
    let x = a + b;
    let bv = x - a;
    let av = x - bv;
    let br = b - bv;
    let ar = a - av;
    (x, ar + br)
}

/// Exact difference: `(x, y)` with `x + y = a - b` exactly.
#[inline]
pub fn two_diff(a: f64, b: f64) -> (f64, f64) {
    let x = a - b;
    let bv = a - x;
    let av = x + bv;
    let br = bv - b;
    let ar = a - av;
    (x, ar + br)
}

/// Exact product via fused multiply-add: `(x, y)` with `x + y = a * b`.
#[inline]
pub fn two_product(a: f64, b: f64) -> (f64, f64) {
    let x = a * b;
    let y = a.mul_add(b, -x);
    (x, y)
}

/// An exact multi-term expansion. Invariant: components ascend in magnitude
/// and are non-overlapping; zeros are eliminated. The empty expansion is 0.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Expansion {
    comps: Vec<f64>,
}

impl Expansion {
    /// The zero expansion.
    pub fn zero() -> Self {
        Self::default()
    }

    /// Expansion of one f64.
    pub fn from_f64(v: f64) -> Self {
        let mut e = Self::zero();
        if v != 0.0 {
            e.comps.push(v);
        }
        e
    }

    /// Expansion of an exact two-term pair `(hi, lo)` (e.g. a `two_product`).
    pub fn from_two(hi: f64, lo: f64) -> Self {
        let mut e = Self::zero();
        if lo != 0.0 {
            e.comps.push(lo);
        }
        if hi != 0.0 {
            e.comps.push(hi);
        }
        e
    }

    /// Number of stored components.
    pub fn len(&self) -> usize {
        self.comps.len()
    }

    /// True if the expansion represents zero.
    pub fn is_empty(&self) -> bool {
        self.comps.is_empty()
    }

    /// Exact sum of two expansions (fast-expansion-sum with zero
    /// elimination).
    pub fn add(&self, other: &Expansion) -> Expansion {
        // Merge by magnitude, then a single distillation pass.
        let mut merged: Vec<f64> = Vec::with_capacity(self.comps.len() + other.comps.len());
        let (mut i, mut j) = (0, 0);
        while i < self.comps.len() && j < other.comps.len() {
            if self.comps[i].abs() <= other.comps[j].abs() {
                merged.push(self.comps[i]);
                i += 1;
            } else {
                merged.push(other.comps[j]);
                j += 1;
            }
        }
        merged.extend_from_slice(&self.comps[i..]);
        merged.extend_from_slice(&other.comps[j..]);

        let mut out = Vec::with_capacity(merged.len());
        let mut q = 0.0f64;
        for &c in &merged {
            let (s, e) = two_sum(q, c);
            if e != 0.0 {
                out.push(e);
            }
            q = s;
        }
        if q != 0.0 {
            out.push(q);
        }
        // One distillation pass can leave overlap in pathological cases;
        // repeat until stable (terminates quickly in practice).
        let mut exp = Expansion { comps: out };
        if !exp.is_normalized() {
            exp = Expansion::zero().add_distilled(&exp);
        }
        exp
    }

    fn add_distilled(&self, other: &Expansion) -> Expansion {
        let mut all: Vec<f64> = self
            .comps
            .iter()
            .chain(other.comps.iter())
            .copied()
            .collect();
        all.sort_by(|a, b| a.abs().partial_cmp(&b.abs()).unwrap());
        loop {
            let mut out: Vec<f64> = Vec::with_capacity(all.len());
            let mut q = 0.0f64;
            for &c in &all {
                let (s, e) = two_sum(q, c);
                if e != 0.0 {
                    out.push(e);
                }
                q = s;
            }
            if q != 0.0 {
                out.push(q);
            }
            let exp = Expansion { comps: out };
            if exp.is_normalized() {
                return exp;
            }
            all = exp.comps;
        }
    }

    fn is_normalized(&self) -> bool {
        self.comps.windows(2).all(|w| w[0].abs() <= w[1].abs())
    }

    /// Exact difference.
    pub fn sub(&self, other: &Expansion) -> Expansion {
        self.add(&other.neg())
    }

    /// Exact negation.
    pub fn neg(&self) -> Expansion {
        Expansion {
            comps: self.comps.iter().map(|c| -c).collect(),
        }
    }

    /// Exact product by a scalar (scale-expansion with zero elimination).
    pub fn scale(&self, b: f64) -> Expansion {
        if b == 0.0 || self.is_empty() {
            return Expansion::zero();
        }
        let mut acc = Expansion::zero();
        for &c in &self.comps {
            let (hi, lo) = two_product(c, b);
            acc = acc.add(&Expansion::from_two(hi, lo));
        }
        acc
    }

    /// Exact product of two expansions.
    pub fn mul(&self, other: &Expansion) -> Expansion {
        let mut acc = Expansion::zero();
        for &c in &other.comps {
            acc = acc.add(&self.scale(c));
        }
        acc
    }

    /// Sign of the represented value: -1, 0 or +1. Exact.
    pub fn sign(&self) -> i32 {
        match self.comps.last() {
            None => 0,
            Some(&c) => {
                if c > 0.0 {
                    1
                } else if c < 0.0 {
                    -1
                } else {
                    0
                }
            }
        }
    }

    /// Approximate (rounded) value — for diagnostics only.
    pub fn approx(&self) -> f64 {
        self.comps.iter().sum()
    }
}

/// Exact 2×2 determinant `| a b ; c d |` where each entry is an exact
/// two-term expansion (as produced by [`two_diff`]).
pub fn det2_exact(a: (f64, f64), b: (f64, f64), c: (f64, f64), d: (f64, f64)) -> Expansion {
    let ea = Expansion::from_two(a.0, a.1);
    let eb = Expansion::from_two(b.0, b.1);
    let ec = Expansion::from_two(c.0, c.1);
    let ed = Expansion::from_two(d.0, d.1);
    ea.mul(&ed).sub(&eb.mul(&ec))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_sum_exact() {
        let (x, y) = two_sum(1e16, 1.0);
        assert_eq!(x + y, 1e16 + 1.0); // rounded view
                                       // exactness: reconstruct via expansion
        let e = Expansion::from_two(x, y);
        assert_eq!(e.sign(), 1);
        let (x2, y2) = two_sum(0.1, 0.2);
        assert!(y2 != 0.0, "0.1 + 0.2 has a rounding tail");
        assert_eq!(x2, 0.1 + 0.2);
    }

    #[test]
    fn two_product_exact() {
        let (x, y) = two_product(1.0 + f64::EPSILON, 1.0 + f64::EPSILON);
        // (1+e)^2 = 1 + 2e + e^2; the e^2 term is the tail
        assert_eq!(x, 1.0 + 2.0 * f64::EPSILON);
        assert_eq!(y, f64::EPSILON * f64::EPSILON);
    }

    #[test]
    fn expansion_add_sign() {
        let a = Expansion::from_f64(1e-30);
        let b = Expansion::from_f64(1e30);
        let s = a.add(&b.neg()).add(&b);
        assert_eq!(s.sign(), 1);
        assert_eq!(s.approx(), 1e-30);
    }

    #[test]
    fn expansion_cancellation_to_zero() {
        let a = Expansion::from_f64(0.1).add(&Expansion::from_f64(0.2));
        let b = Expansion::from_f64(0.2).add(&Expansion::from_f64(0.1));
        assert_eq!(a.sub(&b).sign(), 0);
    }

    #[test]
    fn scale_and_mul() {
        let a = Expansion::from_f64(3.0);
        assert_eq!(a.scale(2.0).approx(), 6.0);
        let b = Expansion::from_two(
            two_product(1e8 + 1.0, 1e8 - 1.0).0,
            two_product(1e8 + 1.0, 1e8 - 1.0).1,
        );
        // (1e8+1)(1e8-1) = 1e16 - 1 exactly
        assert_eq!(b.sign(), 1);
        let c = b.sub(&Expansion::from_f64(1e16));
        assert_eq!(c.approx(), -1.0);
    }

    #[test]
    fn det2_sign_on_tiny_perturbations() {
        // Determinant of nearly-singular matrix decided exactly.
        let eps = f64::EPSILON;
        // | 1+e  1 ; 1  1 | = e  > 0
        let d = det2_exact(
            two_diff(1.0 + eps, 0.0),
            two_diff(1.0, 0.0),
            two_diff(1.0, 0.0),
            two_diff(1.0, 0.0),
        );
        assert_eq!(d.sign(), 1);
        // exactly singular
        let d0 = det2_exact(
            two_diff(2.0, 0.0),
            two_diff(4.0, 0.0),
            two_diff(3.0, 0.0),
            two_diff(6.0, 0.0),
        );
        assert_eq!(d0.sign(), 0);
    }

    #[test]
    fn zero_handling() {
        let z = Expansion::zero();
        assert_eq!(z.sign(), 0);
        assert_eq!(z.add(&z).sign(), 0);
        assert_eq!(z.mul(&Expansion::from_f64(5.0)).sign(), 0);
        assert_eq!(Expansion::from_f64(0.0).len(), 0);
    }
}
