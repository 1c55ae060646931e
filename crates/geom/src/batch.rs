//! Concatenated multi-instance point layout for batched (fused) runs.
//!
//! The serving runtime coalesces many small hull requests into one machine
//! run. That run wants one contiguous input, while certificates,
//! result slicing and ledger resolution stay per member. [`ConcatPoints2`]
//! is that bridge: every member's points concatenated into one buffer, an
//! offset table delimiting the members, and a [`crate::soa::PointsSoA`]
//! view over the whole concatenation so kernel closures stream dense
//! coordinate columns.
//!
//! Vertex ids inside a member stay **member-local** (ids into that
//! member's own slice) — each request's response indexes its own point
//! array, exactly as an unbatched run would.

use crate::soa::PointsSoA;
use crate::Point2;

/// Points of many instances concatenated, plus the member offset table.
#[derive(Clone, Debug, Default)]
pub struct ConcatPoints2 {
    /// All members' points, back to back (member g occupies
    /// `offsets[g]..offsets[g + 1]`).
    points: Vec<Point2>,
    /// Member boundaries; `len() == member_count() + 1`, first `0`, last
    /// `points.len()`.
    offsets: Vec<usize>,
}

impl ConcatPoints2 {
    /// Concatenate `members` (order preserved; empty members are legal).
    pub fn from_members(members: &[&[Point2]]) -> Self {
        let total = members.iter().map(|m| m.len()).sum();
        let mut points = Vec::with_capacity(total);
        let mut offsets = Vec::with_capacity(members.len() + 1);
        offsets.push(0);
        for m in members {
            points.extend_from_slice(m);
            offsets.push(points.len());
        }
        Self { points, offsets }
    }

    /// Number of member instances.
    pub fn member_count(&self) -> usize {
        self.offsets.len().saturating_sub(1)
    }

    /// True when no member holds any point.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Member `g`'s concatenated index range.
    pub fn member_range(&self, g: usize) -> std::ops::Range<usize> {
        self.offsets[g]..self.offsets[g + 1]
    }

    /// Member `g`'s points (result slicing: local ids index this slice).
    pub fn member(&self, g: usize) -> &[Point2] {
        &self.points[self.member_range(g)]
    }

    /// The whole concatenation as one slice.
    pub fn all(&self) -> &[Point2] {
        &self.points
    }

    /// The offset table (length `member_count() + 1`).
    pub fn offsets(&self) -> &[usize] {
        &self.offsets
    }

    /// Structure-of-arrays view over the whole concatenation, for kernels
    /// that stream one coordinate column.
    pub fn soa(&self) -> PointsSoA {
        PointsSoA::from_points(&self.points)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(x: f64, y: f64) -> Point2 {
        Point2 { x, y }
    }

    #[test]
    fn concat_slices_and_offsets() {
        let a = vec![p(0.0, 0.0), p(1.0, 1.0)];
        let b: Vec<Point2> = vec![];
        let c = vec![p(5.0, 2.0), p(6.0, 3.0), p(7.0, 4.0)];
        let cat = ConcatPoints2::from_members(&[&a, &b, &c]);
        assert_eq!(cat.member_count(), 3);
        assert_eq!(cat.all().len(), 5);
        assert_eq!(cat.offsets(), &[0, 2, 2, 5]);
        assert_eq!(cat.member(0), &a[..]);
        assert!(cat.member(1).is_empty());
        assert_eq!(cat.member(2), &c[..]);
        assert_eq!(cat.soa().xs(), &[0.0, 1.0, 5.0, 6.0, 7.0]);
    }
}
