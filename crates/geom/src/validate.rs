//! Typed input validation for the public hull/LP entry points.
//!
//! The robust predicates ([`crate::predicates`]) earn correct *orientation
//! decisions* on finite input within the coordinate range their docs
//! state: every |coordinate| at most `f64::MAX / 2`, and the nonzero ones
//! within a factor `2^200` of one another. Outside it the exact fallback
//! loses terms to underflow and disagrees with the filter, so hull entry
//! points reject such inputs ([`InputError::OutOfRange`]). Nothing
//! downstream is specified for NaN or infinite
//! coordinates: a NaN poisons every comparison it meets
//! (`cmp_xy` declares an arbitrary order, the expansion arithmetic produces
//! NaN certificates), and an infinity overflows the two-product splitter.
//! Duplicate points are a second hazard class — legal for some algorithms
//! (the monotone chain dedups naturally), fatal for others (the 3-D
//! gift-wrap's supporting-plane search assumes distinct points).
//!
//! Rather than let each algorithm fail downstream in its own way, the
//! supervised entry points validate up front and reject with a typed
//! [`InputError`] naming the offending index. Validation is `O(n)` for
//! finiteness and `O(n log n)` for duplicate detection (an index sort, no
//! hashing of floats) — both dominated by any hull computation.

use crate::point::{Point2, Point3};

/// Typed rejection of a malformed input.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum InputError {
    /// A point coordinate is NaN or infinite.
    NonFinite {
        /// Index of the offending point in the input slice.
        index: usize,
        /// Which coordinate (`"x"`, `"y"` or `"z"`).
        axis: &'static str,
    },
    /// Two input points are identical (for algorithms that require
    /// distinct points).
    Duplicate {
        /// Index of the later duplicate.
        index: usize,
        /// Index of its first occurrence.
        first: usize,
    },
    /// A scalar query parameter (an LP direction, an abscissa) is NaN or
    /// infinite.
    NonFiniteQuery {
        /// Name of the parameter.
        name: &'static str,
    },
    /// A coordinate lies outside the range the exact predicates cover:
    /// its magnitude exceeds `f64::MAX / 2`, or it is nonzero and more
    /// than a factor `2^200` below the input's largest |coordinate|.
    OutOfRange {
        /// Index of the first offending point in the input slice.
        index: usize,
        /// Which coordinate (`"x"`, `"y"` or `"z"`).
        axis: &'static str,
    },
    /// The input has fewer points than the algorithm is defined on.
    TooFew {
        /// Points provided.
        got: usize,
        /// Minimum required.
        need: usize,
    },
}

impl InputError {
    /// Stable machine-readable code for wire serialization and logs.
    pub fn code(&self) -> &'static str {
        match self {
            InputError::NonFinite { .. } => "non_finite_coordinate",
            InputError::Duplicate { .. } => "duplicate_point",
            InputError::NonFiniteQuery { .. } => "non_finite_query",
            InputError::OutOfRange { .. } => "coordinate_out_of_range",
            InputError::TooFew { .. } => "too_few_points",
        }
    }
}

impl std::fmt::Display for InputError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InputError::NonFinite { index, axis } => {
                write!(f, "point {index}: {axis} coordinate is not finite")
            }
            InputError::Duplicate { index, first } => {
                write!(f, "point {index} duplicates point {first}")
            }
            InputError::NonFiniteQuery { name } => {
                write!(f, "query parameter `{name}` is not finite")
            }
            InputError::OutOfRange { index, axis } => write!(
                f,
                "point {index}: {axis} coordinate is outside the exact predicates' range \
                 (|v| <= f64::MAX / 2, nonzero |v| within 2^200 of the largest)"
            ),
            InputError::TooFew { got, need } => {
                write!(f, "{got} points where at least {need} are required")
            }
        }
    }
}

impl std::error::Error for InputError {}

/// Reject the first non-finite coordinate among `points`.
pub fn ensure_finite2(points: &[Point2]) -> Result<(), InputError> {
    for (index, p) in points.iter().enumerate() {
        if !p.x.is_finite() {
            return Err(InputError::NonFinite { index, axis: "x" });
        }
        if !p.y.is_finite() {
            return Err(InputError::NonFinite { index, axis: "y" });
        }
    }
    Ok(())
}

/// Reject the first non-finite coordinate among 3-D `points`.
pub fn ensure_finite3(points: &[Point3]) -> Result<(), InputError> {
    for (index, p) in points.iter().enumerate() {
        if !p.x.is_finite() {
            return Err(InputError::NonFinite { index, axis: "x" });
        }
        if !p.y.is_finite() {
            return Err(InputError::NonFinite { index, axis: "y" });
        }
        if !p.z.is_finite() {
            return Err(InputError::NonFinite { index, axis: "z" });
        }
    }
    Ok(())
}

/// Reject the first coordinate outside the exact predicates' range: a
/// magnitude above `f64::MAX / 2`, or a nonzero one more than a factor
/// `2^200` below the largest |coordinate| of `points`. Expects finite
/// coordinates ([`ensure_finite2`]).
pub fn ensure_exact_range2(points: &[Point2]) -> Result<(), InputError> {
    ensure_exact_range(points.iter().map(|p| [p.x, p.y]), ["x", "y"])
}

/// [`ensure_exact_range2`] for 3-D `points`.
pub fn ensure_exact_range3(points: &[Point3]) -> Result<(), InputError> {
    ensure_exact_range(points.iter().map(|p| [p.x, p.y, p.z]), ["x", "y", "z"])
}

fn ensure_exact_range<const D: usize>(
    points: impl Iterator<Item = [f64; D]> + Clone,
    axes: [&'static str; D],
) -> Result<(), InputError> {
    let largest = points.clone().flatten().fold(0.0f64, |m, v| m.max(v.abs()));
    // Scaling by a power of two is exact (an overflow to infinity only
    // happens far above `largest`), so the span test has no rounding.
    let span = 2f64.powi(200);
    for (index, p) in points.enumerate() {
        for (&axis, v) in axes.iter().zip(p) {
            let a = v.abs();
            if a > f64::MAX / 2.0 || (a != 0.0 && a * span < largest) {
                return Err(InputError::OutOfRange { index, axis });
            }
        }
    }
    Ok(())
}

/// Reject a non-finite scalar query parameter.
pub fn ensure_query(name: &'static str, v: f64) -> Result<(), InputError> {
    if v.is_finite() {
        Ok(())
    } else {
        Err(InputError::NonFiniteQuery { name })
    }
}

/// Reject duplicate 2-D points. Index-sort by the lexicographic order, then
/// scan adjacent pairs; the reported pair is (first occurrence, smallest
/// later index), deterministically.
pub fn ensure_distinct2(points: &[Point2]) -> Result<(), InputError> {
    let mut idx: Vec<usize> = (0..points.len()).collect();
    idx.sort_by(|&a, &b| points[a].cmp_xy(&points[b]).then(a.cmp(&b)));
    for w in idx.windows(2) {
        let (a, b) = (w[0], w[1]);
        if points[a] == points[b] {
            return Err(InputError::Duplicate {
                index: a.max(b),
                first: a.min(b),
            });
        }
    }
    Ok(())
}

/// Reject duplicate 3-D points (same scheme as [`ensure_distinct2`]).
pub fn ensure_distinct3(points: &[Point3]) -> Result<(), InputError> {
    let key = |p: &Point3| (p.x, p.y, p.z);
    let mut idx: Vec<usize> = (0..points.len()).collect();
    idx.sort_by(|&a, &b| {
        key(&points[a])
            .partial_cmp(&key(&points[b]))
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.cmp(&b))
    });
    for w in idx.windows(2) {
        let (a, b) = (w[0], w[1]);
        if points[a] == points[b] {
            return Err(InputError::Duplicate {
                index: a.max(b),
                first: a.min(b),
            });
        }
    }
    Ok(())
}

/// Reject inputs below a minimum size.
pub fn ensure_at_least(points_len: usize, need: usize) -> Result<(), InputError> {
    if points_len < need {
        Err(InputError::TooFew {
            got: points_len,
            need,
        })
    } else {
        Ok(())
    }
}

/// Full 2-D hull-entry validation: finite coordinates in the exact
/// predicates' range, and distinct points.
pub fn validate_points2(points: &[Point2]) -> Result<(), InputError> {
    ensure_finite2(points)?;
    ensure_exact_range2(points)?;
    ensure_distinct2(points)
}

/// Full 3-D hull-entry validation: finite coordinates in the exact
/// predicates' range, and distinct points.
pub fn validate_points3(points: &[Point3]) -> Result<(), InputError> {
    ensure_finite3(points)?;
    ensure_exact_range3(points)?;
    ensure_distinct3(points)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pts(v: &[(f64, f64)]) -> Vec<Point2> {
        v.iter().map(|&(x, y)| Point2 { x, y }).collect()
    }

    #[test]
    fn finite_distinct_input_passes() {
        let p = pts(&[(0.0, 0.0), (1.0, 2.0), (3.0, -1.0)]);
        assert_eq!(validate_points2(&p), Ok(()));
    }

    #[test]
    fn nan_coordinate_is_rejected_with_index_and_axis() {
        let p = pts(&[(0.0, 0.0), (f64::NAN, 1.0)]);
        assert_eq!(
            validate_points2(&p),
            Err(InputError::NonFinite {
                index: 1,
                axis: "x"
            })
        );
        let p = pts(&[(0.0, f64::INFINITY)]);
        assert_eq!(
            validate_points2(&p),
            Err(InputError::NonFinite {
                index: 0,
                axis: "y"
            })
        );
    }

    #[test]
    fn duplicate_points_are_rejected_with_both_indices() {
        let p = pts(&[(1.0, 1.0), (2.0, 2.0), (1.0, 1.0), (1.0, 1.0)]);
        assert_eq!(
            validate_points2(&p),
            Err(InputError::Duplicate { index: 2, first: 0 })
        );
    }

    #[test]
    fn negative_zero_equals_positive_zero() {
        // -0.0 == 0.0 in IEEE comparison; such "distinct" representations
        // are the same geometric point and must be caught.
        let p = pts(&[(0.0, 1.0), (-0.0, 1.0)]);
        assert_eq!(
            validate_points2(&p),
            Err(InputError::Duplicate { index: 1, first: 0 })
        );
    }

    #[test]
    fn three_d_validation_covers_each_axis() {
        let mk = |x, y, z| Point3 { x, y, z };
        assert_eq!(
            validate_points3(&[mk(0.0, 0.0, f64::NEG_INFINITY)]),
            Err(InputError::NonFinite {
                index: 0,
                axis: "z"
            })
        );
        assert_eq!(
            validate_points3(&[mk(0.0, 1.0, 2.0), mk(0.0, 1.0, 2.0)]),
            Err(InputError::Duplicate { index: 1, first: 0 })
        );
        assert_eq!(
            validate_points3(&[mk(0.0, 1.0, 2.0), mk(0.0, 1.0, 3.0)]),
            Ok(())
        );
    }

    #[test]
    fn coordinates_outside_the_exact_range_are_rejected() {
        let mk = |x, y, z| Point3 { x, y, z };
        // Offsets ~1e-130 in xy under z = 1e200: a span of ~2^1100, where
        // the exact fallback disagrees with the filter.
        let probe = [
            mk(0.0, 0.0, 0.0),
            mk(1e-130, 0.0, 0.0),
            mk(0.0, 1e-130, 1e200),
            mk(1e-130, 1e-130, 1e200),
        ];
        assert_eq!(
            validate_points3(&probe),
            Err(InputError::OutOfRange {
                index: 1,
                axis: "x"
            })
        );
        let huge = pts(&[(1e300, 1e300), (f64::MAX / 1.5, 1e300)]);
        assert_eq!(
            validate_points2(&huge),
            Err(InputError::OutOfRange {
                index: 1,
                axis: "x"
            })
        );
        // Exactly 2^200 apart is in range; one step further is not.
        let edge = |small: f64| pts(&[(2f64.powi(200), 0.0), (0.0, small)]);
        assert_eq!(validate_points2(&edge(1.0)), Ok(()));
        assert_eq!(
            validate_points2(&edge(1.0 - f64::EPSILON / 2.0)),
            Err(InputError::OutOfRange {
                index: 1,
                axis: "y"
            })
        );
        // Zeros never count, and a tiny input is fine on its own.
        let tiny = pts(&[(0.0, 0.0), (1e-300, 0.0), (0.0, 3e-300)]);
        assert_eq!(validate_points2(&tiny), Ok(()));
    }

    #[test]
    fn generated_workloads_stay_in_range() {
        use crate::{gen3d, generators};
        for seed in 0..8 {
            for n in [64, 4096] {
                assert_eq!(validate_points2(&generators::uniform_disk(n, seed)), Ok(()));
                assert_eq!(validate_points2(&generators::on_circle(n, seed)), Ok(()));
                assert_eq!(validate_points3(&gen3d::in_ball(n, seed)), Ok(()));
                assert_eq!(validate_points3(&gen3d::on_sphere(n, seed)), Ok(()));
            }
        }
    }

    #[test]
    fn query_and_size_guards() {
        assert_eq!(ensure_query("x0", 1.5), Ok(()));
        assert_eq!(
            ensure_query("x0", f64::NAN),
            Err(InputError::NonFiniteQuery { name: "x0" })
        );
        assert_eq!(ensure_at_least(3, 2), Ok(()));
        assert_eq!(
            ensure_at_least(1, 2),
            Err(InputError::TooFew { got: 1, need: 2 })
        );
    }

    #[test]
    fn errors_render_and_carry_stable_codes() {
        let cases = [
            (
                InputError::NonFinite {
                    index: 4,
                    axis: "y",
                },
                "non_finite_coordinate",
            ),
            (
                InputError::Duplicate { index: 7, first: 2 },
                "duplicate_point",
            ),
            (
                InputError::NonFiniteQuery { name: "y0" },
                "non_finite_query",
            ),
            (
                InputError::OutOfRange {
                    index: 3,
                    axis: "z",
                },
                "coordinate_out_of_range",
            ),
            (InputError::TooFew { got: 0, need: 1 }, "too_few_points"),
        ];
        for (e, code) in cases {
            assert_eq!(e.code(), code);
            let dyn_err: &dyn std::error::Error = &e;
            assert!(!dyn_err.to_string().is_empty());
        }
    }
}
