//! # ipch-geom — computational-geometry substrate
//!
//! Geometry layer for the Ghouse–Goodrich SPAA'91 reproduction:
//!
//! * [`point`] — `Point2`/`Point3` value types.
//! * [`batch`] — concatenated multi-instance layout (offset table + SoA
//!   view) for the serving runtime's fused batch runs.
//! * [`exact`] — floating-point expansion arithmetic (two-sum / two-product
//!   building blocks à la Shewchuk) used by the exact predicate fallbacks.
//! * [`predicates`] — robust `orient2d` / `orient3d`: a cheap f64 filter
//!   with a statically derived error bound, falling back to the exact
//!   expansion evaluation when the filter cannot decide. The PRAM model
//!   assumes unit-cost exact comparisons; robust predicates are how a real
//!   implementation earns the same decisions on degenerate inputs.
//! * [`hull_chain`] — upper-hull chains, reference monotone-chain oracle,
//!   and verification routines (convexity, coverage, pointer consistency).
//! * [`noise`] — the Goodrich–Sridhar noisy-primitive model: a seed-pure
//!   [`noise::NoiseCtx`] that makes every orientation/above-below/
//!   comparison test lie with probability `p` (fresh or persistent lies),
//!   plus the `2k+1`-repetition majority-vote primitives that win the
//!   truth back. Explicitly injected, never ambient.
//! * [`hullops`] — the *point-hull-invariant* primitives of paper §2.4
//!   (Atallah–Goodrich two-polygon operations): line ∩ upper hull, common
//!   tangent of two upper hulls, hull–hull intersection.
//! * [`soa`] — structure-of-arrays point columns and the canonical
//!   order-isomorphic f64 ↔ i64 key mapping, feeding step closures
//!   contiguous, vectorizable inner loops.
//! * [`generators`] / [`gen3d`] — workload generators with controlled hull
//!   size `h` (the knob every output-sensitivity experiment sweeps).
//! * [`validate`] — typed input validation ([`InputError`]) shared by the
//!   public entry points: finite coordinates, distinct points, finite query
//!   parameters.

pub mod batch;
pub mod exact;
pub mod gen3d;
pub mod generators;
pub mod hull_chain;
pub mod hullops;
pub mod noise;
pub mod point;
pub mod predicates;
pub mod soa;
pub mod validate;

pub use batch::ConcatPoints2;
pub use hull_chain::UpperHull;
pub use noise::NoiseCtx;
pub use point::{Point2, Point3};
pub use predicates::{orient2d, orient3d, Orientation};
pub use soa::PointsSoA;
pub use validate::InputError;
