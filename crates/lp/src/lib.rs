//! # ipch-lp — linear-programming substrate (paper §2.1, §3.3–3.4)
//!
//! The paper's convex-hull algorithms "use linear programming to *probe*
//! the convex hull, finding a facet about which we may then split the
//! problem and recurse" (§1). This crate provides every LP ingredient they
//! invoke:
//!
//! * [`constraint`] — half-plane / half-space constraint types, objectives,
//!   and the exact (expansion-arithmetic) feasibility kernels.
//! * [`brute`] — Observation 2.2: constant-time brute-force LP with
//!   n^{d+1} work, executed on the PRAM simulator.
//! * [`seidel`] — Seidel's randomized incremental LP, the sequential
//!   oracle the parallel solvers are verified against.
//! * [`alon_megiddo`] — Lemma 2.2: the Alon–Megiddo-style randomized
//!   parallel LP (contiguous input): repeated random base problems +
//!   survivor filtering with the doubling probability schedule, O(1)
//!   rounds almost surely.
//! * [`bridge`] — Observation 2.4: the Kirkpatrick–Seidel reduction of
//!   *bridge finding* (the upper-hull edge crossing a vertical line) to
//!   2-variable LP, plus the fully exact all-pairs brute-force bridge
//!   solver the hull algorithms use as their base-problem oracle, and its
//!   3-D (facet through a vertical line) analogue.
//! * [`inplace_bridge`] — §3.3/§3.4: in-place bridge finding on a
//!   *scattered* subset of the input, built from the random-sample and
//!   in-place-compaction procedures — the paper's replacement for
//!   Alon–Megiddo's contiguous-input assumption.

pub mod alon_megiddo;
pub mod bridge;
pub mod brute;
pub mod constraint;
pub mod inplace_bridge;
pub mod lp3d;
pub mod seidel;
pub mod seidel3;

/// Every LP entry point's concurrency contract, in the crate's canonical
/// order. The analyzer suite runs one row per contract.
pub const CONTRACTS: &[ipch_pram::ModelContract] = &[
    brute::LP2_BRUTE_CONTRACT,
    alon_megiddo::LP2_AM_CONTRACT,
    bridge::BRIDGE_BRUTE_CONTRACT,
    bridge::FACET_BRUTE_CONTRACT,
    inplace_bridge::INPLACE_BRIDGE_CONTRACT,
];
