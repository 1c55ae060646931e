//! # ipch-hull3d — 3-D convex hull algorithms (paper §4.3–§4.4)
//!
//! The paper's Theorem 6: the 3-D (upper) convex hull of n unsorted points
//! in O(log² n) time and O(min{n log² h, n log n}) work, w.h.p., on a
//! randomized CRCW PRAM — the parallel analogue of Edelsbrunner–Shi's
//! sequential O(n log² h) algorithm, but splitting about a random point
//! instead of the ham-sandwich cut.
//!
//! * [`facet`] — upper-hull facet representation and the independent
//!   verification oracle (supporting planes + coverage).
//! * [`seq`] — sequential baselines: an exact brute-force oracle and
//!   Chand–Kapur gift wrapping (O(n·h), the 3-D output-sensitive
//!   reference).
//! * [`parallel`] — the §4.3 algorithm on the PRAM simulator: random-vote
//!   splitters, in-place 3-D facet probes (k = p^{1/4}), projection-driven
//!   silhouette runs via the 2-D algorithm, 4-way division, failure
//!   sweeping, and the Reif–Sen-role fallback.

pub mod facet;
pub mod parallel;
pub mod seq;

pub use facet::{verify_upper_hull3, Facet};

/// Every 3-D hull entry point's concurrency contract, in the crate's
/// canonical order. The analyzer suite runs one row per contract.
pub const CONTRACTS: &[ipch_pram::ModelContract] = &[
    parallel::unsorted3d::UNSORTED3_CONTRACT,
    parallel::probe::FIND_FACET_CONTRACT,
    parallel::noisy::NOISY3_CONTRACT,
];

/// Every paper entry point's contract in the workspace: the 2-D hull,
/// 3-D hull, LP and in-place registries, in that order. This crate is the
/// one algorithm crate that depends on the other three, so it owns the
/// aggregate. Each entry point's name is spelled once, in its contract.
pub fn paper_contracts() -> Vec<ipch_pram::ModelContract> {
    [
        ipch_hull2d::CONTRACTS,
        CONTRACTS,
        ipch_lp::CONTRACTS,
        ipch_inplace::CONTRACTS,
    ]
    .concat()
}
