//! Parallel (CRCW PRAM) convex-hull algorithms — the paper's contribution.

pub mod batch;
pub mod brute;
pub mod dac;
pub mod folklore;
pub mod frugal;
pub mod invariant;
pub mod logstar;
pub mod merge;
pub mod noisy;
pub mod presorted;
pub mod supervised;
pub mod trace;
pub mod unsorted;
