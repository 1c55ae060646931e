//! # ipch-inplace — the paper's Section 3 in-place techniques
//!
//! "In-place" in Ghouse–Goodrich means: procedures *defined on a subset of
//! elements of the input* that work *without re-ordering the input*, using
//! o(n) workspace. A virtual processor stands by each element; subproblems
//! are divided logically rather than by physically compacting arrays. This
//! crate implements the four basic techniques of §3 plus the
//! failure-sweeping combinator of §2.3:
//!
//! * [`ragde`] — approximate compaction (Lemma 2.1): k ≤ bound occupied
//!   cells of an array compressed into an area of size ~bound⁴ in O(1)
//!   steps. Deterministic (mod-prime hashing) and randomized (dart-throwing)
//!   variants.
//! * [`compact`] — *in-place* approximate compaction (Lemma 3.2): the
//!   iterative group-refinement scheme with workspace m^(4ε+δ) and ≤ 1/δ
//!   rounds.
//! * [`sample`] — the random-sample procedure (§3.1, Lemma 3.1): Θ(k)
//!   uniform sample into a 16k workspace by dart-throwing with CRCW
//!   collision detection, ≤ d retry rounds.
//! * [`vote`] — the random-vote procedure (Corollary 3.1): one uniformly
//!   random element via a sample + leftmost-non-zero.
//! * [`sweep`] — failure sweeping (§2.3): given the subproblems whose
//!   randomized attempt failed (the caller's
//!   [`ipch_pram::Machine::fork_join`]), mark them, compact them with
//!   Ragde's algorithm, and re-solve each with super-linear processors via
//!   a brute-force oracle. The presorted, log*, unsorted 2-D and 3-D
//!   algorithms all sweep through it.

pub mod compact;
pub mod ragde;
pub mod sample;
pub mod sweep;
pub mod vote;

/// Every in-place-technique entry point's concurrency contract, in the
/// crate's canonical order. The analyzer suite runs one row per contract.
pub const CONTRACTS: &[ipch_pram::ModelContract] = &[
    ragde::RAGDE_DET_CONTRACT,
    ragde::RAGDE_RAND_CONTRACT,
    compact::COMPACT_CONTRACT,
    sample::SAMPLE_CONTRACT,
    vote::VOTE_CONTRACT,
];
