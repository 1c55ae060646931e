//! The random-vote procedure (paper Corollary 3.1).
//!
//! *An in-place random vote, choosing one out of n elements in an array,
//! can be performed in constant time with n processors on a randomized
//! CRCW PRAM, using Θ(k) work space, where it is uniformly random with
//! probability ≥ 1 − 2(e/2)^{−k}.*
//!
//! Per the paper: take a random sample, then pick any one element of it by
//! a method that does not favour any point — "as the location written to
//! is uniformly random, the first location in the work space that has been
//! written to could have been written by any point with equal probability,
//! and can be found in constant time" (Observation 2.1). We do exactly
//! that: [`crate::sample::random_sample`] followed by the Eppstein–Galil
//! leftmost-non-zero primitive.

use ipch_pram::{primitives, Machine, ModelClass, ModelContract, RaceExpectation, Shm, EMPTY};

use crate::sample::random_sample;

/// Concurrency contract: inherits the sample procedure's Priority claim
/// contest; the leftmost-one election is Combine(min) — all deterministic.
pub const VOTE_CONTRACT: ModelContract = ModelContract {
    algorithm: "inplace/vote",
    class: ModelClass::Crcw,
    races: RaceExpectation::Deterministic,
};

/// Choose one element of `active` uniformly at random, in place.
///
/// Returns `None` when the (constant-time) procedure produced an empty
/// sample — an event of probability ≤ 2(e/2)^{−k} that callers treat as a
/// failure to retry or sweep.
pub fn random_vote(
    m: &mut Machine,
    shm: &mut Shm,
    active: &[usize],
    k: usize,
    attempts: usize,
) -> Option<usize> {
    m.declare_contract(&VOTE_CONTRACT);
    if active.is_empty() {
        return None;
    }
    let out = random_sample(m, shm, active, k, attempts);
    if out.sample.is_empty() {
        return None;
    }
    // 0/1 view of the claimed slots, then leftmost-one (both O(1) steps).
    let ws = out.workspace;
    let n = shm.len(ws);
    shm.scope(|shm| {
        let view = shm.alloc("vote.view", n, 0);
        m.kernel_scatter(shm, 0..n, |t, i| {
            if t.read(ws, i) != EMPTY {
                Some((view, i, 1))
            } else {
                None
            }
        });
        let slot = primitives::leftmost_nonzero(m, shm, view)?;
        Some(shm.get(ws, slot) as usize)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vote_returns_active_element() {
        let mut m = Machine::new(1);
        let mut shm = Shm::new();
        let active: Vec<usize> = (0..1000).filter(|i| i % 3 == 0).collect();
        for tag in 0..20 {
            let v = m.sub(tag, |c| random_vote(c, &mut shm, &active, 8, 4));
            assert_eq!(v.unwrap() % 3, 0);
        }
    }

    #[test]
    fn vote_single_element() {
        let mut m = Machine::new(2);
        let mut shm = Shm::new();
        assert_eq!(random_vote(&mut m, &mut shm, &[42], 4, 4), Some(42));
    }

    #[test]
    fn vote_empty_set() {
        let mut m = Machine::new(3);
        let mut shm = Shm::new();
        assert_eq!(random_vote(&mut m, &mut shm, &[], 4, 4), None);
    }

    #[test]
    fn vote_constant_time() {
        let steps_for = |mcount: usize| {
            let mut m = Machine::new(4);
            let mut shm = Shm::new();
            let active: Vec<usize> = (0..mcount).collect();
            random_vote(&mut m, &mut shm, &active, 8, 4).unwrap();
            m.metrics.steps
        };
        assert_eq!(steps_for(500), steps_for(50_000));
    }

    #[test]
    fn vote_roughly_uniform() {
        let mcount = 50;
        let trials = 3000;
        let mut counts = vec![0u64; mcount];
        let active: Vec<usize> = (0..mcount).collect();
        for seed in 0..trials {
            let mut m = Machine::new(seed as u64 + 7);
            let mut shm = Shm::new();
            if let Some(v) = random_vote(&mut m, &mut shm, &active, 8, 4) {
                counts[v] += 1;
            }
        }
        let total: u64 = counts.iter().sum();
        assert!(total as usize >= trials * 9 / 10, "too many vote failures");
        let expect = total as f64 / mcount as f64;
        let chi2: f64 = counts
            .iter()
            .map(|&c| {
                let d = c as f64 - expect;
                d * d / expect
            })
            .sum();
        // 49 dof; 99.9% critical ≈ 85. Generous slack.
        assert!(chi2 < 110.0, "chi2 = {chi2}");
    }
}
