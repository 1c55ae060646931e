//! Supervised (Las Vegas) entry points for the §3 in-place primitives.
//!
//! Both Section-3 building blocks carry natural certificates:
//!
//! * the random-sample procedure's Lemma 3.1 size guarantee
//!   (`k/2 ≤ |S| ≤ 4k`) plus the subset property, checked by
//!   [`random_sample_supervised`];
//! * Ragde compaction's payload preservation — the destination must hold
//!   exactly the multiset of occupied source payloads — checked by
//!   [`ragde_compact_supervised`] against [`ragde::expected_payloads`].
//!
//! Failed attempts retry on fresh child seeds; exhaustion degrades to a
//! deterministic stand-in (a strided sample, the modulus-based
//! deterministic compaction). Under an installed [`ipch_pram::FaultPlan`]
//! the caller receives a verified value or a typed [`RunError`].

use std::cell::RefCell;

use ipch_pram::{supervise, ArrayId, Machine, RunError, Shm, SuperviseConfig, Supervised};

use crate::ragde::{self, ragde_compact_det, ragde_compact_rand, Compaction};
use crate::sample::random_sample;

/// Supervised random sample of Θ(k) of the `active` elements (Lemma 3.1).
///
/// The certificate checks the subset property always, and the
/// `k/2 ≤ |S| ≤ 4k` size bound whenever it is satisfiable at all
/// (`2·|active| ≥ k`; below that no subset can meet it and the lemma's
/// premise `k ≤ m` has already been violated by the caller). The
/// deterministic fallback takes every ⌈m/k⌉-th active element — exactly
/// min(m, k) elements, inside the bound — charged at one step and m work.
pub fn random_sample_supervised(
    m: &mut Machine,
    active: &[usize],
    universe: usize,
    k: usize,
    attempts: usize,
    cfg: &SuperviseConfig,
) -> Result<Supervised<Vec<usize>>, RunError> {
    const ALG: &str = crate::sample::SAMPLE_CONTRACT.algorithm;
    // Entry validation: active ids must be in-universe and distinct (the
    // Lemma 3.1 size analysis counts distinct elements).
    let mut seen = vec![false; universe];
    for (pos, &i) in active.iter().enumerate() {
        if i >= universe {
            return Err(RunError::invalid_input(
                ALG,
                format!("active[{pos}] = {i} out of bounds for universe {universe}"),
            ));
        }
        if seen[i] {
            return Err(RunError::invalid_input(
                ALG,
                format!("active element {i} appears more than once"),
            ));
        }
        seen[i] = true;
    }
    let certify = |sample: &[usize], in_bounds: bool| -> Result<(), RunError> {
        let fail = |detail: String| RunError::Verify {
            algorithm: ALG,
            detail,
        };
        if 2 * active.len() >= k && !in_bounds {
            return Err(fail(format!(
                "sample size {} outside [{}, {}]",
                sample.len(),
                k.div_ceil(2),
                4 * k
            )));
        }
        if let Some(&e) = sample.iter().find(|e| !active.contains(e)) {
            return Err(fail(format!("sampled element {e} is not active")));
        }
        Ok(())
    };
    let mut fallback = |fm: &mut Machine| {
        let stride = (active.len() / k.max(1)).max(1);
        let sample: Vec<usize> = active.iter().copied().step_by(stride).take(k).collect();
        fm.charge(1, active.len() as u64);
        let len = sample.len();
        certify(&sample, 2 * len >= k && len <= 4 * k)?;
        Ok(sample)
    };
    supervise(
        m,
        ALG,
        cfg,
        |am: &mut Machine| {
            let mut shm = Shm::new();
            let out = random_sample(am, &mut shm, active, k, attempts);
            certify(&out.sample, out.size_in_bounds(k))?;
            Ok(out.sample)
        },
        Some(&mut fallback),
    )
}

/// Supervised Ragde compaction of `src` (occupied = non-`EMPTY` cells)
/// under the occupancy `bound`.
///
/// Attempts run the fully-executed randomized dart throwing; the
/// certificate demands that the destination hold exactly the occupied
/// source payloads (as a multiset). Exhaustion falls back to the
/// deterministic modulus-based variant under the same certificate. Note
/// an over-`bound` occupancy fails *every* path by design — that is the
/// lemma's "detect k ≥ m^{1/4}" answer, surfaced as a typed error.
pub fn ragde_compact_supervised(
    m: &mut Machine,
    shm: &mut Shm,
    src: ArrayId,
    bound: usize,
    rounds: usize,
    cfg: &SuperviseConfig,
) -> Result<Supervised<Compaction>, RunError> {
    const ALG: &str = "inplace/ragde";
    // Attempt and fallback both need the caller's shared memory (the
    // source array lives there, and the destination must survive the
    // return); a RefCell hands the one &mut to whichever closure runs.
    let shm = RefCell::new(shm);
    let certify = |shm: &Shm, c: &Compaction| -> Result<(), RunError> {
        let mut got = ragde::payloads(shm, c);
        let mut want = ragde::expected_payloads(shm, src);
        got.sort_unstable();
        want.sort_unstable();
        if got != want {
            return Err(RunError::Verify {
                algorithm: ALG,
                detail: format!(
                    "destination holds {} payloads, source {} — multiset mismatch",
                    got.len(),
                    want.len()
                ),
            });
        }
        Ok(())
    };
    let mut fallback = |fm: &mut Machine| {
        let mut g = shm.borrow_mut();
        let shm: &mut Shm = &mut g;
        let c = ragde_compact_det(fm, shm, src, bound).ok_or(RunError::Invariant {
            algorithm: ALG,
            detail: format!("more than {bound} occupied cells — compaction refused"),
        })?;
        certify(shm, &c)?;
        Ok(c)
    };
    supervise(
        m,
        ALG,
        cfg,
        |am: &mut Machine| {
            let mut g = shm.borrow_mut();
            let shm: &mut Shm = &mut g;
            let c = ragde_compact_rand(am, shm, src, bound, rounds).ok_or(RunError::Invariant {
                algorithm: ALG,
                detail: format!(
                    "occupancy over {bound} or a thrower unplaced after {rounds} rounds"
                ),
            })?;
            certify(shm, &c)?;
            Ok(c)
        },
        Some(&mut fallback),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipch_pram::{Outcome, EMPTY};

    #[test]
    fn clean_sample_verifies_first_try() {
        let active: Vec<usize> = (0..500).filter(|i| i % 5 == 0).collect();
        let mut m = Machine::new(3);
        let s = random_sample_supervised(&mut m, &active, 500, 8, 4, &SuperviseConfig::default())
            .expect("clean sample");
        assert_eq!(s.outcome, Outcome::FirstTry);
        assert!(s.value.iter().all(|e| e % 5 == 0));
    }

    #[test]
    fn clean_compaction_verifies_and_preserves_payloads() {
        let mut m = Machine::new(4);
        let mut shm = Shm::new();
        let src = shm.alloc("src", 256, EMPTY);
        for i in [3usize, 17, 100, 200, 255] {
            shm.host_set(src, i, (1000 + i) as i64);
        }
        let s = ragde_compact_supervised(&mut m, &mut shm, src, 8, 6, &SuperviseConfig::default())
            .expect("clean compaction");
        assert_eq!(s.outcome, Outcome::FirstTry);
        assert_eq!(s.value.count, 5);
        let mut got = ragde::payloads(&shm, &s.value);
        got.sort_unstable();
        assert_eq!(got, vec![1003, 1017, 1100, 1200, 1255]);
    }

    #[test]
    fn over_bound_occupancy_is_a_typed_error_not_a_wrong_answer() {
        let mut m = Machine::new(5);
        let mut shm = Shm::new();
        let src = shm.alloc("src", 64, EMPTY);
        for i in 0..32 {
            shm.host_set(src, i, i as i64);
        }
        let err =
            ragde_compact_supervised(&mut m, &mut shm, src, 4, 4, &SuperviseConfig::default())
                .unwrap_err();
        // every attempt fails, then the deterministic fallback refuses too
        assert!(matches!(err, RunError::Invariant { .. }));
        assert!(m.metrics.supervisor.fallbacks > 0);
    }

    #[test]
    fn malformed_active_sets_reject_before_any_step() {
        let mut m = Machine::new(6);
        let cfg = SuperviseConfig::default();
        let e = random_sample_supervised(&mut m, &[1, 2, 50], 50, 2, 4, &cfg).unwrap_err();
        assert!(matches!(e, RunError::InvalidInput { .. }), "got {e}");
        let e = random_sample_supervised(&mut m, &[1, 2, 2], 50, 2, 4, &cfg).unwrap_err();
        assert!(matches!(e, RunError::InvalidInput { .. }), "got {e}");
        assert_eq!(m.metrics.steps, 0);
        assert_eq!(m.metrics.supervisor.attempts, 0);
    }
}
