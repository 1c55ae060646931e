//! Failure sweeping (paper §2.3).
//!
//! *A technique for improving the confidence bounds of an iterative or
//! recursive randomized algorithm.* Run a randomized solver for its time
//! budget on n/m subproblems of size m; the expected number of failures is
//! (n/m)·p(m) ≤ 1. Compact the failed subproblem ids into a small area
//! with Ragde's algorithm, then assign each failure a super-linear block of
//! processors and re-solve it with a deterministic brute-force method.
//!
//! The first phase — every subproblem attempting in parallel — is the
//! caller's [`ipch_pram::Machine::fork_join`]. [`failure_sweep`] takes the
//! ids that failed and runs the rest: one step marks them, Ragde's
//! compaction gathers them, and `brute(child_machine, shm, j)`, the
//! super-linear-processor oracle, re-solves each one on its own child
//! machine, all in parallel. (`brute` borrows the caller's `shm`, so the
//! host runs those children one after another through
//! [`ipch_pram::Machine::fork_join_seq`]; the charged costs are the same
//! fold.) The presorted (§2.2–2.3), log* (§2.5),
//! unsorted 2-D (§3) and 3-D (§4.3) algorithms all sweep through it.
//!
//! If more than `bound` subproblems fail, the compaction *detects* it and
//! the combinator brute-forces every failure anyway (reporting
//! [`Swept::overflow`]); the paper's analysis makes this an exponentially
//! unlikely event (Lemma 2.5's 1 − 2^{−n^{1/16}}), which the T9 experiment
//! measures.

use std::convert::Infallible;

use ipch_pram::{Machine, Shm, EMPTY};

use crate::ragde::ragde_compact_det;

/// What one failure sweep did.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Swept {
    /// The failed ids the brute oracle re-solved, ascending.
    pub list: Vec<usize>,
    /// More than `bound` subproblems failed, so the compaction overflowed
    /// (the exponentially rare event) and every failure was swept anyway.
    pub overflow: bool,
}

/// Sweep the subproblems in `failed` (ascending ids below `n_sub`; see
/// the module docs). `bound` is the compaction capacity (the paper uses
/// n^{1/16} failures compacted into an n^{1/4} area). Failure `j`'s brute
/// child runs on the seed tag `j ^ salt`. The marking array and Ragde's
/// workspace are released before the brute step.
pub fn failure_sweep(
    m: &mut Machine,
    shm: &mut Shm,
    n_sub: usize,
    failed: &[usize],
    bound: usize,
    salt: u64,
    mut brute: impl FnMut(&mut Machine, &mut Shm, usize),
) -> Swept {
    let (list, overflow) = shm.scope(|shm| {
        // each failed subproblem's representative processor marks its id
        let flags = shm.alloc("sweep.fail", n_sub.max(1), EMPTY);
        m.kernel_scatter(shm, 0..n_sub, |_, j| {
            failed
                .binary_search(&j)
                .is_ok()
                .then_some((flags, j, j as i64))
        });
        match ragde_compact_det(m, shm, flags, bound) {
            Some(c) => {
                // the count-sized area holds the ids in slot order
                // `j mod p`: sweep them in id order. Only ids of `failed`
                // are read back, so a corrupted cell is never taken for a
                // subproblem (a dropped id leaves its problem pending).
                let list = shm.slice(c.dst).iter().filter_map(|&x| {
                    usize::try_from(x)
                        .ok()
                        .filter(|j| failed.binary_search(j).is_ok())
                });
                let mut list: Vec<usize> = list.collect();
                list.sort_unstable();
                (list, false)
            }
            None => (failed.to_vec(), true),
        }
    });
    let Ok(_) = m.fork_join_seq(
        list.iter().copied(),
        |&j| j as u64 ^ salt,
        |child, j| {
            brute(child, shm, j);
            Ok::<_, Infallible>(())
        },
    );
    Swept { list, overflow }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_failures_no_sweep() {
        let mut m = Machine::new(1);
        let mut shm = Shm::new();
        let r = failure_sweep(&mut m, &mut shm, 20, &[], 4, 0, |_, _, _| {
            panic!("no brute expected")
        });
        assert_eq!(
            r,
            Swept {
                list: vec![],
                overflow: false
            }
        );
    }

    #[test]
    fn failures_are_swept_exactly_once() {
        let mut m = Machine::new(2);
        let mut shm = Shm::new();
        let mut brute_calls: Vec<usize> = Vec::new();
        let r = failure_sweep(&mut m, &mut shm, 50, &[0, 17, 34], 4, 0, |_, _, j| {
            brute_calls.push(j)
        });
        brute_calls.sort_unstable();
        assert_eq!(brute_calls, vec![0, 17, 34]);
        let mut list = r.list.clone();
        list.sort_unstable();
        assert_eq!(list, brute_calls);
        assert!(!r.overflow);
        // Three failures compact into a 67-cell area, where 70 (slot 3)
        // and 260 (slot 59) sit before 66: the list and the brute
        // children still come in id order.
        let mut brute_calls: Vec<usize> = Vec::new();
        let r = failure_sweep(&mut m, &mut shm, 300, &[66, 70, 260], 4, 0, |_, _, j| {
            brute_calls.push(j)
        });
        assert_eq!(r.list, vec![66, 70, 260]);
        assert_eq!(brute_calls, r.list);
    }

    /// Cell corruption in the compacted area can plant any value,
    /// `EMPTY ^ 1` included; only ids that failed come back, so no brute
    /// child runs on an id that did not fail or is out of range.
    #[test]
    fn corrupted_read_back_keeps_only_failed_ids() {
        use ipch_pram::FaultPlan;
        let failed = [3, 17, 40];
        for seed in 0..64 {
            let mut m = Machine::new(seed);
            m.install_faults(FaultPlan {
                corrupt_rate: 1.0,
                ..FaultPlan::default()
            });
            let mut shm = Shm::new();
            let mut brute_calls: Vec<usize> = Vec::new();
            let r = failure_sweep(&mut m, &mut shm, 48, &failed, 4, 0, |_, _, j| {
                brute_calls.push(j)
            });
            assert!(
                r.list.iter().all(|j| failed.contains(j)),
                "seed {seed}: {:?}",
                r.list
            );
            assert_eq!(brute_calls, r.list, "seed {seed}");
        }
    }

    #[test]
    fn overflow_detected_and_still_resolved() {
        let mut m = Machine::new(3);
        let mut shm = Shm::new();
        let failed: Vec<usize> = (0..30).filter(|j| j % 3 == 0).collect();
        let mut brute_calls = 0usize;
        // capacity 2, but 10 failures
        let r = failure_sweep(&mut m, &mut shm, 30, &failed, 2, 0, |_, _, _| {
            brute_calls += 1
        });
        assert!(r.overflow);
        assert_eq!(r.list, failed);
        assert_eq!(brute_calls, 10);
    }

    /// The overflow path, end to end through the *real* machinery rather
    /// than a counting stub: an installed fault plan (forced-false coin
    /// flips) starves the §3.1 random-sample procedure inside every
    /// attempt, the resulting mass failure exceeds the paper-style
    /// compaction capacity, and [`ragde_compact_det`] — not a mock —
    /// detects the overflow. The combinator must report the event and
    /// still brute-force every failure exactly once.
    #[test]
    fn injected_mass_failure_overflows_real_compaction_and_sweeps() {
        use crate::sample::random_sample;
        use ipch_pram::{FaultPlan, RngBias};

        let mut m = Machine::new(9);
        m.install_faults(FaultPlan {
            // every per-processor coin comes up false: no sampler ever
            // throws a dart, so placed = 0 < k/2 and each attempt fails
            rng_bias: Some(RngBias {
                rate: 1.0,
                force: false,
            }),
            ..FaultPlan::default()
        });
        let mut shm = Shm::new();
        let n_sub = 24;
        let k = 8;
        let active: Vec<usize> = (0..64).collect();
        let Ok(ok) = m.fork_join_seq(
            0..n_sub,
            |&j| j as u64,
            |child, _| {
                let out = shm.scope(|shm| random_sample(child, shm, &active, k, 3));
                Ok::<_, Infallible>(out.size_in_bounds(k))
            },
        );
        let failed: Vec<usize> = (0..n_sub).filter(|&j| !ok[j]).collect();
        assert_eq!(failed.len(), n_sub, "bias must starve every attempt");
        let mut solved: Vec<usize> = Vec::new();
        // capacity far under the injected failure mass
        let r = failure_sweep(&mut m, &mut shm, n_sub, &failed, 4, 0, |_, _, j| {
            solved.push(j)
        });
        assert!(
            r.overflow,
            "real Ragde compaction must detect more than `bound` failures"
        );
        solved.sort_unstable();
        assert_eq!(solved, (0..n_sub).collect::<Vec<_>>());
        // the parent's metrics saw the injected bias from inside the children
        assert!(m.metrics.faults.biased_streams > 0);
    }

    #[test]
    fn parallel_time_accounting() {
        // 3 failures of 8, each brute costing 5 child steps: parallel time
        // adds 5, not 15.
        let mut m = Machine::new(4);
        let mut shm = Shm::new();
        let probe = shm.alloc("probe", 8, 0);
        let r = failure_sweep(&mut m, &mut shm, 8, &[1, 4, 6], 4, 0, |child, shm, j| {
            for _ in 0..5 {
                child.step(shm, j..j + 1, |ctx| {
                    let i = ctx.pid;
                    let v = ctx.read(probe, i);
                    ctx.write(probe, i, v + 1);
                });
            }
        });
        assert_eq!(r.list.len(), 3);
        // 1 (mark) + ragde's executed 2 + 5 (parallel brutes)
        assert_eq!(m.metrics.steps, 1 + 2 + 5);
        // work: mark 8 + ragde 2×8 + 3 failures × 5 steps × 1 proc
        assert_eq!(m.metrics.work, 8 + 16 + 15);
        assert_eq!(shm.slice(probe), &[0, 5, 0, 0, 5, 0, 5, 0]);
    }

    #[test]
    fn brute_children_are_seeded_by_id_and_salt() {
        let mut seeds = Vec::new();
        let mut m = Machine::new(6);
        let mut shm = Shm::new();
        failure_sweep(&mut m, &mut shm, 8, &[2, 5], 4, 0xfa11, |child, _, j| {
            seeds.push((j, child.seed()))
        });
        seeds.sort_unstable();
        for (j, seed) in seeds {
            let mut want = 0;
            m.sub(j as u64 ^ 0xfa11, |c| want = c.seed());
            assert_eq!(seed, want, "failure {j}");
        }
    }

    #[test]
    fn zero_subproblems() {
        let mut m = Machine::new(5);
        let mut shm = Shm::new();
        let r = failure_sweep(&mut m, &mut shm, 0, &[], 2, 0, |_, _, _| {});
        assert!(r.list.is_empty());
        assert!(!r.overflow);
    }

    #[test]
    fn marking_workspace_is_released() {
        let mut m = Machine::new(7);
        let mut shm = Shm::new();
        let before = shm.live_cells();
        failure_sweep(&mut m, &mut shm, 64, &[3, 9], 4, 0, |_, shm, _| {
            assert_eq!(
                shm.live_cells(),
                before,
                "flags freed before the brute step"
            );
        });
        assert_eq!(shm.live_cells(), before);
    }
}
