//! Constant-time CRCW primitives the paper invokes.
//!
//! Each primitive here is built from genuine synchronous machine steps
//! (executed as fused [`crate::kernel`]s, which charge identical metrics),
//! so its measured cost is its real cost in the model:
//!
//! * [`or_over`] / [`any_nonzero`] — "this amounts to an OR" (paper §2.2):
//!   one concurrent-write step.
//! * [`leftmost_nonzero`] — Observation 2.1 (Eppstein–Galil): the first
//!   non-zero element of an n-array in O(1) time with n processors, via the
//!   √n-block + pairwise-knockout scheme (6 steps, ≤ n processors each).
//! * [`min_index_quadratic`] — the classic O(1)-time minimum with m²
//!   processors by pairwise knockout; the building block of brute-force LP
//!   (Observation 2.2) and brute-force hull (Observation 2.3).
//! * [`broadcast`] — one step, one writer.
//!
//! The knockout scheme deliberately enumerates all pairs as virtual
//! processors — that *is* the algorithm's cost, and the experiments (table
//! F4, T8) rely on the super-linear work being visible in the metrics.
//!
//! All per-invocation workspace (`or.result`, `lmz.*`, `minq.*`, …) lives in
//! a [`Shm::scope`], so primitives called inside loops recycle a constant
//! set of array slots instead of growing shared memory without bound.

use crate::kernel::{KCtx, ReduceOp};
use crate::machine::Machine;
use crate::memory::{ArrayId, Shm};
use crate::{Word, EMPTY};

/// One-step concurrent OR over `flags[lo..hi]` (cells are 0/1).
///
/// Returns true iff some flag in range is non-zero. Costs exactly 1 step and
/// `hi - lo` work. Any CRCW variant suffices (all writers write 1).
pub fn or_over(m: &mut Machine, shm: &mut Shm, flags: ArrayId, lo: usize, hi: usize) -> bool {
    shm.scope(|shm| {
        let res = shm.alloc("or.result", 1, 0);
        m.kernel_reduce(shm, lo..hi, ReduceOp::Or, res, 0, |t, pid| {
            if t.read(flags, pid) != 0 {
                Some(1)
            } else {
                None
            }
        });
        shm.get(res, 0) != 0
    })
}

/// One-step test "does any active processor satisfy `pred`?".
///
/// The predicate runs *inside* the step against the pre-step snapshot (a
/// [`KCtx`]), so the whole test is one genuine PRAM step of `|pids|` work —
/// the concurrent-OR of paper §2.2 with an arbitrary local predicate.
pub fn any_nonzero<F>(m: &mut Machine, shm: &mut Shm, pids: &[usize], pred: F) -> bool
where
    F: Fn(usize, &KCtx) -> bool + Sync,
{
    shm.scope(|shm| {
        let res = shm.alloc("any.result", 1, 0);
        m.kernel_reduce(shm, pids, ReduceOp::Or, res, 0, |t, pid| {
            if pred(pid, t) {
                Some(1)
            } else {
                None
            }
        });
        shm.get(res, 0) != 0
    })
}

/// Eppstein–Galil / Fich-style leftmost non-zero (Observation 2.1).
///
/// Finds the smallest index `i` with `bits[i] != 0`, in O(1) steps (six) and
/// O(n) processors per step, or `None` if the array is all zero.
///
/// Scheme: split into b = ⌈√n⌉ blocks of size ≤ b.
/// 1. `flagged[j]` := OR of block j (1 step, n procs).
/// 2. pairwise knockout over blocks: pair (u < v), both flagged ⇒ v loses
///    (1 step, b² ≤ n + O(√n) procs).
/// 3. the unique flagged non-loser block writes its id (1 step, b procs).
///
/// Steps 4–6 repeat the same three steps inside the winning block.
pub fn leftmost_nonzero(m: &mut Machine, shm: &mut Shm, bits: ArrayId) -> Option<usize> {
    let n = shm.len(bits);
    if n == 0 {
        return None;
    }
    let b = (n as f64).sqrt().ceil() as usize;
    let nblocks = n.div_ceil(b);

    shm.scope(|shm| {
        let flagged = shm.alloc("lmz.flagged", nblocks, 0);
        let loser = shm.alloc("lmz.loser", nblocks, 0);
        let winner = shm.alloc("lmz.winner", 1, EMPTY);

        // Step 1: per-element OR into its block flag.
        m.kernel_scatter(shm, 0..n, |t, pid| {
            if t.read(bits, pid) != 0 {
                Some((flagged, pid / b, 1))
            } else {
                None
            }
        });

        // Step 2: knockout among blocks. Processor p encodes pair (u, v).
        m.kernel_scatter(shm, 0..nblocks * nblocks, |t, pid| {
            let (u, v) = (pid / nblocks, pid % nblocks);
            if u < v && t.read(flagged, u) != 0 && t.read(flagged, v) != 0 {
                Some((loser, v, 1))
            } else {
                None
            }
        });

        // Step 3: the surviving flagged block announces itself.
        m.kernel_scatter(shm, 0..nblocks, |t, pid| {
            if t.read(flagged, pid) != 0 && t.read(loser, pid) == 0 {
                Some((winner, 0, pid as Word))
            } else {
                None
            }
        });

        let wblock = shm.get(winner, 0);
        if wblock == EMPTY {
            return None;
        }
        let wblock = wblock as usize;
        let lo = wblock * b;
        let hi = (lo + b).min(n);
        let blen = hi - lo;

        // Steps 4–6: same knockout inside the winning block.
        let eflag = shm.alloc("lmz.eflag", blen, 0);
        let eloser = shm.alloc("lmz.eloser", blen, 0);
        let ewin = shm.alloc("lmz.ewin", 1, EMPTY);
        m.kernel_scatter(shm, 0..blen, |t, pid| {
            if t.read(bits, lo + pid) != 0 {
                Some((eflag, pid, 1))
            } else {
                None
            }
        });
        m.kernel_scatter(shm, 0..blen * blen, |t, pid| {
            let (u, v) = (pid / blen, pid % blen);
            if u < v && t.read(eflag, u) != 0 && t.read(eflag, v) != 0 {
                Some((eloser, v, 1))
            } else {
                None
            }
        });
        m.kernel_scatter(shm, 0..blen, |t, pid| {
            if t.read(eflag, pid) != 0 && t.read(eloser, pid) == 0 {
                Some((ewin, 0, (lo + pid) as Word))
            } else {
                None
            }
        });

        let w = shm.get(ewin, 0);
        if w == EMPTY {
            None
        } else {
            Some(w as usize)
        }
    })
}

/// O(1)-time minimum by pairwise knockout with m² processors.
///
/// Returns the index (into `keys`) of the minimum key; ties broken toward
/// the smaller index. `keys` are host-computed comparison keys for the
/// active elements (the PRAM processors compare them pairwise). Costs 2
/// steps and `m² + m` work — the super-linear work is the point (this is
/// the engine of the paper's brute-force Observations 2.2/2.3).
pub fn min_index_quadratic(m: &mut Machine, shm: &mut Shm, keys: &[i64]) -> Option<usize> {
    let n = keys.len();
    if n == 0 {
        return None;
    }
    shm.scope(|shm| {
        let loser = shm.alloc("minq.loser", n, 0);
        let win = shm.alloc("minq.win", 1, EMPTY);
        m.kernel_scatter(shm, 0..n * n, |_, pid| {
            let (u, v) = (pid / n, pid % n);
            if u < v {
                // strictly-smaller key wins; equal keys favour the smaller index
                if keys[u] <= keys[v] {
                    Some((loser, v, 1))
                } else {
                    Some((loser, u, 1))
                }
            } else {
                None
            }
        });
        m.kernel_scatter(shm, 0..n, |t, pid| {
            if t.read(loser, pid) == 0 {
                Some((win, 0, pid as Word))
            } else {
                None
            }
        });
        let w = shm.get(win, 0);
        debug_assert_ne!(w, EMPTY);
        Some(w as usize)
    })
}

/// One-step broadcast: processor `src_pid` writes `value` to `cell[idx]`.
pub fn broadcast(
    m: &mut Machine,
    shm: &mut Shm,
    cell: ArrayId,
    idx: usize,
    src_pid: usize,
    value: Word,
) {
    m.kernel_scatter(shm, src_pid..src_pid + 1, |_, _| Some((cell, idx, value)));
}

/// One-step concurrent count using Combining-CRCW (Fetch&Add flavour).
///
/// Counts the pids for which `flag_of` is non-zero in `flags`. This uses the
/// *strong* combining model; the paper's algorithms use prefix sums (see
/// [`crate::prefix`]) where counting is needed on the weaker model, and the
/// experiments label which one a table used.
pub fn count_ones_combining(m: &mut Machine, shm: &mut Shm, flags: ArrayId) -> u64 {
    let n = shm.len(flags);
    shm.scope(|shm| {
        let acc = shm.alloc("count.acc", 1, 0);
        m.kernel_reduce(shm, 0..n, ReduceOp::Sum, acc, 0, |t, pid| {
            if t.read(flags, pid) != 0 {
                Some(1)
            } else {
                None
            }
        });
        shm.get(acc, 0) as u64
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup(bits: &[Word]) -> (Machine, Shm, ArrayId) {
        let mut shm = Shm::new();
        let a = shm.alloc("bits", bits.len(), 0);
        for (i, &b) in bits.iter().enumerate() {
            shm.host_set(a, i, b);
        }
        (Machine::new(42), shm, a)
    }

    #[test]
    fn or_true_false() {
        let (mut m, mut shm, a) = setup(&[0, 0, 1, 0]);
        assert!(or_over(&mut m, &mut shm, a, 0, 4));
        assert!(!or_over(&mut m, &mut shm, a, 0, 2));
        assert_eq!(m.metrics.steps, 2);
    }

    #[test]
    fn or_over_recycles_its_workspace() {
        let (mut m, mut shm, a) = setup(&[0, 1, 0, 0]);
        or_over(&mut m, &mut shm, a, 0, 4);
        leftmost_nonzero(&mut m, &mut shm, a);
        let count = shm.array_count();
        for _ in 0..100 {
            or_over(&mut m, &mut shm, a, 0, 4);
            assert_eq!(leftmost_nonzero(&mut m, &mut shm, a), Some(1));
            assert_eq!(
                shm.array_count(),
                count,
                "iterated or_over / leftmost_nonzero must not grow shared memory"
            );
        }
    }

    #[test]
    fn leftmost_basic() {
        let (mut m, mut shm, a) = setup(&[0, 0, 1, 0, 1, 1, 0]);
        assert_eq!(leftmost_nonzero(&mut m, &mut shm, a), Some(2));
        assert_eq!(m.metrics.steps, 6, "Observation 2.1 must be O(1) steps");
    }

    #[test]
    fn leftmost_none_first_last() {
        let (mut m, mut shm, a) = setup(&[0, 0, 0, 0]);
        assert_eq!(leftmost_nonzero(&mut m, &mut shm, a), None);
        let (mut m, mut shm, a) = setup(&[1, 0, 0]);
        assert_eq!(leftmost_nonzero(&mut m, &mut shm, a), Some(0));
        let (mut m, mut shm, a) = setup(&[0, 0, 0, 7]);
        assert_eq!(leftmost_nonzero(&mut m, &mut shm, a), Some(3));
        let (mut m, mut shm, a) = setup(&[5]);
        assert_eq!(leftmost_nonzero(&mut m, &mut shm, a), Some(0));
    }

    #[test]
    fn leftmost_matches_reference_on_many_patterns() {
        let mut rng = crate::rng::SplitMix64::new(9);
        for n in [1usize, 2, 3, 10, 17, 64, 100, 257] {
            for _ in 0..10 {
                let bits: Vec<Word> = (0..n)
                    .map(|_| if rng.bernoulli(0.1) { 1 } else { 0 })
                    .collect();
                let expect = bits.iter().position(|&b| b != 0);
                let (mut m, mut shm, a) = setup(&bits);
                assert_eq!(
                    leftmost_nonzero(&mut m, &mut shm, a),
                    expect,
                    "n={n} bits={bits:?}"
                );
            }
        }
    }

    #[test]
    fn min_index_quadratic_correct_and_superlinear_work() {
        let keys = vec![5i64, 3, 9, 3, 7];
        let mut shm = Shm::new();
        let mut m = Machine::new(1);
        let idx = min_index_quadratic(&mut m, &mut shm, &keys);
        assert_eq!(idx, Some(1), "ties break to the smaller index");
        assert_eq!(m.metrics.steps, 2);
        assert_eq!(m.metrics.work, 25 + 5);
    }

    #[test]
    fn min_index_singleton() {
        let mut shm = Shm::new();
        let mut m = Machine::new(1);
        assert_eq!(min_index_quadratic(&mut m, &mut shm, &[42]), Some(0));
        assert_eq!(min_index_quadratic(&mut m, &mut shm, &[]), None);
    }

    #[test]
    fn broadcast_and_count() {
        let (mut m, mut shm, a) = setup(&[1, 0, 1, 1, 0, 1]);
        assert_eq!(count_ones_combining(&mut m, &mut shm, a), 4);
        let cell = shm.alloc("c", 2, 0);
        broadcast(&mut m, &mut shm, cell, 1, 3, 99);
        assert_eq!(shm.get(cell, 1), 99);
    }

    #[test]
    fn any_nonzero_costs_one_step_each() {
        let (mut m, mut shm, _a) = setup(&[0, 0, 0]);
        let pids = vec![0usize, 1, 2];
        assert!(any_nonzero(&mut m, &mut shm, &pids, |pid, _| pid == 2));
        assert!(!any_nonzero(&mut m, &mut shm, &pids, |_, _| false));
        assert_eq!(
            m.metrics.steps, 2,
            "each any_nonzero test is one genuine PRAM step"
        );
        assert_eq!(m.metrics.work, 6);
    }

    #[test]
    fn any_nonzero_predicate_reads_the_snapshot() {
        let (mut m, mut shm, a) = setup(&[0, 7, 0]);
        let pids = vec![0usize, 1, 2];
        assert!(any_nonzero(&mut m, &mut shm, &pids, |pid, t| t
            .read(a, pid)
            == 7));
        assert!(!any_nonzero(&mut m, &mut shm, &pids, |pid, t| t
            .read(a, pid)
            < 0));
    }
}
