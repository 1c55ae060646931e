//! Constant-time CRCW primitives the paper invokes.
//!
//! Each primitive here is built from genuine synchronous machine steps, so
//! its measured cost is its real cost in the model:
//!
//! * [`leftmost_nonzero`] — Observation 2.1 (Eppstein–Galil): the first
//!   non-zero element of an n-array in O(1) time with n processors, via the
//!   √n-block + pairwise-knockout scheme (6 steps, ≤ n processors each).
//!
//! Its per-invocation workspace (`lmz.*`) lives in a [`Shm::scope`], so a
//! call inside a loop recycles a constant set of array slots instead of
//! growing shared memory without bound.

use crate::machine::{Machine, Pids};
use crate::memory::{ArrayId, Shm};
use crate::{Word, EMPTY};

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

        // Step 2: knockout among blocks, one processor per pair (u, v).
        m.kernel_scatter(shm, Pids::Grid([1, nblocks, nblocks]), |t, _| {
            let [_, u, v] = t.coord();
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
        m.kernel_scatter(shm, Pids::Grid([1, blen, blen]), |t, _| {
            let [_, u, v] = t.coord();
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
    fn leftmost_nonzero_recycles_its_workspace() {
        let (mut m, mut shm, a) = setup(&[0, 1, 0, 0]);
        leftmost_nonzero(&mut m, &mut shm, a);
        let count = shm.array_count();
        for _ in 0..100 {
            assert_eq!(leftmost_nonzero(&mut m, &mut shm, a), Some(1));
            assert_eq!(
                shm.array_count(),
                count,
                "iterated leftmost_nonzero must not grow shared memory"
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
}
