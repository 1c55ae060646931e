//! Parallel prefix sums (Ladner–Fischer / Hillis–Steele).
//!
//! The unsorted-input algorithms use "parallel prefix sum to compact the
//! remaining points and find the number of subproblems remaining" (paper
//! §4.1 step 3, §4.3 step 4). On the weak CRCW variants counting genuinely
//! costs Θ(log n) time with n processors; we implement the Hillis–Steele
//! scan — ⌈log₂ n⌉ steps, n processors per step — which is exactly the cost
//! the paper charges ("If i ≥ (log n)/32, then the algorithm has already
//! taken O(log n) time, so use parallel prefix sum…").

use crate::machine::Machine;
use crate::memory::{ArrayId, Shm};
use crate::Word;

/// In-place inclusive prefix sum over `arr`: `arr[i] := Σ_{j ≤ i} arr[j]`.
///
/// Costs ⌈log₂ n⌉ steps of n processors each.
pub fn inclusive_prefix_sum(m: &mut Machine, shm: &mut Shm, arr: ArrayId) {
    let n = shm.len(arr);
    if n <= 1 {
        return;
    }
    shm.scope(|shm| {
        let scratch = shm.alloc("prefix.scratch", n, 0);
        let mut src = arr;
        let mut dst = scratch;
        let mut d = 1usize;
        while d < n {
            let s = src;
            m.kernel_map(shm, 0..n, dst, move |t, i| {
                let v = t.read(s, i);
                if i >= d {
                    v.wrapping_add(t.read(s, i - d))
                } else {
                    v
                }
            });
            std::mem::swap(&mut src, &mut dst);
            d <<= 1;
        }
        if src != arr {
            // even number of rounds landed the result in scratch: copy back (1 step)
            m.kernel_map(shm, 0..n, arr, |t, i| t.read(scratch, i));
        }
    });
}

/// Exclusive prefix sum: returns a fresh array `out` with
/// `out[i] = Σ_{j < i} arr[j]`, leaving `arr` untouched, plus the total.
///
/// Built from one copy step + [`inclusive_prefix_sum`] + one shift step.
pub fn exclusive_prefix_sum(m: &mut Machine, shm: &mut Shm, arr: ArrayId) -> (ArrayId, Word) {
    let n = shm.len(arr);
    let out = shm.alloc("prefix.excl", n, 0);
    if n == 0 {
        return (out, 0);
    }
    let total = shm.scope(|shm| {
        let incl = shm.alloc("prefix.incl", n, 0);
        m.kernel_map(shm, 0..n, incl, |t, i| t.read(arr, i));
        inclusive_prefix_sum(m, shm, incl);
        m.kernel_map(
            shm,
            0..n,
            out,
            move |t, i| {
                if i == 0 {
                    0
                } else {
                    t.read(incl, i - 1)
                }
            },
        );
        shm.get(incl, n - 1)
    });
    (out, total)
}

/// Stable parallel compaction: writes the indices `i` with `flags[i] != 0`
/// densely (in increasing order of `i`) into a fresh array, returning
/// `(dest, count)`. This is the "compact the remaining points" operation of
/// §4.1 step 3. Cost: one prefix sum + 2 steps.
pub fn compact_indices(m: &mut Machine, shm: &mut Shm, flags: ArrayId) -> (ArrayId, usize) {
    let n = shm.len(flags);
    shm.scope(|shm| {
        let ranks = shm.alloc("compact.ranks", n, 0);
        m.kernel_map(
            shm,
            0..n,
            ranks,
            |t, i| {
                if t.read(flags, i) != 0 {
                    1
                } else {
                    0
                }
            },
        );
        let (excl, total) = exclusive_prefix_sum(m, shm, ranks);
        // a corrupted prefix sum may read past `0..=n`: the area never
        // outgrows the input, and a rank outside it writes nothing
        let total = total.clamp(0, n as Word) as usize;
        let dest = shm.alloc("compact.dest", total, crate::EMPTY);
        m.kernel_scatter(shm, 0..n, |t, i| {
            if t.read(flags, i) == 0 {
                return None;
            }
            let r = usize::try_from(t.read(excl, i)).ok()?;
            (r < total).then_some((dest, r, i as Word))
        });
        // the result outlives the workspace scope
        shm.promote(dest);
        (dest, total)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SplitMix64;

    fn arr_from(shm: &mut Shm, vals: &[Word]) -> ArrayId {
        let a = shm.alloc("a", vals.len(), 0);
        for (i, &v) in vals.iter().enumerate() {
            shm.host_set(a, i, v);
        }
        a
    }

    #[test]
    fn inclusive_small() {
        let mut m = Machine::new(1);
        let mut shm = Shm::new();
        let a = arr_from(&mut shm, &[3, 1, 4, 1, 5]);
        inclusive_prefix_sum(&mut m, &mut shm, a);
        assert_eq!(shm.slice(a), &[3, 4, 8, 9, 14]);
    }

    #[test]
    fn inclusive_log_steps() {
        for n in [2usize, 3, 4, 7, 8, 9, 64, 100] {
            let mut m = Machine::new(1);
            let mut shm = Shm::new();
            let a = arr_from(&mut shm, &vec![1; n]);
            inclusive_prefix_sum(&mut m, &mut shm, a);
            let expect: Vec<Word> = (1..=n as Word).collect();
            assert_eq!(shm.slice(a), expect.as_slice(), "n={n}");
            let logn = (n as f64).log2().ceil() as u64;
            assert!(
                m.metrics.steps <= logn + 1,
                "n={n}: {} steps > log n + copy = {}",
                m.metrics.steps,
                logn + 1
            );
        }
    }

    #[test]
    fn inclusive_trivial_sizes() {
        let mut m = Machine::new(1);
        let mut shm = Shm::new();
        let a = arr_from(&mut shm, &[]);
        inclusive_prefix_sum(&mut m, &mut shm, a);
        let b = arr_from(&mut shm, &[9]);
        inclusive_prefix_sum(&mut m, &mut shm, b);
        assert_eq!(shm.slice(b), &[9]);
        assert_eq!(m.metrics.steps, 0);
    }

    #[test]
    fn exclusive_matches_reference() {
        let mut rng = SplitMix64::new(77);
        for n in [1usize, 2, 5, 33, 128] {
            let vals: Vec<Word> = (0..n).map(|_| rng.next_below(100) as Word).collect();
            let mut m = Machine::new(2);
            let mut shm = Shm::new();
            let a = arr_from(&mut shm, &vals);
            let (out, total) = exclusive_prefix_sum(&mut m, &mut shm, a);
            let mut acc = 0;
            for (i, &v) in vals.iter().enumerate() {
                assert_eq!(shm.get(out, i), acc);
                acc += v;
            }
            assert_eq!(total, acc);
            assert_eq!(shm.slice(a), vals.as_slice(), "input must be untouched");
        }
    }

    #[test]
    fn compact_is_stable_and_dense() {
        let mut m = Machine::new(3);
        let mut shm = Shm::new();
        let f = arr_from(&mut shm, &[0, 1, 1, 0, 0, 1, 0, 1]);
        let (dest, count) = compact_indices(&mut m, &mut shm, f);
        assert_eq!(count, 4);
        assert_eq!(shm.slice(dest), &[1, 2, 5, 7]);
    }

    #[test]
    fn compact_empty_and_full() {
        let mut m = Machine::new(4);
        let mut shm = Shm::new();
        let f = arr_from(&mut shm, &[0, 0, 0]);
        let (_, count) = compact_indices(&mut m, &mut shm, f);
        assert_eq!(count, 0);
        let g = arr_from(&mut shm, &[1, 1]);
        let (d, count) = compact_indices(&mut m, &mut shm, g);
        assert_eq!(count, 2);
        assert_eq!(shm.slice(d), &[0, 1]);
    }

    /// A corrupted cell anywhere in the compaction (flags, ranks or the
    /// prefix sum) may move the total or a rank past the area: the area
    /// stays within `0..=n` and no scatter lands outside it.
    #[test]
    fn corrupted_ranks_never_overrun_the_area() {
        use crate::faults::FaultPlan;
        let flags: Vec<Word> = (0..24).map(|i| (i % 3 == 0) as Word).collect();
        for seed in 0..64 {
            let mut m = Machine::new(seed);
            m.install_faults(FaultPlan {
                corrupt_rate: 1.0,
                ..FaultPlan::default()
            });
            let mut shm = Shm::new();
            let f = arr_from(&mut shm, &flags);
            let (dest, count) = compact_indices(&mut m, &mut shm, f);
            assert!(count <= flags.len(), "seed {seed}: count {count}");
            assert_eq!(shm.len(dest), count, "seed {seed}");
        }
    }
}
