//! Parallel sorting on the simulator: Batcher's bitonic network.
//!
//! The paper charges sorting to cited substrates (Cole's O(log n)-time
//! mergesort). For runs where every step should be *executed*, this module
//! provides the classic bitonic sorting network: O(log² n) steps of n/2
//! compare-exchange processors each — asymptotically a log-factor worse
//! than Cole in time, but fully concrete: every compare-exchange is a
//! simulator step and shows up in the metrics. Callers choose per run
//! (e.g. `upper_hull_dac`'s `ParallelSort` option).
//!
//! Keys are `i64` words (order-isomorphic f64 keys work via
//! `ipch_lp::constraint::f64_key`-style mappings at the call site); an
//! optional payload array is permuted alongside.

use crate::machine::Machine;
use crate::memory::{ArrayId, Shm};
use crate::Word;

/// Sort `keys` ascending in place, permuting `payload` (if given) the same
/// way. Pads virtually to the next power of two with +∞ keys. Costs
/// O(log² n) executed steps with ⌈n/2⌉ processors each.
pub fn bitonic_sort(m: &mut Machine, shm: &mut Shm, keys: ArrayId, payload: Option<ArrayId>) {
    let n = shm.len(keys);
    if n <= 1 {
        return;
    }
    if let Some(p) = payload {
        assert_eq!(shm.len(p), n, "payload length mismatch");
    }
    let np = n.next_power_of_two();

    // network workspace is scoped: iterated sorts recycle the same two slots
    shm.scope(|shm| {
        // physically pad to a power of two with +∞ keys (one copy step in,
        // one out; padding wires must participate in descending regions, so
        // virtual padding would be incorrect)
        let wk = shm.alloc("bitonic.keys", np, Word::MAX);
        let wp = shm.alloc("bitonic.payload", np, 0);
        // pad-in writes two arrays per processor — not a kernel shape, so it
        // stays a generic step (as do the comparator layers below)
        m.step(shm, 0..n, |ctx| {
            let i = ctx.pid;
            ctx.write(wk, i, ctx.read(keys, i));
            if let Some(p) = payload {
                ctx.write(wp, i, ctx.read(p, i));
            }
        });

        let mut k = 2usize;
        while k <= np {
            let mut j = k / 2;
            while j >= 1 {
                // one network layer = one synchronous step of np/2 comparators
                m.step(shm, 0..np / 2, |ctx| {
                    // comparator c handles wires (i, i ^ j): insert a 0 at bit
                    // position log2(j) of c to enumerate the i with bit j clear
                    let c = ctx.pid;
                    let low = c & (j - 1);
                    let high = (c & !(j - 1)) << 1;
                    // c < np/2 and bit log2(j) of i is clear, so
                    // i < l = i | j < np
                    let i = high | low;
                    let l = i | j;
                    let ascending = (i & k) == 0;
                    let (a, b) = (ctx.read(wk, i), ctx.read(wk, l));
                    let out_of_order = if ascending { a > b } else { a < b };
                    if out_of_order {
                        ctx.write(wk, i, b);
                        ctx.write(wk, l, a);
                        let (pa, pb) = (ctx.read(wp, i), ctx.read(wp, l));
                        ctx.write(wp, i, pb);
                        ctx.write(wp, l, pa);
                    }
                });
                j /= 2;
            }
            k *= 2;
        }

        m.step(shm, 0..n, |ctx| {
            let i = ctx.pid;
            ctx.write(keys, i, ctx.read(wk, i));
            if let Some(p) = payload {
                ctx.write(p, i, ctx.read(wp, i));
            }
        });
    });
}

/// Sort a host vector of `(key, payload)` pairs on the machine and return
/// the sorted payloads — the convenience entry point algorithms use.
pub fn sort_pairs(m: &mut Machine, shm: &mut Shm, pairs: &[(Word, Word)]) -> Vec<Word> {
    let n = pairs.len();
    shm.scope(|shm| {
        let keys = shm.alloc("sort.keys", n, 0);
        let vals = shm.alloc("sort.vals", n, 0);
        for (i, &(k, v)) in pairs.iter().enumerate() {
            shm.host_set(keys, i, k);
            shm.host_set(vals, i, v);
        }
        bitonic_sort(m, shm, keys, Some(vals));
        shm.slice(vals).to_vec()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SplitMix64;

    fn sort_host(vals: &[Word], seed: u64) -> (Vec<Word>, u64) {
        let mut m = Machine::new(seed);
        let mut shm = Shm::new();
        let a = shm.alloc("k", vals.len(), 0);
        for (i, &v) in vals.iter().enumerate() {
            shm.host_set(a, i, v);
        }
        bitonic_sort(&mut m, &mut shm, a, None);
        (shm.slice(a).to_vec(), m.metrics.steps)
    }

    #[test]
    fn sorts_small_arrays() {
        for vals in [
            vec![],
            vec![5],
            vec![2, 1],
            vec![3, 1, 2],
            vec![4, 3, 2, 1],
            vec![1, 1, 1],
            vec![7, -3, 0, 7, 2, -9, 4],
        ] {
            let (got, _) = sort_host(&vals, 1);
            let mut expect = vals.clone();
            expect.sort_unstable();
            assert_eq!(got, expect, "input {vals:?}");
        }
    }

    #[test]
    fn sorts_random_arrays_of_awkward_sizes() {
        let mut rng = SplitMix64::new(9);
        for n in [10usize, 33, 100, 255, 256, 257, 1000] {
            let vals: Vec<Word> = (0..n).map(|_| rng.next_u64() as i64 % 1000).collect();
            let (got, _) = sort_host(&vals, 2);
            let mut expect = vals.clone();
            expect.sort_unstable();
            assert_eq!(got, expect, "n={n}");
        }
    }

    #[test]
    fn step_count_is_log_squared() {
        for n in [64usize, 256, 1024] {
            let vals: Vec<Word> = (0..n as i64).rev().collect();
            let (got, steps) = sort_host(&vals, 3);
            assert!(got.windows(2).all(|w| w[0] <= w[1]));
            let lg = (n as f64).log2() as u64;
            // network layers + the pad-in/pad-out copy steps
            assert_eq!(steps, lg * (lg + 1) / 2 + 2, "n={n}");
        }
    }

    #[test]
    fn payload_follows_keys() {
        let pairs: Vec<(Word, Word)> = vec![(3, 30), (1, 10), (2, 20), (1, 11)];
        let mut m = Machine::new(4);
        let mut shm = Shm::new();
        let vals = sort_pairs(&mut m, &mut shm, &pairs);
        // keys 1,1,2,3 — payloads {10,11} first in some order, then 20, 30
        assert_eq!(vals[2], 20);
        assert_eq!(vals[3], 30);
        let mut first: Vec<Word> = vals[..2].to_vec();
        first.sort_unstable();
        assert_eq!(first, vec![10, 11]);
    }

    #[test]
    fn already_sorted_and_reverse() {
        let asc: Vec<Word> = (0..500).collect();
        let (got, _) = sort_host(&asc, 5);
        assert_eq!(got, asc);
        let desc: Vec<Word> = (0..500).rev().collect();
        let (got, _) = sort_host(&desc, 6);
        assert_eq!(got, asc);
    }
}
