//! Deterministic, splittable pseudo-randomness for virtual processors.
//!
//! The paper's algorithms are *randomized* CRCW PRAM algorithms: in a single
//! synchronous step every processor may flip private coins (e.g. "attempt a
//! write with probability 2k/m", §3.1). For replayable experiments each
//! (machine seed, step, pid) triple must map to an independent-looking
//! stream. SplitMix64 is the standard small generator for this: one 64-bit
//! state, invertible mixing, passes BigCrush when streamed, and trivially
//! "forked" by hashing the lineage into a fresh state.

/// A SplitMix64 generator.
///
/// Not cryptographic; used only for simulation coin flips.
#[derive(Clone, Debug)]
pub struct SplitMix64 {
    state: u64,
    /// Fault-plane override: when set, [`SplitMix64::bernoulli`] returns this
    /// value unconditionally (the biased-coin injection of
    /// [`crate::faults`]). `None` for every normally constructed generator.
    bias: Option<bool>,
}

const GOLDEN_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// The 64-bit finalizer from SplitMix64 (Stafford's Mix13 variant).
#[inline]
pub fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl SplitMix64 {
    /// Create a generator from a seed.
    #[inline]
    pub fn new(seed: u64) -> Self {
        Self {
            state: seed,
            bias: None,
        }
    }

    /// Derive a generator for a (step, pid) pair from a machine seed.
    ///
    /// Used by the simulator so that every virtual processor in every step
    /// gets its own stream, independent of evaluation order.
    #[inline]
    pub fn for_step_pid(seed: u64, step: u64, pid: u64) -> Self {
        let s = mix64(seed ^ mix64(step.wrapping_mul(0xA24B_AED4_963E_E407) ^ mix64(pid)));
        Self {
            state: s,
            bias: None,
        }
    }

    /// Force every subsequent [`SplitMix64::bernoulli`] call to return
    /// `force` (crate-internal: the fault plane biases selected per-(step,
    /// pid) streams; see [`crate::faults::RngBias`]). The uniform draws
    /// (`next_u64`/`next_below`/`next_f64`) are unaffected.
    #[inline]
    pub(crate) fn set_bias(&mut self, force: bool) {
        self.bias = Some(force);
    }

    /// Next raw 64 bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(GOLDEN_GAMMA);
        mix64(self.state)
    }

    /// Uniform value in `[0, bound)`. `bound` must be nonzero.
    ///
    /// Uses Lemire's multiply-shift with rejection, so the result is exactly
    /// uniform — important for the sample-uniformity experiment (T7).
    #[inline]
    pub fn next_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "next_below needs a nonzero bound");
        loop {
            let x = self.next_u64();
            let m = (x as u128).wrapping_mul(bound as u128);
            let lo = m as u64;
            if lo >= bound || lo >= (bound.wrapping_neg() % bound) {
                return (m >> 64) as u64;
            }
        }
    }

    /// Uniform `f64` in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli trial with success probability `p` (clamped to `[0, 1]`).
    #[inline]
    pub fn bernoulli(&mut self, p: f64) -> bool {
        if let Some(force) = self.bias {
            // Fault-plane biased coin: the stream still advances so the
            // *sequence* of uniform draws is unperturbed, only the coin's
            // outcome is forced.
            let _ = self.next_f64();
            return force;
        }
        if p >= 1.0 {
            return true;
        }
        if p <= 0.0 {
            return false;
        }
        self.next_f64() < p
    }

    /// Fork a statistically independent child stream tagged by `tag`.
    /// The fault-plane bias (if any) is not inherited.
    #[inline]
    pub fn fork(&mut self, tag: u64) -> Self {
        Self {
            state: mix64(self.next_u64() ^ mix64(tag)),
            bias: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_replay() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn step_pid_streams_differ() {
        let mut a = SplitMix64::for_step_pid(1, 0, 0);
        let mut b = SplitMix64::for_step_pid(1, 0, 1);
        let mut c = SplitMix64::for_step_pid(1, 1, 0);
        let (x, y, z) = (a.next_u64(), b.next_u64(), c.next_u64());
        assert_ne!(x, y);
        assert_ne!(x, z);
        assert_ne!(y, z);
    }

    #[test]
    fn next_below_in_range_and_covers() {
        let mut r = SplitMix64::new(7);
        let mut seen = [false; 10];
        for _ in 0..1000 {
            let v = r.next_below(10) as usize;
            assert!(v < 10);
            seen[v] = true;
        }
        assert!(seen.iter().all(|&s| s), "all residues should appear");
    }

    #[test]
    fn next_below_uniformity_rough() {
        // Chi-squared against uniform over 16 buckets; 99.9% critical value
        // for 15 dof is ~37.7. Use a generous bound to keep the test stable.
        let mut r = SplitMix64::new(99);
        let n = 160_000u64;
        let mut counts = [0u64; 16];
        for _ in 0..n {
            counts[r.next_below(16) as usize] += 1;
        }
        let expect = n as f64 / 16.0;
        let chi2: f64 = counts
            .iter()
            .map(|&c| {
                let d = c as f64 - expect;
                d * d / expect
            })
            .sum();
        assert!(chi2 < 60.0, "chi2 = {chi2}");
    }

    #[test]
    fn bernoulli_extremes() {
        let mut r = SplitMix64::new(3);
        assert!(r.bernoulli(1.0));
        assert!(!r.bernoulli(0.0));
        assert!(r.bernoulli(2.0));
        assert!(!r.bernoulli(-1.0));
    }

    #[test]
    fn bernoulli_rate() {
        let mut r = SplitMix64::new(5);
        let hits = (0..100_000).filter(|_| r.bernoulli(0.25)).count();
        let rate = hits as f64 / 100_000.0;
        assert!((rate - 0.25).abs() < 0.01, "rate = {rate}");
    }

    #[test]
    fn biased_coin_forces_outcome_but_advances_the_stream() {
        let mut forced = SplitMix64::new(21);
        forced.set_bias(false);
        assert!((0..50).all(|_| !forced.bernoulli(1.0)));
        let mut forced = SplitMix64::new(21);
        forced.set_bias(true);
        assert!((0..50).all(|_| forced.bernoulli(0.0)));
        // the uniform stream is unperturbed: after k coin flips both the
        // biased and unbiased generator sit at the same state
        let mut plain = SplitMix64::new(21);
        for _ in 0..50 {
            let _ = plain.bernoulli(0.5);
        }
        assert_eq!(forced.next_u64(), plain.next_u64());
    }

    #[test]
    fn fork_streams_independent_prefixes() {
        let mut base = SplitMix64::new(11);
        let mut f1 = base.fork(1);
        let mut f2 = base.fork(1); // same tag, but base advanced => different
        assert_ne!(f1.next_u64(), f2.next_u64());
    }
}
