//! Noisy-predicate context and majority voting — the Goodrich–Sridhar
//! noisy-primitive model.
//!
//! Goodrich & Sridhar study convex hulls when every primitive operation
//! (orientation test, above/below test, coordinate comparison) *lies*
//! independently with probability `p < 1/2`, and recover the noise-free
//! bounds by repeating each primitive `2k + 1` times and taking the
//! majority, with `k = O(log n)` driving the per-test error below any
//! polynomial tail. This module is the decision engine for that model:
//!
//! * [`NoiseCtx`] wraps the robust predicates of [`crate::predicates`] and
//!   the [`crate::point`] coordinate comparison with a seed-pure lie
//!   schedule: whether evaluation `t` of a test on given operands lies is
//!   a pure hash of `(noise seed, operation, operand bits, trial t)` —
//!   never of execution order, chunking, or thread count, so the same
//!   seed replays the identical lie schedule under every execution
//!   backend and the flip/vote counters agree across them.
//! * [`NoiseMode::Fresh`] re-rolls the lie coin per trial (the model the
//!   voting analysis assumes); [`NoiseMode::Persistent`] ignores the
//!   trial index, which memoizes the lie per operand tuple — the purity
//!   of the hash *is* the memo — so majority voting is provably useless
//!   and only a reseeded retry (a new `NoiseCtx` seed) changes the
//!   answers.
//! * The `voted_*` entry points implement the `2k + 1`-repetition
//!   majority vote; [`vote_reps`] is the repetition schedule
//!   (`k = O(log n)`, escalated by the supervisor between attempts).
//!
//! The context is *explicitly injected*: noise-aware algorithms construct
//! one (seeded from their machine's fault plane) and capture a reference
//! in their step closures. Nothing here touches thread-locals or process
//! globals, so concurrently running machines — or the data-parallel kernel
//! backend's pool workers — can never observe each other's noise.
//! Certificate checks deliberately bypass this module and call the plain
//! predicates, so verification stays sound under any `p`.

use crate::point::{Point2, Point3};
use crate::predicates::{orient2d_sign, orient3d_sign};
use std::sync::atomic::{AtomicU64, Ordering};

/// Per-operation domain-separation constants (mixed into the lie hash so
/// distinct predicate kinds draw independent lie streams).
const OP_ORIENT2D: u64 = 0xA0A0_0121_D000_0001;
const OP_ORIENT3D: u64 = 0xB0B0_0131_D000_0002;
const OP_LESS_X: u64 = 0xD0D0_01C0_3000_0004;

/// SplitMix64 finalizer — the same avalanche the PRAM fault plane uses, so
/// noise draws have the same statistical quality as every other fault coin.
#[inline]
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Deterministic coin: top 53 bits of the hash against `rate` (the same
/// mapping as the fault plane's coin, so `p` means the same thing in both).
#[inline]
fn coin(h: u64, rate: f64) -> bool {
    if rate >= 1.0 {
        return true;
    }
    if rate <= 0.0 {
        return false;
    }
    ((h >> 11) as f64) * (1.0 / (1u64 << 53) as f64) < rate
}

#[inline]
fn hash2(p: Point2) -> u64 {
    mix64(p.x.to_bits() ^ mix64(p.y.to_bits()))
}

#[inline]
fn hash3(p: Point3) -> u64 {
    mix64(p.x.to_bits() ^ mix64(p.y.to_bits() ^ mix64(p.z.to_bits())))
}

/// Whether a lie, once told, is re-rolled or remembered.
///
/// Mirrors the PRAM fault plane's `NoiseMode` (this crate is
/// machine-free, so the enum is restated here; noise-aware algorithm
/// crates translate between the two).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum NoiseMode {
    /// Each trial draws a fresh lie coin; majority voting works.
    #[default]
    Fresh,
    /// The lie is a pure function of the operands alone (the trial index
    /// is ignored), i.e. memoized per operand tuple; voting cannot help.
    Persistent,
}

/// The repetition count for one majority vote: `2k + 1` with
/// `k = ⌈log₂ n⌉ · (escalation + 1)`.
///
/// With fresh noise at rate `p < 1/2`, a `2k + 1`-vote errs with
/// probability at most `(4p(1-p))^k` (Chernoff), so `k = Θ(log n)` drives
/// the per-test error to `n^{-Θ(1)}` and a union bound over the O(n³)
/// tests of the brute-force structure still vanishes. The supervisor
/// passes its attempt index as `escalation`, doubling-ish `k` on each
/// retry — the "retry with a larger repetition factor" arm.
#[inline]
pub fn vote_reps(n: usize, escalation: u32) -> u32 {
    let k = (usize::BITS - n.max(2).leading_zeros()) * (escalation + 1);
    2 * k + 1
}

/// A seed-pure noisy-predicate context.
///
/// All decisions are pure hashes; the only mutable state is the pair of
/// observability counters, kept atomic so one context can be shared by
/// parallel pool workers without changing any answer or any final count.
#[derive(Debug)]
pub struct NoiseCtx {
    seed: u64,
    p: f64,
    mode: NoiseMode,
    flips: AtomicU64,
    votes: AtomicU64,
}

impl NoiseCtx {
    /// A context lying with probability `p` under the given schedule.
    pub fn new(seed: u64, p: f64, mode: NoiseMode) -> Self {
        Self {
            seed,
            p,
            mode,
            flips: AtomicU64::new(0),
            votes: AtomicU64::new(0),
        }
    }

    /// A context that never lies (`p = 0`): every query answers exactly
    /// like the plain predicates and no counter ever moves.
    pub fn noiseless() -> Self {
        Self::new(0, 0.0, NoiseMode::Fresh)
    }

    /// True when this context can actually lie.
    #[inline]
    pub fn is_live(&self) -> bool {
        self.p > 0.0
    }

    /// The configured lie probability.
    #[inline]
    pub fn p(&self) -> f64 {
        self.p
    }

    /// The configured lie schedule.
    #[inline]
    pub fn mode(&self) -> NoiseMode {
        self.mode
    }

    /// Number of evaluations whose answer was flipped so far.
    pub fn flips(&self) -> u64 {
        self.flips.load(Ordering::Relaxed)
    }

    /// Number of evaluations performed on behalf of majority voting.
    pub fn votes(&self) -> u64 {
        self.votes.load(Ordering::Relaxed)
    }

    /// The lie hash for one evaluation. In `Persistent` mode the trial
    /// index is dropped, which *is* the per-operand-tuple memo: the same
    /// question always draws the same coin.
    #[inline]
    fn lie_hash(&self, op: u64, operands: u64, trial: u32) -> u64 {
        let t = match self.mode {
            NoiseMode::Fresh => (trial as u64).wrapping_mul(0xD6E8_FEB8_6659_FD93),
            NoiseMode::Persistent => 0,
        };
        mix64(self.seed ^ op ^ mix64(operands ^ t))
    }

    /// Whether this evaluation lies; counts the flip when it does.
    #[inline]
    fn lies(&self, op: u64, operands: u64, trial: u32) -> Option<u64> {
        if self.p <= 0.0 {
            return None;
        }
        let h = self.lie_hash(op, operands, trial);
        if coin(h, self.p) {
            self.flips.fetch_add(1, Ordering::Relaxed);
            Some(h)
        } else {
            None
        }
    }

    /// A lying sign: nonzero truths are negated; a zero truth reports a
    /// hash-chosen side (a lie must be *wrong*, and ±1 are the wrong
    /// answers adjacent to collinear).
    #[inline]
    fn corrupt_sign(truth: i32, h: u64) -> i32 {
        if truth != 0 {
            -truth
        } else if mix64(h) & 1 == 0 {
            1
        } else {
            -1
        }
    }

    /// One (possibly lying) evaluation of the 2-D orientation sign.
    #[inline]
    pub fn orient2d_sign(&self, a: Point2, b: Point2, c: Point2, trial: u32) -> i32 {
        let truth = orient2d_sign(a, b, c);
        let operands = mix64(hash2(a) ^ mix64(hash2(b) ^ mix64(hash2(c))));
        match self.lies(OP_ORIENT2D, operands, trial) {
            Some(h) => Self::corrupt_sign(truth, h),
            None => truth,
        }
    }

    /// One (possibly lying) evaluation of the 3-D orientation sign.
    #[inline]
    pub fn orient3d_sign(&self, a: Point3, b: Point3, c: Point3, d: Point3, trial: u32) -> i32 {
        let truth = orient3d_sign(a, b, c, d);
        let operands = mix64(hash3(a) ^ mix64(hash3(b) ^ mix64(hash3(c) ^ mix64(hash3(d)))));
        match self.lies(OP_ORIENT3D, operands, trial) {
            Some(h) => Self::corrupt_sign(truth, h),
            None => truth,
        }
    }

    /// One (possibly lying) evaluation of the strict x-order comparison
    /// (`a.x < b.x`, the pair-direction test of the brute hull oracle).
    #[inline]
    pub fn less_x(&self, a: Point2, b: Point2, trial: u32) -> bool {
        let truth = a.x < b.x;
        let operands = mix64(hash2(a) ^ mix64(hash2(b)));
        match self.lies(OP_LESS_X, operands, trial) {
            Some(_) => !truth,
            None => truth,
        }
    }

    /// Majority-voted 2-D orientation sign over `reps` trials.
    ///
    /// Ties across the three outcomes (possible because the vote is
    /// ternary) break deterministically toward the smaller sign — any
    /// fixed rule preserves the with-high-probability analysis, which
    /// only needs the true answer to hold a strict plurality.
    pub fn voted_orient2d(&self, a: Point2, b: Point2, c: Point2, reps: u32) -> i32 {
        if !self.is_live() {
            return orient2d_sign(a, b, c);
        }
        self.votes.fetch_add(reps as u64, Ordering::Relaxed);
        let mut tally = [0u32; 3];
        for t in 0..reps {
            tally[(self.orient2d_sign(a, b, c, t) + 1) as usize] += 1;
        }
        Self::plurality(&tally)
    }

    /// Majority-voted 3-D orientation sign over `reps` trials.
    pub fn voted_orient3d(&self, a: Point3, b: Point3, c: Point3, d: Point3, reps: u32) -> i32 {
        if !self.is_live() {
            return orient3d_sign(a, b, c, d);
        }
        self.votes.fetch_add(reps as u64, Ordering::Relaxed);
        let mut tally = [0u32; 3];
        for t in 0..reps {
            tally[(self.orient3d_sign(a, b, c, d, t) + 1) as usize] += 1;
        }
        Self::plurality(&tally)
    }

    /// Majority-voted strict x-order comparison over `reps` trials.
    pub fn voted_less_x(&self, a: Point2, b: Point2, reps: u32) -> bool {
        if !self.is_live() {
            return a.x < b.x;
        }
        self.votes.fetch_add(reps as u64, Ordering::Relaxed);
        let yes = (0..reps).filter(|&t| self.less_x(a, b, t)).count() as u32;
        2 * yes > reps
    }

    #[inline]
    fn plurality(tally: &[u32; 3]) -> i32 {
        let mut best = 0usize;
        for i in 1..3 {
            if tally[i] > tally[best] {
                best = i;
            }
        }
        best as i32 - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const A: Point2 = Point2::new(0.0, 0.0);
    const B: Point2 = Point2::new(1.0, 0.0);
    const UP: Point2 = Point2::new(0.5, 1.0);

    #[test]
    fn noiseless_ctx_is_the_plain_predicates() {
        let ctx = NoiseCtx::noiseless();
        assert_eq!(ctx.orient2d_sign(A, B, UP, 0), 1);
        assert_eq!(ctx.voted_orient2d(A, B, UP, 99), 1);
        assert!(ctx.less_x(A, B, 0));
        assert_eq!(ctx.flips(), 0);
        assert_eq!(ctx.votes(), 0, "noiseless voting charges nothing");
    }

    #[test]
    fn lie_rate_is_roughly_p_and_deterministic() {
        let ctx = NoiseCtx::new(42, 0.25, NoiseMode::Fresh);
        let lies = (0..4000u32)
            .filter(|&t| ctx.orient2d_sign(A, B, UP, t) != 1)
            .count();
        let rate = lies as f64 / 4000.0;
        assert!((rate - 0.25).abs() < 0.03, "rate = {rate}");
        assert_eq!(ctx.flips(), lies as u64);
        // replay: a second context with the same seed tells the same lies
        let replay = NoiseCtx::new(42, 0.25, NoiseMode::Fresh);
        for t in 0..100 {
            assert_eq!(
                ctx.orient2d_sign(A, B, UP, t),
                replay.orient2d_sign(A, B, UP, t)
            );
        }
    }

    #[test]
    fn persistent_mode_ignores_the_trial_index() {
        let ctx = NoiseCtx::new(7, 0.5, NoiseMode::Persistent);
        let first = ctx.orient2d_sign(A, B, UP, 0);
        for t in 1..64 {
            assert_eq!(ctx.orient2d_sign(A, B, UP, t), first);
        }
        // ... so voting returns exactly the memoized (possibly wrong) answer
        assert_eq!(ctx.voted_orient2d(A, B, UP, 63), first);
    }

    #[test]
    fn fresh_mode_rerolls_and_voting_recovers_truth() {
        let ctx = NoiseCtx::new(9, 0.2, NoiseMode::Fresh);
        // at p = 0.2 and 21 reps the vote errs with prob < 1e-4 per test;
        // across 200 distinct tests all should come out true
        for i in 0..200 {
            let c = Point2::new(0.5, 1.0 + i as f64);
            assert_eq!(ctx.voted_orient2d(A, B, c, 21), 1, "i={i}");
        }
        assert_eq!(ctx.votes(), 200 * 21);
        assert!(ctx.flips() > 0, "the lies must actually have fired");
    }

    #[test]
    fn lies_must_be_wrong_answers() {
        // a flipped nonzero sign negates; a flipped zero reports a side
        let ctx = Ctx100::ctx();
        let col = Point2::new(2.0, 0.0);
        for t in 0..32 {
            let s = ctx.orient2d_sign(A, B, col, t);
            assert_ne!(s, 0, "a lie about a collinear truth must pick a side");
        }
        for t in 0..32 {
            assert_eq!(ctx.orient2d_sign(A, B, UP, t), -1);
        }
    }

    /// p = 1 context: every answer is a lie (handy for the wrongness law).
    struct Ctx100;
    impl Ctx100 {
        fn ctx() -> NoiseCtx {
            NoiseCtx::new(3, 1.0, NoiseMode::Fresh)
        }
    }

    #[test]
    fn vote_reps_schedule_is_odd_and_escalates() {
        for n in [0usize, 1, 2, 64, 4096] {
            for esc in 0..4 {
                let r = vote_reps(n, esc);
                assert_eq!(r % 2, 1, "2k+1 must be odd");
                assert!(vote_reps(n, esc + 1) > r, "escalation must grow k");
            }
        }
        // k = ceil-ish log2: n = 4096 -> k = 13, reps = 27
        assert_eq!(vote_reps(4096, 0), 27);
    }

    #[test]
    fn counters_are_order_independent() {
        // Summing over any evaluation order gives the same counts: evaluate
        // the same set of (test, trial) pairs forwards and backwards.
        let a = NoiseCtx::new(11, 0.3, NoiseMode::Fresh);
        let b = NoiseCtx::new(11, 0.3, NoiseMode::Fresh);
        let tests: Vec<Point2> = (0..50).map(|i| Point2::new(0.5, 1.0 + i as f64)).collect();
        for c in tests.iter() {
            for t in 0..5 {
                a.orient2d_sign(A, B, *c, t);
            }
        }
        for c in tests.iter().rev() {
            for t in (0..5).rev() {
                b.orient2d_sign(A, B, *c, t);
            }
        }
        assert_eq!(a.flips(), b.flips());
    }
}
