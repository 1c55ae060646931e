//! Deterministic, seed-driven fault injection for the simulated PRAM.
//!
//! Every output-sensitive algorithm in the paper succeeds only *with high
//! probability*; its prescription when a randomized attempt fails is to
//! detect the failure, retry, or fall back to the worst-case algorithm
//! (§2.3's failure sweeping is exactly this at the subproblem level). The
//! reproduction's success paths are exercised constantly — the failure
//! paths almost never fire on honest random seeds. This module makes the
//! failure paths *reachable on demand*: a [`FaultPlan`] installed on a
//! [`crate::Machine`] perturbs the simulation in six seed-deterministic
//! ways, each counted in [`crate::Metrics::faults`]:
//!
//! * **Adversarial write resolution** ([`FaultPlan::adversarial_writes`]) —
//!   conflicted cells under [`crate::WritePolicy::Arbitrary`] commit a
//!   worst-case extremal contender (max or min value, chosen by a per-cell
//!   fault coin) instead of the seeded-pseudorandom winner. Algorithms whose
//!   correctness argument must hold for *any* winner get exactly the
//!   adversary the Arbitrary-CRCW model allows.
//! * **Biased RNG** ([`FaultPlan::rng_bias`]) — a configurable fraction of
//!   per-(step, pid) RNG streams have their [`crate::rng::SplitMix64::bernoulli`]
//!   coin forced to a fixed outcome, starving (or flooding) the paper's
//!   "attempt with probability p" dart throws so sampling failures occur at
//!   will.
//! * **Transient cell corruption** ([`FaultPlan::corrupt_rate`]) — after a
//!   step commits, a hash-chosen live shared-memory cell may have its low
//!   bit flipped (the noisy-memory model of the Goodrich–Sridhar follow-up
//!   work, one flip at a time).
//! * **Processor drop** ([`FaultPlan::drop_window`]) — within a step window,
//!   a configurable fraction of (step, pid) pairs are *dropped*: the
//!   processor computes (private results still exist) but none of its
//!   buffered writes commit, modelling a stalled processor whose updates
//!   never reach shared memory.
//! * **Budget exhaustion** ([`FaultPlan::budget`]) — a step/work meter that
//!   trips once the machine's executed metrics cross the plan's bounds.
//!   Execution itself is never cut short (the simulator always runs the
//!   program to completion, so no algorithm can deadlock mid-step); the
//!   [`mod@crate::supervise`] layer treats a tripped budget as attempt failure.
//! * **Noisy predicates** ([`FaultPlan::noise`]) — every orientation /
//!   above-below / comparison test evaluated through a noise context lies
//!   with probability `p`, either re-rolled per evaluation
//!   ([`NoiseMode::Fresh`], defeated by 2k+1 majority voting) or memoized
//!   per operand tuple ([`NoiseMode::Persistent`], defeated only by a
//!   reseeded retry). The plan lives here; the decision engine lives with
//!   the predicates (`ipch-geom`'s noise context, seeded via
//!   [`crate::Machine::noise_spec`]) because this crate is geometry-free.
//!
//! # Determinism
//!
//! Every fault event is a pure function of `(fault seed, step, pid-or-cell)`
//! where the fault seed mixes the machine seed with [`FaultPlan::salt`] —
//! never of execution order, chunking, or thread count. The same plan on the
//! same seed replays the identical fault schedule under every
//! [`crate::Tuning`] mode, which is what lets the chaos suite pin seeds.
//! Reseeding the machine (as the supervisor does between attempts) reseeds
//! the fault schedule with it, so probabilistic faults decorrelate across
//! retries while a budget fault (a function of the plan alone) recurs —
//! exactly the split that makes `Retried(k)` and `FellBack` separately
//! reachable.
//!
//! With no plan installed the machine carries a `None` and every hook is a
//! single branch on it: the disabled path is byte-identical to the pre-fault
//! simulator (the determinism and analyzer-pin suites assert this).

use crate::rng::mix64;

/// Per-fault-kind domain-separation constants (mixed into the event hash so
/// the six fault families draw from independent streams).
const KIND_BIAS: u64 = 0x1111_B1A5_ED00_0001;
const KIND_DROP: u64 = 0x2222_D809_9000_0002;
const KIND_CORRUPT: u64 = 0x3333_C088_0900_0003;
const KIND_ADVERSARY: u64 = 0x4444_AD5E_0000_0004;
const KIND_NOISE: u64 = 0x5555_4015_E000_0005;

/// Biased-coin injection: a `rate` fraction of per-(step, pid) RNG streams
/// have their `bernoulli` outcome forced to `force`.
///
/// `force = false` starves randomized attempts (empty samples, failed dart
/// throws); `force = true` floods them (mass collisions). Both are failure
/// modes the paper's procedures must detect.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RngBias {
    /// Probability that a given (step, pid) stream is biased.
    pub rate: f64,
    /// The outcome every `bernoulli` call on a biased stream returns.
    pub force: bool,
}

/// Processor-drop window: within steps `[from_step, until_step)` of the
/// machine's step counter, each (step, pid) pair is dropped with
/// probability `rate` (its buffered writes are discarded at commit).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DropWindow {
    /// First step (inclusive, machine step-counter value) of the window.
    pub from_step: u64,
    /// End of the window (exclusive). `u64::MAX` for "forever".
    pub until_step: u64,
    /// Per-(step, pid) drop probability inside the window.
    pub rate: f64,
}

/// How a noisy predicate lies (the Goodrich–Sridhar noisy-primitive model:
/// each orientation/above-below/comparison test answers wrongly with
/// probability `p`, independently of the input).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum NoiseMode {
    /// Every evaluation draws a fresh lie coin — repeating the same test
    /// re-rolls, so 2k+1-repetition majority voting recovers the truth
    /// with high probability. This is the model the paper's analysis
    /// assumes.
    #[default]
    Fresh,
    /// The lie is memoized per operand tuple: asking the same question
    /// twice returns the same (possibly wrong) answer, so voting cannot
    /// help and only a reseeded retry (a new noise schedule) can recover.
    /// The adversarial variant the supervisor's retry loop exists for.
    Persistent,
}

/// Noisy-predicate injection: every orientation / above-below / comparison
/// test evaluated through a noise context lies with probability `p`.
///
/// The plan itself only carries the knobs; the decision engine lives with
/// the predicates (`ipch-geom`'s noise context), seeded from the machine's
/// fault seed via [`crate::Machine::noise_spec`] so the schedule reseeds
/// with the machine exactly like every other fault family.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct NoisePlan {
    /// Per-evaluation lie probability (0 disables the fault).
    pub p: f64,
    /// Fresh re-rolls per evaluation, or persistent per-operand-tuple lies.
    pub mode: NoiseMode,
}

impl NoisePlan {
    /// True when the plan injects nothing (p ≤ 0).
    pub fn is_empty(&self) -> bool {
        self.p <= 0.0
    }
}

/// Step/work budget: the meter trips when executed `steps` or `work` exceed
/// these bounds. `u64::MAX` disables a bound.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Budget {
    /// Maximum executed steps before the meter trips.
    pub max_steps: u64,
    /// Maximum executed work before the meter trips.
    pub max_work: u64,
}

impl Default for Budget {
    fn default() -> Self {
        Self {
            max_steps: u64::MAX,
            max_work: u64::MAX,
        }
    }
}

/// A complete fault-injection plan. Install with
/// [`crate::Machine::install_faults`]; child machines inherit the plan (with
/// their own derived fault seed), so injection reaches subcomputations.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultPlan {
    /// Extra entropy mixed into the fault seed, so distinct plans on one
    /// machine seed draw distinct fault schedules.
    pub salt: u64,
    /// Resolve `Arbitrary` write conflicts adversarially (extremal value).
    pub adversarial_writes: bool,
    /// Bias a fraction of per-processor coin flips.
    pub rng_bias: Option<RngBias>,
    /// Per-step probability of one post-commit cell corruption.
    pub corrupt_rate: f64,
    /// Drop processors' writes inside a step window.
    pub drop_window: Option<DropWindow>,
    /// Trip a meter when executed steps/work exceed a bound.
    pub budget: Option<Budget>,
    /// Make predicate evaluations lie with probability `p`.
    pub noise: Option<NoisePlan>,
}

impl FaultPlan {
    /// True when the plan injects nothing (the default).
    pub fn is_empty(&self) -> bool {
        !self.adversarial_writes
            && self.rng_bias.is_none()
            && self.corrupt_rate <= 0.0
            && self.drop_window.is_none()
            && self.budget.is_none()
            && self.noise.is_none_or(|n| n.is_empty())
    }
}

/// Counters for every injected fault, kept in [`crate::Metrics::faults`].
/// Host observability: every fold of one [`crate::Metrics`] into another
/// sums them, so a parent machine sees
/// every fault injected anywhere in its tree.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultCounters {
    /// `Arbitrary` conflict runs resolved by the adversary instead of the
    /// seeded tiebreak.
    pub adversarial_resolutions: u64,
    /// (step, pid) RNG streams whose coin was biased.
    pub biased_streams: u64,
    /// Cells bit-flipped after a commit.
    pub corrupted_cells: u64,
    /// (step, pid) pairs whose writes were dropped.
    pub dropped_processors: u64,
    /// Times a budget meter tripped (at most once per machine).
    pub budget_exhaustions: u64,
    /// Predicate evaluations whose answer was flipped by a [`NoisePlan`].
    pub predicate_flips: u64,
    /// Predicate evaluations performed on behalf of majority voting (the
    /// *defensive* repetitions, counted so the voting overhead is visible;
    /// not itself a fault, so excluded from [`FaultCounters::total`]).
    pub predicate_votes: u64,
}

impl FaultCounters {
    /// Total injected fault events of any kind (votes are defense, not
    /// faults, and are not counted here).
    pub fn total(&self) -> u64 {
        self.adversarial_resolutions
            + self.biased_streams
            + self.corrupted_cells
            + self.dropped_processors
            + self.budget_exhaustions
            + self.predicate_flips
    }

    /// Fold another counter set into this one (used by the metrics absorbs).
    pub(crate) fn absorb(&mut self, other: &FaultCounters) {
        self.adversarial_resolutions += other.adversarial_resolutions;
        self.biased_streams += other.biased_streams;
        self.corrupted_cells += other.corrupted_cells;
        self.dropped_processors += other.dropped_processors;
        self.budget_exhaustions += other.budget_exhaustions;
        self.predicate_flips += other.predicate_flips;
        self.predicate_votes += other.predicate_votes;
    }
}

/// Live fault state of one machine: the plan plus the derived fault seed
/// and the budget latch. Boxed on [`crate::Machine`] so the disabled case
/// costs one pointer.
#[derive(Clone, Debug)]
pub(crate) struct FaultState {
    pub(crate) plan: FaultPlan,
    /// `mix64(machine_seed ^ mix64(salt))` — all event hashes derive from
    /// this, so reseeding the machine reseeds the fault schedule.
    pub(crate) fault_seed: u64,
    /// Budget meters trip once per machine.
    pub(crate) budget_tripped: bool,
}

impl FaultState {
    pub(crate) fn new(plan: FaultPlan, machine_seed: u64) -> Self {
        let fault_seed = mix64(machine_seed ^ mix64(plan.salt));
        Self {
            plan,
            fault_seed,
            budget_tripped: false,
        }
    }

    /// The state a child machine inherits: same plan, fault seed derived
    /// from the child's seed, fresh budget latch.
    pub(crate) fn child(&self, child_seed: u64) -> Self {
        Self::new(self.plan.clone(), child_seed)
    }

    /// The seed a noise context derives its lie schedule from: the fault
    /// seed pushed through the noise domain constant, so predicate noise
    /// draws a stream independent of the other four fault families and
    /// reseeds with the machine (the supervisor's retry decorrelation).
    pub(crate) fn noise_seed(&self) -> u64 {
        mix64(self.fault_seed ^ KIND_NOISE)
    }
}

/// The fault-event hash: a pure function of (fault seed, kind, step,
/// pid-or-cell), independent of execution order.
#[inline]
fn event(fault_seed: u64, kind: u64, step: u64, x: u64) -> u64 {
    mix64(fault_seed ^ kind ^ mix64(step.wrapping_mul(0xA24B_AED4_963E_E407) ^ mix64(x)))
}

/// Deterministic coin: top 53 bits of the hash against `rate` (the same
/// mapping as [`crate::rng::SplitMix64::next_f64`]).
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

/// Per-step fault decisions handed to the compute phase (precomputed once
/// per step so per-pid checks are two hashes at most).
#[derive(Clone, Copy, Debug)]
pub(crate) struct StepFaults {
    fault_seed: u64,
    bias: Option<RngBias>,
    /// Drop rate if this step is inside the drop window.
    drop_rate: Option<f64>,
}

impl StepFaults {
    pub(crate) fn for_step(state: &FaultState, step_no: u64) -> Self {
        let drop_rate = state
            .plan
            .drop_window
            .and_then(|w| (w.from_step <= step_no && step_no < w.until_step).then_some(w.rate));
        Self {
            fault_seed: state.fault_seed,
            bias: state.plan.rng_bias,
            drop_rate,
        }
    }

    /// The forced coin outcome of (step, pid)'s RNG stream, if biased.
    #[inline]
    pub(crate) fn bias_for(&self, step_no: u64, pid: u64) -> Option<bool> {
        let b = self.bias?;
        coin(event(self.fault_seed, KIND_BIAS, step_no, pid), b.rate).then_some(b.force)
    }

    /// Whether (step, pid)'s writes are dropped.
    #[inline]
    pub(crate) fn dropped(&self, step_no: u64, pid: u64) -> bool {
        match self.drop_rate {
            Some(rate) => coin(event(self.fault_seed, KIND_DROP, step_no, pid), rate),
            None => false,
        }
    }

    /// True when any per-pid decision is live this step (lets the machine
    /// skip per-pid hashing entirely for steps outside every window).
    #[inline]
    pub(crate) fn any_per_pid(&self) -> bool {
        self.bias.is_some() || self.drop_rate.is_some()
    }
}

/// Post-commit corruption draw for one step: `Some(cell_picker_hash)` when
/// the step corrupts a cell.
#[inline]
pub(crate) fn corruption_draw(state: &FaultState, step_no: u64) -> Option<u64> {
    let h = event(state.fault_seed, KIND_CORRUPT, step_no, 0);
    coin(h, state.plan.corrupt_rate).then(|| mix64(h))
}

/// Adversarial `Arbitrary` resolution: the extremal contender of a
/// conflicted run, max or min by a per-cell fault coin. Deterministic in
/// (fault seed, step, cell) and independent of the standard tiebreak.
#[inline]
#[expect(
    clippy::expect_used,
    reason = "commit runs are non-empty by construction"
)]
pub(crate) fn adversarial_pick(
    fault_seed: u64,
    step_no: u64,
    key: u64,
    run_vals: impl Iterator<Item = crate::Word> + Clone,
) -> crate::Word {
    let take_max = event(fault_seed, KIND_ADVERSARY, step_no, key) & 1 == 0;
    if take_max {
        run_vals.max().expect("non-empty run")
    } else {
        run_vals.min().expect("non-empty run")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_is_empty() {
        assert!(FaultPlan::default().is_empty());
        assert!(!FaultPlan {
            adversarial_writes: true,
            ..FaultPlan::default()
        }
        .is_empty());
    }

    #[test]
    fn all_zero_noise_plan_is_empty() {
        // A present-but-zero NoisePlan must not count as injection: the
        // chaos rig's "install only non-empty plans" rule then guarantees
        // byte-identity with the clean machine.
        assert!(NoisePlan::default().is_empty());
        assert!(FaultPlan {
            noise: Some(NoisePlan::default()),
            ..FaultPlan::default()
        }
        .is_empty());
        assert!(FaultPlan {
            noise: Some(NoisePlan {
                p: 0.0,
                mode: NoiseMode::Persistent,
            }),
            ..FaultPlan::default()
        }
        .is_empty());
        assert!(!FaultPlan {
            noise: Some(NoisePlan {
                p: 0.1,
                mode: NoiseMode::Fresh,
            }),
            ..FaultPlan::default()
        }
        .is_empty());
    }

    #[test]
    fn noise_seed_is_domain_separated_and_reseeds() {
        let plan = FaultPlan {
            noise: Some(NoisePlan {
                p: 0.1,
                mode: NoiseMode::Fresh,
            }),
            ..FaultPlan::default()
        };
        let a = FaultState::new(plan.clone(), 1);
        let b = FaultState::new(plan, 2);
        assert_ne!(a.noise_seed(), b.noise_seed(), "noise schedule must reseed");
        assert_ne!(
            a.noise_seed(),
            a.fault_seed,
            "noise stream must be separated from the raw fault seed"
        );
    }

    #[test]
    fn noise_counters_fold_and_total() {
        let mut a = FaultCounters {
            predicate_flips: 3,
            predicate_votes: 21,
            ..FaultCounters::default()
        };
        let b = FaultCounters {
            predicate_flips: 2,
            predicate_votes: 7,
            corrupted_cells: 1,
            ..FaultCounters::default()
        };
        a.absorb(&b);
        assert_eq!(a.predicate_flips, 5);
        assert_eq!(a.predicate_votes, 28);
        // flips are faults; votes are defense and stay out of total()
        assert_eq!(a.total(), 5 + 1);
    }

    #[test]
    fn event_hash_is_deterministic_and_kind_separated() {
        let a = event(1, KIND_BIAS, 5, 7);
        assert_eq!(a, event(1, KIND_BIAS, 5, 7));
        assert_ne!(a, event(1, KIND_DROP, 5, 7));
        assert_ne!(a, event(2, KIND_BIAS, 5, 7));
        assert_ne!(a, event(1, KIND_BIAS, 6, 7));
        assert_ne!(a, event(1, KIND_BIAS, 5, 8));
    }

    #[test]
    fn coin_rate_extremes_and_rough_frequency() {
        assert!(coin(0, 1.0));
        assert!(!coin(u64::MAX, 0.0));
        let hits = (0..10_000u64)
            .filter(|&i| coin(event(9, KIND_DROP, 0, i), 0.25))
            .count();
        let rate = hits as f64 / 10_000.0;
        assert!((rate - 0.25).abs() < 0.03, "rate = {rate}");
    }

    #[test]
    fn drop_window_bounds_are_respected() {
        let state = FaultState::new(
            FaultPlan {
                drop_window: Some(DropWindow {
                    from_step: 2,
                    until_step: 4,
                    rate: 1.0,
                }),
                ..FaultPlan::default()
            },
            42,
        );
        assert!(!StepFaults::for_step(&state, 1).dropped(1, 0));
        assert!(StepFaults::for_step(&state, 2).dropped(2, 0));
        assert!(StepFaults::for_step(&state, 3).dropped(3, 0));
        assert!(!StepFaults::for_step(&state, 4).dropped(4, 0));
    }

    #[test]
    fn reseeding_changes_the_schedule() {
        let plan = FaultPlan {
            rng_bias: Some(RngBias {
                rate: 0.5,
                force: false,
            }),
            ..FaultPlan::default()
        };
        let a = FaultState::new(plan.clone(), 1);
        let b = FaultState::new(plan, 2);
        let pattern = |s: &FaultState| -> Vec<bool> {
            let sf = StepFaults::for_step(s, 0);
            (0..64).map(|p| sf.bias_for(0, p).is_some()).collect()
        };
        assert_ne!(pattern(&a), pattern(&b), "fault schedule must reseed");
    }

    #[test]
    fn adversarial_pick_is_extremal_and_deterministic() {
        let vals = [3i64, -9, 7, 0];
        let v = adversarial_pick(11, 2, 99, vals.iter().copied());
        assert!(v == 7 || v == -9, "must be an extremal contender, got {v}");
        assert_eq!(v, adversarial_pick(11, 2, 99, vals.iter().copied()));
        // across cells both extremes occur
        let picks: std::collections::HashSet<i64> = (0..64)
            .map(|k| adversarial_pick(11, 2, k, vals.iter().copied()))
            .collect();
        assert_eq!(picks.len(), 2, "both max and min should appear");
    }
}
