//! The random-sample procedure (paper §3.1, Lemma 3.1).
//!
//! *An in-place random sample of size Θ(k), from an array of size n, can be
//! found in constant time with n processors on a randomized CRCW PRAM,
//! using work space of size Θ(k). It is uniformly random with probability
//! ≥ 1 − 2(e/2)^{−k}.*
//!
//! Procedure (verbatim from the paper, executed step-for-step on the
//! simulator):
//!
//! 1. Each processor decides whether it will attempt a write, with
//!    probability 2k/m.
//! 2. Each attempter chooses a random location in the 16k workspace and
//!    attempts to write its id there if it is unoccupied.
//! 3. Every successful writer checks whether any other processor attempted
//!    the same location — the unsuccessful ones re-attempt their write,
//!    poisoning the cell.
//! 4. Writers whose location suffered no collision claim it (the paper has
//!    them write their point's coordinates; we write the element id — the
//!    coordinates stay in the read-only input, which is the in-place
//!    discipline). Collided attempters repeat steps 2–4, up to `d` rounds.
//!
//! The procedure never re-orders the input and the sample lives entirely
//! in the Θ(k) workspace.
//!
//! Only step 1 runs over every processor. Steps 2–4 run over the pid set
//! of the attempters not yet placed, read back after step 1 and after
//! each round, so a round's work is 4 per pending attempter (≈ 2k at the
//! default rate) instead of 4 per processor. Each processor's coins are
//! drawn from a stream keyed by (step, pid), and a round whose pid set is
//! empty still takes its steps, so every draw, claim and step count is
//! what the all-processor procedure gives.

use ipch_pram::{
    ArrayId, Machine, ModelClass, ModelContract, Pids, RaceExpectation, Shm, WritePolicy, EMPTY,
};

/// Poison marker for a contested workspace cell (any non-`EMPTY` constant:
/// step 4 only tests occupancy, and a constant keeps the concurrent poison
/// writes a benign same-value race).
const POISON: i64 = 1;

/// Concurrency contract: Arbitrary-CRCW in the paper; the claim contest
/// resolves by Priority (any winner is valid — contested cells get
/// poisoned), so every race is a deterministic function of the coin flips.
pub const SAMPLE_CONTRACT: ModelContract = ModelContract {
    algorithm: "inplace/sample",
    class: ModelClass::Crcw,
    races: RaceExpectation::Deterministic,
};

/// Outcome of one run of the random-sample procedure.
#[derive(Clone, Debug)]
pub struct SampleOutcome {
    /// The sampled element ids (order = workspace slot order).
    pub sample: Vec<usize>,
    /// Workspace array of size 16k: claimed slots hold element ids.
    pub workspace: ArrayId,
    /// How many processors decided to attempt (step 1).
    pub attempted: usize,
    /// How many attempters were placed (= `sample.len()`).
    pub placed: usize,
}

impl SampleOutcome {
    /// Lemma 3.1's size guarantee: `k/2 ≤ |sample| ≤ 4k`.
    pub fn size_in_bounds(&self, k: usize) -> bool {
        2 * self.sample.len() >= k && self.sample.len() <= 4 * k
    }
}

/// Run the random-sample procedure over the elements in `active` (element
/// ids double as processor ids). Targets a sample of size Θ(k) in a 16k
/// workspace with at most `attempts` retry rounds, using the paper's
/// default attempt probability 2k/m. Step 1's coin registers are indexed
/// by rank in `active` ([`ipch_pram::Ctx::rank`]) and the attempters'
/// registers by rank among the attempters, so every array is sized by
/// `active` or by k, never by the input.
///
/// # Examples
///
/// ```
/// use ipch_inplace::sample::random_sample;
/// use ipch_pram::{Machine, Shm};
///
/// let mut m = Machine::new(3);
/// let mut shm = Shm::new();
/// let active: Vec<usize> = (0..500).filter(|i| i % 5 == 0).collect();
/// let out = random_sample(&mut m, &mut shm, &active, 8, 4);
/// assert!(out.size_in_bounds(8));                 // k/2 ≤ |S| ≤ 4k
/// assert!(out.sample.iter().all(|e| e % 5 == 0)); // subset of `active`
/// ```
pub fn random_sample(
    m: &mut Machine,
    shm: &mut Shm,
    active: &[usize],
    k: usize,
    attempts: usize,
) -> SampleOutcome {
    random_sample_with_p(m, shm, active, k, attempts, None)
}

/// [`random_sample`] with the step-1 attempt probability overridden by
/// `p_override` (the escalating rate p_j of the §3.3 bridge rounds).
pub fn random_sample_with_p(
    m: &mut Machine,
    shm: &mut Shm,
    active: &[usize],
    k: usize,
    attempts: usize,
    p_override: Option<f64>,
) -> SampleOutcome {
    m.declare_contract(&SAMPLE_CONTRACT);
    assert!(k >= 1);
    let mcount = active.len();
    let ws_len = 16 * k;
    let workspace = shm.alloc("sample.claim", ws_len, EMPTY);
    if mcount == 0 {
        return SampleOutcome {
            sample: vec![],
            workspace,
            attempted: 0,
            placed: 0,
        };
    }
    let p_attempt = p_override
        .unwrap_or(2.0 * k as f64 / mcount as f64)
        .min(1.0);

    // Registers scoped so iterated samples (votes, bridge rounds) recycle
    // the same slots. The claimed workspace itself is the caller's and
    // stays unscoped.
    let attempted = shm.scope(|shm| {
        // Step 1: coin flips, one per processor of `active` into its
        // rank-indexed register (per-processor RNG — a generic step).
        let attempt = shm.alloc("sample.attempt", mcount, 0);
        m.step(shm, active, |ctx| {
            let r = ctx.rank();
            if ctx.rng().bernoulli(p_attempt) {
                ctx.write(attempt, r, 1);
            }
        });
        // The attempters, read back in rank order (addressing, as a
        // compaction's read-back). Only they act in steps 2–4, so those
        // steps run over them alone; their private registers are indexed
        // by attempter rank a.
        let attempters: Vec<usize> = active
            .iter()
            .zip(shm.slice(attempt))
            .filter_map(|(&pid, &flag)| (flag != 0).then_some(pid))
            .collect();
        let na = attempters.len();
        let placed = shm.alloc("sample.placed", na, 0);
        let try_slot = shm.alloc("sample.try", na, EMPTY);
        // The attempter ranks still unplaced (`pending`) and their pids.
        // RNG streams are keyed by (step, pid) and an empty pid set still
        // takes its step, so each round draws what it would draw over all
        // of `active`, where the idle processors write nothing.
        let mut pending: Vec<usize> = (0..na).collect();
        let mut pids = attempters.clone();
        // A slot register outside the workspace (a register a fault plan
        // left unwritten or corrupted) leaves its processor idle.
        let slot_of = |v: i64| usize::try_from(v).ok().filter(|&s| s < ws_len);

        for _round in 0..attempts {
            // this round's collision-protocol cells, recycled across rounds
            shm.scope(|shm| {
                let first = shm.alloc("sample.first", ws_len, EMPTY);
                let second = shm.alloc("sample.second", ws_len, EMPTY);
                let pending = &pending;

                // Step 2a: pick a slot (per-processor RNG — generic step).
                m.step(shm, Pids::List(&pids), |ctx| {
                    let a = pending[ctx.rank()];
                    let s = ctx.rng().next_below(ws_len as u64) as i64;
                    ctx.write(try_slot, a, s);
                });
                // Step 2b: attempt the write if the slot is unoccupied.
                //
                // The paper runs this on an Arbitrary-CRCW machine; any
                // winner is correct, because a contested `first` cell is
                // poisoned in step 3 and claimed by nobody. We resolve the
                // contest by Priority instead: the committed memory is then
                // a deterministic function of the coin flips, not of the
                // simulator's tiebreak seed (the analyzer classifies the
                // race Deterministic rather than SeedDependent, and report
                // equality across execution modes is exact).
                m.kernel_scatter_with_policy(
                    shm,
                    Pids::List(&pids),
                    WritePolicy::PriorityMin,
                    |t, pid| {
                        let s = slot_of(t.read(try_slot, pending[t.rank()]))?;
                        (t.read(workspace, s) == EMPTY).then_some((first, s, pid as i64))
                    },
                );
                // Step 3: losers re-attempt, poisoning the cell. The poison
                // value is a constant — every poisoner writes the same
                // thing (a benign race), and step 4 only tests occupancy.
                m.kernel_scatter(shm, Pids::List(&pids), |t, pid| {
                    let s = slot_of(t.read(try_slot, pending[t.rank()]))?;
                    (t.read(workspace, s) == EMPTY && t.read(first, s) != pid as i64)
                        .then_some((second, s, POISON))
                });
                // Step 4: collision-free winners claim their slot (writes two
                // arrays per processor — not a kernel shape, stays generic).
                m.step(shm, Pids::List(&pids), |ctx| {
                    let (pid, a) = (ctx.pid, pending[ctx.rank()]);
                    let Some(s) = slot_of(ctx.read(try_slot, a)) else {
                        return;
                    };
                    if ctx.read(first, s) == pid as i64 && ctx.read(second, s) == EMPTY {
                        ctx.write(workspace, s, pid as i64);
                        ctx.write(placed, a, 1);
                    }
                });
            });
            // The placed attempters leave the pid set (read back, as above).
            let placed_now = shm.slice(placed);
            pending.retain(|&a| placed_now[a] == 0);
            pids = pending.iter().map(|&a| attempters[a]).collect();
        }
        attempters.len()
    });

    let sample: Vec<usize> = shm
        .slice(workspace)
        .iter()
        .filter(|&&x| x != EMPTY)
        .map(|&x| x as usize)
        .collect();
    let placed_count = sample.len();
    SampleOutcome {
        sample,
        workspace,
        attempted,
        placed: placed_count,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipch_pram::Ctx;

    fn run(mcount: usize, k: usize, seed: u64) -> (SampleOutcome, Machine) {
        let mut m = Machine::new(seed);
        let mut shm = Shm::new();
        let active: Vec<usize> = (0..mcount).collect();
        let out = random_sample(&mut m, &mut shm, &active, k, 4);
        (out, m)
    }

    #[test]
    fn sample_size_theta_k() {
        for seed in 0..10 {
            let (out, _) = run(10_000, 32, seed);
            assert!(
                out.size_in_bounds(32),
                "seed {seed}: size {}",
                out.sample.len()
            );
        }
    }

    #[test]
    fn sample_elements_valid_and_distinct() {
        let (out, _) = run(5_000, 16, 3);
        let mut seen = std::collections::HashSet::new();
        for &e in &out.sample {
            assert!(e < 5_000);
            assert!(seen.insert(e), "element sampled twice");
        }
    }

    #[test]
    fn constant_time() {
        let (_, m1) = run(1_000, 8, 1);
        let (_, m2) = run(100_000, 8, 1);
        assert_eq!(
            m1.metrics.steps, m2.metrics.steps,
            "steps must not depend on m"
        );
        assert_eq!(m1.metrics.steps, 1 + 4 * 4);
    }

    #[test]
    fn scattered_active_set() {
        let mut m = Machine::new(9);
        let mut shm = Shm::new();
        let active: Vec<usize> = (0..20_000).filter(|i| i % 7 == 3).collect();
        let out = random_sample(&mut m, &mut shm, &active, 16, 4);
        for &e in &out.sample {
            assert_eq!(e % 7, 3, "sampled element not in the active subset");
        }
        assert!(out.size_in_bounds(16));
    }

    #[test]
    fn tiny_populations() {
        // m < k: everyone attempts (p = 1) and can be placed
        let (out, _) = run(3, 8, 5);
        assert_eq!(out.attempted, 3);
        assert_eq!(out.sample.len(), 3);
        let (out1, _) = run(1, 1, 6);
        assert_eq!(out1.sample, vec![0]);
        let (out0, _) = run(0, 4, 7);
        assert!(out0.sample.is_empty());
    }

    #[test]
    fn uniformity_chi_squared() {
        // Each element should be equally likely to appear in the sample.
        let mcount = 200;
        let k = 10;
        let trials = 2000;
        let mut counts = vec![0u64; mcount];
        for seed in 0..trials {
            let (out, _) = run(mcount, k, seed as u64 + 1000);
            for &e in &out.sample {
                counts[e] += 1;
            }
        }
        let total: u64 = counts.iter().sum();
        let expect = total as f64 / mcount as f64;
        let chi2: f64 = counts
            .iter()
            .map(|&c| {
                let d = c as f64 - expect;
                d * d / expect
            })
            .sum();
        // 199 dof; 99.9% critical ≈ 272. Allow generous slack.
        assert!(chi2 < 320.0, "chi2 = {chi2}, expect/elem = {expect}");
    }

    /// Regression for the claim-step fix: the step-2b contest runs under
    /// Priority, so the analyzer must see contested cells as Deterministic
    /// races (never SeedDependent) and the declared contract must hold.
    #[test]
    fn analyzer_pins_priority_claim() {
        use ipch_pram::AnalyzeConfig;
        let mut contested = 0;
        for seed in 0..8 {
            let mut m = Machine::new(seed);
            m.enable_analysis(AnalyzeConfig::default());
            let mut shm = Shm::new();
            shm.enable_shadow(true);
            let active: Vec<usize> = (0..10_000).collect();
            random_sample(&mut m, &mut shm, &active, 32, 4);
            let r = m.analysis_report().unwrap();
            assert_eq!(r.contract.unwrap().algorithm, "inplace/sample");
            assert!(r.is_clean(), "seed {seed}:\n{}", r.render());
            assert_eq!(r.seed_dependent_races, 0, "seed {seed}");
            assert_eq!(r.unconfirmed_arbitrary_races, 0, "seed {seed}");
            contested += r.deterministic_races;
        }
        // ~64 attempts into 512 slots: contests are statistically certain.
        assert!(contested > 0, "no claim contest across any seed");
    }

    /// The sample as it ran before steps 2–4 were restricted to the
    /// unplaced attempters: every processor of `active` runs every step
    /// and decides from its rank-indexed registers whether it acts. Its
    /// slot check is the only change (without it a fault plan that leaves
    /// a register unwritten panics the oracle). Returns the outcome's
    /// sample and attempt count, and each round's unplaced attempters.
    fn all_processor_sample(
        m: &mut Machine,
        shm: &mut Shm,
        active: &[usize],
        k: usize,
        attempts: usize,
    ) -> (Vec<usize>, usize, Vec<usize>) {
        let mcount = active.len();
        let ws_len = 16 * k;
        let workspace = shm.alloc("oracle.claim", ws_len, EMPTY);
        let p_attempt = (2.0 * k as f64 / mcount as f64).min(1.0);
        let attempt = shm.alloc("oracle.attempt", mcount, 0);
        let placed = shm.alloc("oracle.placed", mcount, 0);
        let try_slot = shm.alloc("oracle.try", mcount, EMPTY);
        let slot_of = |v: i64| usize::try_from(v).ok().filter(|&s| s < ws_len);
        m.step(shm, active, |ctx| {
            let r = ctx.rank();
            if ctx.rng().bernoulli(p_attempt) {
                ctx.write(attempt, r, 1);
            }
        });
        let pending = |shm: &Shm| {
            (0..mcount)
                .filter(|&r| shm.get(attempt, r) != 0 && shm.get(placed, r) == 0)
                .count()
        };
        let mut per_round = Vec::new();
        for _ in 0..attempts {
            per_round.push(pending(shm));
            let first = shm.alloc("oracle.first", ws_len, EMPTY);
            let second = shm.alloc("oracle.second", ws_len, EMPTY);
            let acts = |ctx: &Ctx| {
                let r = ctx.rank();
                ctx.read(attempt, r) != 0 && ctx.read(placed, r) == 0
            };
            m.step(shm, active, |ctx| {
                if acts(ctx) {
                    let s = ctx.rng().next_below(ws_len as u64) as i64;
                    ctx.write(try_slot, ctx.rank(), s);
                }
            });
            m.step_with_policy(shm, active, WritePolicy::PriorityMin, |ctx| {
                let Some(s) = slot_of(ctx.read(try_slot, ctx.rank())) else {
                    return;
                };
                if acts(ctx) && ctx.read(workspace, s) == EMPTY {
                    ctx.write(first, s, ctx.pid as i64);
                }
            });
            m.step(shm, active, |ctx| {
                let Some(s) = slot_of(ctx.read(try_slot, ctx.rank())) else {
                    return;
                };
                if acts(ctx)
                    && ctx.read(workspace, s) == EMPTY
                    && ctx.read(first, s) != ctx.pid as i64
                {
                    ctx.write(second, s, POISON);
                }
            });
            m.step(shm, active, |ctx| {
                let Some(s) = slot_of(ctx.read(try_slot, ctx.rank())) else {
                    return;
                };
                let pid = ctx.pid as i64;
                if acts(ctx) && ctx.read(first, s) == pid && ctx.read(second, s) == EMPTY {
                    ctx.write(workspace, s, pid);
                    ctx.write(placed, ctx.rank(), 1);
                }
            });
        }
        let sample = shm
            .slice(workspace)
            .iter()
            .filter(|&&x| x != EMPTY)
            .map(|&x| x as usize)
            .collect();
        let attempted = shm.slice(attempt).iter().filter(|&&x| x != 0).count();
        (sample, attempted, per_round)
    }

    /// Running steps 2–4 over the unplaced attempters alone changes no
    /// draw: the sample, the attempt count and the step count equal the
    /// all-processor oracle's, with and without dropped processors and
    /// biased coins, and the work is m plus 4 per pending attempter per
    /// round.
    #[test]
    fn thrower_steps_match_the_all_processor_sample() {
        use ipch_pram::{DropWindow, FaultPlan, RngBias};
        let plans = [
            FaultPlan::default(),
            FaultPlan {
                drop_window: Some(DropWindow {
                    from_step: 0,
                    until_step: u64::MAX,
                    rate: 0.2,
                }),
                ..FaultPlan::default()
            },
            FaultPlan {
                rng_bias: Some(RngBias {
                    rate: 0.3,
                    force: true,
                }),
                ..FaultPlan::default()
            },
        ];
        let mut placed_after_round_one = 0;
        for seed in 0..12u64 {
            for plan in &plans {
                for (mcount, k) in [(40usize, 8usize), (3000, 16)] {
                    let active: Vec<usize> = (0..mcount).map(|i| 3 * i + 1).collect();
                    let machine = || {
                        let mut m = Machine::new(seed);
                        if !plan.is_empty() {
                            m.install_faults(plan.clone());
                        }
                        m
                    };
                    let (mut m, mut shm) = (machine(), Shm::new());
                    let out = random_sample(&mut m, &mut shm, &active, k, 4);
                    let (mut mo, mut so) = (machine(), Shm::new());
                    let (sample, attempted, pending) =
                        all_processor_sample(&mut mo, &mut so, &active, k, 4);
                    let case = format!("seed {seed}, m {mcount}, plan {plan:?}");
                    assert_eq!(out.sample, sample, "{case}");
                    assert_eq!(out.attempted, attempted, "{case}");
                    assert_eq!(m.metrics.steps, mo.metrics.steps, "{case}");
                    let work = mcount + 4 * pending.iter().sum::<usize>();
                    assert_eq!(m.metrics.work, work as u64, "{case}");
                    placed_after_round_one += usize::from(pending[1] < pending[0]);
                }
            }
        }
        assert!(placed_after_round_one > 0, "the pid set never shrank");
    }

    /// A slot register that step 2a never wrote (its processor was
    /// dropped) holds `EMPTY`, outside the workspace: that processor idles
    /// for the round instead of reading index 2⁶⁴ − 1, and throws again in
    /// the next round.
    #[test]
    fn unwritten_slot_register_leaves_the_thrower_idle() {
        use ipch_pram::{DropWindow, FaultPlan};
        let active: Vec<usize> = (0..1000).collect();
        for (attempts, placed) in [(1, 0..=0), (4, 8..=64)] {
            let mut m = Machine::new(5);
            // step 1 is round 1's step 2a
            m.install_faults(FaultPlan {
                drop_window: Some(DropWindow {
                    from_step: 1,
                    until_step: 2,
                    rate: 1.0,
                }),
                ..FaultPlan::default()
            });
            let mut shm = Shm::new();
            let out = random_sample(&mut m, &mut shm, &active, 16, attempts);
            assert!(out.attempted > 0);
            assert_eq!(m.metrics.faults.dropped_processors, out.attempted as u64);
            assert!(placed.contains(&out.sample.len()), "{}", out.sample.len());
        }
    }

    #[test]
    fn workspace_is_theta_k() {
        let mut m = Machine::new(2);
        let mut shm = Shm::new();
        let active: Vec<usize> = (0..50_000).collect();
        let out = random_sample(&mut m, &mut shm, &active, 25, 4);
        assert_eq!(shm.len(out.workspace), 16 * 25);
    }
}
