//! Noise suite: noisy-predicate plans × the voted hull algorithms.
//!
//! The Goodrich–Sridhar noisy-primitive model: every orientation /
//! above-below / comparison test lies with probability `p`, and the
//! algorithm wins correctness back by majority-voting each test over
//! `2k+1` independent repetitions (k = Θ(log n), so the per-test error
//! `(4p(1−p))^k` beats the union bound over the Θ(n³)/Θ(n⁴) tests an
//! attempt evaluates). Asserted here, on pinned seeds across
//! p ∈ {0.02, 0.05, 0.1, 0.2} in both *fresh-flip* and *persistent-lie*
//! modes:
//!
//! * supervised noisy runs return a certified-correct hull or a typed
//!   `RunError` — never a silently wrong answer, never a panic;
//! * the *naive* single-shot variants demonstrably fail certification
//!   under the same plans (voting, not luck, buys correctness);
//! * the flip/vote `FaultCounters` are execution-mode-blind: identical
//!   on sequential and pooled chunk loops at any lane cap;
//! * an all-zero `NoisePlan` is byte-identical to no plan at all.
//!
//! Seeds are pinned; everything here is reproducible byte-for-byte.

use ipch_geom::gen3d::sphere_plus_interior;
use ipch_geom::generators::uniform_disk;
use ipch_geom::hull_chain::verify_upper_hull;
use ipch_geom::UpperHull;
use ipch_hull2d::parallel::noisy::{upper_hull_noisy_naive, upper_hull_noisy_supervised};
use ipch_hull3d::parallel::noisy::{upper_hull3_noisy_naive, upper_hull3_noisy_supervised};
use ipch_hull3d::verify_upper_hull3;
use ipch_pram::{FaultPlan, Machine, NoiseMode, NoisePlan, Outcome, Shm, SuperviseConfig, Tuning};
use proptest::prelude::*;

const RATES: [f64; 4] = [0.02, 0.05, 0.1, 0.2];
const MODES: [NoiseMode; 2] = [NoiseMode::Fresh, NoiseMode::Persistent];

fn noise_plan(p: f64, mode: NoiseMode) -> FaultPlan {
    FaultPlan {
        noise: Some(NoisePlan { p, mode }),
        ..FaultPlan::default()
    }
}

/// A machine with `plan` installed (empty plan = clean control run).
fn rig(seed: u64, plan: &FaultPlan) -> Machine {
    let mut m = Machine::new(seed);
    if !plan.is_empty() {
        m.install_faults(plan.clone());
    }
    m
}

#[test]
fn noisy_supervised_2d_is_correct_or_typed_at_every_rate() {
    // The headline contract, swept over the full (p, mode, seed) grid:
    // success means the *exact* hull (checked against the host oracle),
    // failure means a typed error. Nothing else is legal.
    let pts = uniform_disk(40, 91);
    let oracle = UpperHull::of(&pts);
    let mut successes = 0u32;
    for p in RATES {
        for mode in MODES {
            for seed in [3u64, 17, 88] {
                let mut m = rig(seed, &noise_plan(p, mode));
                match upper_hull_noisy_supervised(&mut m, &pts, &SuperviseConfig::default()) {
                    Ok(s) => {
                        verify_upper_hull(&pts, &s.value.hull).unwrap();
                        assert_eq!(
                            s.value.hull.vertices, oracle.vertices,
                            "p={p} mode={mode:?} seed={seed}: certified but not the hull"
                        );
                        successes += 1;
                    }
                    Err(e) => assert!(!e.code().is_empty(), "untyped error at p={p}"),
                }
                // Noise fired on every run at these rates.
                assert!(
                    m.metrics.faults.predicate_flips > 0,
                    "p={p} flipped nothing"
                );
            }
        }
    }
    // The supervisor is not allowed to be merely "typed-error at every
    // rate": voting must actually win most of the grid.
    assert!(successes >= 20, "only {successes}/24 grid points succeeded");
}

#[test]
fn noisy_supervised_3d_is_correct_or_typed_at_every_rate() {
    let pts = sphere_plus_interior(8, 18, 7);
    let mut successes = 0u32;
    for p in RATES {
        for mode in MODES {
            for seed in [5u64, 29] {
                let mut m = rig(seed, &noise_plan(p, mode));
                match upper_hull3_noisy_supervised(&mut m, &pts, &SuperviseConfig::default()) {
                    Ok(s) => {
                        verify_upper_hull3(&pts, &s.value.facets, false).unwrap();
                        successes += 1;
                    }
                    Err(e) => assert!(!e.code().is_empty(), "untyped error at p={p}"),
                }
                assert!(
                    m.metrics.faults.predicate_flips > 0,
                    "p={p} flipped nothing"
                );
            }
        }
    }
    assert!(successes >= 12, "only {successes}/16 grid points succeeded");
}

#[test]
fn noisy_naive_variants_fail_certification() {
    // Negative control: strip the voting and the same structure collapses.
    // At p = 0.1 a naive 2-D attempt evaluates Θ(n³) lying predicates and
    // a naive 3-D attempt Θ(n⁴); at least one pinned seed must produce an
    // uncertifiable output in each dimension — otherwise the voted
    // variants are winning by luck, not by design.
    let pts2 = uniform_disk(40, 91);
    let mut wrong2 = 0u32;
    for seed in [1u64, 2, 3, 4, 5] {
        let mut m = rig(seed, &noise_plan(0.1, NoiseMode::Fresh));
        let mut shm = Shm::new();
        let hull = upper_hull_noisy_naive(&mut m, &mut shm, &pts2);
        if verify_upper_hull(&pts2, &hull).is_err() {
            wrong2 += 1;
        }
    }
    assert!(wrong2 > 0, "naive 2-D survived 5 seeds at p=0.1");

    let pts3 = sphere_plus_interior(8, 18, 7);
    let mut wrong3 = 0u32;
    for seed in [1u64, 2, 3, 4, 5] {
        let mut m = rig(seed, &noise_plan(0.1, NoiseMode::Fresh));
        let mut shm = Shm::new();
        let out = upper_hull3_noisy_naive(&mut m, &mut shm, &pts3);
        if verify_upper_hull3(&pts3, &out.facets, false).is_err() {
            wrong3 += 1;
        }
    }
    assert!(wrong3 > 0, "naive 3-D survived 5 seeds at p=0.1");
}

#[test]
fn noise_counters_identical_across_kernel_backends() {
    // Flip decisions are pure hashes of (noise seed, op, operands, trial)
    // and the counters are order-independent sums, so the same seeded run
    // must inject and vote identically on the sequential chunk loops
    // (par threshold `usize::MAX`) and fanned out over the pool
    // (threshold 1) at a 2-lane cap and uncapped.
    let pts = uniform_disk(36, 55);
    let run = |threshold: usize, lanes: Option<usize>| {
        let mut m = rig(23, &noise_plan(0.05, NoiseMode::Fresh));
        m.tuning = Tuning {
            par_threshold: threshold,
            num_threads: lanes,
            ..Tuning::default()
        };
        let s = upper_hull_noisy_supervised(&mut m, &pts, &SuperviseConfig::default())
            .expect("supervised noisy run answers at p=0.05");
        verify_upper_hull(&pts, &s.value.hull).expect("verified hull");
        (
            s.outcome,
            s.value.hull.vertices.clone(),
            m.metrics.faults,
            m.metrics.supervisor,
            m.metrics.steps,
            m.metrics.work,
        )
    };
    let fused = run(usize::MAX, None);
    let par2 = run(1, Some(2));
    let par = run(1, None);
    assert_eq!(fused, par2, "Fused vs Parallel(2) diverged under noise");
    assert_eq!(
        fused, par,
        "Fused vs Parallel(uncapped) diverged under noise"
    );
    assert!(fused.2.predicate_flips > 0 && fused.2.predicate_votes > 0);
}

#[test]
fn noise_empty_plan_is_the_clean_machine() {
    // Control: a `NoisePlan { p: 0.0, .. }` plan is empty, installs
    // nothing, and the noisy entry point degenerates to the single-shot
    // oracle — byte-identical metrics to a machine with no plan at all.
    for mode in MODES {
        let plan = noise_plan(0.0, mode);
        assert!(plan.is_empty(), "p=0 noise plan must be empty");
    }
    let pts = uniform_disk(32, 12);
    let run = |plan: &FaultPlan| {
        let mut m = rig(41, plan);
        assert!(!m.faults_installed());
        let s = upper_hull_noisy_supervised(&mut m, &pts, &SuperviseConfig::default()).unwrap();
        assert_eq!(s.outcome, Outcome::FirstTry);
        let mm = &m.metrics;
        (
            s.value.hull.vertices.clone(),
            (mm.steps, mm.work, mm.faults, mm.supervisor),
        )
    };
    let with_empty = run(&noise_plan(0.0, NoiseMode::Persistent));
    let with_none = run(&FaultPlan::default());
    assert_eq!(with_empty.0, with_none.0);
    assert_eq!(with_empty.1, with_none.1, "empty noise plan left a trace");
    assert_eq!(with_none.1 .2.predicate_flips, 0);
    assert_eq!(with_none.1 .2.predicate_votes, 0);
}

proptest! {
    // Voted runs are expensive (Θ(n³ log n) per attempt); a handful of
    // random inputs across the full 6-point execution-mode matrix is the
    // budget-conscious sweet spot.
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// PR 6's execution-mode matrix, replayed for the voting layer: the
    /// majority-vote primitive must be bit-identical across
    /// sequential/parallel stepping × lane caps {1, 2, ∞} — same hull,
    /// same flip/vote counters, same accounting.
    #[test]
    fn vote_kernel_bit_identical_across_execution_modes(
        seed in 0u64..1000,
        n in 12usize..22,
    ) {
        let pts = uniform_disk(n, seed ^ 0xBEEF);
        let mut runs = Vec::new();
        for par_threshold in [usize::MAX, 0] {
            for lanes in [Some(1), Some(2), None] {
                let mut m = rig(seed, &noise_plan(0.05, NoiseMode::Fresh));
                m.tuning = Tuning {
                    par_threshold,
                    num_threads: lanes,
                    ..Tuning::default()
                };
                let r = upper_hull_noisy_supervised(&mut m, &pts, &SuperviseConfig::default())
                    .map(|s| (s.outcome, s.value.hull.vertices.clone()))
                    .map_err(|e| e.code());
                runs.push((
                    r,
                    m.metrics.faults,
                    m.metrics.steps,
                    m.metrics.work,
                ));
            }
        }
        for r in &runs[1..] {
            prop_assert_eq!(r, &runs[0], "execution mode changed a voted run");
        }
    }
}
