//! Chaos suite: fault plans × the supervised entry points the service
//! runs (2-D unsorted, divide-and-conquer and frugal hulls, 3-D unsorted
//! hull; the noisy tiers have their own suite, `noise.rs`).
//!
//! The supervisor's contract, asserted here for every one of them:
//! under *any* installed fault plan a supervised run returns either a
//! certificate-verified, oracle-correct value or a typed `RunError` —
//! never a silently wrong answer, never a panic. The plans:
//!
//! * **budget** — a step budget every randomized attempt must exceed: a
//!   deterministic function of the plan, so it defeats all retries and the
//!   run lands on the (unbudgeted) deterministic fallback → `FellBack`.
//! * **corrupt** — transient cell corruption at a moderate per-step rate:
//!   the fault schedule re-derives from each attempt child's seed, so
//!   failures decorrelate across retries; sweeping pinned seeds must show
//!   at least one `Retried(k)` recovery per algorithm.
//! * **bias** — the RNG fault that forces sampling/dart coins to a fixed
//!   outcome; at rate 1.0 it starves every randomized sample and drives
//!   the Las Vegas loops to their typed failure paths.
//!
//! Seeds are pinned; everything here is reproducible byte-for-byte.

use ipch_geom::generators::uniform_disk;
use ipch_geom::hull_chain::verify_upper_hull;
use ipch_geom::point::sorted_by_x;
use ipch_geom::UpperHull;
use ipch_hull2d::parallel::frugal::upper_hull_frugal_supervised;
use ipch_hull2d::parallel::supervised::{
    upper_hull_dac_supervised, upper_hull_unsorted_supervised,
};
use ipch_hull2d::parallel::unsorted::UnsortedParams;
use ipch_hull3d::parallel::supervised::upper_hull3_unsorted_supervised;
use ipch_hull3d::parallel::unsorted3d::Unsorted3Params;
use ipch_hull3d::verify_upper_hull3;
use ipch_pram::{Budget, FaultPlan, Machine, Outcome, RngBias, RunError, SuperviseConfig, Tuning};

/// A machine with `plan` installed (empty plan = clean control run).
fn rig(seed: u64, plan: &FaultPlan) -> Machine {
    let mut m = Machine::new(seed);
    if !plan.is_empty() {
        m.install_faults(plan.clone());
    }
    m
}

fn budget_plan(max_steps: u64) -> FaultPlan {
    FaultPlan {
        budget: Some(Budget {
            max_steps,
            max_work: u64::MAX,
        }),
        ..FaultPlan::default()
    }
}

fn corrupt_plan(rate: f64) -> FaultPlan {
    FaultPlan {
        corrupt_rate: rate,
        ..FaultPlan::default()
    }
}

fn bias_plan(rate: f64, force: bool) -> FaultPlan {
    FaultPlan {
        rng_bias: Some(RngBias { rate, force }),
        ..FaultPlan::default()
    }
}

/// What one chaos run produced, reduced to what the contract talks about.
#[derive(Debug, PartialEq, Eq)]
enum Verdict {
    /// Success whose value matched the oracle, with the supervision outcome.
    Correct(Outcome),
    /// A typed error — the permitted failure mode.
    Typed,
}

/// Run `f` across `seeds` under `plan`; panic (failing the test) if any
/// run panics or returns a wrong value. `f` must itself compare against
/// the oracle and return the outcome.
fn sweep(
    seeds: std::ops::Range<u64>,
    plan: &FaultPlan,
    mut f: impl FnMut(&mut Machine) -> Result<Outcome, RunError>,
) -> Vec<Verdict> {
    seeds
        .map(|seed| {
            let mut m = rig(seed, plan);
            match f(&mut m) {
                Ok(o) => Verdict::Correct(o),
                Err(_) => Verdict::Typed,
            }
        })
        .collect()
}

fn count_retried(vs: &[Verdict]) -> usize {
    vs.iter()
        .filter(|v| matches!(v, Verdict::Correct(Outcome::Retried(_))))
        .count()
}

// ---------------------------------------------------------------- hull2d

fn unsorted_run(m: &mut Machine, pts: &[ipch_geom::Point2]) -> Result<Outcome, RunError> {
    let s = upper_hull_unsorted_supervised(
        m,
        pts,
        &UnsortedParams::default(),
        &SuperviseConfig::default(),
    )?;
    assert_eq!(s.value.0.hull, UpperHull::of(pts), "silently wrong hull");
    verify_upper_hull(pts, &s.value.0.hull).unwrap();
    Ok(s.outcome)
}

#[test]
fn chaos_unsorted_budget_and_corruption() {
    let pts = uniform_disk(800, 23);
    let run = |m: &mut Machine| unsorted_run(m, &pts);
    let vs = sweep(0..6, &budget_plan(4), run);
    assert!(
        vs.iter()
            .all(|v| matches!(v, Verdict::Correct(Outcome::FellBack))),
        "{vs:?}"
    );
    // The unsorted hull absorbs rate-0.01 corruption (a corrupted id or
    // problem number is dropped, not followed), so it takes 0.05 for an
    // attempt's certificate to reject and the retry to recover.
    let vs = sweep(0..24, &corrupt_plan(0.05), run);
    assert!(
        count_retried(&vs) > 0,
        "no Retried recovery in sweep: {vs:?}"
    );
}

#[test]
fn chaos_dac_budget_and_corruption() {
    let pts = sorted_by_x(&uniform_disk(700, 24));
    let run = |m: &mut Machine| -> Result<Outcome, RunError> {
        let s = upper_hull_dac_supervised(m, &pts, true, &SuperviseConfig::default())?;
        assert_eq!(s.value.hull, UpperHull::of(&pts), "silently wrong hull");
        Ok(s.outcome)
    };
    let vs = sweep(0..6, &budget_plan(4), run);
    assert!(
        vs.iter()
            .all(|v| matches!(v, Verdict::Correct(Outcome::FellBack))),
        "{vs:?}"
    );
    let vs = sweep(0..24, &corrupt_plan(0.5), run);
    assert!(
        count_retried(&vs) > 0,
        "no Retried recovery in sweep: {vs:?}"
    );
}

#[test]
fn chaos_hull2d_bias_starves_sampling_but_cannot_force_a_wrong_hull() {
    // rate-1.0 forced-false coins kill every dart/sample attempt
    // deterministically; the algorithm's own sweeping plus supervision
    // must still deliver a correct hull or a typed error.
    let pts = uniform_disk(600, 25);
    let vs = sweep(0..8, &bias_plan(1.0, false), |m| unsorted_run(m, &pts));
    for v in &vs {
        assert!(
            matches!(v, Verdict::Correct(_) | Verdict::Typed),
            "contract violated: {v:?}"
        );
    }
}

// ---------------------------------------------------------------- hull3d

fn hull3_run(m: &mut Machine, pts: &[ipch_geom::Point3]) -> Result<Outcome, RunError> {
    let s = upper_hull3_unsorted_supervised(
        m,
        pts,
        &Unsorted3Params::default(),
        &SuperviseConfig::default(),
    )?;
    verify_upper_hull3(pts, &s.value.0.facets, false).expect("silently wrong facet set");
    Ok(s.outcome)
}

#[test]
fn chaos_hull3d_budget_falls_back() {
    let pts = ipch_geom::gen3d::sphere_plus_interior(14, 260, 26);
    let vs = sweep(0..6, &budget_plan(4), |m| hull3_run(m, &pts));
    assert!(
        vs.iter()
            .all(|v| matches!(v, Verdict::Correct(Outcome::FellBack))),
        "{vs:?}"
    );
}

#[test]
fn chaos_hull3d_corruption_retries_and_never_lies() {
    let pts = ipch_geom::gen3d::sphere_plus_interior(12, 220, 27);
    let vs = sweep(0..24, &corrupt_plan(0.01), |m| hull3_run(m, &pts));
    assert!(
        count_retried(&vs) > 0,
        "no Retried recovery in sweep: {vs:?}"
    );
}

// --------------------------------------------------------------- frugal
//
// The bounded-workspace rows add a fourth plan family: **workspace** — a
// cell budget on the attempt's `Shm` that trips mid-run when the scratch
// parameter overshoots. The contract gains a ledger clause: the
// supervisor's `workspace_aborts` counter equals exactly the number of
// `WorkspaceExceeded` attempt errors the run recorded (and is zero when
// no budget is installed).

/// Supervised frugal hull against the oracle, with the workspace ledger
/// balanced on every Ok path.
fn frugal_hull_run(
    m: &mut Machine,
    pts: &[ipch_geom::Point2],
    scratch: usize,
    budget: Option<u64>,
) -> Result<Outcome, RunError> {
    let s = upper_hull_frugal_supervised(m, pts, scratch, budget, &SuperviseConfig::default())?;
    assert_eq!(s.value.hull, UpperHull::of(pts), "silently wrong hull");
    verify_upper_hull(pts, &s.value.hull).unwrap();
    let exceeded = s
        .errors
        .iter()
        .filter(|e| matches!(e, RunError::WorkspaceExceeded { .. }))
        .count() as u64;
    assert_eq!(
        m.metrics.supervisor.workspace_aborts, exceeded,
        "workspace ledger out of balance"
    );
    Ok(s.outcome)
}

#[test]
fn chaos_frugal_workspace_trip_escalates_scratch_then_answers() {
    // scratch 32 under an 8-cell budget: attempts walk 32 → 16 → 8, the
    // last fits, and every seed recovers via Retried — a trip costs time,
    // never correctness.
    let pts = uniform_disk(300, 40);
    let vs = sweep(0..6, &FaultPlan::default(), |m| {
        frugal_hull_run(m, &pts, 32, Some(8))
    });
    assert!(
        vs.iter()
            .all(|v| matches!(v, Verdict::Correct(Outcome::Retried(_)))),
        "halving schedule must recover in-attempt: {vs:?}"
    );
}

#[test]
fn chaos_frugal_impossible_budget_falls_back() {
    // A zero-cell budget trips even scratch 1; the host fallback owns no
    // shared memory at all and answers exactly.
    let pts = uniform_disk(240, 41);
    let vs = sweep(0..6, &FaultPlan::default(), |m| {
        frugal_hull_run(m, &pts, 4, Some(0))
    });
    assert!(
        vs.iter()
            .all(|v| matches!(v, Verdict::Correct(Outcome::FellBack))),
        "{vs:?}"
    );
}

#[test]
fn chaos_frugal_corruption_under_budget_retries_and_never_lies() {
    // Cell corruption lands in the `best` scratch cells → a wrong wrap
    // winner → a certificate failure, never a silently wrong hull. The
    // roomy budget never trips, so the ledger must stay at zero aborts
    // while Verify-driven retries recover.
    let pts = uniform_disk(260, 42);
    let vs = sweep(0..24, &corrupt_plan(0.5), |m| {
        let o = frugal_hull_run(m, &pts, 8, Some(64))?;
        assert_eq!(
            m.metrics.supervisor.workspace_aborts, 0,
            "budget never trips"
        );
        Ok(o)
    });
    assert!(
        count_retried(&vs) > 0,
        "no Retried recovery in sweep: {vs:?}"
    );
}

#[test]
fn chaos_frugal_trip_and_corruption_compose() {
    // Both fault axes at once: the first attempts trip the budget, the
    // fitting attempt may still lose to corruption, and the (chaos-immune,
    // host-side) fallback ends the chain. Any mix of WorkspaceExceeded and
    // Verify errors is fine; a wrong hull or an unbalanced ledger is not.
    let pts = uniform_disk(220, 43);
    let vs = sweep(0..12, &corrupt_plan(0.1), |m| {
        frugal_hull_run(m, &pts, 32, Some(8))
    });
    for v in &vs {
        assert!(
            matches!(v, Verdict::Correct(_) | Verdict::Typed),
            "contract violated: {v:?}"
        );
    }
}

// ------------------------------------------------------- cross-cutting

#[test]
fn chaos_metrics_count_what_happened() {
    // One budget-defeated unsorted run: 3 budget-voided attempts, 1 fallback.
    let pts = uniform_disk(400, 33);
    let mut m = rig(7, &budget_plan(3));
    let s = upper_hull_unsorted_supervised(
        &mut m,
        &pts,
        &UnsortedParams::default(),
        &SuperviseConfig::default(),
    )
    .expect("fallback answers");
    assert_eq!(s.outcome, Outcome::FellBack);
    assert_eq!(m.metrics.supervisor.runs, 1);
    assert_eq!(m.metrics.supervisor.attempts, 3);
    assert_eq!(m.metrics.supervisor.retries, 2);
    assert_eq!(m.metrics.supervisor.fallbacks, 1);
    assert_eq!(m.metrics.supervisor.budget_aborts, 3);
    assert!(m.metrics.faults.budget_exhaustions >= 3);
    assert!(s
        .errors
        .iter()
        .all(|e| matches!(e, RunError::BudgetExhausted { .. })));
}

#[test]
fn chaos_fault_counters_identical_under_parallel_backend() {
    // Fault injection must be execution-mode-blind: the same seeded run
    // on the sequential chunk loops (par threshold `usize::MAX`) and
    // fanned out over the pool (threshold 1, at a 2-lane cap and
    // uncapped) injects the *same* faults —
    // identical `FaultCounters`, supervisor stats, and PRAM accounting —
    // and produces the same verified hull. The fault schedule derives from
    // (seed, step, pid), never from host threads or chunk scheduling.
    let pts = uniform_disk(900, 36);
    let run = |threshold: usize, lanes: Option<usize>| {
        let mut m = rig(23, &corrupt_plan(0.003));
        m.tuning = Tuning {
            par_threshold: threshold,
            num_threads: lanes,
            ..Tuning::default()
        };
        let s = upper_hull_unsorted_supervised(
            &mut m,
            &pts,
            &UnsortedParams::default(),
            &SuperviseConfig::default(),
        )
        .expect("supervised run answers under moderate corruption");
        verify_upper_hull(&pts, &s.value.0.hull).expect("verified hull");
        (
            s.outcome,
            s.value.0.hull.vertices.clone(),
            m.metrics.faults,
            m.metrics.supervisor,
            m.metrics.steps,
            m.metrics.work,
            m.metrics.writes_buffered,
            m.metrics.writes_committed,
            m.metrics.write_conflicts,
        )
    };
    let fused = run(usize::MAX, None);
    assert!(
        fused.2.total() > 0,
        "the corruption plan must actually inject faults"
    );
    let par2 = run(1, Some(2));
    let par = run(1, None);
    assert_eq!(fused, par2, "2-lane parallel backend diverged under faults");
    assert_eq!(
        fused, par,
        "uncapped parallel backend diverged under faults"
    );
}

#[test]
fn chaos_empty_plan_is_the_clean_machine() {
    // Control: the supervised entry points under an empty plan behave as
    // with no plan at all — FirstTry, no fault counters.
    let pts = uniform_disk(300, 34);
    let mut m = rig(11, &FaultPlan::default());
    assert!(!m.faults_installed());
    let s = upper_hull_unsorted_supervised(
        &mut m,
        &pts,
        &UnsortedParams::default(),
        &SuperviseConfig::default(),
    )
    .unwrap();
    assert_eq!(s.outcome, Outcome::FirstTry);
    assert_eq!(m.metrics.faults.total(), 0);
}
