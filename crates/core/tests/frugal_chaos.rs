//! Chaos rows and backend-invariance properties for the bounded-workspace
//! ("frugal") tier.
//!
//! Two guarantees under test:
//!
//! 1. **Chaos rows** — crossing workspace budgets with injected fault
//!    plans, a supervised frugal run ends in a certified-correct hull or a
//!    typed error, never a wrong answer, and the supervisor's workspace
//!    ledger balances: `workspace_aborts` counts exactly the
//!    [`RunError::WorkspaceExceeded`] attempts, and is zero whenever no
//!    budget is installed.
//! 2. **Backend invariance** — `Metrics::peak_live_cells` (and the
//!    workspace-abort count, and the hull itself) is bit-identical across
//!    sequential chunk loops (threshold `usize::MAX`) and pooled ones
//!    (threshold 1) at every worker cap {1, 2, ∞}: workspace accounting
//!    is part of the deterministic observable surface, same discipline as
//!    steps/work.

use proptest::collection::vec as pvec;
use proptest::prelude::*;

use ipch_geom::hull_chain::verify_upper_hull;
use ipch_geom::{Point2, UpperHull};
use ipch_hull2d::parallel::frugal::upper_hull_frugal_supervised;
use ipch_pram::{FaultPlan, Machine, RunError, SuperviseConfig, Tuning};

/// One chaos-suite row: a scratch request crossed with a workspace budget
/// and an injected fault plan.
struct Row {
    name: &'static str,
    scratch: usize,
    budget: Option<u64>,
    chaos: FaultPlan,
}

fn rows() -> Vec<Row> {
    vec![
        Row {
            name: "tight-budget-clean",
            scratch: 32,
            budget: Some(8),
            chaos: FaultPlan::default(),
        },
        Row {
            name: "impossible-budget-clean",
            scratch: 4,
            budget: Some(0),
            chaos: FaultPlan::default(),
        },
        Row {
            name: "tight-budget-corrupt",
            scratch: 32,
            budget: Some(8),
            chaos: FaultPlan {
                corrupt_rate: 0.5,
                ..FaultPlan::default()
            },
        },
        Row {
            name: "no-budget-corrupt",
            scratch: 8,
            budget: None,
            chaos: FaultPlan {
                corrupt_rate: 1.0,
                ..FaultPlan::default()
            },
        },
        Row {
            name: "adversarial-tight-budget",
            scratch: 16,
            budget: Some(4),
            chaos: FaultPlan {
                adversarial_writes: true,
                ..FaultPlan::default()
            },
        },
    ]
}

#[test]
fn chaos_rows_never_wrong_and_ledger_balances() {
    for row in rows() {
        for seed in 0..4u64 {
            let pts: Vec<Point2> = (0..48)
                .map(|i| {
                    let t = (i as f64 + seed as f64 * 0.37) * 0.613;
                    Point2::new(t.sin() * 0.5 + 0.5, t.cos() * (0.3 + 0.01 * i as f64))
                })
                .collect();
            let mut m = Machine::new(seed ^ 0xC0A5);
            m.install_faults(row.chaos.clone());
            let result = upper_hull_frugal_supervised(
                &mut m,
                &pts,
                row.scratch,
                row.budget,
                &SuperviseConfig::default(),
            );
            let trips = m.metrics.supervisor.workspace_aborts;
            match result {
                Ok(s) => {
                    // Never a wrong answer: exact agreement with the host
                    // oracle, re-checked by the chain certificate.
                    assert_eq!(
                        s.value.hull,
                        UpperHull::of(&pts),
                        "{} seed {seed}: wrong hull",
                        row.name
                    );
                    verify_upper_hull(&pts, &s.value.hull)
                        .unwrap_or_else(|e| panic!("{} seed {seed}: {e}", row.name));
                    // Ledger: the abort counter is exactly the number of
                    // WorkspaceExceeded attempt errors the run recorded.
                    let exceeded = s
                        .errors
                        .iter()
                        .filter(|e| matches!(e, RunError::WorkspaceExceeded { .. }))
                        .count() as u64;
                    assert_eq!(
                        trips, exceeded,
                        "{} seed {seed}: workspace ledger out of balance",
                        row.name
                    );
                }
                Err(e) => {
                    // A loss must be typed (stable code, not a panic
                    // escaping); terminality is the caller's business.
                    assert!(!e.code().is_empty(), "{} seed {seed}: {e}", row.name);
                }
            }
            if row.budget.is_none() {
                assert_eq!(
                    trips, 0,
                    "{} seed {seed}: trips without a budget installed",
                    row.name
                );
            }
        }
    }
}

/// Run one supervised frugal hull under `tuning`, returning the observable
/// workspace surface.
fn observe(
    tuning: Tuning,
    pts: &[Point2],
    scratch: usize,
    budget: Option<u64>,
    seed: u64,
) -> (UpperHull, u64, u64) {
    let mut m = Machine::new(seed);
    m.tuning = tuning;
    let s = upper_hull_frugal_supervised(&mut m, pts, scratch, budget, &SuperviseConfig::default())
        .expect("halving schedule plus host fallback always carries");
    (
        s.value.hull,
        m.metrics.peak_live_cells,
        m.metrics.supervisor.workspace_aborts,
    )
}

fn point() -> impl Strategy<Value = Point2> {
    (0.0f64..1.0, 0.0f64..1.0).prop_map(|(x, y)| Point2::new(x, y))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn peak_live_cells_invariant_across_backend_and_worker_caps(
        pts in pvec(point(), 1..100),
        scratch in 1usize..64,
        budget_sel in 0usize..3,
        seed in 0u64..1 << 48,
    ) {
        let budget = [None, Some(6u64), Some(16u64)][budget_sel];
        let base = observe(
            Tuning { par_threshold: usize::MAX, ..Tuning::default() },
            &pts, scratch, budget, seed,
        );
        prop_assert_eq!(&base.0, &UpperHull::of(&pts), "sequential run wrong");
        for lanes in [Some(1), Some(2), None] {
            let par = observe(
                Tuning {
                    par_threshold: 1,
                    num_threads: lanes,
                    ..Tuning::default()
                },
                &pts, scratch, budget, seed,
            );
            prop_assert_eq!(
                &base, &par,
                "workspace surface diverged at num_threads={:?}", lanes
            );
        }
    }
}
