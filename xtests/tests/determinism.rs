//! Replayability: every randomized algorithm is a deterministic function
//! of (input, machine seed) — the property all experiment tables rely on.
//! That includes the host lane count: `Machine::fork_join` runs its
//! children at once, and the `fork_join_lane_caps_agree_*` tests check
//! that outputs, simulated counters and analyzer reports do not depend on
//! how many lanes the children ran on.

use std::panic::{catch_unwind, AssertUnwindSafe};

use ipch_geom::generators as g2;
use ipch_geom::{Point2, UpperHull};
use ipch_hull2d::parallel::invariant::hull_of_hulls;
use ipch_hull2d::parallel::unsorted::{upper_hull_unsorted, UnsortedParams};
use ipch_hull3d::parallel::unsorted3d::{upper_hull3_unsorted, Unsorted3Params};
use ipch_pram::{
    AnalysisReport, AnalyzeConfig, FaultCounters, FaultPlan, Machine, Metrics, NoiseMode,
    NoisePlan, RngBias, Shm,
};

#[test]
fn unsorted2d_replays_exactly() {
    let pts = g2::uniform_disk(1000, 3);
    let run = |seed: u64| {
        let mut m = Machine::new(seed);
        let mut shm = Shm::new();
        let (out, trace) = upper_hull_unsorted(&mut m, &mut shm, &pts, &UnsortedParams::default());
        (
            out.hull.vertices,
            out.edge_above,
            trace.levels.len(),
            m.metrics.total_work(),
        )
    };
    let a = run(42);
    let b = run(42);
    assert_eq!(a, b, "same seed must replay identically");
    let c = run(43);
    // hull is the same object regardless of seed; the execution differs
    assert_eq!(a.0, c.0, "hull independent of randomness");
    assert!(
        a.3 != c.3 || a.2 != c.2,
        "different seeds should explore differently (work or levels)"
    );
}

#[test]
fn unsorted3d_replays_exactly() {
    let pts = ipch_geom::gen3d::in_ball(300, 5);
    let run = |seed: u64| {
        let mut m = Machine::new(seed);
        let mut shm = Shm::new();
        let (out, _) = upper_hull3_unsorted(&mut m, &mut shm, &pts, &Unsorted3Params::default());
        (out.facets, m.metrics.total_work())
    };
    let a = run(7);
    let b = run(7);
    assert_eq!(a.0, b.0);
    assert_eq!(a.1, b.1);
}

#[test]
fn machines_with_same_seed_agree_on_arbitrary_winners() {
    // Arbitrary-CRCW winners are seeded: an identical step sequence picks
    // identical winners.
    let run = |seed: u64| {
        let mut m = Machine::new(seed);
        let mut shm = Shm::new();
        let cell = shm.alloc("c", 4, -1);
        for _ in 0..10 {
            m.step(&mut shm, 0..64, |ctx| {
                let pid = ctx.pid;
                ctx.write(cell, pid % 4, pid as i64);
            });
        }
        (0..4).map(|i| shm.get(cell, i)).collect::<Vec<_>>()
    };
    assert_eq!(run(1), run(1));
    assert_ne!(run(1), run(2));
}

/// Every simulated counter of a run: all of [`Metrics`] except host time
/// and host lanes, with phases stripped of their host time.
#[derive(Debug, PartialEq)]
struct SimCounters {
    totals: [u64; 12],
    phases: Vec<(String, [u64; 4])>,
    faults: FaultCounters,
    analysis: Option<Box<AnalysisReport>>,
}

fn sim_counters(m: &Metrics) -> SimCounters {
    SimCounters {
        totals: [
            m.steps,
            m.work,
            m.peak_processors,
            m.peak_live_cells,
            m.charged_steps,
            m.charged_work,
            m.host_steps,
            m.writes_buffered,
            m.writes_committed,
            m.write_conflicts,
            m.fastpath_steps,
            m.kernel_steps,
        ],
        phases: m
            .phases
            .iter()
            .map(|p| {
                let costs = [p.steps, p.work, p.charged_steps, p.charged_work];
                (p.name.clone(), costs)
            })
            .collect(),
        faults: m.faults,
        analysis: m.analysis.clone(),
    }
}

/// The plans each lane-cap comparison runs under: none, injected faults
/// (adversarial writes and biased coins, so bridge finding fails and the
/// sweeps run), and predicate noise.
fn plans() -> [Option<FaultPlan>; 3] {
    [
        None,
        Some(FaultPlan {
            adversarial_writes: true,
            rng_bias: Some(RngBias {
                rate: 0.3,
                force: false,
            }),
            ..FaultPlan::default()
        }),
        Some(FaultPlan {
            noise: Some(NoisePlan {
                p: 0.05,
                mode: NoiseMode::Fresh,
            }),
            ..FaultPlan::default()
        }),
    ]
}

/// Run `alg` on an analyzed machine under each plan at lane caps 1, 2 and
/// uncapped, and require the same output (or the same panic message) and
/// the same simulated counters at every cap.
fn assert_lane_caps_agree<R: PartialEq + std::fmt::Debug>(
    seed: u64,
    alg: impl Fn(&mut Machine, &mut Shm) -> R,
) {
    for plan in plans() {
        let run = |lanes: Option<usize>| {
            let mut m = Machine::new(seed);
            m.tuning.num_threads = lanes;
            m.enable_analysis(AnalyzeConfig::default());
            if let Some(p) = &plan {
                m.install_faults(p.clone());
            }
            let mut shm = Shm::new();
            let out = catch_unwind(AssertUnwindSafe(|| alg(&mut m, &mut shm))).map_err(|p| {
                p.downcast_ref::<String>()
                    .cloned()
                    .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
            });
            (out, sim_counters(&m.metrics), shm.peak_live_cells())
        };
        let one = run(Some(1));
        assert!(one.1.totals[0] > 0, "the run must execute steps");
        for lanes in [Some(2), None] {
            assert_eq!(run(lanes), one, "lanes {lanes:?} under plan {plan:?}");
        }
    }
}

#[test]
fn fork_join_lane_caps_agree_on_unsorted2d() {
    for pts in [g2::uniform_disk(1500, 11), g2::on_circle(600, 12)] {
        assert_lane_caps_agree(5, |m, shm| {
            let (out, trace) = upper_hull_unsorted(m, shm, &pts, &UnsortedParams::default());
            (out.hull.vertices, out.edge_above, trace.levels.len())
        });
    }
}

#[test]
fn fork_join_lane_caps_agree_on_unsorted3d() {
    let pts = ipch_geom::gen3d::in_ball(200, 13);
    assert_lane_caps_agree(6, |m, shm| {
        let (out, trace) = upper_hull3_unsorted(m, shm, &pts, &Unsorted3Params::default());
        (out.facets, trace.levels.len())
    });
}

#[test]
fn fork_join_lane_caps_agree_on_hull_of_hulls() {
    let mut pts = g2::uniform_disk(600, 14);
    pts.sort_by(|a, b| a.cmp_xy(b));
    let groups: Vec<UpperHull> = (0..pts.len())
        .step_by(20)
        .map(|lo| {
            let hi = (lo + 20).min(pts.len());
            let sub: Vec<Point2> = pts[lo..hi].to_vec();
            let ids = ipch_geom::hull_chain::upper_hull_indices(&sub);
            UpperHull::new(ids.into_iter().map(|i| lo + i).collect())
        })
        .collect();
    assert_lane_caps_agree(7, |m, shm| {
        hull_of_hulls(m, shm, &pts, &groups)
            .map(|(h, report)| (h.vertices, report.failures))
            .map_err(|e| e.to_string())
    });
}
