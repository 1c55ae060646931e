//! Simulated-cost pins for the brute-force base oracles
//! ([`ipch_lp::bridge::bridge_brute`] and [`ipch_lp::bridge::facet_brute`]).
//!
//! Each case runs one oracle on a fixed input and asserts its answer and
//! the machine's `steps`, `work`, `writes_buffered`, `write_conflicts` and
//! dropped-processor count against recorded values. Host-side hoisting in
//! the oracles (gathering points, orienting candidates once per call) must
//! leave every processor's writes unchanged; any change to which
//! processors write, or how many, moves `writes_buffered` or
//! `write_conflicts` and fails here.

use ipch_geom::gen3d::{in_ball, on_sphere};
use ipch_geom::generators::uniform_disk;
use ipch_geom::{Point2, Point3};
use ipch_lp::bridge::{bridge_brute, facet_brute, Bridge};
use ipch_pram::{DropWindow, FaultPlan, Machine, Shm};

/// `(steps, work, writes_buffered, write_conflicts, dropped_processors)`.
type Costs = (u64, u64, u64, u64, u64);

fn costs(m: &Machine) -> Costs {
    let x = &m.metrics;
    (
        x.steps,
        x.work,
        x.writes_buffered,
        x.write_conflicts,
        x.faults.dropped_processors,
    )
}

fn drop_plan(from_step: u64, rate: f64) -> FaultPlan {
    FaultPlan {
        drop_window: Some(DropWindow {
            from_step,
            until_step: from_step + 1,
            rate,
        }),
        ..FaultPlan::default()
    }
}

fn run_bridge(
    points: &[Point2],
    ids: &[usize],
    x0: f64,
    plan: Option<FaultPlan>,
) -> (Option<(usize, usize)>, Costs) {
    let mut m = Machine::new(17);
    if let Some(plan) = plan {
        m.install_faults(plan);
    }
    let mut shm = Shm::new();
    let b = bridge_brute(&mut m, &mut shm, points, ids, x0);
    (b.map(|Bridge { left, right }| (left, right)), costs(&m))
}

fn run_facet(
    points: &[Point3],
    ids: &[usize],
    q: (f64, f64),
    plan: Option<FaultPlan>,
) -> (Option<(usize, usize, usize)>, Costs) {
    let mut m = Machine::new(17);
    if let Some(plan) = plan {
        m.install_faults(plan);
    }
    let mut shm = Shm::new();
    let f = facet_brute(&mut m, &mut shm, points, ids, q.0, q.1);
    (f, costs(&m))
}

fn all(n: usize) -> Vec<usize> {
    (0..n).collect()
}

#[test]
fn cost_pins_bridge_random_disk() {
    let pts = uniform_disk(40, 3);
    assert_eq!(
        run_bridge(&pts, &all(40), 0.1, None),
        (Some((33, 34)), (6, 3321, 357, 1, 0))
    );
    // a strided subset: ids index a larger array
    let ids: Vec<usize> = (0..40).step_by(3).collect();
    assert_eq!(
        run_bridge(&pts, &ids, -0.2, None),
        (Some((0, 33)), (6, 435, 55, 1, 0))
    );
}

#[test]
fn cost_pins_bridge_collinear_contacts() {
    let pts: Vec<Point2> = [
        (0.0, 1.0),
        (1.0, 1.0),
        (2.0, 1.0),
        (3.0, 1.0),
        (1.5, 0.0),
        (0.5, -2.0),
        (2.5, 0.25),
    ]
    .iter()
    .map(|&(x, y)| Point2::new(x, y))
    .collect();
    assert_eq!(
        run_bridge(&pts, &all(pts.len()), 1.5, None),
        (Some((1, 2)), (6, 144, 26, 5, 0))
    );
    // x0 on a contact: the left contact is the point at x0 itself
    assert_eq!(
        run_bridge(&pts, &all(pts.len()), 2.0, None),
        (Some((2, 3)), (6, 144, 24, 4, 0))
    );
}

#[test]
fn cost_pins_bridge_lopsided_split() {
    // x0 between the two largest abscissae: one point on the hi side, so
    // only |lo| = 39 pairs straddle, yet both filter steps run all n²
    // grid processors
    let pts = uniform_disk(40, 3);
    let mut xs: Vec<f64> = pts.iter().map(|p| p.x).collect();
    xs.sort_by(f64::total_cmp);
    let x0 = (xs[38] + xs[39]) / 2.0;
    assert_eq!(
        run_bridge(&pts, &all(40), x0, None),
        (Some((21, 6)), (6, 3321, 45, 1, 0))
    );
}

#[test]
fn cost_pins_bridge_drop_window() {
    let pts = uniform_disk(24, 9);
    // half the lower-bound step's (step 0's) processors lose their
    // writes; the highest pair's bound is not among them, so the same
    // single pair survives the mark and only the writes and the dropped
    // count tell the runs apart
    assert_eq!(
        run_bridge(&pts, &all(24), 0.0, Some(drop_plan(0, 0.5))),
        (Some((5, 14)), (6, 1225, 70, 1, 298))
    );
    assert_eq!(
        run_bridge(&pts, &all(24), 0.0, None),
        (Some((5, 14)), (6, 1225, 134, 1, 0))
    );
}

#[test]
fn cost_pins_facet_random_ball_and_sphere() {
    let pts = in_ball(20, 5);
    assert_eq!(
        run_facet(&pts, &all(20), (0.05, -0.1), None),
        (Some((4, 17, 19)), (4, 1666, 402, 24, 0))
    );
    let pts = on_sphere(16, 8);
    let ids: Vec<usize> = (0..16).rev().collect();
    assert_eq!(
        run_facet(&pts, &ids, (-0.2, 0.15), None),
        (Some((14, 2, 7)), (4, 833, 242, 14, 0))
    );
}

#[test]
fn cost_pins_facet_coplanar_top() {
    // a flat square top over interior points: several triples support
    // the pierced facet; all five top points are coplanar
    let mut pts = vec![
        Point3::new(1.0, 1.0, 2.0),
        Point3::new(1.0, -1.0, 2.0),
        Point3::new(-1.0, 1.0, 2.0),
        Point3::new(-1.0, -1.0, 2.0),
        Point3::new(0.0, 0.0, 2.0),
    ];
    pts.extend(in_ball(7, 11));
    assert_eq!(
        run_facet(&pts, &all(pts.len()), (0.1, 0.05), None),
        (Some((0, 2, 1)), (4, 403, 138, 12, 0))
    );
}

#[test]
fn cost_pins_facet_drop_window() {
    let pts = in_ball(14, 21);
    // a third of the full supporting step's (step 2's) processors lose
    // their writes; none of the dropped ones had a write to lose, so only
    // the dropped count tells this run from the fault-free one below
    assert_eq!(
        run_facet(&pts, &all(14), (0.0, 0.0), Some(drop_plan(2, 0.3))),
        (Some((0, 3, 2)), (4, 575, 184, 12, 5))
    );
    // half the triple step's (step 1's) processors lose their writes: a
    // dropped survivor would lose its flag, never gain one, and here none
    // of the dropped triples survives, so the same triple is elected
    assert_eq!(
        run_facet(&pts, &all(14), (0.0, 0.0), Some(drop_plan(1, 0.5))),
        (Some((0, 3, 2)), (4, 575, 184, 12, 185))
    );
    assert_eq!(
        run_facet(&pts, &all(14), (0.0, 0.0), None),
        (Some((0, 3, 2)), (4, 575, 184, 12, 0))
    );
}
