//! Batch-admission equivalence suite for `ipch-service`.
//!
//! The contract under test: batching is a *transparent* admission and
//! execution strategy. A fused batch member must return exactly the value
//! (and pass exactly the certificate) that the same request would produce
//! served alone — and a large request served whole must equal the direct
//! supervised call on the same seed. A
//! misbehaving batch member (malformed, cancelled, fault-poisoned) must
//! resolve typed without poisoning its siblings or the resolution ledger.
//!
//! Everything runs in deterministic single-threaded mode (`workers: 0` +
//! `drain`) on pinned seeds, so batch composition is reproducible.

use ipch_geom::{Point2, UpperHull};
use ipch_hull2d::parallel::supervised::upper_hull_unsorted_supervised;
use ipch_hull2d::parallel::unsorted::UnsortedParams;
use ipch_hull2d::seq::{monotone, SeqStats};
use ipch_hull2d::verify_upper_hull;
use ipch_pram::{FaultPlan, Machine, Outcome, RunError, ServiceStats, SuperviseConfig};
use ipch_service::{
    Hull2dAlgo, Request, Response, ResponseValue, Service, ServiceConfig, ServiceError, Ticket,
    Tier, Workload,
};

/// SplitMix64 — the suite's own pinned-seed stream.
fn mix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn points2(rng: &mut u64, n: usize) -> Vec<Point2> {
    (0..n)
        .map(|_| Point2 {
            x: (mix(rng) >> 11) as f64 / (1u64 << 53) as f64,
            y: (mix(rng) >> 11) as f64 / (1u64 << 53) as f64,
        })
        .collect()
}

fn req2(tenant: &str, seed: u64, points: Vec<Point2>) -> Request {
    Request::new(
        tenant,
        seed,
        Workload::Hull2d {
            points,
            algo: Hull2dAlgo::Unsorted,
        },
    )
}

fn assert_ledger(stats: &ServiceStats) {
    assert_eq!(
        stats.submitted,
        stats.total_resolved(),
        "a request was lost or double-counted: {stats:?}"
    );
}

/// External re-check of a served hull: certificate against the request's
/// own input, then bit-equality with the sequential oracle.
fn check_hull(points: &[Point2], resp: &Response) -> UpperHull {
    let ResponseValue::Hull2d(hull) = &resp.value else {
        panic!("expected a 2-D hull response");
    };
    verify_upper_hull(points, hull).expect("response certificate");
    let mut stats = SeqStats::default();
    let oracle = monotone::upper_hull(points, &mut stats);
    assert_eq!(hull.vertices, oracle.vertices, "disagrees with the oracle");
    hull.clone()
}

/// Serve the same pinned-seed request set batched and unbatched; the
/// responses must be **bit-identical** (values and certificate-relevant
/// fields), because a certified upper hull is unique.
#[test]
fn batched_results_are_bit_identical_to_unbatched() {
    let serve = |batch_window: usize| -> (Vec<(Vec<Point2>, Response)>, ServiceStats) {
        let svc = Service::new(ServiceConfig {
            workers: 0,
            batch_window,
            batch_max: 8,
            queue_capacity: 64,
            per_tenant_inflight: 64,
            ..ServiceConfig::default()
        });
        let mut rng = 0xB17E_0001u64;
        let mut inputs = Vec::new();
        let mut tickets = Vec::new();
        for i in 0..24u64 {
            let n = 8 + (mix(&mut rng) % 80) as usize;
            let pts = points2(&mut rng, n);
            let tenant = if i.is_multiple_of(3) {
                "acme"
            } else {
                "globex"
            };
            tickets.push(svc.submit(req2(tenant, i, pts.clone())).unwrap());
            inputs.push(pts);
        }
        svc.drain();
        let served = inputs
            .into_iter()
            .zip(tickets)
            .map(|(pts, t)| (pts, t.wait().expect("clean member completes")))
            .collect();
        (served, svc.health().stats)
    };

    let (solo, solo_stats) = serve(0);
    let (fused, fused_stats) = serve(16);
    assert_eq!(solo_stats.batches_formed, 0);
    assert!(
        fused_stats.batches_formed > 0,
        "the batched run never fused: {fused_stats:?}"
    );
    assert!(fused_stats.batch_members > 0);
    assert_ledger(&solo_stats);
    assert_ledger(&fused_stats);

    for ((pts_a, a), (pts_b, b)) in solo.iter().zip(&fused) {
        assert_eq!(pts_a, pts_b, "pinned streams diverged");
        let ha = check_hull(pts_a, a);
        let hb = check_hull(pts_b, b);
        assert_eq!(ha, hb, "batched hull differs from unbatched");
        assert_eq!(a.value, b.value, "response values are bit-identical");
        assert_eq!(a.tier, b.tier);
    }
}

/// One malformed member inside a fused batch: it resolves as a typed
/// `InvalidInput` while every sibling completes certified and
/// oracle-correct, and the ledger still balances.
#[test]
fn invalid_member_does_not_poison_batch_siblings() {
    let svc = Service::new(ServiceConfig {
        workers: 0,
        batch_window: 16,
        batch_max: 8,
        queue_capacity: 64,
        per_tenant_inflight: 64,
        ..ServiceConfig::default()
    });
    let mut rng = 0xB17E_0002u64;
    let mut flights: Vec<(Vec<Point2>, Ticket, bool)> = Vec::new();
    for i in 0..8u64 {
        let mut pts = points2(&mut rng, 32);
        let malformed = i == 3;
        if malformed {
            pts[5].y = f64::NAN;
        }
        let t = svc.submit(req2("acme", i, pts.clone())).unwrap();
        flights.push((pts, t, malformed));
    }
    svc.drain();
    for (pts, t, malformed) in flights {
        match t.wait() {
            Ok(resp) => {
                assert!(!malformed, "malformed member served as a value");
                check_hull(&pts, &resp);
                assert_eq!(resp.outcome, Some(Outcome::FirstTry));
            }
            Err(ServiceError::Run(RunError::InvalidInput { .. })) => {
                assert!(malformed, "clean member rejected")
            }
            other => panic!("unexpected resolution: {other:?}"),
        }
    }
    let stats = svc.health().stats;
    assert_eq!(stats.completed, 7);
    assert_eq!(stats.invalid_inputs, 1);
    assert_eq!(stats.batches_formed, 1);
    assert_eq!(stats.batch_members, 8);
    assert_ledger(&stats);
}

/// One member cancelled while queued inside a would-be batch: the
/// cancellation is typed, the siblings fuse and complete.
#[test]
fn cancelled_member_does_not_poison_batch_siblings() {
    let svc = Service::new(ServiceConfig {
        workers: 0,
        batch_window: 16,
        batch_max: 8,
        queue_capacity: 64,
        per_tenant_inflight: 64,
        ..ServiceConfig::default()
    });
    let mut rng = 0xB17E_0003u64;
    let flights: Vec<(Vec<Point2>, Ticket)> = (0..6u64)
        .map(|i| {
            let pts = points2(&mut rng, 40);
            let t = svc.submit(req2("acme", i, pts.clone())).unwrap();
            (pts, t)
        })
        .collect();
    flights[2].1.cancel();
    svc.drain();
    for (i, (pts, t)) in flights.into_iter().enumerate() {
        match t.wait() {
            Ok(resp) => {
                assert_ne!(i, 2);
                check_hull(&pts, &resp);
            }
            Err(ServiceError::Run(RunError::Cancelled { .. })) => assert_eq!(i, 2),
            other => panic!("member {i}: unexpected resolution {other:?}"),
        }
    }
    let stats = svc.health().stats;
    assert_eq!(stats.completed, 5);
    assert_eq!(stats.cancelled, 1);
    assert_ledger(&stats);
}

/// A fault-poisoned request mixed into batchable traffic: chaos carriers
/// are never batch-eligible, so the poisoned request runs solo (and may
/// retry or fall back) while its clean neighbours fuse — nothing leaks
/// across, and every request resolves.
#[test]
fn fault_poisoned_member_runs_solo_while_siblings_fuse() {
    let svc = Service::new(ServiceConfig {
        workers: 0,
        batch_window: 16,
        batch_max: 8,
        queue_capacity: 64,
        per_tenant_inflight: 64,
        ..ServiceConfig::default()
    });
    let mut rng = 0xB17E_0004u64;
    let mut flights: Vec<(Vec<Point2>, Ticket, bool)> = Vec::new();
    for i in 0..7u64 {
        let pts = points2(&mut rng, 48);
        let poisoned = i == 4;
        let mut req = req2("acme", i, pts.clone());
        if poisoned {
            req.chaos = Some(FaultPlan {
                corrupt_rate: 0.9,
                ..FaultPlan::default()
            });
        }
        let t = svc.submit(req).unwrap();
        flights.push((pts, t, poisoned));
    }
    svc.drain();
    for (pts, t, poisoned) in flights {
        // Under supervision even the poisoned run must end in a certified
        // value (retry or host fallback) or a typed error — never a panic.
        match t.wait() {
            Ok(resp) => {
                check_hull(&pts, &resp);
                if !poisoned {
                    assert_eq!(resp.outcome, Some(Outcome::FirstTry));
                }
            }
            Err(ServiceError::Run(e)) => {
                assert!(poisoned, "clean member failed: {e}");
            }
            other => panic!("unexpected resolution: {other:?}"),
        }
    }
    let stats = svc.health().stats;
    assert_eq!(stats.batches_formed, 1);
    assert_eq!(stats.batch_members, 6, "the chaos carrier stayed solo");
    assert_ledger(&stats);
}

/// A large request is served whole: through `Service` at `Tier::Full` it
/// passes the certificate, equals the sequential oracle, and is
/// bit-identical to a direct supervised call on the same seed.
#[test]
fn large_request_is_bit_identical_to_a_direct_supervised_call() {
    let mut rng = 0xB17E_0005u64;
    let pts = points2(&mut rng, 2500);

    let svc = Service::new(ServiceConfig {
        workers: 0,
        shards: 4,
        ..ServiceConfig::default()
    });
    let t = svc.submit(req2("acme", 42, pts.clone())).unwrap();
    svc.drain();
    let served = t.wait().expect("request completes");
    assert_ledger(&svc.health().stats);
    assert_eq!(served.tier, Tier::Full);
    assert_eq!(served.outcome, Some(Outcome::FirstTry));
    check_hull(&pts, &served);

    let mut m = Machine::new(42);
    let direct = upper_hull_unsorted_supervised(
        &mut m,
        &pts,
        &UnsortedParams::default(),
        &SuperviseConfig {
            max_attempts: ServiceConfig::default().max_attempts,
        },
    )
    .expect("direct supervised run");
    assert_eq!(served.attempts, direct.attempts);
    assert_eq!(
        served.value,
        ResponseValue::Hull2d(direct.value.0.hull),
        "served hull differs from the direct call"
    );
}

/// Ledger regression under sustained batched traffic: several drained
/// waves of mixed eligible/ineligible requests keep
/// `submitted == total_resolved` at every quiescent point.
#[test]
fn resolution_ledger_holds_under_batched_waves() {
    let svc = Service::new(ServiceConfig {
        workers: 0,
        shards: 2,
        batch_window: 8,
        batch_max: 4,
        queue_capacity: 32,
        per_tenant_inflight: 32,
        ..ServiceConfig::default()
    });
    let mut rng = 0xB17E_0006u64;
    let tenants = ["alpha", "beta", "gamma"];
    let mut completed = 0u64;
    for wave in 0..5u64 {
        let mut tickets = Vec::new();
        for i in 0..12u64 {
            let r = mix(&mut rng);
            // a third of the traffic is too big to batch, the rest fuses
            let n = if r.is_multiple_of(3) {
                200
            } else {
                16 + (r % 64) as usize
            };
            let pts = points2(&mut rng, n);
            let req = req2(tenants[(wave + i) as usize % tenants.len()], r, pts);
            tickets.push(svc.submit(req).unwrap());
        }
        svc.drain();
        for t in tickets {
            t.wait().expect("clean traffic completes");
            completed += 1;
        }
        assert_ledger(&svc.health().stats);
    }
    let stats = svc.health().stats;
    assert_eq!(stats.completed, completed);
    assert!(stats.batches_formed >= 5, "every wave had fusible runs");
    assert!(stats.batch_members >= 2 * stats.batches_formed);
    assert!(stats.batch_members <= stats.completed);
}
