//! Model-based ledger suite for `ipch-service`.
//!
//! Random sequences of submit / cancel / zero-deadline submit / drain run
//! against a `workers: 0` service and, side by side, against a small
//! reference model of admission: the queue bound, per-tenant load, and
//! what each queued ticket must resolve to. After every drain the
//! service's ledger must equal the model's, nothing may stay charged
//! (in-flight requests, workspace-gauge cells), and every tenant must be
//! admissible `per_tenant_inflight` more times — so a release the runtime
//! forgot shows up as a tenant that can no longer get in. Batching off
//! (`batch_window: 0`) and on (`8`) are both driven.
//!
//! A fault-free soak on a live two-worker service then asserts that
//! concurrent requests never strain: zero supervisor retries, zero
//! fallbacks, zero breaker trips. Clean traffic that retries means two
//! machines running at once disturbed each other.

use std::time::Duration;

use ipch_geom::{Point2, Point3};
use ipch_hull2d::seq::{monotone, SeqStats};
use ipch_hull2d::verify_upper_hull;
use ipch_hull3d::verify_upper_hull3;
use ipch_pram::{Outcome, RunError, ServiceStats, Tuning};
use ipch_service::{
    Hull2dAlgo, RejectReason, Request, ResponseValue, Service, ServiceConfig, ServiceError, Ticket,
    Workload,
};
use proptest::collection::vec;
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

const TENANTS: [&str; 3] = ["alpha", "beta", "gamma"];
const CAPACITY: usize = 6;
const PER_TENANT: usize = 3;

/// SplitMix64 — the suite's own pinned-seed stream.
fn mix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn unit(rng: &mut u64) -> f64 {
    (mix(rng) >> 11) as f64 / (1u64 << 53) as f64
}

fn req2(tenant: &str, seed: u64, n: usize) -> Request {
    let mut rng = seed;
    let points = (0..n)
        .map(|_| Point2 {
            x: unit(&mut rng),
            y: unit(&mut rng),
        })
        .collect();
    Request::new(
        tenant,
        seed,
        Workload::Hull2d {
            points,
            algo: Hull2dAlgo::Unsorted,
        },
    )
}

fn req3(tenant: &str, seed: u64, n: usize) -> Request {
    let mut rng = seed;
    let points = (0..n)
        .map(|_| Point3 {
            x: unit(&mut rng),
            y: unit(&mut rng),
            z: unit(&mut rng),
        })
        .collect();
    Request::new(tenant, seed, Workload::Hull3d { points })
}

#[derive(Clone, Copy, Debug)]
enum Op {
    Submit {
        tenant: usize,
        n: usize,
        seed: u64,
    },
    /// A submission whose deadline has passed by its first check.
    SubmitExpired {
        tenant: usize,
        n: usize,
        seed: u64,
    },
    /// Cancel the `pick`-th pending ticket (modulo their count).
    Cancel {
        pick: usize,
    },
    Drain,
}

fn op() -> impl Strategy<Value = Op> {
    (0u8..10, 0..TENANTS.len(), 3usize..48, 0u64..1 << 32).prop_map(|(kind, tenant, n, seed)| {
        match kind {
            0..=4 => Op::Submit { tenant, n, seed },
            5 => Op::SubmitExpired { tenant, n, seed },
            6 | 7 => Op::Cancel {
                pick: seed as usize,
            },
            _ => Op::Drain,
        }
    })
}

/// What a queued ticket must resolve to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Expect {
    Completed,
    Cancelled,
    Expired,
}

/// The ledger counters the model predicts.
#[derive(Debug, Default, PartialEq, Eq)]
struct Ledger {
    submitted: u64,
    admitted: u64,
    completed: u64,
    cancelled: u64,
    shed_expired: u64,
    rejected_queue_full: u64,
    rejected_tenant_limit: u64,
}

impl Ledger {
    fn of(st: &ServiceStats) -> Self {
        Self {
            submitted: st.submitted,
            admitted: st.admitted,
            completed: st.completed,
            cancelled: st.cancelled,
            shed_expired: st.shed_expired,
            rejected_queue_full: st.rejected_queue_full,
            rejected_tenant_limit: st.rejected_tenant_limit,
        }
    }
}

/// The reference model of a single-shard service: the queue bound, each
/// tenant's queued load, and the tickets waiting for the next drain.
struct Model {
    ledger: Ledger,
    load: [usize; TENANTS.len()],
    pending: Vec<(Ticket, Expect)>,
}

impl Model {
    fn submit(
        &mut self,
        svc: &Service,
        tenant: usize,
        req: Request,
        expect: Expect,
    ) -> Result<(), TestCaseError> {
        self.ledger.submitted += 1;
        let got = svc.submit(req);
        if self.pending.len() >= CAPACITY {
            self.ledger.rejected_queue_full += 1;
            prop_assert!(
                matches!(
                    got,
                    Err(ServiceError::Rejected {
                        reason: RejectReason::QueueFull { .. },
                        ..
                    })
                ),
                "expected a queue-full shed, got {got:?}"
            );
        } else if self.load[tenant] >= PER_TENANT {
            self.ledger.rejected_tenant_limit += 1;
            prop_assert!(
                matches!(
                    got,
                    Err(ServiceError::Rejected {
                        reason: RejectReason::TenantLimit { .. },
                        ..
                    })
                ),
                "expected a tenant-limit shed, got {got:?}"
            );
        } else {
            let ticket =
                got.map_err(|e| TestCaseError::fail(format!("expected admission, got {e:?}")))?;
            self.ledger.admitted += 1;
            self.load[tenant] += 1;
            self.pending.push((ticket, expect));
        }
        Ok(())
    }

    /// Drain the service, resolve every pending ticket against its
    /// expectation, and check that nothing stays charged.
    fn drain(&mut self, svc: &Service) -> Result<(), TestCaseError> {
        svc.drain();
        for (ticket, expect) in self.pending.drain(..) {
            match (expect, ticket.try_wait()) {
                (Expect::Completed, Some(Ok(_))) => self.ledger.completed += 1,
                (Expect::Cancelled, Some(Err(ServiceError::Run(RunError::Cancelled { .. })))) => {
                    self.ledger.cancelled += 1
                }
                (
                    Expect::Expired,
                    Some(Err(ServiceError::Rejected {
                        reason: RejectReason::Expired,
                        ..
                    })),
                ) => self.ledger.shed_expired += 1,
                (expect, got) => {
                    return Err(TestCaseError::fail(format!(
                        "expected {expect:?}, got {got:?}"
                    )))
                }
            }
        }
        self.load = [0; TENANTS.len()];
        let h = svc.health();
        prop_assert_eq!(&Ledger::of(&h.stats), &self.ledger);
        prop_assert_eq!(h.stats.submitted, h.stats.total_resolved());
        prop_assert_eq!(h.in_flight, 0);
        prop_assert_eq!(h.inflight_cells, 0);
        Ok(())
    }
}

fn check_ledger(batch_window: usize, ops: &[Op]) -> Result<(), TestCaseError> {
    let svc = Service::new(ServiceConfig {
        workers: 0,
        queue_capacity: CAPACITY,
        per_tenant_inflight: PER_TENANT,
        batch_window,
        ..ServiceConfig::default()
    });
    let mut model = Model {
        ledger: Ledger::default(),
        load: [0; TENANTS.len()],
        pending: Vec::new(),
    };
    for &op in ops.iter().chain([Op::Drain].iter()) {
        match op {
            Op::Submit { tenant, n, seed } => {
                model.submit(
                    &svc,
                    tenant,
                    req2(TENANTS[tenant], seed, n),
                    Expect::Completed,
                )?;
            }
            Op::SubmitExpired { tenant, n, seed } => {
                let mut req = req2(TENANTS[tenant], seed, n);
                req.deadline = Some(Duration::ZERO);
                model.submit(&svc, tenant, req, Expect::Expired)?;
            }
            Op::Cancel { pick } => {
                if !model.pending.is_empty() {
                    let i = pick % model.pending.len();
                    model.pending[i].0.cancel();
                    // A cancel outranks an expired deadline.
                    model.pending[i].1 = Expect::Cancelled;
                }
            }
            Op::Drain => {
                model.drain(&svc)?;
                // Every tenant's load was released: each can be admitted
                // `PER_TENANT` more times.
                for (tenant, name) in TENANTS.iter().enumerate() {
                    for k in 0..PER_TENANT {
                        let req = req2(name, 1_000 + k as u64, 8);
                        model.submit(&svc, tenant, req, Expect::Completed)?;
                    }
                    prop_assert_eq!(model.pending.len(), PER_TENANT);
                    model.drain(&svc)?;
                }
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn ledger_matches_the_model_unbatched(ops in vec(op(), 1..64)) {
        check_ledger(0, &ops)?;
    }

    #[test]
    fn ledger_matches_the_model_batched(ops in vec(op(), 1..64)) {
        check_ledger(8, &ops)?;
    }
}

/// Fault-free traffic on two live workers (2-D, fused batches and 3-D in
/// one mix): every request completes first try with the oracle's answer,
/// and the supervisor and breakers never see strain.
#[test]
fn fault_free_two_worker_soak_never_strains() {
    let svc = Service::new(ServiceConfig {
        workers: 2,
        queue_capacity: 256,
        per_tenant_inflight: 256,
        batch_window: 8,
        // Every step of both workers' machines goes through the shared
        // pool, however small.
        tuning: Tuning {
            par_threshold: 0,
            ..Tuning::default()
        },
        ..ServiceConfig::default()
    });
    let mut rng = 0x5EED_50AC_u64;
    let flights: Vec<(Request, Ticket)> = (0..96u64)
        .map(|i| {
            let tenant = TENANTS[i as usize % TENANTS.len()];
            let req = match i % 6 {
                0 => req3(tenant, mix(&mut rng), 16 + (mix(&mut rng) % 24) as usize),
                1 | 2 => req2(tenant, mix(&mut rng), 128 + (mix(&mut rng) % 384) as usize),
                _ => req2(tenant, mix(&mut rng), 8 + (mix(&mut rng) % 64) as usize),
            };
            let ticket = svc.submit(req.clone()).expect("admitted");
            (req, ticket)
        })
        .collect();
    for (req, ticket) in flights {
        let resp = ticket.wait().expect("fault-free request completes");
        assert_eq!(resp.outcome, Some(Outcome::FirstTry), "seed {}", req.seed);
        match (&req.workload, &resp.value) {
            (Workload::Hull2d { points, .. }, ResponseValue::Hull2d(hull)) => {
                verify_upper_hull(points, hull).expect("certificate");
                let oracle = monotone::upper_hull(points, &mut SeqStats::default());
                assert_eq!(hull.vertices, oracle.vertices, "seed {}", req.seed);
            }
            (Workload::Hull3d { points }, ResponseValue::Hull3d(facets)) => {
                verify_upper_hull3(points, facets, true).expect("certificate");
            }
            _ => panic!("response kind does not match the workload"),
        }
    }
    let m = svc.shutdown();
    assert_eq!(m.supervisor.retries, 0, "{:?}", m.supervisor);
    assert_eq!(m.supervisor.fallbacks, 0, "{:?}", m.supervisor);
    assert_eq!(m.service.breaker_trips, 0);
    assert!(m.service.batches_formed > 0, "the mix exercised fusion");
    assert_eq!(m.service.completed, 96);
    assert_eq!(m.service.submitted, m.service.total_resolved());
}
