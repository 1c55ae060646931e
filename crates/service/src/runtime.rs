//! The serving runtime: bounded admission, a worker pool, cooperative
//! cancellation, and per-algorithm degradation tiers.
//!
//! # Request lifecycle
//!
//! [`Service::submit`] is the synchronous admission decision. Under the
//! service lock it either rejects the request with a typed
//! [`ServiceError::Rejected`] (queue at capacity, tenant over its
//! in-flight limit — with an exponential-backoff `retry_after` hint that
//! starts at 10 ms, doubles per consecutive rejection of the same tenant
//! and caps at 1 s) or enqueues it and returns a [`Ticket`]. Admitted
//! requests are never silently dropped: every ticket resolves exactly
//! once, to a certified [`Response`] or a typed [`ServiceError`]. The
//! [`ServiceStats`] resolution invariant
//! (`submitted == completed + sheds + cancelled + … + panics_isolated`)
//! is checked by the chaos suite.
//!
//! # Sharded queues
//!
//! Admission is tenant-sharded: [`ServiceConfig::shards`] per-shard queues,
//! a tenant hashing (FNV-1a) to one shard so a noisy tenant fills its own
//! lane. `queue_capacity` bounds each shard's queue; workers and
//! [`Service::drain`] pop shards round-robin through a shared cursor, so
//! no lane starves. With the default `shards: 1` the behavior is exactly
//! the single-queue runtime.
//!
//! # Execution
//!
//! Workers pop a unit of work — one job, or a coalesced batch (below) —
//! and resolve it through one path: a lone job is a batch of one. Under
//! the lock, members whose token fired while queued resolve without
//! running, and every other member is planned and charged an admission
//! (in-flight slot, gauge cells, tenant load). Members then run *outside*
//! the lock, and a final lock round settles each admission exactly once.
//! A member that runs alone gets its own [`Machine`] (seeded from the
//! request, chaos plan installed if any) with the ticket's [`CancelToken`]
//! attached, so the simulator aborts cooperatively at the next step
//! boundary once the deadline passes or the client cancels. The run is
//! wrapped in `catch_unwind`: a panic is isolated to its request and
//! surfaced as a typed [`RunError::Panic`].
//!
//! # Batch admission
//!
//! With [`ServiceConfig::batch_window`] enabled, a worker popping a small
//! 2-D request scans up to `batch_window` queue entries behind it and
//! coalesces same-algorithm, chaos-free requests of at most
//! `BATCH_POINT_CAP` (96) points (up to
//! [`ServiceConfig::batch_max`] members). When at least two of them are
//! planned at [`Tier::Full`] (and are not half-open probes), those run as
//! **one fused machine run**: concatenated SoA input plus an offset table
//! ([`ipch_geom::batch::ConcatPoints2`]), a constant number of fused
//! steps for the whole batch
//! ([`ipch_hull2d::parallel::batch::upper_hulls_batch`]), and a
//! per-member certificate. Every member still resolves individually —
//! its own cancellation/deadline check, its own typed errors, its own
//! ledger line — so one member aborting or failing never poisons its
//! siblings: a member whose certificate (or the whole batch machine)
//! fails runs alone at its planned tier, like every member that did not
//! fuse. A degraded breaker therefore disables batching for its
//! algorithm. Because a certified upper hull is unique, fused results are
//! bit-identical to what the same requests produce unbatched.
//!
//! # Degradation
//!
//! A per-algorithm [`Breaker`] picks the [`Tier`] before dispatch and is
//! fed a [`Signal`] after: consecutive strained results (retries,
//! fallbacks, errors, panics) trip it a tier down — full supervision →
//! single-attempt supervision → read-only bounded-workspace run →
//! direct sequential exact hull — and half-open probes climb it back up
//! once the strain clears.
//!
//! # Memory pressure
//!
//! With [`ServiceConfig::memory_budget`] set, the runtime tracks the
//! aggregate estimated workspace (live simulator cells, one per input
//! point) of every in-flight request. A request whose admission would push
//! that aggregate past the budget *executes* at least at [`Tier::Frugal`]
//! — the read-only bounded-workspace algorithms
//! ([`ipch_hull2d::parallel::frugal`]) that keep O(s) scratch instead of
//! Θ(n) — without touching the breaker's own state: pressure is a property
//! of the moment, not of the algorithm's health. The same budget is
//! installed as each frugal run's hard per-request workspace cap
//! ([`ipch_pram::Shm::set_workspace_budget`]); a tripped run retries with
//! leaner scratch and ultimately falls back to the exact host hull, so
//! degraded never means wrong. Half-open probes are exempt from demotion
//! (a probe exists to test the tier above; its overage is bounded by one
//! request). `ServiceStats::{frugal_runs, workspace_trips}` and the
//! in-flight cell gauge surface in [`Health`].
//!
//! With `workers: 0` nothing runs until [`Service::drain`] processes the
//! queue on the calling thread — the deterministic mode the unit and chaos
//! tests use.

use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Duration;

use ipch_geom::batch::ConcatPoints2;
use ipch_geom::validate::{validate_points2, validate_points3};
use ipch_hull2d::parallel::batch::upper_hulls_batch;
use ipch_hull2d::parallel::frugal::upper_hull_frugal_supervised;
use ipch_hull2d::parallel::noisy::upper_hull_noisy_supervised;
use ipch_hull2d::parallel::supervised::{
    upper_hull_dac_supervised, upper_hull_unsorted_supervised,
};
use ipch_hull2d::parallel::unsorted::UnsortedParams;
use ipch_hull2d::seq::{monotone, SeqStats};
use ipch_hull2d::verify_upper_hull;
use ipch_hull3d::parallel::noisy::upper_hull3_noisy_supervised;
use ipch_hull3d::parallel::supervised::upper_hull3_unsorted_supervised;
use ipch_hull3d::parallel::unsorted3d::Unsorted3Params;
use ipch_hull3d::seq::giftwrap::upper_hull3_giftwrap;
use ipch_hull3d::seq::Seq3Stats;
use ipch_hull3d::verify_upper_hull3;
use ipch_pram::rng::mix64;
use ipch_pram::{
    silence_cancel_unwinds, CancelCause, CancelToken, CancelUnwind, FaultCounters, FaultPlan,
    Machine, Metrics, NoisePlan, Outcome, RunError, ServiceStats, Shm, SuperviseConfig, Tuning,
};

use crate::breaker::{Breaker, BreakerConfig, Plan, Signal, Tier};
use crate::error::{RejectReason, ServiceError};
use crate::request::{Hull2dAlgo, Request, Response, ResponseValue, Workload};

/// Service knobs.
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Worker threads. `0` runs nothing until [`Service::drain`] — the
    /// deterministic single-threaded mode tests use.
    pub workers: usize,
    /// Bounded queue capacity; submissions beyond it are shed.
    pub queue_capacity: usize,
    /// Per-tenant in-flight (queued + running) limit.
    pub per_tenant_inflight: usize,
    /// Supervisor attempt budget at [`Tier::Full`] ([`Tier::ReducedRetry`]
    /// always uses 1).
    pub max_attempts: u32,
    /// Deadline applied to requests that don't carry their own.
    pub default_deadline: Option<Duration>,
    /// Circuit-breaker thresholds (shared by every algorithm's breaker).
    pub breaker: BreakerConfig,
    /// Simulator tuning installed on every request's machine (the one
    /// fan-out threshold `par_threshold`, lane cap). The default picks up
    /// the `IPCH_PAR_THRESHOLD` env override, and the pool itself honors
    /// `IPCH_THREADS`.
    pub tuning: Tuning,
    /// Shard count: per-shard queues with tenant→shard affinity hashing.
    /// `queue_capacity` is **per shard**. The default `1` reproduces the
    /// single-queue runtime exactly.
    pub shards: usize,
    /// Batch-coalescing lookahead: how many queue entries behind a popped
    /// small 2-D request are scanned for fusable siblings. `0` (the
    /// default) disables batching entirely.
    pub batch_window: usize,
    /// Maximum members in one fused batch (including the popped request).
    pub batch_max: usize,
    /// Service-wide noisy-predicate mode ([`NoisePlan`]): every request
    /// machine without its own noise plan gets this one, and 2-D/3-D hull
    /// workloads dispatch to the noise-tolerant voted entry points
    /// (`hull2d/noisy`, `hull3d/noisy`) instead of the plain algorithms.
    /// Noisy requests never batch-fuse (the voting oracle owns the whole
    /// input), and the sequential degraded tier stays host-exact and
    /// noise-free. `None` (the default) serves exactly the
    /// pre-noise runtime.
    pub noise: Option<NoisePlan>,
    /// Service-wide workspace budget in simulator cells. When set it acts
    /// twice: a request whose estimated workspace (one cell per input
    /// point) would push the aggregate in-flight estimate past the budget
    /// executes at least at [`Tier::Frugal`], and every frugal run gets
    /// the budget installed as its hard per-request workspace cap (a trip
    /// retries with leaner scratch, then falls back to the exact host
    /// hull). `None` (the default) disables both: no demotion, no cap.
    pub memory_budget: Option<u64>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            workers: 2,
            queue_capacity: 64,
            per_tenant_inflight: 8,
            max_attempts: 3,
            default_deadline: None,
            breaker: BreakerConfig::default(),
            tuning: Tuning::default(),
            shards: 1,
            batch_window: 0,
            batch_max: 8,
            noise: None,
            memory_budget: None,
        }
    }
}

/// Only requests of at most this many points are batch-eligible (batching
/// exists to amortize per-step cost over *small* requests; big ones do
/// enough work per step already).
const BATCH_POINT_CAP: usize = 96;

/// First `retry_after` hint; doubles per consecutive rejection.
const RETRY_AFTER_BASE: Duration = Duration::from_millis(10);

/// Ceiling for the `retry_after` hint.
const RETRY_AFTER_CAP: Duration = Duration::from_secs(1);

/// Tenant→shard affinity: FNV-1a over the tenant name, modulo the shard
/// count. Stable across restarts, so a tenant's traffic always lands on
/// the same lane.
fn shard_of(tenant: &str, shards: usize) -> usize {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for b in tenant.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    (h % shards.max(1) as u64) as usize
}

/// Estimated workspace cells a request's run holds live: the supervised
/// parallel algorithms keep Θ(n)-cell scratch, so one cell per input point
/// is the canonical unit-constant estimate the pressure gauge sums.
fn workspace_estimate(req: &Request) -> u64 {
    req.workload.len() as u64
}

/// The tier a request actually executes at under memory pressure: when
/// admitting `est` more cells would push the in-flight aggregate past the
/// budget, the planned tier is demoted to at least [`Tier::Frugal`] (a
/// planned [`Tier::Sequential`] stays — it is already leaner). The
/// breaker's plan is untouched; only execution demotes.
fn pressure_tier(cfg: &ServiceConfig, inflight_cells: u64, est: u64, planned: Tier) -> Tier {
    match cfg.memory_budget {
        Some(budget) if inflight_cells + est > budget => planned.max(Tier::Frugal),
        _ => planned,
    }
}

/// An admitted request waiting in (or popped from) the queue.
struct Job {
    req: Request,
    token: CancelToken,
    tx: mpsc::Sender<Result<Response, ServiceError>>,
}

/// Everything the lock protects.
struct Inner {
    /// One bounded queue per shard; a tenant's requests always land on
    /// `shard_of(tenant)`.
    queues: Vec<VecDeque<Job>>,
    /// Round-robin pop cursor shared by all workers (no lane starves).
    next_shard: usize,
    /// Queued + running requests per tenant.
    tenant_load: HashMap<String, usize>,
    /// Consecutive rejections per tenant (drives the backoff hint).
    reject_streak: HashMap<String, u32>,
    /// One breaker per algorithm name, created on first dispatch.
    breakers: HashMap<&'static str, Breaker>,
    /// Service-wide aggregate: every request machine's metrics are
    /// absorbed here, and `metrics.service` carries the runtime counters.
    metrics: Metrics,
    /// Requests currently executing (popped, not yet resolved).
    in_flight: usize,
    /// Aggregate estimated workspace cells of executing requests (the
    /// memory-pressure gauge; see [`workspace_estimate`]).
    inflight_cells: u64,
    shutdown: bool,
}

struct Shared {
    cfg: ServiceConfig,
    inner: Mutex<Inner>,
    cv: Condvar,
}

/// Handle for one submitted request. Resolves exactly once via
/// [`Ticket::wait`]; [`Ticket::cancel`] requests cooperative cancellation
/// (honored at the next PRAM step boundary if the job is already running).
#[derive(Debug)]
pub struct Ticket {
    rx: mpsc::Receiver<Result<Response, ServiceError>>,
    token: CancelToken,
}

impl Ticket {
    /// Ask the service to abandon this request. Queued → resolved as
    /// cancelled without running; running → the machine aborts at the next
    /// step boundary with [`RunError::Cancelled`].
    pub fn cancel(&self) {
        self.token.cancel();
    }

    /// The request's cancellation token (shared with its machine).
    pub fn token(&self) -> &CancelToken {
        &self.token
    }

    /// Block until the request resolves. A dropped service that never ran
    /// the job surfaces as [`ServiceError::ShuttingDown`].
    pub fn wait(self) -> Result<Response, ServiceError> {
        self.rx.recv().unwrap_or(Err(ServiceError::ShuttingDown))
    }

    /// Non-blocking poll; `None` while the request is still pending.
    pub fn try_wait(&self) -> Option<Result<Response, ServiceError>> {
        self.rx.try_recv().ok()
    }
}

/// Point-in-time view of one algorithm's breaker, for [`Health`].
#[derive(Clone, Copy, Debug)]
pub struct BreakerView {
    /// Algorithm name (the breaker key).
    pub algorithm: &'static str,
    /// Current degradation tier.
    pub tier: Tier,
    /// Consecutive strained results at that tier.
    pub strain_streak: u32,
    /// A half-open probe is in flight.
    pub probing: bool,
}

/// `/health`-style snapshot of the runtime.
#[derive(Clone, Debug)]
pub struct Health {
    /// Requests waiting across all shard queues.
    pub queue_depth: usize,
    /// Per-shard queue depths (`queue_depth` is their sum).
    pub shard_depths: Vec<usize>,
    /// Requests currently executing.
    pub in_flight: usize,
    /// The service no longer admits requests.
    pub shutting_down: bool,
    /// Every algorithm breaker seen so far (sorted by name).
    pub breakers: Vec<BreakerView>,
    /// The runtime counters.
    pub stats: ServiceStats,
    /// The service-wide noisy-predicate knob, if any.
    pub noise: Option<NoisePlan>,
    /// The service-wide workspace budget, if any.
    pub memory_budget: Option<u64>,
    /// Aggregate estimated workspace cells of executing requests (the
    /// memory-pressure gauge demotion compares against the budget).
    pub inflight_cells: u64,
    /// High-water mark of concurrently live workspace cells across every
    /// absorbed request machine.
    pub peak_live_cells: u64,
    /// Aggregate fault counters absorbed from every request machine (the
    /// authoritative book the `noise_flips`/`noise_votes` ledger copies in
    /// [`ServiceStats`] must agree with).
    pub faults: FaultCounters,
}

impl Health {
    /// Plain-text rendering (what `hulld` prints for `/health`).
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = writeln!(
            s,
            "queue_depth={} in_flight={} shutting_down={}",
            self.queue_depth, self.in_flight, self.shutting_down
        );
        for b in &self.breakers {
            let _ = writeln!(
                s,
                "breaker {}: tier={:?} strain_streak={} probing={}",
                b.algorithm, b.tier, b.strain_streak, b.probing
            );
        }
        let st = &self.stats;
        let _ = writeln!(
            s,
            "submitted={} admitted={} completed={} shed={} cancelled={} \
             deadline_exceeded={} invalid_inputs={} run_errors={} \
             panics_isolated={}",
            st.submitted,
            st.admitted,
            st.completed,
            st.total_shed(),
            st.cancelled,
            st.deadline_exceeded,
            st.invalid_inputs,
            st.run_errors,
            st.panics_isolated,
        );
        let _ = writeln!(
            s,
            "breaker_trips={} breaker_probes={} breaker_recoveries={} \
             degraded_tier1={} frugal_runs={} degraded_tier2={}",
            st.breaker_trips,
            st.breaker_probes,
            st.breaker_recoveries,
            st.degraded_tier1_runs,
            st.frugal_runs,
            st.degraded_tier2_runs,
        );
        let budget = match self.memory_budget {
            Some(b) => b.to_string(),
            None => "off".to_owned(),
        };
        let _ = writeln!(
            s,
            "memory_budget={budget} inflight_cells={} peak_live_cells={} workspace_trips={}",
            self.inflight_cells, self.peak_live_cells, st.workspace_trips,
        );
        let mean_batch = if st.batches_formed > 0 {
            st.batch_members as f64 / st.batches_formed as f64
        } else {
            0.0
        };
        let _ = writeln!(
            s,
            "shards={} shard_depths={:?} batches_formed={} batch_members={} \
             mean_batch_size={mean_batch:.2}",
            self.shard_depths.len(),
            self.shard_depths,
            st.batches_formed,
            st.batch_members,
        );
        match self.noise {
            Some(np) => {
                let _ = writeln!(
                    s,
                    "noise=on p={} mode={:?} noise_flips={} noise_votes={}",
                    np.p, np.mode, st.noise_flips, st.noise_votes
                );
            }
            None => {
                let _ = writeln!(
                    s,
                    "noise=off noise_flips={} noise_votes={}",
                    st.noise_flips, st.noise_votes
                );
            }
        }
        s
    }
}

/// The resilient hull-serving runtime. See the module docs for the
/// lifecycle; construct with [`Service::new`], submit with
/// [`Service::submit`], stop with [`Service::shutdown`] (or just drop it —
/// workers are joined either way).
pub struct Service {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

/// A poisoned service lock means a worker panicked *while holding it* —
/// impossible by construction (requests run outside the lock and the
/// bookkeeping inside it doesn't panic), but recover rather than cascade.
fn lock(shared: &Shared) -> MutexGuard<'_, Inner> {
    shared.inner.lock().unwrap_or_else(|e| e.into_inner())
}

impl Service {
    /// Start the runtime with `cfg.workers` worker threads.
    pub fn new(cfg: ServiceConfig) -> Self {
        // Cancellation unwinds are routine control flow here; keep the
        // default panic hook from spamming stderr for each one.
        silence_cancel_unwinds();
        let nshards = cfg.shards.max(1);
        let shared = Arc::new(Shared {
            inner: Mutex::new(Inner {
                queues: (0..nshards).map(|_| VecDeque::new()).collect(),
                next_shard: 0,
                tenant_load: HashMap::new(),
                reject_streak: HashMap::new(),
                breakers: HashMap::new(),
                metrics: Metrics::new(),
                in_flight: 0,
                inflight_cells: 0,
                shutdown: false,
            }),
            cv: Condvar::new(),
            cfg,
        });
        #[expect(
            clippy::expect_used,
            reason = "fail-fast at service start: a host that cannot spawn workers cannot serve at all"
        )]
        let workers = (0..shared.cfg.workers)
            .map(|i| {
                let sh = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("hulld-worker-{i}"))
                    .spawn(move || worker_loop(&sh))
                    .expect("spawn service worker")
            })
            .collect();
        Self { shared, workers }
    }

    /// Synchronous admission. Returns a [`Ticket`] for an admitted request
    /// or the typed shed decision; never blocks on capacity.
    pub fn submit(&self, req: Request) -> Result<Ticket, ServiceError> {
        let cfg = &self.shared.cfg;
        let mut guard = lock(&self.shared);
        let inner = &mut *guard;
        if inner.shutdown {
            return Err(ServiceError::ShuttingDown);
        }
        inner.metrics.service.submitted += 1;
        // Capacity is per shard: a tenant is shed when *its* lane is full,
        // not when some other tenant's lane is.
        let shard = shard_of(&req.tenant, inner.queues.len());
        if inner.queues[shard].len() >= cfg.queue_capacity {
            inner.metrics.service.rejected_queue_full += 1;
            let retry_after = bump_backoff(inner, &req.tenant);
            return Err(ServiceError::Rejected {
                reason: RejectReason::QueueFull {
                    depth: inner.queues[shard].len(),
                },
                retry_after,
            });
        }
        let load = inner.tenant_load.get(&req.tenant).copied().unwrap_or(0);
        if load >= cfg.per_tenant_inflight {
            inner.metrics.service.rejected_tenant_limit += 1;
            let retry_after = bump_backoff(inner, &req.tenant);
            return Err(ServiceError::Rejected {
                reason: RejectReason::TenantLimit { in_flight: load },
                retry_after,
            });
        }
        inner.metrics.service.admitted += 1;
        inner.reject_streak.remove(&req.tenant);
        *inner.tenant_load.entry(req.tenant.clone()).or_insert(0) += 1;
        let token = match req.deadline.or(cfg.default_deadline) {
            Some(d) => CancelToken::with_deadline(d),
            None => CancelToken::new(),
        };
        let (tx, rx) = mpsc::channel();
        inner.queues[shard].push_back(Job {
            req,
            token: token.clone(),
            tx,
        });
        drop(guard);
        self.shared.cv.notify_one();
        Ok(Ticket { rx, token })
    }

    /// Process queued jobs on the calling thread until every shard queue
    /// is empty. This is how a `workers: 0` service runs at all, and it's
    /// safe alongside live workers (each job is popped exactly once).
    pub fn drain(&self) {
        loop {
            let work = pop_work(&self.shared.cfg, &mut lock(&self.shared));
            match work {
                Some(jobs) => resolve(&self.shared, jobs, run_request),
                None => return,
            }
        }
    }

    /// Snapshot the runtime state.
    pub fn health(&self) -> Health {
        let inner = lock(&self.shared);
        let mut breakers: Vec<BreakerView> = inner
            .breakers
            .iter()
            .map(|(&algorithm, b)| BreakerView {
                algorithm,
                tier: b.tier(),
                strain_streak: b.strain_streak(),
                probing: b.probing(),
            })
            .collect();
        breakers.sort_by_key(|b| b.algorithm);
        Health {
            queue_depth: inner.queues.iter().map(|q| q.len()).sum(),
            shard_depths: inner.queues.iter().map(|q| q.len()).collect(),
            in_flight: inner.in_flight,
            shutting_down: inner.shutdown,
            breakers,
            stats: inner.metrics.service,
            noise: self.shared.cfg.noise,
            memory_budget: self.shared.cfg.memory_budget,
            inflight_cells: inner.inflight_cells,
            peak_live_cells: inner.metrics.peak_live_cells,
            faults: inner.metrics.faults,
        }
    }

    /// Clone of the service-wide aggregate metrics (simulator counters of
    /// every absorbed request machine plus the `service` block).
    pub fn metrics(&self) -> Metrics {
        lock(&self.shared).metrics.clone()
    }

    /// Graceful stop: runs the remaining queue to completion (on this
    /// thread and any live workers), joins the workers, and returns the
    /// final aggregate metrics. New submissions fail with
    /// [`ServiceError::ShuttingDown`].
    pub fn shutdown(mut self) -> Metrics {
        self.drain();
        self.stop_workers();
        let m = lock(&self.shared).metrics.clone();
        m
    }

    fn stop_workers(&mut self) {
        lock(&self.shared).shutdown = true;
        self.shared.cv.notify_all();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        self.stop_workers();
    }
}

/// Increment `tenant`'s rejection streak and return the doubled backoff
/// hint (base · 2^(streak − 1), capped).
fn bump_backoff(inner: &mut Inner, tenant: &str) -> Duration {
    let streak = inner
        .reject_streak
        .entry(tenant.to_owned())
        .and_modify(|s| *s = s.saturating_add(1))
        .or_insert(1);
    let exp = streak.saturating_sub(1).min(20);
    RETRY_AFTER_BASE
        .saturating_mul(1u32 << exp)
        .min(RETRY_AFTER_CAP)
}

fn worker_loop(shared: &Shared) {
    loop {
        let jobs = {
            let mut inner = lock(shared);
            loop {
                if let Some(jobs) = pop_work(&shared.cfg, &mut inner) {
                    break jobs;
                }
                if inner.shutdown {
                    return;
                }
                inner = shared.cv.wait(inner).unwrap_or_else(|e| e.into_inner());
            }
        };
        resolve(shared, jobs, run_request);
    }
}

/// True when a request may join a fused batch: a 2-D workload small enough
/// that per-step overhead dominates, with no chaos plan (fault injection
/// is per-request state the shared batch machine cannot isolate) and no
/// service-wide noise knob (noisy runs take the voted entry points, which
/// the fused batch kernel does not speak).
fn batch_eligible(cfg: &ServiceConfig, req: &Request) -> bool {
    cfg.noise.is_none()
        && req.chaos.is_none()
        && matches!(
            &req.workload,
            Workload::Hull2d { points, .. } if points.len() <= BATCH_POINT_CAP
        )
}

/// Pop the next unit of work: the front job of the next non-empty shard
/// (round-robin from the shared cursor), plus — when batching is on and
/// the job is eligible — up to `batch_max − 1` fusable same-algorithm
/// siblings from the first `batch_window` entries behind it. Ineligible
/// entries keep their queue positions.
fn pop_work(cfg: &ServiceConfig, inner: &mut Inner) -> Option<Vec<Job>> {
    let ns = inner.queues.len();
    let shard = (0..ns)
        .map(|i| (inner.next_shard + i) % ns)
        .find(|&s| !inner.queues[s].is_empty())?;
    inner.next_shard = (shard + 1) % ns;
    let q = &mut inner.queues[shard];
    let first = q.pop_front()?;
    if cfg.batch_window == 0 || cfg.batch_max <= 1 || !batch_eligible(cfg, &first.req) {
        return Some(vec![first]);
    }
    let key = first.req.workload.algorithm();
    let mut batch = vec![first];
    let mut idx = 0;
    let mut scanned = 0;
    while idx < q.len() && scanned < cfg.batch_window && batch.len() < cfg.batch_max {
        scanned += 1;
        let r = &q[idx].req;
        if r.workload.algorithm() == key && batch_eligible(cfg, r) {
            #[expect(clippy::expect_used, reason = "`idx < q.len()` is the loop guard")]
            batch.push(q.remove(idx).expect("index in bounds"));
        } else {
            idx += 1;
        }
    }
    Some(batch)
}

fn finish_tenant(inner: &mut Inner, tenant: &str) {
    if let Some(load) = inner.tenant_load.get_mut(tenant) {
        *load -= 1;
        if *load == 0 {
            inner.tenant_load.remove(tenant);
        }
    }
}

/// What one executed request hands back: its machine's metrics (absorbed
/// into the aggregate whether it succeeded or not) and the outcome.
type RunReturn = (Metrics, Result<Response, RunError>);

/// A reply to send once the service lock is released.
type Reply = (
    mpsc::Sender<Result<Response, ServiceError>>,
    Result<Response, ServiceError>,
);

/// A popped job that survived its queued-death check. It holds one
/// in-flight slot, `cells` of the memory-pressure gauge and one unit of its
/// tenant's load until [`settle`] consumes it; it is neither `Clone` nor
/// `Copy`, so a second release of the same admission does not compile.
struct Admission {
    job: Job,
    /// The breaker's plan, reported back with the run's signal.
    plan: Plan,
    /// The tier the job executes at: `plan.tier`, or lower under memory
    /// pressure (see [`pressure_tier`]).
    tier: Tier,
    /// Workspace cells charged to the gauge at admission.
    cells: u64,
}

/// How one admitted member's run ended: its own machine's metrics (`None`
/// for a fused member, whose shared machine is absorbed once per batch, and
/// for a run that unwound) and the outcome, or the unwind payload.
type Ran = (
    Admission,
    Option<Metrics>,
    std::thread::Result<Result<Response, RunError>>,
);

/// The seed of a fused batch run: a pure function of the member seeds, so
/// a replay of the same batch simulates identically, and order-sensitive,
/// so distinct batchings of the same requests stay distinguishable. Each
/// member seed goes through the SplitMix64 finalizer with a
/// position-dependent rotation. Correctness never depends on it: members
/// are certificate-verified one by one, and the hull a certificate admits
/// is unique.
fn combined_seed(seeds: impl IntoIterator<Item = u64>) -> u64 {
    let mut acc = 0xBA7C_4ED0_5EED_0001u64;
    for (i, s) in seeds.into_iter().enumerate() {
        acc = mix64(acc ^ mix64(s.wrapping_add(i as u64).rotate_left((i % 63) as u32)));
    }
    acc
}

/// Resolve one popped unit of work — a lone job or a coalesced batch of
/// small same-algorithm 2-D requests; a lone job is a batch of one — with
/// every member resolved individually and exactly once. `runner` executes
/// a member on its own machine: the service passes [`run_request`], tests
/// pass a panicking body to drive the isolation machinery.
///
/// Three phases. **A** (lock): resolve members whose token fired while
/// queued, then plan each survivor's tier and charge its [`Admission`].
/// **B** (no lock): when at least two members are planned at `Full` (not
/// probes, not pressure-demoted), they run fused — [`upper_hulls_batch`]
/// on one machine seeded by [`combined_seed`] over the member seeds. Every other
/// member, plus any member whose fused certificate failed (or all of them,
/// if the shared machine panicked), runs its own panic-isolated machine
/// through `runner` at its execution tier. **C** (lock): absorb the shared
/// machine's metrics once, then [`settle`] every admission. The resolution
/// invariant (`submitted == total_resolved`) holds member by member.
fn resolve(
    shared: &Shared,
    jobs: Vec<Job>,
    runner: impl Fn(&ServiceConfig, &Request, Tier, CancelToken) -> RunReturn,
) {
    let cfg = &shared.cfg;

    // Phase A: admission bookkeeping under one lock round.
    let mut admitted: Vec<Admission> = Vec::with_capacity(jobs.len());
    let mut replies: Vec<Reply> = Vec::new();
    {
        let mut guard = lock(shared);
        let inner = &mut *guard;
        for job in jobs {
            let alg = job.req.workload.algorithm();
            // A request that died while queued resolves without running: an
            // expired deadline is load shedding (typed, with a retry hint),
            // an explicit cancel is the client's own typed abort.
            if let Err(cause) = job.token.check() {
                finish_tenant(inner, &job.req.tenant);
                let err = match cause {
                    CancelCause::DeadlineExceeded => {
                        inner.metrics.service.shed_expired += 1;
                        ServiceError::Rejected {
                            reason: RejectReason::Expired,
                            retry_after: RETRY_AFTER_BASE,
                        }
                    }
                    CancelCause::Cancelled => {
                        inner.metrics.service.cancelled += 1;
                        ServiceError::Run(RunError::Cancelled { algorithm: alg })
                    }
                };
                replies.push((job.tx, Err(err)));
                continue;
            }
            // The breaker picks the tier (possibly a half-open probe above
            // it), then memory pressure demotes the *execution* tier; later
            // members of one batch see the cells earlier members just
            // charged. Probes are exempt: a probe exists to test the tier
            // above, and its workspace overage is bounded by one request.
            let plan = inner
                .breakers
                .entry(alg)
                .or_insert_with(|| Breaker::new(cfg.breaker))
                .plan(&mut inner.metrics.service);
            let cells = workspace_estimate(&job.req);
            let tier = if plan.probe {
                plan.tier
            } else {
                pressure_tier(cfg, inner.inflight_cells, cells, plan.tier)
            };
            inner.in_flight += 1;
            inner.inflight_cells += cells;
            admitted.push(Admission {
                job,
                plan,
                tier,
                cells,
            });
        }
    }
    for (tx, r) in replies.drain(..) {
        let _ = tx.send(r);
    }

    // Only healthy Full-tier members fuse; probes, degraded tiers and
    // pressure-demoted members keep their own machines so the breaker's
    // feedback stays honest. A lone fusable member runs alone.
    let (mut fused, mut solo): (Vec<Admission>, Vec<Admission>) = admitted
        .into_iter()
        .partition(|a| a.plan.tier == Tier::Full && !a.plan.probe && a.tier == Tier::Full);
    if fused.len() == 1 {
        solo.append(&mut fused);
    }
    let fused_count = fused.len();

    // Phase B: run everything outside the lock.
    let mut ran: Vec<Ran> = Vec::with_capacity(fused.len() + solo.len());
    let mut batch_metrics: Option<Metrics> = None;
    if !fused.is_empty() {
        let caught = catch_unwind(AssertUnwindSafe(|| {
            let slices: Vec<&[ipch_geom::Point2]> = fused
                .iter()
                .map(|a| match &a.job.req.workload {
                    Workload::Hull2d { points, .. } => points.as_slice(),
                    Workload::Hull3d { .. } => {
                        unreachable!("batch_eligible admits only 2-D workloads")
                    }
                })
                .collect();
            let cat = ConcatPoints2::from_members(&slices);
            // No fault plan and no cancel token: per-member chaos
            // disqualifies a request from fusion, and per-member deadlines
            // are checked at the batch boundary below.
            let mut bm = Machine::new(combined_seed(fused.iter().map(|a| a.job.req.seed)));
            bm.tuning = cfg.tuning;
            let mut shm = Shm::new();
            let results = upper_hulls_batch(&mut bm, &mut shm, &cat);
            (bm.metrics, results)
        }));
        match caught {
            Ok((metrics, results)) => {
                for (adm, result) in fused.drain(..).zip(results) {
                    // Per-member deadline/cancel, checked at the batch
                    // boundary: the shared machine carries no token, so one
                    // member's abort cannot poison its siblings.
                    let outcome = match (adm.job.token.check(), result) {
                        (Err(cause), _) => Err(RunError::from_cancel(
                            adm.job.req.workload.algorithm(),
                            cause,
                        )),
                        (Ok(()), Ok(hull)) => Ok(Response::new(
                            ResponseValue::Hull2d(hull),
                            Tier::Full,
                            Some(Outcome::FirstTry),
                            1,
                            &metrics,
                        )),
                        (Ok(()), Err(e @ RunError::InvalidInput { .. })) => Err(e),
                        // The certificate refused this member's fused
                        // chain: it runs alone at its planned tier;
                        // siblings keep their fused results.
                        (Ok(()), Err(_)) => {
                            solo.push(adm);
                            continue;
                        }
                    };
                    ran.push((adm, None, Ok(outcome)));
                }
                batch_metrics = Some(metrics);
            }
            // The shared machine blew up. No member is charged a panic for
            // a sibling's poison: everyone runs alone (a panic there is
            // isolated to its own request).
            Err(_) => solo.append(&mut fused),
        }
    }
    for adm in solo {
        let caught = catch_unwind(AssertUnwindSafe(|| {
            runner(cfg, &adm.job.req, adm.tier, adm.job.token.clone())
        }));
        ran.push(match caught {
            Ok((metrics, outcome)) => (adm, Some(metrics), Ok(outcome)),
            Err(payload) => (adm, None, Err(payload)),
        });
    }

    // Phase C: resolve every member exactly once under one lock round.
    {
        let mut guard = lock(shared);
        let inner = &mut *guard;
        if fused_count > 0 {
            inner.metrics.service.batches_formed += 1;
            inner.metrics.service.batch_members += fused_count as u64;
        }
        // The shared machine's metrics count once — not once per member.
        if let Some(bm) = &batch_metrics {
            absorb_machine(inner, bm);
        }
        for (adm, metrics, outcome) in ran {
            replies.push(settle(inner, adm, metrics.as_ref(), outcome));
        }
    }
    for (tx, r) in replies {
        let _ = tx.send(r);
    }
}

/// Absorb one machine's metrics into the aggregate and copy its
/// noisy-predicate and workspace-trip counters into the [`ServiceStats`]
/// ledger, so the ledger copies stay equal to the aggregate books
/// (`noise_flips`/`noise_votes` vs `Metrics::faults.predicate_flips`/
/// `predicate_votes`, and `workspace_trips` vs
/// `Metrics::supervisor.workspace_aborts`) — the invariants the tests and
/// `hulld`'s exit checks assert.
fn absorb_machine(inner: &mut Inner, metrics: &Metrics) {
    inner.metrics.absorb(metrics);
    inner.metrics.service.noise_flips += metrics.faults.predicate_flips;
    inner.metrics.service.noise_votes += metrics.faults.predicate_votes;
    inner.metrics.service.workspace_trips += metrics.supervisor.workspace_aborts;
}

/// Settle one admission under the lock: release its in-flight slot, gauge
/// cells and tenant load, absorb its own machine's metrics (if it ran
/// one), bump the matching ledger counter exactly once, report the
/// outcome's signal to the breaker, and return the reply.
fn settle(
    inner: &mut Inner,
    adm: Admission,
    metrics: Option<&Metrics>,
    outcome: std::thread::Result<Result<Response, RunError>>,
) -> Reply {
    let Admission {
        job,
        plan,
        tier,
        cells,
    } = adm;
    inner.in_flight -= 1;
    inner.inflight_cells -= cells;
    finish_tenant(inner, &job.req.tenant);
    if let Some(m) = metrics {
        absorb_machine(inner, m);
    }
    let alg = job.req.workload.algorithm();
    let svc = &mut inner.metrics.service;
    // Defence in depth: a cancellation unwind that escaped the supervisor
    // (e.g. a machine poll outside any supervised scope) is still typed,
    // not an isolated panic.
    let outcome = match outcome {
        Err(payload) => match payload.downcast::<CancelUnwind>() {
            Ok(cu) => Ok(Err(RunError::from_cancel(alg, cu.cause))),
            Err(payload) => Err(payload),
        },
        ran => ran,
    };
    let (signal, result) = match outcome {
        Ok(Ok(resp)) => {
            svc.completed += 1;
            match tier {
                Tier::Full => {}
                Tier::ReducedRetry => svc.degraded_tier1_runs += 1,
                Tier::Frugal => svc.frugal_runs += 1,
                Tier::Sequential => svc.degraded_tier2_runs += 1,
            }
            let signal = match resp.outcome {
                // A clean sequential run (no supervisor) also counts as
                // healthy: the probe path relies on it.
                Some(Outcome::FirstTry) | None => Signal::Clean,
                Some(Outcome::Retried(_)) | Some(Outcome::FellBack) => Signal::Strained,
            };
            (signal, Ok(resp))
        }
        Ok(Err(e)) => {
            let signal = match &e {
                RunError::Cancelled { .. } => {
                    svc.cancelled += 1;
                    Signal::Neutral
                }
                RunError::DeadlineExceeded { .. } => {
                    svc.deadline_exceeded += 1;
                    Signal::Neutral
                }
                RunError::InvalidInput { .. } => {
                    svc.invalid_inputs += 1;
                    Signal::Neutral
                }
                _ => {
                    svc.run_errors += 1;
                    Signal::Strained
                }
            };
            (signal, Err(ServiceError::Run(e)))
        }
        Err(payload) => {
            svc.panics_isolated += 1;
            let detail = payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".to_owned());
            (
                Signal::Strained,
                Err(ServiceError::Run(RunError::Panic {
                    algorithm: alg,
                    detail,
                })),
            )
        }
    };
    if let Some(br) = inner.breakers.get_mut(alg) {
        br.report(plan, signal, svc);
    }
    (job.tx, result)
}

/// Execute one admitted request at `tier` on its own machine.
fn run_request(cfg: &ServiceConfig, req: &Request, tier: Tier, token: CancelToken) -> RunReturn {
    let mut m = Machine::new(req.seed);
    m.tuning = cfg.tuning;
    // The service-wide noise knob merges into the request's fault plan (a
    // per-request `chaos.noise` wins — the operator knob is a default, not
    // an override), so inheritance, reseeding, and counter plumbing all
    // ride the existing fault plane.
    let mut chaos = req.chaos.clone();
    if let Some(np) = cfg.noise {
        let plan = chaos.get_or_insert_with(FaultPlan::default);
        if plan.noise.is_none() {
            plan.noise = Some(np);
        }
    }
    if let Some(plan) = &chaos {
        m.install_faults(plan.clone());
    }
    m.set_cancel_token(token);
    let result = match tier {
        // The Sequential breaker tier stays host-exact and noise-free:
        // degraded never means "maybe wrong", and the host algorithms
        // don't consult the simulator's predicates anyway.
        Tier::Sequential => run_sequential(&mut m, req),
        // Frugal requests never batch-fuse: the bounded-workspace posture
        // owns its own machine and its own budget.
        Tier::Frugal => run_frugal(cfg, &mut m, req),
        Tier::Full | Tier::ReducedRetry => {
            let scfg = SuperviseConfig {
                max_attempts: if tier == Tier::ReducedRetry {
                    1
                } else {
                    cfg.max_attempts
                },
            };
            run_supervised(&mut m, req, tier, &scfg)
        }
    };
    (m.metrics.clone(), result)
}

/// The [`Tier::Frugal`] path: read-only bounded-workspace execution.
///
/// 2-D requests run `hull2d/frugal` — the prune-and-search gift wrap that
/// never writes the input array and keeps O(s) scratch cells — under the
/// service's workspace budget as a hard per-request cap: a budget trip is
/// a typed [`RunError::WorkspaceExceeded`] the supervisor answers by
/// retrying with half the scratch, and exhaustion falls back to the exact
/// host hull (zero simulator cells), so the posture degrades in memory,
/// never in correctness. Scratch starts at ⌈√n⌉ (the classic time/space
/// balance point), clamped to the budget so the first attempt already
/// fits when the budget allows it.
///
/// 3-D has no bounded-workspace variant yet (a ROADMAP item); it serves
/// at single-attempt supervision — the fallback-first posture — so
/// degraded 3-D traffic still resolves through the Frugal rung.
fn run_frugal(cfg: &ServiceConfig, m: &mut Machine, req: &Request) -> Result<Response, RunError> {
    match &req.workload {
        Workload::Hull2d { points, .. } => {
            let n = points.len().max(1);
            let mut scratch = n.isqrt().max(1);
            if let Some(b) = cfg.memory_budget {
                scratch = scratch.min(usize::try_from(b).unwrap_or(usize::MAX).max(1));
            }
            let scfg = SuperviseConfig {
                max_attempts: cfg.max_attempts,
            };
            let s = upper_hull_frugal_supervised(m, points, scratch, cfg.memory_budget, &scfg)?;
            Ok(Response::new(
                ResponseValue::Hull2d(s.value.hull),
                Tier::Frugal,
                Some(s.outcome),
                s.attempts,
                &m.metrics,
            ))
        }
        Workload::Hull3d { .. } => {
            let scfg = SuperviseConfig { max_attempts: 1 };
            run_supervised(m, req, Tier::Frugal, &scfg)
        }
    }
}

fn run_supervised(
    m: &mut Machine,
    req: &Request,
    tier: Tier,
    scfg: &SuperviseConfig,
) -> Result<Response, RunError> {
    // A live noise plan reroutes to the voted (noise-tolerant) entry
    // points regardless of the requested 2-D algorithm: the plain
    // algorithms would evaluate lying predicates unguarded and burn every
    // attempt on certificate failures.
    let noisy = m.noise_spec().is_some();
    let (value, outcome, attempts) = match &req.workload {
        Workload::Hull2d { points, .. } if noisy => {
            let s = upper_hull_noisy_supervised(m, points, scfg)?;
            (ResponseValue::Hull2d(s.value.hull), s.outcome, s.attempts)
        }
        Workload::Hull3d { points } if noisy => {
            let s = upper_hull3_noisy_supervised(m, points, scfg)?;
            (ResponseValue::Hull3d(s.value.facets), s.outcome, s.attempts)
        }
        Workload::Hull2d { points, algo } => match algo {
            Hull2dAlgo::Unsorted => {
                let s =
                    upper_hull_unsorted_supervised(m, points, &UnsortedParams::default(), scfg)?;
                (ResponseValue::Hull2d(s.value.0.hull), s.outcome, s.attempts)
            }
            Hull2dAlgo::Dac => {
                let s = upper_hull_dac_supervised(m, points, false, scfg)?;
                (ResponseValue::Hull2d(s.value.hull), s.outcome, s.attempts)
            }
        },
        Workload::Hull3d { points } => {
            let s = upper_hull3_unsorted_supervised(m, points, &Unsorted3Params::default(), scfg)?;
            (
                ResponseValue::Hull3d(s.value.0.facets),
                s.outcome,
                s.attempts,
            )
        }
    };
    Ok(Response::new(
        value,
        tier,
        Some(outcome),
        attempts,
        &m.metrics,
    ))
}

/// The [`Tier::Sequential`] path: exact host-side algorithms, no
/// randomized machinery, no supervisor — the breaker's last resort. Input
/// validation and certificate verification still run (degraded never
/// means unchecked), and the work is charged to the machine at p = 1 so
/// the aggregate metrics stay honest.
fn run_sequential(m: &mut Machine, req: &Request) -> Result<Response, RunError> {
    let alg = req.workload.algorithm();
    if let Some(cause) = m.cancel_token().and_then(|t| t.check().err()) {
        return Err(RunError::from_cancel(alg, cause));
    }
    let value = match &req.workload {
        Workload::Hull2d { points, .. } => {
            validate_points2(points).map_err(|e| RunError::invalid_input(alg, e))?;
            let mut stats = SeqStats::default();
            let hull = monotone::upper_hull(points, &mut stats);
            m.charge(stats.total(), stats.total());
            verify_upper_hull(points, &hull).map_err(|detail| RunError::Verify {
                algorithm: alg,
                detail,
            })?;
            ResponseValue::Hull2d(hull)
        }
        Workload::Hull3d { points } => {
            validate_points3(points).map_err(|e| RunError::invalid_input(alg, e))?;
            let mut stats = Seq3Stats::default();
            let facets = upper_hull3_giftwrap(points, &mut stats);
            m.charge(stats.total(), stats.total());
            verify_upper_hull3(points, &facets, true).map_err(|detail| RunError::Verify {
                algorithm: alg,
                detail,
            })?;
            ResponseValue::Hull3d(facets)
        }
    };
    Ok(Response::new(value, Tier::Sequential, None, 0, &m.metrics))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipch_geom::Point2;
    use ipch_pram::FaultPlan;

    #[test]
    fn combined_seed_is_deterministic_and_order_sensitive() {
        let a = combined_seed([1, 2, 3]);
        let b = combined_seed([1, 2, 3]);
        let c = combined_seed([3, 2, 1]);
        assert_eq!(a, b, "replayable");
        assert_ne!(a, c, "order-sensitive");
        assert_ne!(combined_seed([0, 0]), combined_seed([0, 0, 0]));
        assert_ne!(combined_seed(std::iter::empty()), 0);
    }

    fn pts(n: usize) -> Vec<Point2> {
        // A strict parabola: distinct x, no duplicates, every point on the
        // upper hull — cheap to generate and certificate-friendly.
        (0..n)
            .map(|i| {
                let x = i as f64;
                Point2 {
                    x,
                    y: -(x - n as f64 / 2.0).powi(2),
                }
            })
            .collect()
    }

    fn req2(tenant: &str, seed: u64, n: usize) -> Request {
        Request::new(
            tenant,
            seed,
            Workload::Hull2d {
                points: pts(n),
                algo: Hull2dAlgo::Unsorted,
            },
        )
    }

    fn manual(cfg: ServiceConfig) -> Service {
        Service::new(ServiceConfig { workers: 0, ..cfg })
    }

    fn assert_resolved(stats: &ServiceStats) {
        assert_eq!(
            stats.submitted,
            stats.total_resolved(),
            "resolution invariant violated: {stats:?}"
        );
    }

    #[test]
    fn clean_request_completes_with_certificate_at_full_tier() {
        let svc = manual(ServiceConfig::default());
        let t = svc.submit(req2("acme", 7, 64)).unwrap();
        svc.drain();
        let resp = t.wait().unwrap();
        assert_eq!(resp.tier, Tier::Full);
        assert_eq!(resp.outcome, Some(Outcome::FirstTry));
        match resp.value {
            ResponseValue::Hull2d(h) => assert_eq!(h.vertices.len(), 64),
            _ => panic!("wrong value kind"),
        }
        assert!(resp.sim_steps > 0);
        let h = svc.health();
        assert_eq!(h.queue_depth, 0);
        assert_eq!(h.in_flight, 0);
        assert_eq!(h.stats.submitted, 1);
        assert_eq!(h.stats.admitted, 1);
        assert_eq!(h.stats.completed, 1);
        assert_resolved(&h.stats);
        let m = svc.shutdown();
        assert!(m.steps > 0, "request machine metrics were absorbed");
    }

    #[test]
    fn queue_full_sheds_typed_with_doubling_backoff() {
        let svc = manual(ServiceConfig {
            queue_capacity: 2,
            ..ServiceConfig::default()
        });
        let t1 = svc.submit(req2("acme", 1, 16)).unwrap();
        let t2 = svc.submit(req2("acme", 2, 16)).unwrap();
        let e3 = svc.submit(req2("acme", 3, 16)).unwrap_err();
        let e4 = svc.submit(req2("acme", 4, 16)).unwrap_err();
        let (r3, r4) = match (&e3, &e4) {
            (
                ServiceError::Rejected {
                    reason: RejectReason::QueueFull { depth: 2 },
                    retry_after: r3,
                },
                ServiceError::Rejected {
                    reason: RejectReason::QueueFull { depth: 2 },
                    retry_after: r4,
                },
            ) => (*r3, *r4),
            other => panic!("expected two queue-full sheds, got {other:?}"),
        };
        assert_eq!(r4, r3 * 2, "backoff hint doubles per consecutive reject");
        assert!(e3.is_shed() && e4.is_shed());
        svc.drain();
        assert!(t1.wait().is_ok());
        assert!(t2.wait().is_ok());
        let st = svc.health().stats;
        assert_eq!(st.rejected_queue_full, 2);
        assert_eq!(st.completed, 2);
        assert_resolved(&st);
    }

    #[test]
    fn tenant_limit_sheds_only_the_noisy_tenant() {
        let svc = manual(ServiceConfig {
            per_tenant_inflight: 1,
            ..ServiceConfig::default()
        });
        let t1 = svc.submit(req2("noisy", 1, 16)).unwrap();
        let err = svc.submit(req2("noisy", 2, 16)).unwrap_err();
        assert!(matches!(
            err,
            ServiceError::Rejected {
                reason: RejectReason::TenantLimit { in_flight: 1 },
                ..
            }
        ));
        let t2 = svc.submit(req2("quiet", 3, 16)).unwrap();
        svc.drain();
        assert!(t1.wait().is_ok());
        assert!(t2.wait().is_ok());
        // The noisy tenant's slot freed up after the drain.
        let t3 = svc.submit(req2("noisy", 4, 16)).unwrap();
        svc.drain();
        assert!(t3.wait().is_ok());
        let st = svc.health().stats;
        assert_eq!(st.rejected_tenant_limit, 1);
        assert_resolved(&st);
    }

    #[test]
    fn cancel_while_queued_resolves_typed_without_running() {
        let svc = manual(ServiceConfig::default());
        let t = svc.submit(req2("acme", 1, 16)).unwrap();
        t.cancel();
        svc.drain();
        match t.wait() {
            Err(ServiceError::Run(RunError::Cancelled { algorithm })) => {
                assert_eq!(algorithm, "hull2d/unsorted");
            }
            other => panic!("expected typed cancellation, got {other:?}"),
        }
        let st = svc.health().stats;
        assert_eq!(st.cancelled, 1);
        assert_eq!(st.completed, 0);
        assert_resolved(&st);
        // No machine ran, so no simulator metrics were absorbed.
        assert_eq!(svc.metrics().steps, 0);
    }

    #[test]
    fn expired_deadline_in_queue_is_shed_with_retry_hint() {
        let svc = manual(ServiceConfig::default());
        let mut req = req2("acme", 1, 16);
        req.deadline = Some(Duration::ZERO);
        let t = svc.submit(req).unwrap();
        svc.drain();
        match t.wait() {
            Err(
                e @ ServiceError::Rejected {
                    reason: RejectReason::Expired,
                    ..
                },
            ) => assert_eq!(e.code(), "shed_expired"),
            other => panic!("expected expired shed, got {other:?}"),
        }
        let st = svc.health().stats;
        assert_eq!(st.shed_expired, 1);
        assert_resolved(&st);
    }

    #[test]
    fn default_deadline_applies_when_request_has_none() {
        let svc = manual(ServiceConfig {
            default_deadline: Some(Duration::ZERO),
            ..ServiceConfig::default()
        });
        let t = svc.submit(req2("acme", 1, 16)).unwrap();
        svc.drain();
        assert!(matches!(
            t.wait(),
            Err(ServiceError::Rejected {
                reason: RejectReason::Expired,
                ..
            })
        ));
        assert_resolved(&svc.health().stats);
    }

    #[test]
    fn invalid_input_is_typed_and_neutral_for_the_breaker() {
        let svc = manual(ServiceConfig::default());
        let mut p = pts(16);
        p[3].y = f64::NAN;
        let t = svc
            .submit(Request::new(
                "acme",
                1,
                Workload::Hull2d {
                    points: p,
                    algo: Hull2dAlgo::Unsorted,
                },
            ))
            .unwrap();
        svc.drain();
        match t.wait() {
            Err(ServiceError::Run(e @ RunError::InvalidInput { .. })) => {
                assert_eq!(e.code(), "invalid_input");
            }
            other => panic!("expected typed invalid input, got {other:?}"),
        }
        let h = svc.health();
        assert_eq!(h.stats.invalid_inputs, 1);
        assert_resolved(&h.stats);
        let b = &h.breakers[0];
        assert_eq!((b.tier, b.strain_streak), (Tier::Full, 0), "neutral signal");
    }

    #[test]
    fn coordinates_outside_the_exact_range_are_a_typed_invalid_input() {
        let svc = manual(ServiceConfig::default());
        // xy offsets ~1e-130 under z = 1e200
        let points = (0..16)
            .map(|i| ipch_geom::Point3 {
                x: (i % 4) as f64 * 1e-130,
                y: (i / 4) as f64 * 1e-130,
                z: if i % 2 == 0 { 1e200 } else { 0.0 },
            })
            .collect();
        let t = svc
            .submit(Request::new("acme", 1, Workload::Hull3d { points }))
            .unwrap();
        svc.drain();
        match t.wait() {
            Err(ServiceError::Run(e @ RunError::InvalidInput { .. })) => {
                assert_eq!(e.code(), "invalid_input");
                assert!(e.to_string().contains("exact predicates' range"), "{e}");
            }
            other => panic!("expected typed invalid input, got {other:?}"),
        }
        let h = svc.health();
        assert_eq!(h.stats.invalid_inputs, 1);
        assert_resolved(&h.stats);
    }

    #[test]
    fn breaker_trips_through_tiers_and_recovers_via_probes() {
        let svc = manual(ServiceConfig {
            breaker: BreakerConfig {
                trip_after: 2,
                probe_after: 1,
            },
            ..ServiceConfig::default()
        });
        let chaos = FaultPlan {
            corrupt_rate: 1.0,
            ..FaultPlan::default()
        };
        let strained = |seed: u64| {
            let mut r = req2("acme", seed, 32);
            r.chaos = Some(chaos.clone());
            r
        };

        // Strained traffic walks the breaker down Full → ReducedRetry →
        // Frugal → Sequential (with probe_after=1 some requests are
        // half-open probes whose strained results just re-arm the window,
        // so this takes a few more than 3·trip_after requests). At
        // corrupt_rate 1.0 every commit is corrupted, so a run either
        // falls back (strained success) or fails its certificate outright
        // (typed error) — the fallback machine inherits the chaos plan
        // too; both count as strain. The frugal tier's kernel commits are
        // corrupted the same way, so it strains through as well.
        // Sequential runs are host-side and immune, so the walk
        // terminates there.
        for seed in 0..24u64 {
            if svc.health().breakers.first().map(|b| b.tier) == Some(Tier::Sequential) {
                break;
            }
            let t = svc.submit(strained(seed)).unwrap();
            svc.drain();
            match t.wait() {
                Ok(resp) => assert_eq!(resp.outcome, Some(Outcome::FellBack)),
                Err(ServiceError::Run(e)) => assert!(!e.is_terminal(), "strained error: {e}"),
                other => panic!("unexpected resolution: {other:?}"),
            }
        }
        let h = svc.health();
        assert_eq!(h.breakers[0].tier, Tier::Sequential);
        assert_eq!(h.stats.breaker_trips, 3);

        // Sequential run (host-side, immune to the machine's chaos) serves
        // degraded; with probe_after=1 the next request is a half-open
        // probe at ReducedRetry. Feed it clean traffic to climb back.
        let t = svc.submit(req2("acme", 10, 32)).unwrap();
        svc.drain();
        let resp = t.wait().unwrap();
        assert_eq!(resp.tier, Tier::Sequential);
        assert_eq!(resp.outcome, None);

        let mut probe_tiers = Vec::new();
        for seed in 11..24u64 {
            let t = svc.submit(req2("acme", seed, 32)).unwrap();
            svc.drain();
            probe_tiers.push(t.wait().unwrap().tier);
            if svc.health().breakers[0].tier == Tier::Full {
                break;
            }
        }
        let h = svc.health();
        assert_eq!(h.breakers[0].tier, Tier::Full, "breaker recovered");
        assert_eq!(h.stats.breaker_recoveries, 1, "counted on reaching Full");
        assert!(h.stats.breaker_probes >= 3, "one probe per tier climbed");
        assert!(
            probe_tiers.contains(&Tier::Frugal)
                && probe_tiers.contains(&Tier::ReducedRetry)
                && probe_tiers.contains(&Tier::Full),
            "requests were observably served at the probe tiers: {probe_tiers:?}"
        );
        assert!(h.stats.degraded_tier1_runs > 0 && h.stats.degraded_tier2_runs > 0);
        assert!(h.stats.frugal_runs > 0, "the frugal rung served requests");
        assert_resolved(&h.stats);
    }

    #[test]
    fn sequential_tier_serves_hull3d_too() {
        let svc = manual(ServiceConfig {
            breaker: BreakerConfig {
                trip_after: 1,
                probe_after: 1000,
            },
            ..ServiceConfig::default()
        });
        let points: Vec<ipch_geom::Point3> = (0..20)
            .map(|i| {
                let x = (i % 5) as f64;
                let y = (i / 5) as f64;
                ipch_geom::Point3 {
                    x,
                    y,
                    z: -(x * x + y * y) + 0.01 * i as f64,
                }
            })
            .collect();
        let mk = |seed: u64, chaos: Option<FaultPlan>| Request {
            tenant: "acme".into(),
            seed,
            workload: Workload::Hull3d {
                points: points.clone(),
            },
            deadline: None,
            chaos,
        };
        // Three strained runs walk the 3-D breaker down to Sequential
        // (Full → ReducedRetry → Frugal → Sequential with trip_after: 1;
        // the 3-D Frugal rung is single-attempt supervised, so chaos
        // strains it exactly like ReducedRetry).
        for seed in 0..3u64 {
            let t = svc
                .submit(mk(
                    seed,
                    Some(FaultPlan {
                        corrupt_rate: 1.0,
                        ..FaultPlan::default()
                    }),
                ))
                .unwrap();
            svc.drain();
            t.wait().unwrap();
        }
        assert_eq!(svc.health().breakers[0].tier, Tier::Sequential);
        let t = svc.submit(mk(9, None)).unwrap();
        svc.drain();
        let resp = t.wait().unwrap();
        assert_eq!(resp.tier, Tier::Sequential);
        match resp.value {
            ResponseValue::Hull3d(f) => assert!(!f.is_empty()),
            _ => panic!("wrong value kind"),
        }
        assert_resolved(&svc.health().stats);
    }

    #[test]
    fn memory_pressure_demotes_solo_requests_to_frugal() {
        let svc = manual(ServiceConfig {
            memory_budget: Some(100),
            ..ServiceConfig::default()
        });
        // 200 estimated cells > the 100-cell budget: executes frugally.
        let t = svc.submit(req2("acme", 1, 200)).unwrap();
        svc.drain();
        let resp = t.wait().unwrap();
        assert_eq!(resp.tier, Tier::Frugal);
        assert_eq!(resp.outcome, Some(Outcome::FirstTry));
        match resp.value {
            ResponseValue::Hull2d(h) => assert_eq!(h.vertices.len(), 200),
            _ => panic!("wrong value kind"),
        }
        assert!(
            resp.peak_cells > 0 && resp.peak_cells <= 100,
            "frugal run held {} cells against a budget of 100",
            resp.peak_cells
        );
        // Pressure demotion is not a breaker event: the breaker stays Full
        // and nothing tripped.
        let h = svc.health();
        assert_eq!((h.breakers[0].tier, h.stats.breaker_trips), (Tier::Full, 0));
        assert_eq!(h.stats.frugal_runs, 1);
        assert_eq!(h.inflight_cells, 0, "gauge released after resolution");
        let text = h.render();
        assert!(text.contains("memory_budget=100"), "render: {text}");
        assert!(text.contains("workspace_trips=0"), "render: {text}");

        // A request that fits the budget still serves at Full.
        let t = svc.submit(req2("acme", 2, 50)).unwrap();
        svc.drain();
        assert_eq!(t.wait().unwrap().tier, Tier::Full);
        let st = svc.health().stats;
        assert_eq!(st.frugal_runs, 1);
        assert_resolved(&st);
    }

    #[test]
    fn memory_pressure_in_a_batch_demotes_the_overflow_members() {
        let svc = manual(ServiceConfig {
            batch_window: 16,
            batch_max: 8,
            memory_budget: Some(100),
            ..ServiceConfig::default()
        });
        // Four 40-point members: the first two fit under the 100-cell
        // budget and fuse; the third and fourth would overflow the gauge
        // the earlier members just charged, so they execute frugally, solo.
        let tickets: Vec<Ticket> = (0..4)
            .map(|i| svc.submit(req2("acme", 70 + i, 40)).unwrap())
            .collect();
        svc.drain();
        let mut tiers = Vec::new();
        for t in tickets {
            let resp = t.wait().unwrap();
            match resp.value {
                ResponseValue::Hull2d(h) => assert_eq!(h.vertices.len(), 40),
                _ => panic!("wrong value kind"),
            }
            tiers.push(resp.tier);
        }
        assert_eq!(
            tiers.iter().filter(|&&t| t == Tier::Full).count(),
            2,
            "tiers: {tiers:?}"
        );
        assert_eq!(tiers.iter().filter(|&&t| t == Tier::Frugal).count(), 2);
        let st = svc.health().stats;
        assert_eq!(st.batches_formed, 1);
        assert_eq!(st.batch_members, 2, "overflow members stayed unfused");
        assert_eq!(st.frugal_runs, 2);
        assert_resolved(&st);
    }

    #[test]
    fn memory_pressure_soak_walks_the_ladder_and_recovers() {
        // The acceptance soak: chaos traffic under a live workspace budget
        // walks the breaker Full → ReducedRetry → Frugal → Sequential;
        // clean traffic climbs it back via half-open probes. Every request
        // resolves correct-with-certificate or typed, and every frugal
        // run's measured peak stays within the declared budget.
        const BUDGET: u64 = 64;
        let svc = manual(ServiceConfig {
            breaker: BreakerConfig {
                trip_after: 2,
                probe_after: 1,
            },
            memory_budget: Some(BUDGET),
            ..ServiceConfig::default()
        });
        let input = pts(32);
        let check = |resp: &Response| {
            match &resp.value {
                ResponseValue::Hull2d(h) => {
                    ipch_geom::hull_chain::verify_upper_hull(&input, h)
                        .expect("served hull must be the certified hull");
                }
                _ => panic!("wrong value kind"),
            }
            if resp.tier == Tier::Frugal {
                assert!(
                    resp.peak_cells <= BUDGET,
                    "frugal run held {} cells against a budget of {BUDGET}",
                    resp.peak_cells
                );
            }
        };

        let mut ladder = vec![Tier::Full];
        let chaos = FaultPlan {
            corrupt_rate: 1.0,
            ..FaultPlan::default()
        };
        for seed in 0..24u64 {
            if svc.health().breakers.first().map(|b| b.tier) == Some(Tier::Sequential) {
                break;
            }
            let mut r = req2("acme", 100 + seed, 32);
            r.chaos = Some(chaos.clone());
            let t = svc.submit(r).unwrap();
            svc.drain();
            match t.wait() {
                Ok(resp) => check(&resp),
                Err(ServiceError::Run(e)) => assert!(!e.is_terminal(), "strained error: {e}"),
                other => panic!("unexpected resolution: {other:?}"),
            }
            let tier = svc.health().breakers[0].tier;
            if ladder.last() != Some(&tier) {
                ladder.push(tier);
            }
        }
        assert_eq!(
            ladder,
            vec![
                Tier::Full,
                Tier::ReducedRetry,
                Tier::Frugal,
                Tier::Sequential
            ],
            "the walk visited every rung in order"
        );

        // Clean traffic climbs back to Full via half-open probes.
        for seed in 200..224u64 {
            let t = svc.submit(req2("acme", seed, 32)).unwrap();
            svc.drain();
            check(&t.wait().unwrap());
            if svc.health().breakers[0].tier == Tier::Full {
                break;
            }
        }
        let h = svc.health();
        assert_eq!(h.breakers[0].tier, Tier::Full, "recovered via probes");
        assert_eq!(h.stats.breaker_trips, 3);
        assert_eq!(h.stats.breaker_recoveries, 1);
        assert!(h.stats.frugal_runs > 0, "the frugal rung served requests");
        // The workspace ledger: the ServiceStats copy equals the absorbed
        // supervisor book, trip for trip.
        assert_eq!(
            h.stats.workspace_trips,
            svc.metrics().supervisor.workspace_aborts
        );
        assert_resolved(&h.stats);
    }

    #[test]
    fn panics_are_isolated_per_request_and_typed() {
        let svc = manual(ServiceConfig::default());
        let t = svc.submit(req2("acme", 1, 16)).unwrap();
        // Drive the resolution path with a runner that panics, standing in
        // for any non-cancellation unwind escaping a request.
        let job = lock(&svc.shared).queues[0].pop_front().unwrap();
        resolve(&svc.shared, vec![job], |_, _, _, _| {
            panic!("request blew up")
        });
        match t.wait() {
            Err(ServiceError::Run(RunError::Panic { detail, .. })) => {
                assert!(detail.contains("request blew up"));
            }
            other => panic!("expected isolated panic, got {other:?}"),
        }
        let h = svc.health();
        assert_eq!(h.stats.panics_isolated, 1);
        assert_eq!(h.in_flight, 0, "in-flight count released");
        assert_resolved(&h.stats);
        // The breaker saw a strain, not a crash.
        assert_eq!(h.breakers[0].strain_streak, 1);
        // And the service still serves.
        let t2 = svc.submit(req2("acme", 2, 16)).unwrap();
        svc.drain();
        assert!(t2.wait().is_ok());
    }

    #[test]
    fn escaped_cancel_unwind_is_typed_not_a_panic() {
        let svc = manual(ServiceConfig::default());
        let t = svc.submit(req2("acme", 1, 16)).unwrap();
        let job = lock(&svc.shared).queues[0].pop_front().unwrap();
        resolve(&svc.shared, vec![job], |_, _, _, _| {
            std::panic::panic_any(CancelUnwind {
                cause: CancelCause::DeadlineExceeded,
            })
        });
        match t.wait() {
            Err(ServiceError::Run(RunError::DeadlineExceeded { .. })) => {}
            other => panic!("expected typed deadline, got {other:?}"),
        }
        let st = svc.health().stats;
        assert_eq!(st.deadline_exceeded, 1);
        assert_eq!(st.panics_isolated, 0);
        assert_resolved(&st);
    }

    #[test]
    fn worker_threads_serve_and_shutdown_joins() {
        let svc = Service::new(ServiceConfig {
            workers: 2,
            ..ServiceConfig::default()
        });
        let tickets: Vec<Ticket> = (0..8)
            .map(|i| svc.submit(req2("acme", i, 48)).unwrap())
            .collect();
        for t in tickets {
            assert!(t.wait().is_ok());
        }
        let st = svc.health().stats;
        assert_eq!(st.completed, 8);
        assert_resolved(&st);
        let m = svc.shutdown();
        assert_eq!(m.service.completed, 8);
    }

    #[test]
    fn shutdown_rejects_new_submissions_but_drains_the_queue() {
        let svc = manual(ServiceConfig::default());
        let t = svc.submit(req2("acme", 1, 16)).unwrap();
        let m = svc.shutdown();
        assert!(t.wait().is_ok(), "queued work ran during shutdown");
        assert_eq!(m.service.completed, 1);
        assert_resolved(&m.service);
    }

    #[test]
    fn batched_traffic_completes_and_counts_batches() {
        let svc = manual(ServiceConfig {
            batch_window: 16,
            batch_max: 8,
            ..ServiceConfig::default()
        });
        let tickets: Vec<Ticket> = (0..8)
            .map(|i| svc.submit(req2("acme", 100 + i, 32)).unwrap())
            .collect();
        svc.drain();
        for t in tickets {
            let resp = t.wait().unwrap();
            assert_eq!(resp.tier, Tier::Full);
            assert_eq!(resp.outcome, Some(Outcome::FirstTry));
            match resp.value {
                ResponseValue::Hull2d(h) => assert_eq!(h.vertices.len(), 32),
                _ => panic!("wrong value kind"),
            }
        }
        let st = svc.health().stats;
        assert_eq!(st.completed, 8);
        assert_eq!(st.batches_formed, 1, "one fused dispatch");
        assert_eq!(st.batch_members, 8);
        assert_resolved(&st);
    }

    #[test]
    fn batched_results_are_bit_identical_to_unbatched() {
        let run = |batch_window: usize| -> Vec<ResponseValue> {
            let svc = manual(ServiceConfig {
                batch_window,
                batch_max: 8,
                ..ServiceConfig::default()
            });
            let tickets: Vec<Ticket> = (0..6)
                .map(|i| svc.submit(req2("acme", 50 + i, 24 + i as usize)).unwrap())
                .collect();
            svc.drain();
            tickets
                .into_iter()
                .map(|t| t.wait().unwrap().value)
                .collect()
        };
        assert_eq!(run(0), run(16), "fused and solo runs return one hull");
    }

    #[test]
    fn mixed_batch_keeps_ineligible_members_solo() {
        // A chaos-carrying request and a 3-D request interleave with small
        // 2-D ones: the former must not fuse, and everyone resolves.
        let svc = manual(ServiceConfig {
            batch_window: 16,
            batch_max: 8,
            ..ServiceConfig::default()
        });
        let mut tickets = Vec::new();
        for i in 0..3u64 {
            tickets.push(svc.submit(req2("acme", i, 24)).unwrap());
        }
        let mut chaotic = req2("acme", 9, 24);
        chaotic.chaos = Some(FaultPlan::default());
        tickets.push(svc.submit(chaotic).unwrap());
        for i in 4..6u64 {
            tickets.push(svc.submit(req2("acme", i, 24)).unwrap());
        }
        svc.drain();
        for t in tickets {
            assert!(t.wait().is_ok());
        }
        let st = svc.health().stats;
        assert_eq!(st.completed, 6);
        assert_eq!(st.batches_formed, 1);
        assert_eq!(st.batch_members, 5, "chaos request stayed solo");
        assert_resolved(&st);
    }

    #[test]
    fn tenant_affinity_pins_each_tenant_to_one_shard() {
        let svc = manual(ServiceConfig {
            shards: 4,
            ..ServiceConfig::default()
        });
        let mut tickets = Vec::new();
        for i in 0..6u64 {
            tickets.push(svc.submit(req2("pinned", i, 16)).unwrap());
        }
        let h = svc.health();
        assert_eq!(h.shard_depths.len(), 4);
        assert_eq!(h.queue_depth, 6);
        assert_eq!(
            h.shard_depths.iter().filter(|&&d| d > 0).count(),
            1,
            "one tenant lands on exactly one lane: {:?}",
            h.shard_depths
        );
        assert!(h.render().contains("shards=4"));
        svc.drain();
        for t in tickets {
            assert!(t.wait().is_ok());
        }
        assert_resolved(&svc.health().stats);
    }

    #[test]
    fn cancelled_batch_member_resolves_typed_while_siblings_complete() {
        let svc = manual(ServiceConfig {
            batch_window: 16,
            batch_max: 8,
            ..ServiceConfig::default()
        });
        let tickets: Vec<Ticket> = (0..4)
            .map(|i| svc.submit(req2("acme", i, 24)).unwrap())
            .collect();
        tickets[2].cancel();
        svc.drain();
        for (i, t) in tickets.into_iter().enumerate() {
            match t.wait() {
                Ok(resp) => {
                    assert_ne!(i, 2);
                    assert_eq!(resp.outcome, Some(Outcome::FirstTry));
                }
                Err(ServiceError::Run(RunError::Cancelled { .. })) => assert_eq!(i, 2),
                other => panic!("member {i}: unexpected {other:?}"),
            }
        }
        let st = svc.health().stats;
        assert_eq!(st.completed, 3);
        assert_eq!(st.cancelled, 1);
        assert_resolved(&st);
    }

    #[test]
    fn running_request_cancels_mid_flight_at_a_step_boundary() {
        // One worker thread, a big slow request, cancel from the outside:
        // the machine must abort cooperatively and resolve typed.
        let svc = Service::new(ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        });
        let t = svc.submit(req2("acme", 5, 200_000)).unwrap();
        // Cancel as soon as the job is actually running (or immediately if
        // it's still queued — both paths are typed).
        while svc.health().in_flight == 0 && t.try_wait().is_none() {
            std::thread::yield_now();
        }
        t.cancel();
        match t.wait() {
            Err(ServiceError::Run(RunError::Cancelled { .. })) => {}
            Ok(_) => {} // raced to completion first: legal
            other => panic!("expected cancel or completion, got {other:?}"),
        }
        let st = svc.health().stats;
        assert_eq!(st.cancelled + st.completed, 1);
        assert_resolved(&st);
    }

    #[test]
    fn noisy_mode_serves_correct_or_typed_and_books_the_ledger() {
        use ipch_pram::{NoiseMode, NoisePlan};
        let svc = manual(ServiceConfig {
            noise: Some(NoisePlan {
                p: 0.05,
                mode: NoiseMode::Fresh,
            }),
            ..ServiceConfig::default()
        });
        let input = pts(24);
        let tickets: Vec<Ticket> = (0..3)
            .map(|i| svc.submit(req2("acme", 40 + i, 24)).unwrap())
            .collect();
        svc.drain();
        for t in tickets {
            match t.wait() {
                // Success means the noise-free certificate passed: the
                // voted hull must be *the* hull, not a plausible one.
                Ok(resp) => match resp.value {
                    ResponseValue::Hull2d(h) => {
                        ipch_geom::hull_chain::verify_upper_hull(&input, &h).unwrap();
                    }
                    _ => panic!("wrong value kind"),
                },
                Err(ServiceError::Run(e)) => assert!(!e.code().is_empty()),
                other => panic!("unexpected {other:?}"),
            }
        }
        let h = svc.health();
        assert_eq!(h.noise.map(|n| n.p), Some(0.05));
        // Noise actually fired and was voted down.
        assert!(h.faults.predicate_flips > 0, "no flips at p=0.05: {h:?}");
        assert!(h.faults.predicate_votes > 0);
        // The noise-ledger invariant: ServiceStats copies equal the
        // absorbed FaultCounters book.
        assert_eq!(h.stats.noise_flips, h.faults.predicate_flips);
        assert_eq!(h.stats.noise_votes, h.faults.predicate_votes);
        let text = h.render();
        assert!(text.contains("noise=on p=0.05"), "render: {text}");
        assert_resolved(&h.stats);
    }

    #[test]
    fn noisy_mode_serves_hull3d() {
        use ipch_pram::{NoiseMode, NoisePlan};
        let svc = manual(ServiceConfig {
            noise: Some(NoisePlan {
                p: 0.02,
                mode: NoiseMode::Fresh,
            }),
            ..ServiceConfig::default()
        });
        let points: Vec<ipch_geom::Point3> = (0..16)
            .map(|i| {
                let x = (i % 4) as f64;
                let y = (i / 4) as f64;
                ipch_geom::Point3 {
                    x,
                    y,
                    z: -(x * x + y * y) + 0.01 * i as f64,
                }
            })
            .collect();
        let t = svc
            .submit(Request::new(
                "acme",
                11,
                Workload::Hull3d {
                    points: points.clone(),
                },
            ))
            .unwrap();
        svc.drain();
        match t.wait() {
            Ok(resp) => match resp.value {
                ResponseValue::Hull3d(f) => {
                    ipch_hull3d::facet::verify_upper_hull3(&points, &f, false).unwrap();
                }
                _ => panic!("wrong value kind"),
            },
            Err(ServiceError::Run(e)) => assert!(!e.code().is_empty()),
            other => panic!("unexpected {other:?}"),
        }
        let h = svc.health();
        assert_eq!(h.stats.noise_flips, h.faults.predicate_flips);
        assert_eq!(h.stats.noise_votes, h.faults.predicate_votes);
        assert_resolved(&h.stats);
    }

    #[test]
    fn noise_knob_disables_batch_fusion() {
        use ipch_pram::{NoiseMode, NoisePlan};
        let svc = manual(ServiceConfig {
            batch_window: 16,
            batch_max: 8,
            noise: Some(NoisePlan {
                p: 0.02,
                mode: NoiseMode::Fresh,
            }),
            ..ServiceConfig::default()
        });
        let tickets: Vec<Ticket> = (0..4)
            .map(|i| svc.submit(req2("acme", 60 + i, 16)).unwrap())
            .collect();
        svc.drain();
        for t in tickets {
            match t.wait() {
                Ok(_) | Err(ServiceError::Run(_)) => {}
                other => panic!("unexpected {other:?}"),
            }
        }
        let h = svc.health();
        assert_eq!(h.stats.batches_formed, 0, "noisy mode must not fuse");
        assert_eq!(h.stats.noise_flips, h.faults.predicate_flips);
        assert_resolved(&h.stats);
    }

    #[test]
    fn noise_off_runtime_has_zero_noise_counters_and_says_so() {
        let svc = manual(ServiceConfig::default());
        let t = svc.submit(req2("acme", 5, 48)).unwrap();
        svc.drain();
        t.wait().unwrap();
        let h = svc.health();
        assert_eq!(h.noise, None);
        assert_eq!(h.stats.noise_flips, 0);
        assert_eq!(h.stats.noise_votes, 0);
        assert_eq!(h.faults.predicate_flips, 0);
        assert_eq!(h.faults.predicate_votes, 0);
        let text = h.render();
        assert!(
            text.contains("noise=off noise_flips=0 noise_votes=0"),
            "render: {text}"
        );
        assert_resolved(&h.stats);
    }
}
