//! Set-up, the timed passes and the traced replays.
//!
//! Everything here goes through public entry points only: the service is
//! driven with `Service::submit` / `Ticket::wait`, its layers are read
//! through `Service::metrics()` and `Service::health()` deltas, and the
//! replays call the supervised algorithms, certificates, validators and
//! host reference hulls directly.

use std::sync::mpsc;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use ipch_geom::validate::{validate_points2, validate_points3};
use ipch_hull2d::parallel::supervised::upper_hull_unsorted_supervised;
use ipch_hull2d::parallel::unsorted::UnsortedParams;
use ipch_hull2d::verify_upper_hull;
use ipch_hull3d::parallel::supervised::upper_hull3_unsorted_supervised;
use ipch_hull3d::parallel::unsorted3d::Unsorted3Params;
use ipch_hull3d::verify_upper_hull3;
use ipch_pram::{Machine, Metrics, SuperviseConfig};
use ipch_service::{Request, Response, ResponseValue, Service, ServiceError, Workload};

use crate::check;
use crate::plan::{self, Kind, Planned};
use crate::trace::Tracer;

/// Waiter threads of the open loop: one per request that can be in
/// flight (4 tenants × the default per-tenant limit of 8).
const WAITERS: usize = 32;

/// What one request came back with.
#[derive(Debug)]
pub struct Record {
    /// Plan index.
    pub index: usize,
    /// Submit-to-result time (closed loop) or due-to-result time (open
    /// loop). `None` when the request was refused at submission.
    pub latency: Option<Duration>,
    /// Time spent inside `Service::submit`.
    pub submit: Duration,
    /// The service's answer.
    pub result: Result<Response, ServiceError>,
}

/// One timed pass over a plan.
#[derive(Debug)]
pub struct Pass {
    /// One record per planned request, in plan order.
    pub records: Vec<Record>,
    /// From the first request's due (or send) time to the last result.
    pub window: Duration,
    /// `Service::metrics()` just before the first request.
    pub before: Metrics,
    /// `Service::metrics()` after the last result.
    pub after: Metrics,
    /// Largest `Service::health().queue_depth` sampled (once per burst, or
    /// once per request in a closed loop).
    pub depth_max: usize,
    /// How late the open-loop generator sent a burst, at worst.
    pub late_max: Duration,
    /// Closed loops: one entry per mix cycle (empty for the open loop).
    pub cycles: Vec<Cycle>,
}

/// One mix cycle of a closed loop.
#[derive(Clone, Copy, Debug)]
pub struct Cycle {
    /// From the cycle's first send to its last result.
    pub wall: Duration,
    /// `Metrics::total_work()` the cycle added.
    pub work: u64,
}

/// A service with its warm-up done and the plan's inputs generated.
pub fn setup(kind: Kind, plan: &[Planned]) -> (Service, Vec<Workload>) {
    let inputs: Vec<Workload> = plan.iter().map(Planned::workload).collect();
    let svc = Service::new(kind.config());
    // Warm up the way the workload loads the service: the open loop sends
    // its burst at once, a closed-loop client one request at a time (two
    // live machines would race on the shared pool). Warm-up answers are
    // not measured; a failed warm-up shows up in the timed requests.
    let warmup = plan::warmup(kind);
    if kind.open_loop() {
        let tickets: Vec<_> = warmup
            .iter()
            .map(|p| svc.submit(request(p, p.workload())))
            .collect();
        for t in tickets {
            let _ = t.map(|t| t.wait());
        }
    } else {
        for p in &warmup {
            let _ = svc.submit(request(p, p.workload())).map(|t| t.wait());
        }
    }
    (svc, inputs)
}

fn request(p: &Planned, w: Workload) -> Request {
    Request::new(p.tenant, p.machine_seed, w)
}

/// Run `plan` against `svc`, recording spans into `tracer` when given.
pub fn pass(
    svc: &Service,
    kind: Kind,
    plan: &[Planned],
    inputs: Vec<Workload>,
    tracer: Option<&Tracer>,
) -> Pass {
    let before = svc.metrics();
    let mut p = if kind.open_loop() {
        open_loop(svc, plan, inputs, tracer)
    } else {
        closed_loop(svc, kind.cycle(), plan, inputs, tracer)
    };
    p.before = before;
    p.after = svc.metrics();
    p.records.sort_by_key(|r| r.index);
    p
}

fn closed_loop(
    svc: &Service,
    cycle: usize,
    plan: &[Planned],
    inputs: Vec<Workload>,
    tracer: Option<&Tracer>,
) -> Pass {
    let mut records = Vec::with_capacity(plan.len());
    let mut cycles = Vec::with_capacity(plan.len() / cycle);
    let mut depth_max = 0;
    let start = Instant::now();
    let mut end = start;
    let mut cycle_start = start;
    let mut cycle_work = svc.metrics().total_work();
    for (p, w) in plan.iter().zip(inputs) {
        let t0 = Instant::now();
        if p.index % cycle == 0 {
            cycle_start = t0;
        }
        let submitted = svc.submit(request(p, w));
        let t1 = Instant::now();
        let result = submitted.and_then(|t| t.wait());
        let t2 = Instant::now();
        if let Some(tr) = tracer {
            let root = tr.id();
            tr.record(tr.id(), Some(root), p.index, "service.submit", t0, t1);
            tr.record(tr.id(), Some(root), p.index, "service.wait", t1, t2);
            tr.record(root, None, p.index, "loadgen.request", t0, t2);
        }
        depth_max = depth_max.max(svc.health().queue_depth);
        records.push(Record {
            index: p.index,
            latency: Some(t2 - t0),
            submit: t1 - t0,
            result,
        });
        end = t2;
        if p.index % cycle == cycle - 1 {
            let work = svc.metrics().total_work();
            cycles.push(Cycle {
                wall: t2 - cycle_start,
                work: work - cycle_work,
            });
            cycle_work = work;
        }
    }
    Pass {
        records,
        window: end - start,
        before: Metrics::new(),
        after: Metrics::new(),
        depth_max,
        late_max: Duration::ZERO,
        cycles,
    }
}

/// A submitted open-loop request handed to a waiter thread.
struct Job {
    index: usize,
    due: Instant,
    sent: Instant,
    submit: Duration,
    root: u32,
    ticket: ipch_service::Ticket,
}

fn open_loop(
    svc: &Service,
    plan: &[Planned],
    inputs: Vec<Workload>,
    tracer: Option<&Tracer>,
) -> Pass {
    let (tx, rx) = mpsc::channel::<Job>();
    let rx = Mutex::new(rx);
    let mut records = Vec::with_capacity(plan.len());
    let mut depth_max = 0;
    let mut late_max = Duration::ZERO;
    // A little lead so the first burst is not already late.
    let start = Instant::now() + Duration::from_millis(2);
    let mut ends = Vec::new();
    std::thread::scope(|s| {
        let waiters: Vec<_> = (0..WAITERS)
            .map(|_| {
                std::thread::Builder::new()
                    .stack_size(256 << 10)
                    .spawn_scoped(s, || waiter(&rx, tracer))
                    .expect("spawn a waiter thread")
            })
            .collect();
        let mut inputs = inputs.into_iter();
        for burst in plan.chunks(plan::BURST) {
            let due = start + burst[0].due;
            let now = Instant::now();
            if now < due {
                std::thread::sleep(due - now);
            }
            late_max = late_max.max(Instant::now().saturating_duration_since(due));
            for p in burst {
                let w = inputs.next().expect("one input per planned request");
                let t0 = Instant::now();
                let submitted = svc.submit(request(p, w));
                let t1 = Instant::now();
                let root = tracer.map_or(0, |tr| {
                    let root = tr.id();
                    tr.record(tr.id(), Some(root), p.index, "service.submit", t0, t1);
                    root
                });
                match submitted {
                    Ok(ticket) => tx
                        .send(Job {
                            index: p.index,
                            due,
                            sent: t1,
                            submit: t1 - t0,
                            root,
                            ticket,
                        })
                        .expect("waiters outlive the generator"),
                    Err(e) => {
                        if let Some(tr) = tracer {
                            tr.record(root, None, p.index, "loadgen.request", due, t1);
                        }
                        records.push(Record {
                            index: p.index,
                            latency: None,
                            submit: t1 - t0,
                            result: Err(e),
                        });
                    }
                }
            }
            depth_max = depth_max.max(svc.health().queue_depth);
        }
        drop(tx);
        for w in waiters {
            let (recs, end) = w.join().expect("waiter thread panicked");
            records.extend(recs);
            ends.push(end);
        }
    });
    let end = ends.into_iter().flatten().max().unwrap_or(start);
    Pass {
        records,
        window: end.saturating_duration_since(start),
        before: Metrics::new(),
        after: Metrics::new(),
        depth_max,
        late_max,
        cycles: Vec::new(),
    }
}

/// Block on tickets until the generator hangs up; returns the records and
/// the latest completion time seen.
fn waiter(
    rx: &Mutex<mpsc::Receiver<Job>>,
    tracer: Option<&Tracer>,
) -> (Vec<Record>, Option<Instant>) {
    let mut out = Vec::new();
    let mut last = None;
    loop {
        let job = {
            let rx = rx
                .lock()
                .expect("a waiter panicked while holding the queue");
            rx.recv()
        };
        let Ok(job) = job else {
            return (out, last);
        };
        let result = job.ticket.wait();
        let done = Instant::now();
        if let Some(tr) = tracer {
            tr.record(
                tr.id(),
                Some(job.root),
                job.index,
                "service.wait",
                job.sent,
                done,
            );
            tr.record(job.root, None, job.index, "loadgen.request", job.due, done);
        }
        last = last.max(Some(done));
        out.push(Record {
            index: job.index,
            latency: Some(done - job.due),
            submit: job.submit,
            result,
        });
    }
}

/// Outcome of checking a pass against the host reference.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Checked {
    /// Completed requests whose answer matched the reference.
    pub correct: usize,
    /// Completed requests whose answer differed from the reference.
    pub wrong: usize,
    /// Correct 3-D answers that list fewer facets than the reference
    /// (see [`check::Verdict::Partial`]).
    pub partial: usize,
}

/// Compare every completed answer with the host reference answer.
pub fn check(plan: &[Planned], p: &Pass) -> Checked {
    let mut c = Checked::default();
    for r in &p.records {
        if let Ok(resp) = &r.result {
            let w = plan[r.index].workload();
            match check::verdict(&w, &resp.value, &check::reference(&w)) {
                check::Verdict::Exact => c.correct += 1,
                check::Verdict::Partial => {
                    c.correct += 1;
                    c.partial += 1;
                }
                check::Verdict::Wrong => c.wrong += 1,
            }
        }
    }
    c
}

/// Direct calls replayed on one served request after the timed window.
#[derive(Clone, Copy, Debug)]
pub struct Replay {
    /// Served latency of the request.
    pub served: Duration,
    /// The same request as a direct supervised call (same machine seed).
    pub direct: Duration,
    /// The certificate on the served answer.
    pub cert: Duration,
    /// Input validation.
    pub validate: Duration,
    /// The host reference hull.
    pub reference: Duration,
}

/// Replay served requests in plan order, one at a time, until `budget`
/// is spent: input validation, host reference hull, certificate on the
/// served answer, then the same request as a direct supervised call.
pub fn replay(
    kind: Kind,
    plan: &[Planned],
    p: &Pass,
    tracer: &Tracer,
    budget: Duration,
) -> Vec<Replay> {
    let start = Instant::now();
    let tuning = kind.config().tuning;
    let scfg = SuperviseConfig {
        max_attempts: kind.config().max_attempts,
    };
    let mut out = Vec::new();
    for r in &p.records {
        if start.elapsed() >= budget {
            break;
        }
        let (Ok(resp), Some(served)) = (&r.result, r.latency) else {
            continue;
        };
        let planned = &plan[r.index];
        let w = planned.workload();
        let root = tracer.id();
        let t0 = Instant::now();
        let timed = |name, f: &mut dyn FnMut()| tracer.time(Some(root), r.index, name, f).1;
        let mut m = Machine::new(planned.machine_seed);
        m.tuning = tuning;
        let (validate, reference, cert, direct) = match (&w, &resp.value) {
            (Workload::Hull2d { points, .. }, ResponseValue::Hull2d(hull)) => (
                timed("geom.validate", &mut || {
                    std::hint::black_box(validate_points2(points).is_ok());
                }),
                timed("seq.reference", &mut || {
                    std::hint::black_box(check::reference(&w));
                }),
                timed("supervise.certificate", &mut || {
                    std::hint::black_box(verify_upper_hull(points, hull).is_ok());
                }),
                timed("pram.direct", &mut || {
                    let s = upper_hull_unsorted_supervised(
                        &mut m,
                        points,
                        &UnsortedParams::default(),
                        &scfg,
                    );
                    std::hint::black_box(s.is_ok());
                }),
            ),
            (Workload::Hull3d { points }, ResponseValue::Hull3d(facets)) => (
                timed("geom.validate", &mut || {
                    std::hint::black_box(validate_points3(points).is_ok());
                }),
                timed("seq.reference", &mut || {
                    std::hint::black_box(check::reference(&w));
                }),
                timed("supervise.certificate", &mut || {
                    std::hint::black_box(verify_upper_hull3(points, facets, false).is_ok());
                }),
                timed("pram.direct", &mut || {
                    let s = upper_hull3_unsorted_supervised(
                        &mut m,
                        points,
                        &Unsorted3Params::default(),
                        &scfg,
                    );
                    std::hint::black_box(s.is_ok());
                }),
            ),
            _ => continue,
        };
        tracer.record(root, None, r.index, "replay.request", t0, Instant::now());
        out.push(Replay {
            served,
            direct,
            cert,
            validate,
            reference,
        });
    }
    out
}
