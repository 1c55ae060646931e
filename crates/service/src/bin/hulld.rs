//! `hulld` — demo traffic driver for the resilient serving runtime.
//!
//! Starts a [`Service`], pushes a mixed batch of requests at it (clean
//! traffic, chaos-injected runs, tight deadlines, malformed inputs, and a
//! few client cancellations), and prints the `/health` snapshot at the
//! end. Usage:
//!
//! ```text
//! hulld [REQUESTS] [WORKERS] [SEED] [--shards S] [--batch-window W] [--batch-max B] [--noise-p P] [--memory-budget C]
//! ```
//!
//! Defaults: 200 requests, 2 workers, seed 0xD1CE, and the
//! [`ServiceConfig`] defaults for every flag. `--shards S` sets the number
//! of tenant-hashed queue lanes; `--batch-window W` / `--batch-max B` turn
//! on batch admission of small 2-D requests. `--noise-p P` turns on
//! service-wide noisy-predicate mode: every orientation/comparison test
//! lies with probability P and the voted entry points win correctness
//! back (the driver shrinks its workloads accordingly — voting is cubic).
//! `--memory-budget C` (0 = off) sets the service-wide workspace budget in
//! simulator cells: requests admitted past the in-flight aggregate execute
//! at the read-only bounded-workspace tier, and each frugal run is
//! hard-capped at C cells. An unknown flag, a missing or malformed
//! value, or more than three positionals prints the usage line and exits
//! 2 before any request runs. Otherwise exits non-zero if any request is
//! lost (the resolution invariant fails), the noise ledger disagrees with
//! the absorbed fault counters, or the workspace-trip ledger disagrees
//! with the absorbed supervisor book — the same guarantees the chaos and
//! noise suites enforce, here as an executable smoke test.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::time::Duration;

use ipch_geom::{Point2, Point3};
use ipch_pram::rng::SplitMix64;
use ipch_pram::{FaultPlan, NoiseMode, NoisePlan};
use ipch_service::{Hull2dAlgo, Request, Service, ServiceConfig, ServiceError, Workload};

fn points2(rng: &mut SplitMix64, n: usize) -> Vec<Point2> {
    (0..n)
        .map(|_| Point2::new(rng.next_f64(), rng.next_f64()))
        .collect()
}

fn points3(rng: &mut SplitMix64, n: usize) -> Vec<Point3> {
    (0..n)
        .map(|_| Point3::new(rng.next_f64(), rng.next_f64(), rng.next_f64()))
        .collect()
}

const USAGE: &str = "usage: hulld [REQUESTS] [WORKERS] [SEED] [--shards S] \
     [--batch-window W] [--batch-max B] [--noise-p P] [--memory-budget C]";

/// Report a command-line error with the usage line and exit 2.
fn usage_error(msg: &str) -> ! {
    eprintln!("hulld: {msg}\n{USAGE}");
    std::process::exit(2);
}

/// Parse `arg` (named `what` in the error) or exit 2.
fn parse<T: std::str::FromStr>(what: &str, arg: &str) -> T {
    arg.parse()
        .unwrap_or_else(|_| usage_error(&format!("{what}: malformed value `{arg}`")))
}

fn main() {
    let defaults = ServiceConfig::default();
    let (mut shards, mut batch_window, mut batch_max) =
        (defaults.shards, defaults.batch_window, defaults.batch_max);
    // 0 means "no budget" and "no noise".
    let mut memory_budget = 0u64;
    let mut noise_p = 0.0f64;
    let (mut requests, mut workers, mut seed) = (200usize, 2usize, 0xD1CEu64);

    let mut positionals = 0;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut value = || {
            args.next()
                .unwrap_or_else(|| usage_error(&format!("{a} expects a value")))
        };
        match a.as_str() {
            "--shards" => shards = parse(&a, &value()),
            "--batch-window" => batch_window = parse(&a, &value()),
            "--batch-max" => batch_max = parse(&a, &value()),
            "--memory-budget" => memory_budget = parse(&a, &value()),
            "--noise-p" => noise_p = parse(&a, &value()),
            _ if a.starts_with('-') => usage_error(&format!("unknown flag `{a}`")),
            _ => {
                match positionals {
                    0 => requests = parse("REQUESTS", &a),
                    1 => workers = parse("WORKERS", &a),
                    2 => seed = parse("SEED", &a),
                    _ => usage_error(&format!("unexpected argument `{a}`")),
                }
                positionals += 1;
            }
        }
    }
    let noise = (noise_p > 0.0).then_some(NoisePlan {
        p: noise_p,
        mode: NoiseMode::Fresh,
    });

    let cfg = ServiceConfig {
        workers,
        queue_capacity: 32,
        per_tenant_inflight: 12,
        shards,
        batch_window,
        batch_max,
        noise,
        memory_budget: (memory_budget > 0).then_some(memory_budget),
        ..ServiceConfig::default()
    };
    println!(
        "hulld: par threshold {}, {} simulator lane(s) \
         [IPCH_PAR_THRESHOLD / IPCH_THREADS]",
        cfg.tuning.par_threshold,
        ipch_pram::pool::configured_lanes(),
    );
    println!(
        "hulld: {} queue shard(s), batch window {} / max {} \
         [--shards / --batch-window / --batch-max]",
        cfg.shards, cfg.batch_window, cfg.batch_max,
    );
    match cfg.noise {
        Some(np) => println!(
            "hulld: noisy predicates on, p={} mode={:?} [--noise-p]",
            np.p, np.mode,
        ),
        None => println!("hulld: noisy predicates off [--noise-p]"),
    }
    match cfg.memory_budget {
        Some(b) => println!("hulld: workspace budget {b} cells [--memory-budget]"),
        None => println!("hulld: workspace budget off [--memory-budget]"),
    }
    let noisy_mode = cfg.noise.is_some();
    let svc = Service::new(cfg);

    // the driver's own deterministic stream: the demo replays identically
    // for a given seed
    let mut rng = SplitMix64::new(seed);
    let tenants = ["alpha", "beta", "gamma"];
    let mut tickets = Vec::new();
    let (mut shed_at_admission, mut completed, mut failed, mut shed_later) =
        (0u64, 0u64, 0u64, 0u64);

    for i in 0..requests {
        let r = rng.next_u64();
        // Voted noisy runs pay Θ(n³ log n) (2-D) / Θ(n⁴ log n) (3-D)
        // predicate evaluations per attempt; keep the demo snappy.
        let n = if noisy_mode {
            10 + (r % 14) as usize
        } else {
            16 + (r % 240) as usize
        };
        let workload = match r % 3 {
            0 => Workload::Hull2d {
                points: points2(&mut rng, n),
                algo: Hull2dAlgo::Unsorted,
            },
            1 => Workload::Hull2d {
                points: points2(&mut rng, n),
                algo: Hull2dAlgo::Dac,
            },
            _ => Workload::Hull3d {
                points: points3(&mut rng, n),
            },
        };
        let mut req = Request::new(tenants[i % tenants.len()], r, workload);
        match r % 10 {
            // A slice of chaos traffic: corrupted commits defeat the
            // certificate and exercise retry, fallback, and the breakers.
            0 | 1 => {
                req.chaos = Some(FaultPlan {
                    corrupt_rate: 0.5,
                    ..FaultPlan::default()
                })
            }
            // Tight deadlines: some expire in queue, some mid-run.
            2 => req.deadline = Some(Duration::from_micros(r % 300)),
            // Malformed input: typed rejection, no steps run.
            3 => {
                if let Workload::Hull2d { points, .. } = &mut req.workload {
                    points[0].y = f64::NAN;
                }
            }
            _ => {}
        }
        let cancel_this = r.is_multiple_of(17);
        match svc.submit(req) {
            Ok(t) => {
                if cancel_this {
                    t.cancel();
                }
                tickets.push(t);
            }
            Err(e) => {
                assert!(matches!(e, ServiceError::Rejected { .. }));
                shed_at_admission += 1;
            }
        }
        // Keep some back-pressure but let the queue breathe.
        if i % 8 == 7 {
            svc.drain();
        }
    }
    svc.drain();

    for t in tickets {
        match t.wait() {
            Ok(_) => completed += 1,
            Err(e) if e.is_shed() => shed_later += 1,
            Err(_) => failed += 1,
        }
    }

    let health = svc.health();
    print!("{}", health.render());
    println!(
        "driver: completed={completed} failed_typed={failed} \
         shed_at_admission={shed_at_admission} shed_in_queue={shed_later}"
    );

    let stats = health.stats;
    if stats.submitted != stats.total_resolved() {
        eprintln!(
            "LOST REQUESTS: submitted={} resolved={}",
            stats.submitted,
            stats.total_resolved()
        );
        std::process::exit(1);
    }
    // The noise-ledger invariant: the ServiceStats copies must agree with
    // the absorbed fault counters, flip for flip and vote for vote.
    if stats.noise_flips != health.faults.predicate_flips
        || stats.noise_votes != health.faults.predicate_votes
    {
        eprintln!(
            "NOISE LEDGER MISMATCH: stats=({}, {}) faults=({}, {})",
            stats.noise_flips,
            stats.noise_votes,
            health.faults.predicate_flips,
            health.faults.predicate_votes
        );
        std::process::exit(1);
    }
    let m = svc.shutdown();
    // The workspace ledger: the ServiceStats trip count must agree with
    // the absorbed supervisor book.
    if m.service.workspace_trips != m.supervisor.workspace_aborts {
        eprintln!(
            "WORKSPACE LEDGER MISMATCH: stats={} supervisor={}",
            m.service.workspace_trips, m.supervisor.workspace_aborts
        );
        std::process::exit(1);
    }
    println!(
        "aggregate: steps={} work={} attempts={} fallbacks={} cancellations={} \
         peak_live_cells={} workspace_trips={}",
        m.steps,
        m.work,
        m.supervisor.attempts,
        m.supervisor.fallbacks,
        m.supervisor.cancellations,
        m.peak_live_cells,
        m.service.workspace_trips,
    );
}
