//! `hulld` — demo traffic driver for the resilient serving runtime.
//!
//! Starts a [`Service`], pushes a mixed batch of requests at it (clean
//! traffic, chaos-injected runs, tight deadlines, malformed inputs, and a
//! few client cancellations), and prints the `/health` snapshot at the
//! end. Usage:
//!
//! ```text
//! hulld [REQUESTS] [WORKERS] [SEED] [--shards S] [--batch-window W] [--batch-max B] [--noise-p P] [--memory-budget C] [--no-precheck]
//! ```
//!
//! Defaults: 200 requests, 2 workers, seed 0xD1CE. The sharding and
//! batching knobs also read the environment (`IPCH_SHARDS`,
//! `IPCH_BATCH_WINDOW`, `IPCH_BATCH_MAX`); an explicit flag wins over its
//! env var. `--noise-p P` (or `IPCH_NOISE_P`) turns on service-wide
//! noisy-predicate mode: every orientation/comparison test lies with
//! probability P and the voted entry points win correctness back (the
//! driver shrinks its workloads accordingly — voting is cubic).
//! `--memory-budget C` (or `IPCH_MEMORY_BUDGET`; 0 = off) sets the
//! service-wide workspace budget in simulator cells: requests admitted
//! past the in-flight aggregate execute at the read-only bounded-
//! workspace tier, and each frugal run is hard-capped at C cells.
//! `--no-precheck` (or `IPCH_PRECHECK=0`) disables the static plan check
//! at admission. Exits non-zero if any request is lost (the resolution
//! invariant fails), the noise ledger disagrees with the absorbed fault
//! counters, or the workspace-trip ledger disagrees with the absorbed
//! supervisor book — the same guarantees the chaos and noise suites
//! enforce, here as an executable smoke test.

use std::time::Duration;

use ipch_geom::{Point2, Point3};
use ipch_pram::{FaultPlan, NoiseMode, NoisePlan};
use ipch_service::{Hull2dAlgo, Request, Service, ServiceConfig, ServiceError, Workload};

/// SplitMix64 step — the driver's own tiny deterministic stream, so the
/// demo replays identically for a given seed.
fn mix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn points2(rng: &mut u64, n: usize) -> Vec<Point2> {
    (0..n)
        .map(|_| {
            let x = (mix(rng) >> 11) as f64 / (1u64 << 53) as f64;
            let y = (mix(rng) >> 11) as f64 / (1u64 << 53) as f64;
            Point2 { x, y }
        })
        .collect()
}

fn points3(rng: &mut u64, n: usize) -> Vec<Point3> {
    (0..n)
        .map(|_| {
            let x = (mix(rng) >> 11) as f64 / (1u64 << 53) as f64;
            let y = (mix(rng) >> 11) as f64 / (1u64 << 53) as f64;
            let z = (mix(rng) >> 11) as f64 / (1u64 << 53) as f64;
            Point3 { x, y, z }
        })
        .collect()
}

/// A knob sourced from an env var, overridable by a CLI flag.
fn env_knob(var: &str, default: usize) -> usize {
    std::env::var(var)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn main() {
    let defaults = ServiceConfig::default();
    let mut shards = env_knob("IPCH_SHARDS", defaults.shards);
    let mut batch_window = env_knob("IPCH_BATCH_WINDOW", defaults.batch_window);
    let mut batch_max = env_knob("IPCH_BATCH_MAX", defaults.batch_max);
    let mut precheck = env_knob("IPCH_PRECHECK", usize::from(defaults.precheck_plans)) != 0;
    // 0 means "no budget" — the env-var spelling of `None`.
    let mut memory_budget = env_knob("IPCH_MEMORY_BUDGET", 0) as u64;
    let mut noise_p: f64 = std::env::var("IPCH_NOISE_P")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0.0);

    let mut positional: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let flag = |args: &mut dyn Iterator<Item = String>| {
            args.next()
                .and_then(|v| v.parse().ok())
                .unwrap_or_else(|| panic!("{a} expects a number"))
        };
        match a.as_str() {
            "--shards" => shards = flag(&mut args),
            "--batch-window" => batch_window = flag(&mut args),
            "--batch-max" => batch_max = flag(&mut args),
            "--memory-budget" => {
                memory_budget = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| panic!("--memory-budget expects a cell count"))
            }
            "--noise-p" => {
                noise_p = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| panic!("--noise-p expects a probability"))
            }
            "--no-precheck" => precheck = false,
            _ => positional.push(a),
        }
    }
    let noise = (noise_p > 0.0).then_some(NoisePlan {
        p: noise_p,
        mode: NoiseMode::Fresh,
    });
    let mut positional = positional.into_iter();
    let requests: usize = positional
        .next()
        .and_then(|a| a.parse().ok())
        .unwrap_or(200);
    let workers: usize = positional.next().and_then(|a| a.parse().ok()).unwrap_or(2);
    let seed: u64 = positional
        .next()
        .and_then(|a| a.parse().ok())
        .unwrap_or(0xD1CE);

    let cfg = ServiceConfig {
        workers,
        queue_capacity: 32,
        per_tenant_inflight: 12,
        shards,
        batch_window,
        batch_max,
        precheck_plans: precheck,
        noise,
        memory_budget: (memory_budget > 0).then_some(memory_budget),
        ..ServiceConfig::default()
    };
    println!(
        "hulld: kernel par threshold {}, {} simulator lane(s) \
         [IPCH_KERNEL_PAR_THRESHOLD / IPCH_THREADS]",
        cfg.tuning.kernel_par_threshold,
        ipch_pram::pool::configured_lanes(),
    );
    println!(
        "hulld: {} queue shard(s), batch window {} / max {} \
         [IPCH_SHARDS / IPCH_BATCH_WINDOW / IPCH_BATCH_MAX]",
        cfg.shards, cfg.batch_window, cfg.batch_max,
    );
    println!(
        "hulld: static plan precheck {} [--no-precheck / IPCH_PRECHECK]",
        if cfg.precheck_plans { "on" } else { "off" },
    );
    match cfg.noise {
        Some(np) => println!(
            "hulld: noisy predicates on, p={} mode={:?} [--noise-p / IPCH_NOISE_P]",
            np.p, np.mode,
        ),
        None => println!("hulld: noisy predicates off [--noise-p / IPCH_NOISE_P]"),
    }
    match cfg.memory_budget {
        Some(b) => {
            println!("hulld: workspace budget {b} cells [--memory-budget / IPCH_MEMORY_BUDGET]")
        }
        None => println!("hulld: workspace budget off [--memory-budget / IPCH_MEMORY_BUDGET]"),
    }
    let noisy_mode = cfg.noise.is_some();
    let svc = Service::new(cfg);

    let mut rng = seed;
    let tenants = ["alpha", "beta", "gamma"];
    let mut tickets = Vec::new();
    let (mut shed_at_admission, mut completed, mut failed, mut shed_later) =
        (0u64, 0u64, 0u64, 0u64);

    for i in 0..requests {
        let r = mix(&mut rng);
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
