//! Workloads and their seeded request plans.
//!
//! A plan is a pure function of `(workload, seed, requests)`: every input
//! point set and every machine seed derives from the workload seed through
//! [`mix`], so two runs with the same seed submit byte-identical requests
//! and the service sees nothing but the generated inputs.

use std::time::Duration;

use ipch_geom::gen3d::{in_ball, on_sphere};
use ipch_geom::generators::{on_circle, uniform_disk};
use ipch_service::{Hull2dAlgo, ServiceConfig, Workload};

/// One named benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Closed loop, one client, §3 unsorted 2-D hulls of n ∈ {256, 1024, 4096}.
    Solo2d,
    /// Closed loop, one client, 3-D hulls of n ∈ {64, 128, 256}.
    Solo3d,
    /// Open loop: bursts of 16 small 2-D requests every 40 ms, batching on.
    BurstSmall,
}

/// Input distribution of one request.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Shape {
    /// `uniform_disk`: h ≈ n^⅓.
    Disk,
    /// `on_circle`: h = n.
    Circle,
    /// `in_ball`: Θ(√n) facets.
    Ball,
    /// `on_sphere`: every point a hull vertex.
    Sphere,
}

/// Burst period of the open loop.
pub const BURST_PERIOD: Duration = Duration::from_millis(40);
/// Tenants per burst.
pub const BURST_TENANTS: [&str; 4] = ["t0", "t1", "t2", "t3"];
/// Requests each tenant sends per burst.
pub const PER_TENANT: usize = 4;
/// Requests per burst (16 every 40 ms: 400 req/s mean).
pub const BURST: usize = BURST_TENANTS.len() * PER_TENANT;

/// The solo-2d mix, one cycle. The n = 1024 circle class carries three
/// eighths of the weight, so the median request falls inside that one
/// mode rather than between two size or shape modes.
const SOLO2D_CYCLE: [(Shape, usize); 8] = [
    (Shape::Disk, 256),
    (Shape::Circle, 256),
    (Shape::Disk, 1024),
    (Shape::Circle, 1024),
    (Shape::Circle, 1024),
    (Shape::Circle, 1024),
    (Shape::Disk, 4096),
    (Shape::Circle, 4096),
];

/// The solo-3d mix, one cycle.
const SOLO3D_CYCLE: [(Shape, usize); 6] = [
    (Shape::Ball, 64),
    (Shape::Sphere, 64),
    (Shape::Ball, 128),
    (Shape::Sphere, 128),
    (Shape::Ball, 256),
    (Shape::Sphere, 256),
];

impl Kind {
    /// Every workload, in reporting order.
    pub const ALL: [Kind; 3] = [Kind::Solo2d, Kind::Solo3d, Kind::BurstSmall];

    /// Parse a workload name as given on the command line.
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Solo2d => "solo-2d",
            Kind::Solo3d => "solo-3d",
            Kind::BurstSmall => "burst-small",
        }
    }

    /// True for the open-loop (scheduled-arrival) workload.
    pub fn open_loop(self) -> bool {
        self == Kind::BurstSmall
    }

    /// The service configuration the workload runs against.
    pub fn config(self) -> ServiceConfig {
        let mut cfg = ServiceConfig::default();
        if self == Kind::BurstSmall {
            cfg.batch_window = 16;
            cfg.batch_max = 8;
            cfg.shards = 2;
        }
        cfg
    }

    /// Requests in one cycle of the mix (a burst for the open loop). Plans
    /// always hold whole cycles.
    pub fn cycle(self) -> usize {
        match self {
            Kind::Solo2d => SOLO2D_CYCLE.len(),
            Kind::Solo3d => SOLO3D_CYCLE.len(),
            Kind::BurstSmall => BURST,
        }
    }

    /// The fixed request count of a run measuring about `seconds`: the
    /// open loop's schedule length, or the closed loops' nominal rate on a
    /// 2-core x86-64 host, rounded up to whole cycles.
    pub fn requests(self, seconds: u64) -> usize {
        let per_second = match self {
            Kind::Solo2d => 12.0,
            Kind::Solo3d => 7.0,
            Kind::BurstSmall => BURST as f64 / BURST_PERIOD.as_secs_f64(),
        };
        let cycles = (per_second * seconds as f64 / self.cycle() as f64).ceil() as usize;
        cycles.max(1) * self.cycle()
    }
}

/// One planned request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Planned {
    /// Position in the plan (the request id in traces).
    pub index: usize,
    /// Input distribution.
    pub shape: Shape,
    /// Input size.
    pub n: usize,
    /// Seed of the input generator.
    pub input_seed: u64,
    /// Machine seed the request carries.
    pub machine_seed: u64,
    /// Tenant the request is submitted as.
    pub tenant: &'static str,
    /// When the request is due, from the start of the window (open loop;
    /// zero for closed loops, whose client sends on completion).
    pub due: Duration,
}

impl Planned {
    /// Generate the request's workload (deterministic in the plan entry).
    pub fn workload(&self) -> Workload {
        let (n, s) = (self.n, self.input_seed);
        match self.shape {
            Shape::Disk => hull2d(uniform_disk(n, s)),
            Shape::Circle => hull2d(on_circle(n, s)),
            Shape::Ball => Workload::Hull3d {
                points: in_ball(n, s),
            },
            Shape::Sphere => Workload::Hull3d {
                points: on_sphere(n, s),
            },
        }
    }
}

fn hull2d(points: Vec<ipch_geom::Point2>) -> Workload {
    Workload::Hull2d {
        points,
        algo: Hull2dAlgo::Unsorted,
    }
}

/// SplitMix64 finaliser over `(seed, stream, index)`: the one source of
/// every derived seed.
pub fn mix(seed: u64, stream: u64, index: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0xD1B5_4A32_D192_ED03))
        .wrapping_add(index.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

const INPUT: u64 = 1;
const MACHINE: u64 = 2;
const SIZE: u64 = 3;

/// The first `requests` requests of `kind`'s plan under `seed`.
pub fn plan(kind: Kind, seed: u64, requests: usize) -> Vec<Planned> {
    (0..requests)
        .map(|i| {
            let k = i as u64;
            let (shape, n, tenant, due) = match kind {
                Kind::Solo2d => {
                    let (s, n) = SOLO2D_CYCLE[i % SOLO2D_CYCLE.len()];
                    (s, n, "client", Duration::ZERO)
                }
                Kind::Solo3d => {
                    let (s, n) = SOLO3D_CYCLE[i % SOLO3D_CYCLE.len()];
                    (s, n, "client", Duration::ZERO)
                }
                Kind::BurstSmall => {
                    let n = 32 + (mix(seed, SIZE, k) % 65) as usize;
                    let tenant = BURST_TENANTS[(i % BURST) / PER_TENANT];
                    (Shape::Disk, n, tenant, BURST_PERIOD * (i / BURST) as u32)
                }
            };
            Planned {
                index: i,
                shape,
                n,
                input_seed: mix(seed, INPUT, k),
                machine_seed: mix(seed, MACHINE, k),
                tenant,
                due,
            }
        })
        .collect()
}

/// Seed of the warm-up requests: fixed, so set-up does the same work
/// whatever the workload seed.
const WARMUP_SEED: u64 = 0x5EED_0000_57A7;

/// Untimed warm-up requests sent during set-up: they spawn the service
/// workers' lazy state (simulator thread pool, plan registry, batch path)
/// before the first timed request.
pub fn warmup(kind: Kind) -> Vec<Planned> {
    let count = match kind {
        Kind::Solo2d => 2,
        Kind::Solo3d => 1,
        Kind::BurstSmall => BURST,
    };
    let mut reqs = plan(kind, WARMUP_SEED, count);
    for r in &mut reqs {
        r.n = r.n.min(256);
        r.due = Duration::ZERO;
    }
    reqs
}
